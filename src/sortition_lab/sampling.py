"""Uniform panel draws, exhaustive enumeration, and a seeded Monte Carlo engine.

Trials are drawn in fixed blocks of ``TRIAL_BLOCK`` = 64. Block ``b`` of a
plan draws from its own counter-based stream: numpy's ``Philox`` keyed on the
seed, with ``b`` in the counter (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC'11). Distinct seeds therefore give independent streams,
and a block's panels do not depend on the order in which blocks are drawn.
Each block is one sorted ``(rows, k)`` member matrix, which a statistic maps
to its ``(rows,)`` or ``(rows, m)`` values in one call; ``trial_values`` is
the one loop over the blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from typing import Callable, Iterator

import numpy as np

from .model import Mode, Panel

_MASK64 = (1 << 64) - 1

#: Trials per block: each block draws from its own stream and is scored at once.
TRIAL_BLOCK = 64

#: Largest number of panels enumerate_panels will generate.
ENUMERATION_CAP = 10**6

Z_95 = 1.96


@dataclass(frozen=True)
class TrialPlan:
    """A reproducible batch of panel draws."""

    n: int
    k: int
    mode: Mode = Mode.WITHOUT_REPLACEMENT
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("panel size must be at least 1")
        if self.mode is Mode.WITHOUT_REPLACEMENT and self.k > self.n:
            raise ValueError(f"k={self.k} exceeds n={self.n} without replacement")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    half_width_95: float
    trials: int

    def __post_init__(self):
        if self.half_width_95 < 0:
            raise ValueError("half width must be nonnegative")


class StatisticError(RuntimeError):
    """A statistic raised during a Monte Carlo trial."""

    def __init__(self, trial: int, cause: BaseException):
        super().__init__(f"statistic failed on trial {trial}: {cause!r}")
        self.trial = trial


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for substream ``index`` of a seed (block ``index`` of a plan).

    Philox keyed on the low 64 bits of the seed, with the index in the third
    counter word: the substreams of one seed never overlap, and different
    keys give unrelated streams.
    """
    bits = np.random.Philox(key=int(seed) & _MASK64, counter=[0, 0, int(index), 0])
    return np.random.Generator(bits)


def derived_seed(seed: int, *indices: int) -> int:
    """Stable sub-seed for nested experiment loops."""
    out = int(seed) & _MASK64
    for idx in indices:
        # splitmix-style spacing keeps sibling sub-seed streams disjoint
        out = (out + 0x9E3779B97F4A7C15 * (int(idx) + 1)) & _MASK64
    return out


def draw_panel(n: int, k: int, mode: Mode, rng: np.random.Generator) -> Panel:
    """One uniform panel draw.

    Without replacement: partial Fisher-Yates over 0..n-1, so every k-subset
    has probability 1 / C(n, k). With replacement: k i.i.d. uniform indices.
    """
    TrialPlan(n, k, mode)  # the panel-size checks of a Monte Carlo plan
    if mode is Mode.WITHOUT_REPLACEMENT:
        # swaps on a list of ints: the same swaps on numpy scalars cost
        # several times more per element
        idx = list(range(n))
        for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        members = sorted(idx[:k])
    else:
        members = np.sort(rng.integers(0, n, size=k)).tolist()
    return Panel(n, tuple(members), mode)


def enumerate_panels(n: int, k: int, mode: Mode) -> Iterator[tuple[Panel, Fraction]]:
    """All panels with their exact probabilities (rational arithmetic).

    With replacement the ordered draws are collapsed to multisets, so each
    panel carries the multinomial count of its orderings over n^k.
    """
    denom = math.comb(n, k) if mode is Mode.WITHOUT_REPLACEMENT else n**k
    # few distinct weights occur, and building a Fraction costs more than a panel
    prob = functools.cache(lambda weight: Fraction(weight, denom))
    for members, weight in _weighted_panels(n, k, mode):
        yield Panel(n, members, mode), prob(weight)


def _weighted_panels(n: int, k: int, mode: Mode) -> Iterator[tuple[tuple[int, ...], int]]:
    """Members of every panel with its integer count of draws.

    The count is 1 for a subset drawn without replacement (over C(n, k))
    and the number of orderings of the multiset with replacement (over n^k).
    """
    if mode is Mode.WITHOUT_REPLACEMENT:
        if k > n:
            raise ValueError(f"k={k} exceeds n={n} without replacement")
        total = math.comb(n, k)
        if total > ENUMERATION_CAP:
            raise ValueError(f"C({n},{k}) = {total} exceeds the enumeration cap")
        for members in combinations(range(n), k):
            yield members, 1
    else:
        total = math.comb(n + k - 1, k)
        if total > ENUMERATION_CAP:
            raise ValueError(f"{total} multisets exceed the enumeration cap")
        kfact = math.factorial(k)
        for members in combinations_with_replacement(range(n), k):
            orderings = kfact  # k! over the product of multiplicity factorials
            for _, run in groupby(members):
                orderings //= math.factorial(len(list(run)))
            yield members, orderings


def block_members(plan: TrialPlan, block: int) -> np.ndarray:
    """Sorted (rows, k) member matrix of one block of trials.

    Rows are trials ``block * TRIAL_BLOCK`` onwards, drawn from
    ``trial_rng(plan.seed, block)``. Without replacement every row is a
    partial Fisher-Yates shuffle of 0..n-1, done as k column swaps over all
    rows at once, so every k-subset has probability 1 / C(n, k); with
    replacement a row holds k i.i.d. uniform indices.
    """
    n, k = plan.n, plan.k
    rows = min(TRIAL_BLOCK, plan.trials - block * TRIAL_BLOCK)
    rng = trial_rng(plan.seed, block)
    if plan.mode is Mode.WITH_REPLACEMENT:
        return np.sort(rng.integers(0, n, size=(rows, k)), axis=1)
    swaps = rng.integers(np.arange(k), n, size=(rows, k))
    # position p of row r lives at perm[p * rows + r], so position p of
    # every row is one contiguous column and swap i is three vector steps
    perm = np.repeat(np.arange(n), rows)
    columns = perm[: k * rows].reshape(k, rows)
    for column, target in zip(columns, swaps.T * rows + np.arange(rows)):
        held = column.copy()
        column[:] = perm[target]
        perm[target] = held
    return np.sort(columns.T, axis=1)


def trial_values(plan: TrialPlan, statistic: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The statistic's value on every trial of the plan, in trial order.

    The statistic maps a block's ``(rows, k)`` member matrix to ``(rows,)``
    or ``(rows, m)`` values, through its ``batch`` method if it has one
    (``PanelWasserstein``); the result is ``(trials,)`` or ``(trials, m)``,
    sized from the first block. This is the one loop over trial blocks. A
    failure raises ``StatisticError`` for the first row of the failing block
    that fails alone, else for the block's first trial.
    """
    score = getattr(statistic, "batch", statistic)
    values = None
    for block in range(-(-plan.trials // TRIAL_BLOCK)):
        members = block_members(plan, block)
        first = block * TRIAL_BLOCK
        try:
            scored = score(members)
            if values is None:
                values = np.empty((plan.trials, *np.shape(scored)[1:]))
            values[first : first + len(members)] = scored
        except Exception as exc:  # surfaced with the failing trial
            raise StatisticError(_failing_trial(score, members, first), exc) from exc
    return values


def _failing_trial(score, members: np.ndarray, first: int) -> int:
    for trial, row in enumerate(members, first):
        try:
            score(row[None, :])
        except Exception:
            return trial
    return first


def monte_carlo(plan: TrialPlan, statistic: Callable[[np.ndarray], np.ndarray]) -> EstimateWithCI:
    """Sample mean of a pure block statistic with a 95% confidence interval.

    The values come from ``trial_values``, so the estimate depends only on
    the plan and the statistic.
    """
    return mean_ci(trial_values(plan, statistic))


def mean_ci(values: np.ndarray) -> EstimateWithCI:
    """Sample mean of trial values with a 95% confidence interval.

    For indicator values whose empirical proportion sits near 0 or 1, the
    Wilson interval replaces the normal approximation.
    """
    trials = values.size
    mean = float(np.mean(values))
    if trials == 1:
        return EstimateWithCI(mean, 0.0, 1)
    half = Z_95 * float(np.std(values, ddof=1)) / math.sqrt(trials)
    if _is_indicator(values):
        successes = float(np.sum(values))
        if _needs_wilson(successes, trials):
            half = _wilson_half_width(successes, trials)
    return EstimateWithCI(mean, half, trials)


def proportion_ci(successes: float, trials: int) -> EstimateWithCI:
    """95% interval for a proportion; Wilson when the counts are extreme."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = successes / trials
    if trials == 1:
        return EstimateWithCI(p, 0.0, 1)
    if _needs_wilson(successes, trials):
        half = _wilson_half_width(successes, trials)
    else:
        half = Z_95 * math.sqrt(p * (1.0 - p) / trials)
    return EstimateWithCI(p, half, trials)


def _is_indicator(values: np.ndarray) -> bool:
    return bool(np.all((values == 0.0) | (values == 1.0)))


def _needs_wilson(successes: float, trials: int) -> bool:
    # degenerate all-0/all-1 samples keep the zero width of a constant statistic
    return 0.0 < successes < trials and min(successes, trials - successes) < 5.0


def _wilson_half_width(successes: float, trials: int) -> float:
    z2 = Z_95 * Z_95
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    spread = Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = max(0.0, center - spread)
    hi = min(1.0, center + spread)
    return (hi - lo) / 2.0
