"""Uniform panel draws, exact count classes, and a seeded Monte Carlo engine.

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

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import Mode, Panel

_MASK64 = (1 << 64) - 1

#: Trials per block: each block draws from its own stream and is scored at once.
TRIAL_BLOCK = 64

Z_95 = 1.96


@dataclass(frozen=True)
class TrialPlan:
    """A reproducible batch of panel draws; the one check of a panel spec (n, k, mode)."""

    n: int
    k: int
    mode: Mode = Mode.WITHOUT_REPLACEMENT
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))
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
    """One uniform panel draw from ``rng``: one row of ``_draw_rows``."""
    mode = TrialPlan(n, k, mode).mode
    return Panel(n, tuple(_draw_rows(rng, n, k, mode, 1)[0].tolist()), mode)


def count_classes(sizes: Sequence[int], k: int, mode: Mode) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every count vector t of a uniform size-k panel over groups of equal agents, with its integer number of draws.

    Group j holds ``sizes[j]`` agents and t_j panel members. A class holds
    prod_j C(s_j, t_j) of the C(n, k) subsets without replacement, and
    prod_j C(t_j + ... + t_d, t_j) * s_j^t_j of the n^k ordered draws with it
    (the multinomial as a chain of binomials). Classes with no draws are
    skipped. The work is the number of classes, at most C(k+d-1, d-1) for d
    groups, whatever n is.
    """
    sizes = tuple(sizes)
    replace = TrialPlan(sum(sizes), k, mode).mode is Mode.WITH_REPLACEMENT
    cap = [(k if s else 0) if replace else s for s in sizes]  # most members group j can hold
    room = [sum(cap[j + 1 :]) for j in range(len(sizes))]  # most the groups after j can hold

    def classes(j: int, left: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if j == len(sizes):
            yield (), 1
            return
        for t in range(max(0, left - room[j]), min(cap[j], left) + 1):
            weight = math.comb(left, t) * sizes[j] ** t if replace else math.comb(sizes[j], t)
            for tail, rest in classes(j + 1, left - t):
                yield (t, *tail), weight * rest

    return classes(0, k)


def block_members(plan: TrialPlan, block: int) -> np.ndarray:
    """Sorted (rows, k) member matrix of one block of trials.

    Rows are trials ``block * TRIAL_BLOCK`` onwards, drawn by ``_draw_rows``
    from ``trial_rng(plan.seed, block)``.
    """
    rows = min(TRIAL_BLOCK, plan.trials - block * TRIAL_BLOCK)
    return _draw_rows(trial_rng(plan.seed, block), plan.n, plan.k, plan.mode, rows)


def _draw_rows(rng: np.random.Generator, n: int, k: int, mode: Mode, rows: int) -> np.ndarray:
    """Sorted (rows, k) member matrix of ``rows`` uniform panels drawn from ``rng``.

    Without replacement every row is a partial Fisher-Yates shuffle of
    0..n-1, done as k column swaps over all rows at once, so every k-subset
    has probability 1 / C(n, k); with replacement a row holds k i.i.d.
    uniform indices.
    """
    if mode is Mode.WITH_REPLACEMENT:
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
