"""Uniform panel draws, exhaustive enumeration, and a seeded Monte Carlo engine.

Per-trial generators are derived as ``seed XOR trial_index``, so estimates are
bit-identical regardless of how trials are scheduled across workers. The
``SORTITION_THREADS`` environment variable sets the worker pool (default 1;
results never depend on the count).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from typing import Callable, Iterator

import numpy as np

from .model import Mode, Panel

_MASK64 = (1 << 64) - 1

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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-derived generator for one trial."""
    return np.random.default_rng((int(seed) ^ int(trial)) & _MASK64)


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
    if k < 1:
        raise ValueError("panel size must be at least 1")
    if mode is Mode.WITHOUT_REPLACEMENT:
        if k > n:
            raise ValueError(f"k={k} exceeds n={n} without replacement")
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


def _worker_count() -> int:
    # Fan-out is opt-in: panel statistics are usually pure Python, where
    # thread workers only add interpreter-lock contention.
    env = os.environ.get("SORTITION_THREADS")
    if env:
        return max(1, int(env))
    return 1


def monte_carlo(plan: TrialPlan, statistic: Callable[[Panel], float]) -> EstimateWithCI:
    """Sample mean of a pure panel statistic with a 95% confidence interval.

    Trials are merged in index order, so the estimate does not depend on the
    worker count or scheduling. For indicator statistics whose empirical
    proportion sits near 0 or 1, the Wilson interval replaces the normal
    approximation.
    """
    values = np.empty(plan.trials)
    failures: list[StatisticError] = []

    def run_block(lo: int, hi: int):
        try:
            for t in range(lo, hi):
                rng = trial_rng(plan.seed, t)
                panel = draw_panel(plan.n, plan.k, plan.mode, rng)
                try:
                    values[t] = float(statistic(panel))
                except Exception as exc:  # surfaced with the trial index
                    raise StatisticError(t, exc) from exc
        except StatisticError as err:
            failures.append(err)

    workers = min(_worker_count(), plan.trials)
    if workers <= 1:
        run_block(0, plan.trials)
    else:
        chunk = (plan.trials + workers - 1) // workers
        bounds = [(lo, min(lo + chunk, plan.trials)) for lo in range(0, plan.trials, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_block(*b), bounds))
    if failures:
        raise min(failures, key=lambda e: e.trial)

    mean = float(np.mean(values))
    if plan.trials == 1:
        return EstimateWithCI(mean, 0.0, 1)
    half = Z_95 * float(np.std(values, ddof=1)) / math.sqrt(plan.trials)
    if _is_indicator(values):
        successes = float(np.sum(values))
        if _needs_wilson(successes, plan.trials):
            half = _wilson_half_width(successes, plan.trials)
    return EstimateWithCI(mean, half, plan.trials)


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
