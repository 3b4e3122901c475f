"""Panel distributions, representativeness decisions, and panel-size sweeps."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb

import numpy as np

from .model import DiscreteDistribution, Feature, Mode, Panel, Segment, panel_counts
from .sampling import TrialPlan, derived_seed, monte_carlo
from .transport import _cdf_gap_integral, wasserstein

#: Slack for representativeness decisions and mean-gap comparisons.
DECISION_TOL = 1e-12


def panel_distribution(feature: Feature, panel: Panel) -> DiscreteDistribution:
    """Empirical distribution of the feature over the panel members.

    Members are counted with multiplicity, so panels drawn with replacement
    put mass multiplicity/k on repeated values.
    """
    if panel.members[-1] >= feature.n:
        raise IndexError("panel indexes an agent beyond the feature length")
    counts: dict = {}
    for i in panel.members:
        v = feature.values[i]
        counts[v] = counts.get(v, 0) + 1
    support = list(counts)
    return DiscreteDistribution.from_counts(feature.space, support, [counts[v] for v in support])


def population_distribution(feature: Feature) -> DiscreteDistribution:
    return panel_distribution(feature, Panel.full(feature.n))


def is_representative(feature: Feature, panel: Panel, eps: float) -> tuple[bool, float]:
    """Decide whether the panel is within transport distance eps of the population."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    w = wasserstein(population_distribution(feature), panel_distribution(feature, panel))
    return w <= eps + DECISION_TOL, w


def mean_gap(feature: Feature, panel: Panel) -> float:
    """|population mean - panel mean| for a [0,1]-valued feature."""
    values = feature.as_array()
    if values.min() < -DECISION_TOL or values.max() > 1.0 + DECISION_TOL:
        raise ValueError("mean_gap requires values in [0, 1]")
    members = np.asarray(panel.members)
    return abs(float(values.mean()) - float(values[members].mean()))


class PanelWasserstein:
    """Fast W(population, panel) evaluator for one Segment-valued feature.

    Precomputes the population CDF over the distinct feature values; each
    call reduces to one bincount and a couple of vector operations, which
    keeps large Monte Carlo runs cheap. Agrees with the exact route through
    ``panel_distribution`` + ``wasserstein`` to float precision.
    """

    def __init__(self, feature: Feature):
        values = feature.as_array()
        self.n = values.size
        self.unique, self.index = np.unique(values, return_inverse=True)
        pop_counts = panel_counts(self.index, self.unique.size)
        self.pop_cdf = np.cumsum(pop_counts)[:-1] / self.n
        self.gaps = np.diff(self.unique)

    def __call__(self, panel: Panel) -> float:
        return float(self.batch(np.asarray(panel.members)[None, :])[0])

    def batch(self, members: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a (panels, k) matrix of member indices."""
        members = np.asarray(members)
        return self.from_counts(panel_counts(self.index[members], self.unique.size), members.shape[1])

    def from_counts(self, counts: np.ndarray, k: int) -> np.ndarray:
        """W for each row of a (panels, distinct values) count matrix of size-k panels."""
        cdf = np.cumsum(counts, axis=1)[:, :-1] / k
        return np.abs(cdf - self.pop_cdf[None, :]) @ self.gaps


@dataclass(frozen=True)
class SweepRow:
    k: int
    failure_rate: float
    ci_half_width: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    eps: float
    delta: float
    n_features: int
    seed: int
    recommended_k: int | None

    def as_csv_rows(self) -> list[dict]:
        return [
            {
                "k": row.k,
                "failure_rate": row.failure_rate,
                "ci_half_width": row.ci_half_width,
                "eps": self.eps,
                "delta": self.delta,
                "n_features": self.n_features,
                "seed": self.seed,
            }
            for row in self.rows
        ]


def default_k_grid(n: int) -> tuple[int, ...]:
    """Geometric grid 2, 4, 8, ... capped at n."""
    grid = []
    k = 2
    while k < n:
        grid.append(k)
        k *= 2
    grid.append(n)
    return tuple(grid)


def min_k_sweep(
    features: list[Feature],
    eps: float,
    delta: float,
    k_grid: tuple[int, ...] | None = None,
    trials: int = 2000,
    seed: int = 0,
) -> SweepResult:
    """Estimate P[some feature deviates by more than eps] for each panel size.

    Reports the smallest grid k whose estimated failure probability is at
    most delta, or None if the grid never reaches it. Features must share
    one population and take values in [0, 1].
    """
    if not features:
        raise ValueError("need at least one feature")
    n = features[0].n
    for f in features:
        if f.n != n:
            raise ValueError("features must share the population size")
        if not isinstance(f.space, Segment):
            raise ValueError("sweep features must be real-valued")
        arr = f.as_array()
        if arr.min() < -DECISION_TOL or arr.max() > 1.0 + DECISION_TOL:
            raise ValueError("sweep features must take values in [0, 1]")
    if k_grid is None:
        k_grid = default_k_grid(n)
    if not k_grid:
        raise ValueError("k grid must be nonempty")

    stats = [PanelWasserstein(f) for f in features]

    def failure(members: np.ndarray) -> np.ndarray:
        return np.any([s.batch(members) > eps + DECISION_TOL for s in stats], axis=0).astype(float)

    rows = []
    recommended = None
    for idx, k in enumerate(k_grid):
        plan = TrialPlan(n=n, k=int(k), trials=trials, seed=derived_seed(seed, idx))
        est = monte_carlo(plan, failure)
        rows.append(SweepRow(int(k), est.mean, est.half_width_95))
        if recommended is None and est.mean <= delta:
            recommended = int(k)
    return SweepResult(tuple(rows), eps, delta, len(features), seed, recommended)


def expected_w_exact(feature: Feature, k: int, mode: Mode) -> float:
    """Exact E[W(population, panel)] over uniform size-k panels, correctly rounded.

    W is the CDF-gap sum over the distinct values u_j, so by linearity
    E[W] = sum_j gap_j * sum_t P(T_j = t) * |t/k - c_j/n|, where c_j agents
    lie at or below u_j and T_j panel members do: T_j is hypergeometric
    without replacement and binomial with replacement. Every term is an
    integer over the common denominator n * k * (number of equally likely
    draws), so the sum is exact and O(distinct values * k).
    """
    n = feature.n
    if TrialPlan(n, k, mode).mode is Mode.WITHOUT_REPLACEMENT:
        draws = comb(n, k)
        weight = lambda c, t: comb(c, t) * comb(n - c, k - t)
    else:
        draws = n**k
        weight = lambda c, t: comb(k, t) * c**t * (n - c) ** (k - t)
    grid, counts = zip(*sorted(Counter(feature.as_array().tolist()).items()))
    heights = (sum(weight(c, t) * abs(t * n - c * k) for t in range(k + 1)) for c in accumulate(counts))
    return float(_cdf_gap_integral(grid, heights, n * k * draws))
