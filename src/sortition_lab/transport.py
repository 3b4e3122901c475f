"""Exact Wasserstein-1 distance between finitely supported distributions.

Two routes are provided and kept independent of each other: a closed form
on the line (the L1 distance between CDFs) and an exact min-cost-flow
solver on the bipartite support graph for arbitrary finite supports. All
functions are pure and reentrant.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice

import numpy as np

from .model import DiscreteDistribution, MetricSpace, Segment, pairwise

#: Numerical tolerance bound to the transport contracts.
TOL = 1e-9

#: Largest common denominator accepted when scaling masses to integers.
SCALING_CAP = 10**9


class SpaceMismatchError(ValueError):
    pass


class MassScalingError(ValueError):
    """Masses have no common denominator below the cap; retry with rational=True."""


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix gamma with the two supports as row/column labels."""

    rows: tuple
    cols: tuple
    gamma: np.ndarray

    def marginal_error(self, phi: DiscreteDistribution, psi: DiscreteDistribution) -> float:
        """Largest deviation of the row/column sums from the prescribed masses."""
        row_err = np.max(np.abs(self.gamma.sum(axis=1) - phi.masses))
        col_err = np.max(np.abs(self.gamma.sum(axis=0) - psi.masses))
        return float(max(row_err, col_err))

    def cost(self, space: MetricSpace) -> float:
        live = self.gamma > 0.0
        # built-in sum adds the terms one at a time in row-major order
        return float(sum(self.gamma[live] * pairwise(space, self.rows, self.cols)[live]))


def _require_same_space(phi: DiscreteDistribution, psi: DiscreteDistribution):
    if phi.space != psi.space:
        raise SpaceMismatchError("distributions live in different metric spaces")


def wasserstein_1d(phi: DiscreteDistribution, psi: DiscreteDistribution) -> float:
    """Transport distance on a segment via the CDF integral.

    When both distributions carry exact count-based masses the integral is
    evaluated in rational arithmetic and the returned float is the correctly
    rounded value; otherwise plain float accumulation is used.
    """
    _require_same_space(phi, psi)
    if not isinstance(phi.space, Segment):
        raise SpaceMismatchError("wasserstein_1d requires distributions on a Segment")

    if phi.is_exact and psi.is_exact:
        return float(_w1_exact(phi, psi))

    grid = np.union1d(np.asarray(phi.support), np.asarray(psi.support))
    if grid.size == 1:
        return 0.0
    f = _cdf_on_grid(np.asarray(phi.support), phi.masses, grid)
    g = _cdf_on_grid(np.asarray(psi.support), psi.masses, grid)
    return float(np.sum(np.abs(f[:-1] - g[:-1]) * np.diff(grid)))


def _w1_exact(phi: DiscreteDistribution, psi: DiscreteDistribution) -> Fraction:
    """Exact W1 of two count-based distributions on a segment.

    The CDF gap |cum_a/Da - cum_b/Db| is |cum_a*Db - cum_b*Da| / (Da*Db), so
    the running gap below each grid point is an integer.
    """
    da, db = phi.denom, psi.denom
    step: dict = {}
    for x, c in zip(phi.support, phi.counts):
        step[x] = step.get(x, 0) + c * db
    for x, c in zip(psi.support, psi.counts):
        step[x] = step.get(x, 0) - c * da
    grid = sorted(step)
    return _cdf_gap_integral(grid, map(abs, accumulate(step[x] for x in grid)), da * db)


def _cdf_gap_integral(grid: Sequence, heights: Iterable[int], denom: int) -> Fraction:
    """Exact sum of heights[i] * (grid[i+1] - grid[i]) / denom.

    ``grid`` is sorted and ``heights`` yields integers, one per interval.
    Each point is scaled to an integer over the lcm of the points'
    ``as_integer_ratio`` denominators (for floats, a power of two), so the
    sum runs on Python ints and one Fraction is built at the end.
    """
    scale = reduce(math.lcm, (x.as_integer_ratio()[1] for x in grid), 1)
    num, den = grid[0].as_integer_ratio()
    left = num * (scale // den)
    total = 0
    for x, height in zip(islice(grid, 1, None), heights):
        num, den = x.as_integer_ratio()
        right = num * (scale // den)
        total += height * (right - left)
        left = right
    return Fraction(total, denom * scale)


def _cdf_on_grid(support: np.ndarray, masses: np.ndarray, grid: np.ndarray) -> np.ndarray:
    order = np.argsort(support, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum(masses[order])))
    idx = np.searchsorted(support[order], grid, side="right")
    return cum[idx]


def wasserstein_flow(
    phi: DiscreteDistribution, psi: DiscreteDistribution, rational: bool = False
) -> tuple[float, Coupling]:
    """Exact transport distance and an optimal coupling on any shared space.

    Masses are scaled to integers by their least common denominator and the
    transportation problem is solved exactly by successive shortest paths.
    If the common denominator would exceed ``SCALING_CAP`` a
    :class:`MassScalingError` is raised unless ``rational=True``, in which
    case the supplies are kept as exact fractions.
    """
    _require_same_space(phi, psi)
    supply = _integer_masses(phi, rational)
    demand = _integer_masses(psi, rational)
    total_a = sum(supply)
    total_b = sum(demand)
    # Cross-scale so both sides move the same integral amount of mass.
    if total_a != total_b:
        lcm = math.lcm(total_a, total_b)
        supply = [s * (lcm // total_a) for s in supply]
        demand = [d * (lcm // total_b) for d in demand]
        if not rational and lcm > SCALING_CAP:
            raise MassScalingError(
                "common denominator exceeds the integer scaling cap; pass rational=True"
            )
    total = sum(supply)

    ns, nt = len(phi.support), len(psi.support)
    cost = pairwise(phi.space, phi.support, psi.support)

    flow = _transport_ssp(supply, demand, cost)
    value = 0.0
    gamma = np.zeros((ns, nt))
    for (i, j), f in flow.items():
        gamma[i, j] = f / total
        value += float(f) * cost[i, j]
    value = float(value) / float(total)
    return value, Coupling(phi.support, psi.support, gamma)


def _integer_masses(dist: DiscreteDistribution, rational: bool):
    if dist.is_exact:
        return list(dist.counts)
    if rational:
        # Exact binary expansions; denominators are powers of two, so the
        # common denominator stays bounded by the largest one.
        fractions = [Fraction(float(m)) for m in dist.masses]
    else:
        fractions = [Fraction(float(m)).limit_denominator(SCALING_CAP) for m in dist.masses]
        for frac, m in zip(fractions, dist.masses):
            if float(frac) != float(m):
                raise MassScalingError(
                    "mass has no small exact rational representation; pass rational=True"
                )
    denom = 1
    for frac in fractions:
        denom = math.lcm(denom, frac.denominator)
        if denom > SCALING_CAP and not rational:
            raise MassScalingError(
                "common denominator exceeds the integer scaling cap; pass rational=True"
            )
    return [int(f * denom) for f in fractions]


def _transport_ssp(supply, demand, cost: np.ndarray) -> dict[tuple[int, int], object]:
    """Min-cost transportation by successive shortest augmenting paths.

    Supplies and demands are exact (ints or Fractions). Path search is
    Bellman-Ford on the residual bipartite graph, which handles the negative
    reduced costs of backward arcs; each augmentation moves the full path
    bottleneck. Ties are broken deterministically, which fixes the returned
    coupling: a sink's predecessor is the first source index among equal
    column minima, backward arcs are relaxed in flow-insertion order, a
    label only moves on a gain above 1e-15, and the target is the first live
    sink of least distance.

    Forward relaxations keep each sink's column minimum
    min_i(dist_a[i] + cost[i][j]) and its first index, updated only from the
    sources whose label fell in the last backward pass; labels only fall
    within one search, so the minimum stays exact. Every search starts with
    the live sources at label 0.0, and the live set only shrinks, so the
    minima of that start are kept across searches: when a source runs dry,
    only the columns whose first argmin it was are recomputed.
    """
    ns, nt = cost.shape
    columns = cost.T.tolist()
    cost = cost.tolist()
    remaining_a = list(supply)
    remaining_b = list(demand)
    flow: dict[tuple[int, int], object] = {}
    live_a = [i for i in range(ns) if remaining_a[i] > 0]
    # each sink's min_i(0.0 + cost[i][j]) over the live sources, and its first argmin
    start_min, start_arg = [math.inf] * nt, [0] * nt
    for j, column in enumerate(columns):
        start_min[j], start_arg[j] = _column_minimum(column, live_a)
    guard = 0
    max_iters = 4 * (ns + nt) * (ns + nt) + 16
    while live_a:
        guard += 1
        if guard > max_iters:
            raise RuntimeError("transport solver failed to converge")
        # dist_a[i], dist_b[j]: shortest residual path cost from any live source
        dist_a = [0.0 if a > 0 else math.inf for a in remaining_a]
        fresh = ()  # labels not yet relaxed forward; the start covers the live sources
        dist_b = [math.inf] * nt
        pred_b = [-1] * nt  # source feeding j on the best path
        pred_a = [-1] * ns  # sink feeding i via a backward arc
        col_min = start_min.copy()
        col_arg = start_arg.copy()
        for _ in range(ns + nt):
            for i in fresh:
                d, row = dist_a[i], cost[i]
                for j in range(nt):
                    v = d + row[j]
                    if v < col_min[j] or (v == col_min[j] and i < col_arg[j]):
                        col_min[j] = v
                        col_arg[j] = i
            for j in range(nt):
                if col_min[j] < dist_b[j] - 1e-15:
                    dist_b[j] = col_min[j]
                    pred_b[j] = col_arg[j]
            fresh = set()
            for (i, j) in flow:
                nd = dist_b[j] - cost[i][j]
                if nd < dist_a[i] - 1e-15:
                    dist_a[i] = nd
                    pred_a[i] = j
                    fresh.add(i)
            if not fresh:
                break  # the next round could move no label
        live = [j for j in range(nt) if remaining_b[j] > 0]
        if not any(math.isfinite(dist_b[j]) for j in live):
            raise RuntimeError("transport solver found no augmenting path")
        target = min(live, key=dist_b.__getitem__)

        # Walk the path backwards to find the bottleneck, then push it.
        path: list[tuple[int, int, bool]] = []  # (i, j, forward)
        j = target
        seen = 0
        while True:
            seen += 1
            if seen > 2 * (ns + nt) + 4:
                raise RuntimeError("transport solver path reconstruction cycled")
            i = pred_b[j]
            path.append((i, j, True))
            if pred_a[i] < 0:
                break  # reached an originating source
            j = pred_a[i]
            path.append((i, j, False))
        source = path[-1][0]
        bottleneck = min(remaining_a[source], remaining_b[target])
        for i, j, forward in path:
            if not forward:
                bottleneck = min(bottleneck, flow[(i, j)])
        for i, j, forward in path:
            if forward:
                flow[(i, j)] = flow.get((i, j), 0) + bottleneck
            else:
                flow[(i, j)] -= bottleneck
                if flow[(i, j)] == 0:
                    del flow[(i, j)]
        remaining_a[source] -= bottleneck
        remaining_b[target] -= bottleneck
        if remaining_a[source] == 0:
            live_a.remove(source)
            for j in range(nt):
                if start_arg[j] == source:
                    start_min[j], start_arg[j] = _column_minimum(columns[j], live_a)
    return flow


def _column_minimum(column: list[float], live: list[int]) -> tuple[float, int]:
    """Least 0.0 + column[i] over the ascending live indices, and its first index."""
    best, arg = math.inf, 0
    for i in live:
        v = 0.0 + column[i]
        if v < best:
            best, arg = v, i
    return best, arg


def mixture(psi1: DiscreteDistribution, psi2: DiscreteDistribution, t: float) -> DiscreteDistribution:
    """Convex combination t*psi1 + (1-t)*psi2 on the shared space."""
    _require_same_space(psi1, psi2)
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    support = list(psi1.support) + list(psi2.support)
    masses = [t * m for m in psi1.masses] + [(1.0 - t) * m for m in psi2.masses]
    return DiscreteDistribution(psi1.space, support, masses)


def convexity_check(
    phi: DiscreteDistribution,
    psi1: DiscreteDistribution,
    psi2: DiscreteDistribution,
    t: float,
) -> bool:
    """W(phi, t*psi1 + (1-t)*psi2) <= t*W(phi, psi1) + (1-t)*W(phi, psi2) + TOL."""
    mixed = mixture(psi1, psi2, t)
    # mixture masses are generic binary floats, so scale them exactly
    left, _ = wasserstein_flow(phi, mixed, rational=True)
    w1, _ = wasserstein_flow(phi, psi1)
    w2, _ = wasserstein_flow(phi, psi2)
    return left <= t * w1 + (1.0 - t) * w2 + TOL


def wasserstein(phi: DiscreteDistribution, psi: DiscreteDistribution) -> float:
    """Transport distance, using the 1D closed form on segments."""
    _require_same_space(phi, psi)
    if isinstance(phi.space, Segment):
        return wasserstein_1d(phi, psi)
    value, _ = wasserstein_flow(phi, psi)
    return value
