"""Multiple facility location: min-over-facilities cost and exact line solvers.

The line solver is an interval dynamic program over sorted agent positions:
sorted agents split into contiguous blocks, each served by one facility, and
facilities appear in ascending order. Equal-cost optima resolve to the
lexicographically smallest facility tuple. Each level scans the block ends
once with a running minimum, so ell facilities over C candidates and m
distinct positions cost O(ell*C*m), with results bit-identical to scoring
every cut. General metric spaces fall back to brute force over candidate
subsets with a hard size cap.

For a block of panels on one instance with few candidates (the nine of the
multifacility_line experiment), ``_LineSets`` scores every facility set at
once from the panels' site counts and re-solves near-ties with the line DP,
so it picks what the DP picks. The DP stays the library solver and the
differential reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .facility import FacilityInstance
from .model import Panel, Segment, pairwise, panel_counts

BRUTE_FORCE_CAP = 200_000

#: Tolerance for the per-panel transport inequality check.
BOUND_TOL = 1e-9

#: Relative gap between a panel's two cheapest facility sets at or below
#: which ``_LineSets`` re-solves the panel with ``kmedian_line``.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class MultiFacilityInstance:
    base: FacilityInstance
    ell: int

    def __post_init__(self):
        if not 1 <= self.ell <= len(self.base.candidates):
            raise ValueError("facility count must be between 1 and the candidate count")


def multi_cost(inst: MultiFacilityInstance, facilities: Sequence, weights=None) -> float:
    """Weighted average over agents of the distance to the nearest facility."""
    base = inst.base
    idxs = [base.candidate_index(q) for q in facilities]
    if len(idxs) != inst.ell:
        raise ValueError(f"expected {inst.ell} facilities, got {len(idxs)}")
    if len(set(idxs)) != len(idxs):
        raise ValueError("facilities must be distinct candidates")
    if weights is None:
        weights = np.full(base.n, 1.0 / base.n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (base.n,):
            raise ValueError("need one weight per agent")
    nearest = pairwise(base.space, base.agents, [base.candidates[i] for i in idxs]).min(axis=1)
    live = weights != 0.0
    # built-in sum adds the agents' terms one at a time in agent order
    return float(sum(weights[live] * nearest[live]))


def kmedian_line(
    points: Sequence[float],
    candidates: Sequence[float],
    ell: int,
    weights: Sequence[float] | None = None,
) -> tuple[float, tuple[float, ...]]:
    """Exact weighted ell-median on the line over a finite candidate list.

    Returns the optimal average cost and the facility positions as an
    ascending tuple. Inputs are sorted and aggregated internally; ties
    between facility sets of equal cost resolve to the lexicographically
    smallest tuple of positions.

    Runs in O(ell*C*m) for C candidates and m distinct positions. A cell
    (last facility c, first p points) costs ``min over cut <= p`` of
    ``a + prefix[c][p]`` with ``a = prev[cut] - prefix[c][cut]``; rounding is
    monotone, so a running minimum of ``a`` gives the cost. Ties in rounded
    cost are broken by facilities: the scan keeps the smallest tuple at the
    smallest ``a`` and the next larger ``a``, and only when that larger
    ``a`` rounds to the same cost does it rescan the cuts up to ``p``.
    """
    pts = np.asarray(points, dtype=float)
    if weights is None:
        wts = np.full(pts.size, 1.0 / pts.size)
    else:
        wts = np.asarray(weights, dtype=float)
        if wts.shape != pts.shape:
            raise ValueError("need one weight per point")
    cands = sorted(set(float(c) for c in candidates))
    if not 1 <= ell <= len(cands):
        raise ValueError("facility count must be between 1 and the candidate count")

    # aggregate coincident points; DP cost scales with distinct positions
    order = np.argsort(pts, kind="stable")
    xs: list[float] = []
    ws: list[float] = []
    for i in order:
        if xs and pts[i] == xs[-1]:
            ws[-1] += wts[i]
        else:
            xs.append(float(pts[i]))
            ws.append(float(wts[i]))
    m = len(xs)
    xs_arr = np.asarray(xs)
    ws_arr = np.asarray(ws)

    # prefix[c][p] = weighted cost of serving the first p points from candidate c;
    # cumsum adds in order, so each row equals its own 1-D prefix sum
    prefix = np.zeros((len(cands), m + 1))
    np.cumsum(ws_arr * np.abs(xs_arr - np.asarray(cands)[:, None]), axis=1, out=prefix[:, 1:])
    rows = prefix.tolist()

    inf = math.inf
    # best[c][p]: (cost, ranks) serving the first p points with the last
    # facility at cands[c]; ranks index the sorted cands, so they compare
    # like the facility positions
    best = [[(cost, (ci,)) for cost in row] for ci, row in enumerate(rows)]
    for level in range(1, ell):
        # rows below `level` cannot hold level + 1 distinct facilities
        new = [[(inf, ())] * (m + 1)] * level
        # reach[cut]: lexicographic best of the previous level over candidates below ci
        reach = best[level - 1]
        for ci in range(level, len(cands)):
            row = rows[ci]
            cells = []
            # cost of a cut is a + row[p] with a = prev cost - row[cut]; keep the
            # smallest a with its smallest ranks, and the next larger a
            a_min = a_next = inf
            for p, ((pc, pf), r) in enumerate(zip(reach, row)):
                a = pc - r
                if a < a_min:
                    a_next, a_min, fac = a_min, a, pf
                elif a == a_min:
                    if pf < fac:
                        fac = pf
                elif a < a_next:
                    a_next = a
                cost = a_min + r
                if a_next + r == cost:
                    # a larger a rounds to the same cost and may carry smaller
                    # ranks: score the cuts up to p as the quadratic recurrence does
                    tie = min(f for (c, f), x in zip(reach[: p + 1], row) if c - x + r == cost)
                    cells.append((cost, tie + (ci,)))
                else:
                    cells.append((cost, fac + (ci,)))
            new.append(cells)
            reach = list(map(min, reach, best[ci]))
        best = new

    cost, ranks = min(row[m] for row in best)
    return float(cost), tuple(cands[i] for i in ranks)


class _LineSets:
    """Every ell-subset of the line candidates, scored for a block of panels.

    On one instance a panel is its integer counts over the distinct agent
    sites, so its cost for every facility set is one row of
    ``(counts / k) @ mindist.T``, where ``mindist[s]`` holds each site's
    distance to its nearest facility in set ``s``. Sets are listed in
    lexicographic order and ``argmin`` picks each row's cheapest; a row
    whose two cheapest sets lie within a relative ``TIE_TOL`` (exact ties
    included) is re-solved with ``kmedian_line``, since rounding may order
    them differently there. ``pop_cost[s]`` is the population
    cost of set ``s``, bit-identical to scoring the chosen facilities with
    ``pairwise``. Scanning all C-choose-ell sets is only sensible because
    multifacility_line fixes C at 9 (at most 126 sets per ell); elsewhere
    ``kmedian_line`` is the solver.
    """

    def __init__(self, space, sites, candidates, ell: int, pop_w):
        cands = sorted(set(float(c) for c in candidates))
        idx = np.fromiter(chain.from_iterable(combinations(range(len(cands)), ell)), dtype=np.intp)
        self.sites = np.asarray(sites, dtype=float)
        self.candidates = cands
        self.ell = ell
        self.sets = list(combinations(cands, ell))
        self.index = {s: i for i, s in enumerate(self.sets)}
        dist = pairwise(space, self.sites, cands)
        self.mindist = np.ascontiguousarray(dist[:, idx.reshape(-1, ell)].min(axis=2).T)
        self.pop_cost = np.array([pop_w.dot(row) for row in self.mindist])

    def choose(self, counts: np.ndarray, k: int) -> np.ndarray:
        """Index into ``sets`` of each panel's optimum, for (panels, sites) counts."""
        costs = (counts / k) @ self.mindist.T
        chosen = costs.argmin(axis=1)
        if len(self.sets) > 1:
            low = np.partition(costs, 1, axis=1)
            for r in np.flatnonzero(low[:, 1] - low[:, 0] <= TIE_TOL * low[:, 0]):
                live = counts[r] > 0
                _, best = kmedian_line(self.sites[live], self.candidates, self.ell, counts[r, live] / k)
                chosen[r] = self.index[best]
        return chosen


def panel_facilities(inst: MultiFacilityInstance, panel: Panel) -> tuple[float, tuple]:
    """Panel-optimal facility set and its panel cost.

    Uses the line DP on Segment instances and falls back to exhaustive
    subset search elsewhere (subject to ``BRUTE_FORCE_CAP``).
    """
    base = inst.base
    if isinstance(base.space, Segment):
        pts = [base.agents[i] for i in panel.members]
        return kmedian_line(pts, base.candidates, inst.ell)
    return brute_force_facilities(inst, weights=panel_counts(panel.members, base.n) / panel.k)


def brute_force_facilities(inst: MultiFacilityInstance, weights=None) -> tuple[float, tuple]:
    """Exhaustive search over candidate subsets, lexicographic tie-breaking."""
    base = inst.base
    count = math.comb(len(base.candidates), inst.ell)
    if count > BRUTE_FORCE_CAP:
        raise ValueError(f"{count} candidate subsets exceed the brute-force cap")
    if weights is None:
        weights = np.full(base.n, 1.0 / base.n)
    dists = pairwise(base.space, base.candidates, base.agents)
    best_cost, best_set = math.inf, ()
    for subset in combinations(range(len(base.candidates)), inst.ell):
        cost = float(np.dot(np.min(dists[list(subset)], axis=0), weights))
        key = tuple(sorted(base.candidates[i] for i in subset))
        if cost < best_cost or (cost == best_cost and key < best_set):
            best_cost, best_set = cost, key
    return best_cost, best_set


@dataclass(frozen=True)
class PanelBoundCheck:
    lhs: float
    rhs: float
    ok: bool
    w: float
    panel_opt: float


def panel_bound_check(inst: MultiFacilityInstance, panel: Panel) -> PanelBoundCheck:
    """Per-panel inequality: social cost of the panel's facilities is at most
    the panel-population transport distance plus the panel's own optimum."""
    from .model import Feature
    from .representativeness import panel_distribution, population_distribution
    from .transport import wasserstein

    base = inst.base
    if not isinstance(base.space, Segment):
        raise ValueError("the bound check requires a line instance")
    panel_opt, facilities = panel_facilities(inst, panel)
    lhs = multi_cost(inst, facilities)
    feature = Feature(base.space, base.agents)
    w = wasserstein(population_distribution(feature), panel_distribution(feature, panel))
    rhs = w + panel_opt
    return PanelBoundCheck(lhs, rhs, lhs <= rhs + BOUND_TOL, w, panel_opt)


def impossibility_instance(n: int) -> tuple[MultiFacilityInstance, MultiFacilityInstance]:
    """Two-population family on [0,1] with C = {0, 1/2, 1} and two facilities.

    Population A has every agent at 0; population B moves the last agent to
    1. Both have optimum cost 0 (A via facilities (0, 1/2), B via (0, 1)),
    yet panels that miss the last agent see only zeros and their
    lexicographic optimal decision (0, 1/2) leaves B's outlier at cost 1/2,
    so no multiplicative guarantee can hold.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    space = Segment(0.0, 1.0)
    cands = (0.0, 0.5, 1.0)
    all_zero = FacilityInstance(space, cands, (0.0,) * n)
    one_far = FacilityInstance(space, cands, (0.0,) * (n - 1) + (1.0,))
    return MultiFacilityInstance(all_zero, 2), MultiFacilityInstance(one_far, 2)
