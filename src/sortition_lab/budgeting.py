"""Divisible budget allocation: cost models, covers, welfare and core machinery.

Cost functions map allocations in [0,1]^m to disutilities in [0,1] and are
monotone (more funding never hurts) and 1-Lipschitz in the l1 norm. Both
properties are validated at construction time for every model variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

import numpy as np

from .model import CamouflagedPopulation, Panel, make_camouflaged, panel_counts
from .sampling import TrialPlan, monte_carlo, proportion_ci, trial_values

COVER_CAP = 10**7

FEAS_TOL = 1e-12

#: Cover allocations per step of CoreLab.blocked_mask's scan, the path for
#: three or more nonzero groups; bounds its working memory.
SCAN_ROWS = 32

#: Cap of CoreLab.need: an int32 coalition count reaches it only with 2**31 - 1 agents.
NEED_CAP = np.iinfo(np.int32).max


@dataclass(frozen=True)
class LinearCost:
    """cost(x) = sum_j alpha_j * (1 - x_j) with alpha >= 0 and sum(alpha) <= 1."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("alpha entries must be nonnegative")
        if sum(alpha) > 1.0 + FEAS_TOL:
            raise ValueError("alpha must sum to at most 1")

    def projects(self) -> int:
        return len(self.alpha)

    def cost(self, x) -> float:
        return float(sum(a * (1.0 - float(v)) for a, v in zip(self.alpha, x, strict=True)))

    def cost_many(self, X: np.ndarray) -> np.ndarray:
        a = np.asarray(self.alpha)
        return float(a.sum()) - X @ a


@dataclass(frozen=True)
class SaturatingShortfallCost:
    """cost(x) = (1/b2) * sum_j max(b2/m - x_j, 0); identically 0 when b2 = 0.

    The slope along each coordinate is 1/b2, so b2 must be 0 or at least 1
    to stay 1-Lipschitz.
    """

    b2: float

    def __post_init__(self):
        b2 = float(self.b2)
        object.__setattr__(self, "b2", b2)
        if b2 < 0:
            raise ValueError("b2 must be nonnegative")
        if 0.0 < b2 < 1.0:
            raise ValueError("b2 in (0, 1) breaks the unit Lipschitz bound")

    def cost(self, x) -> float:
        if self.b2 == 0.0:
            return 0.0
        level = self.b2 / len(x)
        return float(sum(max(level - float(v), 0.0) for v in x)) / self.b2

    def cost_many(self, X: np.ndarray) -> np.ndarray:
        if self.b2 == 0.0:
            return np.zeros(X.shape[0])
        level = self.b2 / X.shape[1]
        return np.maximum(level - X, 0.0).sum(axis=1) / self.b2


class GridTableCost:
    """Costs tabulated on a per-axis grid, extended by multilinear interpolation.

    Monotonicity and the unit Lipschitz bound are verified on every adjacent
    node pair at load time, which multilinear interpolation then preserves
    on all of [0,1]^m.
    """

    __slots__ = ("axes", "values")

    def __init__(self, axes: Sequence[Sequence[float]], values):
        axes = tuple(tuple(float(v) for v in axis) for axis in axes)
        table = np.asarray(values, dtype=float)
        if table.shape != tuple(len(a) for a in axes):
            raise ValueError("table shape must match the axis node counts")
        for axis in axes:
            if len(axis) < 2 or axis[0] != 0.0 or axis[-1] != 1.0:
                raise ValueError("each axis must run from 0 to 1 with at least 2 nodes")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError("axis nodes must be strictly increasing")
        if table.min() < -FEAS_TOL or table.max() > 1.0 + FEAS_TOL:
            raise ValueError("table values must lie in [0, 1]")
        for d, axis in enumerate(axes):
            diffs = np.diff(table, axis=d)
            steps = np.diff(axis).reshape([-1 if i == d else 1 for i in range(len(axes))])
            if diffs.size and diffs.max() > FEAS_TOL:
                raise ValueError("table must be nonincreasing along every axis")
            if diffs.size and np.max(np.abs(diffs) - steps) > FEAS_TOL:
                raise ValueError("adjacent nodes violate the unit Lipschitz bound")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", table)

    def __setattr__(self, name, value):
        raise AttributeError("GridTableCost is immutable")

    def projects(self) -> int:
        return len(self.axes)

    def cost(self, x) -> float:
        cells = []
        fracs = []
        for axis, v in zip(self.axes, x, strict=True):
            v = float(v)
            hi = min(max(np.searchsorted(axis, v, side="right"), 1), len(axis) - 1)
            lo = hi - 1
            span = axis[hi] - axis[lo]
            cells.append((lo, hi))
            fracs.append((v - axis[lo]) / span)
        total = 0.0
        for corner in product((0, 1), repeat=len(cells)):
            weight = 1.0
            idx = []
            for (lo, hi), f, side in zip(cells, fracs, corner):
                weight *= f if side else (1.0 - f)
                idx.append(hi if side else lo)
            if weight:
                total += weight * float(self.values[tuple(idx)])
        return total

    def cost_many(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.cost(row) for row in X])

    def __eq__(self, other):
        return (
            isinstance(other, GridTableCost)
            and self.axes == other.axes
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.axes, self.values.tobytes()))


CostModel = Union[LinearCost, SaturatingShortfallCost, GridTableCost]


@dataclass(frozen=True)
class PBInstance:
    """m projects, budget B, and one cost model per agent."""

    m: int
    B: float
    costs: tuple[CostModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(self.costs))
        if self.m < 2:
            raise ValueError("need at least two projects")
        if not 0.0 < self.B <= self.m:
            raise ValueError("budget must lie in (0, m]")
        if not self.costs:
            raise ValueError("need at least one agent")
        for model in self.costs:
            if isinstance(model, (LinearCost, GridTableCost)) and model.projects() != self.m:
                raise ValueError("cost model dimension does not match m")
            if isinstance(model, SaturatingShortfallCost) and model.b2 > self.m:
                raise ValueError("b2 must not exceed m")

    @property
    def n(self) -> int:
        return len(self.costs)


def check_allocation(inst: PBInstance, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (inst.m,):
        raise ValueError(f"allocation must have {inst.m} entries")
    if arr.min() < -FEAS_TOL or arr.max() > 1.0 + FEAS_TOL:
        raise ValueError("allocation entries must lie in [0, 1]")
    if arr.sum() > inst.B + FEAS_TOL:
        raise ValueError("allocation exceeds the budget")
    return arr


def eval_cost(model: CostModel, x) -> float:
    """Evaluate one cost model at an allocation in [0,1]^m."""
    arr = np.asarray(x, dtype=float)
    if arr.min() < -FEAS_TOL or arr.max() > 1.0 + FEAS_TOL:
        raise ValueError("allocation entries must lie in [0, 1]")
    return model.cost(arr)


def cost_matrix(inst: PBInstance, allocations: np.ndarray) -> np.ndarray:
    """Matrix of cost_i(allocation_b), shape (n agents, n allocations)."""
    X = np.asarray(allocations, dtype=float)
    linear_rows = [i for i, c in enumerate(inst.costs) if isinstance(c, LinearCost)]
    if linear_rows:
        A = np.asarray([inst.costs[i].alpha for i in linear_rows])
        linear = A @ X.T
        np.subtract(A.sum(axis=1, keepdims=True), linear, out=linear)  # in place: one (rows, N) array
        if len(linear_rows) == inst.n:
            return linear
    out = np.empty((inst.n, X.shape[0]))
    if linear_rows:
        out[linear_rows] = linear
    for i, model in enumerate(inst.costs):
        if not isinstance(model, LinearCost):
            out[i] = model.cost_many(X)
    return out


def simplex_cover(m: int, B: float, step: float) -> np.ndarray:
    """Grid points of [0,1]^m with coordinate step that stay within budget.

    The product grid {0, step, 2 step, ..., 1}^m is filtered to total at most
    B; the per-axis extremes min(B, 1) * e_j are added so every feasible
    allocation is within m*step/2 in l1 of the cover. Rows are returned in
    lexicographic order.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if B <= 0:
        raise ValueError("budget must be positive")
    count = int(math.floor(1.0 / step + 1e-9))
    levels = np.arange(count + 1) * step
    if levels[-1] < 1.0 - 1e-9:
        levels = np.append(levels, 1.0)
    levels = np.minimum(levels, 1.0)
    if len(levels) ** m > COVER_CAP:
        raise ValueError(
            f"cover would hold {len(levels) ** m} points, above the cap; use a coarser step"
        )
    mesh = np.meshgrid(*([levels] * m), indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1)
    grid = grid[grid.sum(axis=1) <= B + 1e-9]
    extremes = np.eye(m) * min(B, 1.0)
    # with no return flag np.unique tests for a masked array, which imports numpy.ma
    return np.unique(np.vstack([grid, extremes]), axis=0, return_index=True)[0]


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def optimal_allocation(
    inst: PBInstance,
    weights: np.ndarray | None = None,
    cover: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize the weighted cost over feasible allocations.

    All-linear instances are solved exactly by the greedy rule: fund
    projects in order of decreasing aggregate weight, capping each at 1,
    until the budget runs out. Other instances take the argmin over the
    supplied cover, with ties resolved to the lexicographically smallest
    allocation.
    """
    if weights is None:
        weights = uniform_weights(inst.n)
    weights = np.asarray(weights, dtype=float)
    if all(isinstance(c, LinearCost) for c in inst.costs):
        A = np.asarray([c.alpha for c in inst.costs])
        agg = weights @ A
        x = _greedy_fill(agg, inst.B)
        cost = float(weights @ A.sum(axis=1) - agg @ x)
        return x, cost
    if cover is None or len(cover) == 0:
        raise ValueError("non-linear instances need a nonempty cover")
    costs = weights @ cost_matrix(inst, cover)
    idx = int(np.argmin(costs))
    return np.asarray(cover[idx], dtype=float).copy(), float(costs[idx])


def _greedy_fill(agg: np.ndarray, B: float) -> np.ndarray:
    """Fund projects by decreasing aggregate weight (ties to the lower index),
    each capped at 1, until the budget B runs out.

    ``agg`` is one weight vector or a matrix filled row by row; the project
    in sorted place i gets the exact remainder ``clip(B - i, 0, 1)``.
    """
    order = np.argsort(-agg, axis=-1, kind="stable")
    x = np.zeros(agg.shape)
    np.put_along_axis(x, order, np.clip(B - np.arange(agg.shape[-1]), 0.0, 1.0), axis=-1)
    return x


@dataclass(frozen=True)
class CoreWitness:
    """A blocking move: coalition members (with multiplicity) and the allocation."""

    alternative: tuple[float, ...]
    coalition: tuple[int, ...]
    coalition_fraction: float


class CoreLab:
    """One cover scanned for blocking moves, with agents grouped by cost row.

    Agents with identical cost rows form one group, numbered in order of
    first appearance, so a panel enters a check only through its group
    counts. ``blocked_mask`` picks its path from the counts: with at most
    two nonzero groups a blocking coalition is one group or both, and one
    sort answers every allocation in O(N log N); with three or more it walks
    the cover ``SCAN_ROWS`` allocations at a time, so its working memory
    stays a few MB at any cover size.

    Both blocking tests are exact in rationals of the binary floats, as
    ``exact_witness_valid`` re-checks them: the coalition sizes come from
    exact budget shares, and the margin test compares exact ranks of the
    linear and shortfall costs (other cost models compare in floats).
    """

    def __init__(self, inst: PBInstance, cover: np.ndarray):
        self.inst = inst
        self.cover = np.asarray(cover, dtype=float)
        matrix = cost_matrix(inst, self.cover)
        # hashing each row's bytes is linear, where sorting the rows is not
        numbers: dict[bytes, int] = {}
        self.group = np.array([numbers.setdefault(row.tobytes(), len(numbers)) for row in matrix])
        self.reps = np.unique(self.group, return_index=True)[1]  # first agent of each group
        self.rows = matrix[self.reps]
        self.pop_counts = panel_counts(self.group, self.rows.shape[0])
        # each row's sum, exact, as an integer over one power-of-two denominator
        values = sorted(set(self.cover.ravel().tolist()))
        ratios = [v.as_integer_ratio() for v in values]
        self._denom = math.lcm(*(den for _, den in ratios))
        scaled = {v: num * (self._denom // den) for v, (num, den) in zip(values, ratios)}
        self._sums = [sum(map(scaled.__getitem__, row)) for row in self.cover.tolist()]
        self._needs: dict[tuple[int, float], np.ndarray] = {}

    @property
    def n_alloc(self) -> int:
        return self.cover.shape[0]

    def group_counts(self, panel: Panel) -> np.ndarray:
        return panel_counts(self.group[np.asarray(panel.members)], self.rows.shape[0])

    def need(self, size: int, eta: float) -> np.ndarray:
        """Smallest coalition that can block by moving to each cover allocation:
        max(1, ceil((share + eta) * size)) for its exact budget share, capped
        at ``NEED_CAP``. In floats the share can round onto an integer that
        the exact one exceeds, so the ceiling is taken in integers over one
        common denominator."""
        if (size, eta) not in self._needs:
            b_num, b_den = Fraction(self.inst.B).as_integer_ratio()
            e_num, e_den = Fraction(eta).as_integer_ratio()
            # (sum / (denom * B) + eta) * size = (sum * b_den * e_den + slack) * size / den
            den = self._denom * b_num * e_den
            slack = e_num * self._denom * b_num
            need = [min(max(1, -(-(s * b_den * e_den + slack) * size // den)), NEED_CAP) for s in self._sums]
            self._needs[size, eta] = np.array(need, dtype=np.int32)  # compared with int32 counts
        return self._needs[size, eta]

    @cached_property
    def _exact(self) -> list[tuple[list[Fraction], np.ndarray] | None]:
        """Per group: the exact cost at each distinct cover row its model reads,
        and each allocation's index into that list; None without an exact form."""
        exact = []
        for rep in self.reps:
            model = self.inst.costs[rep]
            if isinstance(model, LinearCost):
                cols = [j for j, a in enumerate(model.alpha) if a] or [0]
            elif isinstance(model, SaturatingShortfallCost):
                cols = list(range(self.inst.m))
            else:
                exact.append(None)
                continue
            _, first, index = np.unique(self.cover[:, cols], axis=0, return_index=True, return_inverse=True)
            values = [_exact_cost(model, list(map(Fraction, self.cover[i].tolist()))) for i in first]
            exact.append((values, index.ravel()))
        return exact

    @cached_property
    def _orders(self) -> dict[tuple[float, float], tuple[np.ndarray, np.ndarray]]:
        """``order`` per (rho, tau); made on first use, as ``_exact`` is, since both follow the grouping."""
        return {}

    def order(self, rho: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """(groups, N) stand-ins for each cost and for rho * cost + tau: a group
        strictly prefers b to a by the margin iff ``better[g, b] < cost[g, a]``.
        They are ranks of the exact values, sorted together per group."""
        if (rho, tau) not in self._orders:
            rho_f, tau_f = Fraction(rho), Fraction(tau)
            cost, better = self.rows.copy(), rho * self.rows + tau
            for g, exact in enumerate(self._exact):
                if exact is not None:
                    values, index = exact
                    moved = [rho_f * c + tau_f for c in values]
                    rank = {v: i for i, v in enumerate(sorted({*values, *moved}))}
                    cost[g] = np.array([rank[c] for c in values], dtype=float)[index]
                    better[g] = np.array([rank[v] for v in moved], dtype=float)[index]
            self._orders[rho, tau] = cost, better
        return self._orders[rho, tau]

    def blocked_mask(self, counts: np.ndarray, size: int, eta: float, tau: float, rho: float) -> np.ndarray:
        """Boolean mask over the cover: allocation a admits a blocking move.

        T[a, b] counts the agents, from integer group counts, who strictly
        prefer cover[b] to cover[a] by the (rho, tau) margin; a is blocked
        when some b has share[b] * size <= T[a, b] and T[a, b] >= 1. A
        blocking coalition must be nonempty; the share test alone would let
        the empty set block via the all-zero allocation at eta = 0. For an
        integer T the two tests are T[a, b] >= ``need(size, eta)[b]``.

        With at most two nonzero groups, ``_dominance_mask`` answers this
        without T; three or more groups take the chunked scan of T, the only
        path that handles them. Both compare the same ``order`` ranks.
        """
        cost, better = self.order(rho, tau)
        need = self.need(size, eta)
        groups = np.flatnonzero(counts)
        weights = np.asarray(counts)[groups].astype(np.int32)
        if groups.size <= 2:
            return _dominance_mask(cost[groups], better[groups], weights, need)
        better = better[groups]  # (g, N): margin-adjusted cost at each b
        mask = np.empty(self.n_alloc, dtype=bool)
        for lo in range(0, self.n_alloc, SCAN_ROWS):
            current = cost[groups, lo : lo + SCAN_ROWS, None]  # (g, rows, 1): cost at each a
            T = np.zeros((current.shape[1], self.n_alloc), dtype=np.int32)
            for weight, b_cost, a_cost in zip(weights, better, current):
                T += weight * (b_cost < a_cost)
            mask[lo : lo + SCAN_ROWS] = (T >= need).any(axis=1)
        return mask

    def first_witness(self, x: np.ndarray, counts: np.ndarray, size: int, members: Sequence[int] | None, eta: float, tau: float, rho: float) -> CoreWitness | None:
        xf = [Fraction(float(v)) for v in x]
        rho_f, tau_f = Fraction(rho), Fraction(tau)
        improves = rho * self.rows + tau < np.array([_cost_of(self.inst, i, x) for i in self.reps])[:, None]  # (u, N)
        for g, exact in enumerate(self._exact):
            if exact is not None:
                values, index = exact
                at_x = _exact_cost(self.inst.costs[self.reps[g]], xf)
                improves[g] = np.array([rho_f * c + tau_f < at_x for c in values])[index]
        hits = np.flatnonzero(counts @ improves >= self.need(size, eta))
        if hits.size == 0:
            return None
        b = int(hits[0])
        alt = tuple(float(v) for v in self.cover[b])
        pool = range(self.inst.n) if members is None else members
        coalition = tuple(i for i in pool if improves[self.group[i], b])
        return CoreWitness(alt, coalition, len(coalition) / size)


def _dominance_mask(cost: np.ndarray, better: np.ndarray, weights: np.ndarray, need: np.ndarray) -> np.ndarray:
    """``CoreLab.blocked_mask`` for at most two groups, without the (N, N) table.

    A coalition is one group g, which can claim b when ``need[b] <= w_g``, or
    both groups, when ``need[b] <= w_0 + w_1``. One group blocks a iff the
    least ``better[g]`` over its claimable b is below ``cost[g, a]``. Both
    block a iff some claimable b beats a for each group: among the b sorted
    by ``better[0]``, the prefix below ``cost[0, a]`` (searchsorted, side
    left, so strictly below) holds a ``better[1]`` below ``cost[1, a]``
    (Bentley's two-dimensional dominance sweep, CACM 1980).
    """
    mask = np.zeros(need.shape, dtype=bool)
    for g, weight in enumerate(weights):
        claimable = need <= weight
        if claimable.any():
            mask |= better[g, claimable].min() < cost[g]
    claimable = need <= int(weights.sum())
    if len(weights) == 2 and claimable.any():
        first, second = better[:, claimable]
        order = np.argsort(first, kind="stable")
        least_second = np.minimum.accumulate(second[order])
        below = np.searchsorted(first[order], cost[0], side="left")  # how many b have first < cost[0, a]
        mask |= (below > 0) & (least_second[below - 1] < cost[1])
    return mask


def _cost_of(inst: PBInstance, agent: int, x: np.ndarray) -> float:
    return inst.costs[agent].cost(np.asarray(x, dtype=float))


def core_check(
    inst: PBInstance,
    x,
    eta: float,
    tau: float,
    rho: float,
    cover: np.ndarray,
    panel: Panel | None = None,
) -> CoreWitness | None:
    """Scan the cover for a blocking move against x; None means no move found.

    A witness pairs the first cover allocation x' (in cover order) with the
    set of agents whose cost strictly improves by a rho/tau margin, provided
    that set is large enough to claim the budget share of x' plus eta. With
    a panel, membership and the size denominator count multiplicity.
    """
    x = check_allocation(inst, x)
    lab = CoreLab(inst, cover)
    if panel is None:
        counts, size, members = lab.pop_counts, inst.n, None
    else:
        counts, size, members = lab.group_counts(panel), panel.k, panel.members
    return lab.first_witness(x, counts, size, members, eta, tau, rho)


def exact_witness_valid(
    inst: PBInstance, x, witness: CoreWitness, eta: float, tau: float, rho: float, size: int
) -> bool:
    """Re-verify both blocking inequalities in exact rational arithmetic.

    Grid coordinates are binary floats, hence exact fractions; linear and
    shortfall costs evaluate exactly over them.
    """
    xf = [Fraction(float(v)) for v in x]
    yf = [Fraction(float(v)) for v in witness.alternative]
    eta_f, tau_f, rho_f = Fraction(float(eta)), Fraction(float(tau)), Fraction(float(rho))
    budget = Fraction(float(inst.B))
    share_ok = sum(yf) / budget + eta_f <= Fraction(len(witness.coalition), size)
    if not share_ok:
        return False
    for i in witness.coalition:
        model = inst.costs[i]
        if rho_f * _exact_cost(model, yf) + tau_f >= _exact_cost(model, xf):
            return False
    return True


def _exact_cost(model: CostModel, x: list[Fraction]) -> Fraction:
    if isinstance(model, LinearCost):
        return sum((Fraction(a) * (1 - v) for a, v in zip(model.alpha, x)), Fraction(0))
    if isinstance(model, SaturatingShortfallCost):
        if model.b2 == 0.0:
            return Fraction(0)
        b2 = Fraction(model.b2)
        level = b2 / len(x)
        return sum((max(level - v, Fraction(0)) for v in x), Fraction(0)) / b2
    raise NotImplementedError("exact evaluation covers linear and shortfall models")


@dataclass(frozen=True)
class WelfareReport:
    k: int
    rho: float
    tau: float
    social_opt: float
    mean_social_cost: float
    ci_half_width: float
    trials: int
    seed: int

    @property
    def gap(self) -> float:
        return self.mean_social_cost - (self.rho * self.social_opt + self.tau)


def welfare_experiment(
    inst: PBInstance,
    k: int,
    rho: float = 1.0,
    tau: float = 0.0,
    trials: int = 2000,
    seed: int = 0,
    cover: np.ndarray | None = None,
) -> WelfareReport:
    """Estimate the expected social cost of the panel-chosen allocation.

    With rho = 1 and tau = 0 the panel picks its exact optimum (greedy for
    all-linear instances, cover argmin otherwise). For rho > 1 or tau > 0
    the panel instead takes the first cover point whose panel cost is within
    the (rho, tau) margin of its optimum, exercising sloppy deliberation.
    """
    all_linear = all(isinstance(c, LinearCost) for c in inst.costs)
    exact_decision = rho == 1.0 and tau == 0.0
    if (not all_linear or not exact_decision) and cover is None:
        raise ValueError("this configuration needs a cover")
    _, social_opt = optimal_allocation(inst, cover=cover)

    if exact_decision and all_linear:
        A = np.asarray([c.alpha for c in inst.costs])
        pop_agg = A.mean(axis=0)
        pop_base = float(A.sum(axis=1).mean())

        def statistic(members: np.ndarray) -> np.ndarray:
            x = _greedy_fill(A[members].mean(axis=1), inst.B)
            # a stacked matmul takes one dot per row, the same bits as pop_agg @ row
            return pop_base - np.matmul(pop_agg, x[:, :, None])[:, 0]

    else:
        M = cost_matrix(inst, cover)
        pop_costs = M.mean(axis=0)

        def statistic(members: np.ndarray) -> np.ndarray:
            weights = panel_counts(members, inst.n) / k
            # one vector-matrix product per row: a single gemm may round differently
            costs = np.matmul(weights[:, None, :], M)[:, 0]
            if exact_decision:
                idx = np.argmin(costs, axis=1)
            else:
                target = rho * costs.min(axis=1) + tau
                idx = np.argmax(costs <= (target + FEAS_TOL)[:, None], axis=1)
            return pop_costs[idx]

    plan = TrialPlan(n=inst.n, k=k, trials=trials, seed=seed)
    est = monte_carlo(plan, statistic)
    return WelfareReport(k, rho, tau, social_opt, est.mean, est.half_width_95, trials, seed)


@dataclass(frozen=True)
class CoreReport:
    k: int
    eps: float
    eta: float
    tau: float
    rho: float
    failure_rate: float
    ci_half_width: float
    unresolved: int
    trials: int
    seed: int
    step: float


def default_core_step(inst: PBInstance, eps: float, rho: float) -> float:
    """Cover resolution matched to the eps slack absorbed by the conclusion."""
    return eps / (4.0 * max(rho, inst.B) * inst.m)


def core_extrapolation_experiment(
    inst: PBInstance,
    k: int,
    eps: float,
    eta: float = 0.0,
    tau: float = 0.0,
    rho: float = 1.0,
    trials: int = 2000,
    seed: int = 0,
    step: float | None = None,
) -> CoreReport:
    """Fraction of panels whose panel-core pick fails the slackened population core.

    Each trial searches the cover in order for an allocation in the panel's
    (eta, tau, rho)-core; that allocation is then tested against the
    population core at (eta + eps, tau + eps, rho). Trials with no
    panel-core point at this resolution are counted as unresolved rather
    than silently passed. Each cover point that fails is re-verified once,
    at the first trial that chose it, with the exact-arithmetic witness
    check (the verdict depends only on the point).
    """
    if step is None:
        step = default_core_step(inst, eps, rho)
    cover = simplex_cover(inst.m, inst.B, step)
    lab = CoreLab(inst, cover)
    pop_blocked = lab.blocked_mask(lab.pop_counts, inst.n, eta + eps, tau + eps, rho)

    panel_core_cache: dict[bytes, int] = {}

    def panel_core_index(counts: np.ndarray) -> int:
        key = counts.tobytes()
        if key not in panel_core_cache:
            blocked = lab.blocked_mask(counts, k, eta, tau, rho)
            free = np.flatnonzero(~blocked)
            panel_core_cache[key] = int(free[0]) if free.size else -1
        return panel_core_cache[key]

    def chosen(members: np.ndarray) -> np.ndarray:
        """Cover index of each trial's panel-core pick, -1 where there is none."""
        return np.array([panel_core_index(c) for c in panel_counts(lab.group[members], lab.rows.shape[0])])

    picks = trial_values(TrialPlan(inst.n, k, trials=trials, seed=seed), chosen).astype(np.intp)
    resolved = int(np.count_nonzero(picks >= 0))
    if resolved == 0:
        raise RuntimeError("no trial found a panel-core point at this resolution")
    failing = np.flatnonzero((picks >= 0) & pop_blocked[picks])
    _, first = np.unique(picks[failing], return_index=True)
    for t in np.sort(failing[first]).tolist():  # each failing point once, at its first trial
        x = lab.cover[picks[t]]
        witness = lab.first_witness(x, lab.pop_counts, inst.n, None, eta + eps, tau + eps, rho)
        if witness is None or not exact_witness_valid(inst, x, witness, eta + eps, tau + eps, rho, inst.n):
            raise RuntimeError(f"population-core failure on trial {t} did not re-verify exactly")
    est = proportion_ci(failing.size, resolved)
    return CoreReport(
        k, eps, eta, tau, rho, est.mean, est.half_width_95, trials - resolved, trials, seed, step
    )


def pb_lower_instance(z: Sequence[int], h: int, w: int, r: int) -> PBInstance:
    """Hidden-sign budgeting family: agent i wants exactly project label(i).

    2h projects, budget h. Every agent's cost is 1 - x_j for its camouflaged
    label j, so the optimum funds the heavier project of each pair and costs
    exactly 1/2 - 1/(2w).
    """
    pop = make_camouflaged(z, h, w, r)
    return pb_instance_from_population(pop)


def pb_instance_from_population(pop: CamouflagedPopulation) -> PBInstance:
    m = 2 * pop.h
    costs = []
    for label in pop.labels:
        alpha = [0.0] * m
        alpha[label - 1] = 1.0
        costs.append(LinearCost(tuple(alpha)))
    return PBInstance(m, float(pop.h), tuple(costs))


def pb_lower_opt(w: int) -> float:
    return 0.5 - 0.5 / w


def impossibility_budget_split(m: int, B: float) -> tuple[float, float]:
    """Split B = B1 + B2 with B1 + B2/m <= 1 and a 1-Lipschitz shortfall cost.

    Follows the closed forms B1 = (m - B)/(m - 1), B2 = m(B - 1)/(m - 1)
    when they give B2 >= 1, and otherwise clamps B2 up to 1 (for B > 1) or
    down to 0 (for B <= 1) so the shortfall model keeps its unit slope bound.
    """
    if not 0.0 < B < m:
        raise ValueError("need 0 < B < m")
    if B <= 1.0:
        return float(B), 0.0
    b2 = max(1.0, m * (B - 1.0) / (m - 1.0))
    return float(B - b2), float(b2)


def _single_project_cost(m: int, j: int, intercept: float) -> CostModel:
    """cost(x) = max(intercept - x_j, 0) as a linear or grid-table model."""
    if intercept >= 1.0 - FEAS_TOL:
        alpha = [0.0] * m
        alpha[j] = 1.0
        return LinearCost(tuple(alpha))
    axes = [(0.0, 1.0)] * m
    axes[j] = (0.0, float(intercept), 1.0)
    shape = tuple(len(a) for a in axes)
    values = np.zeros(shape)
    it = np.ndindex(shape)
    for idx in it:
        xj = axes[j][idx[j]]
        values[idx] = max(intercept - xj, 0.0)
    return GridTableCost(axes, values)


def pb_impossibility_family(m: int, B: float, k: int) -> tuple[PBInstance, PBInstance]:
    """Two instances on k+2 agents differing only in the last agent's cost.

    The first k+1 agents share the shortfall cost; the last agent wants
    project 1 in the first instance and project 2 in the second. Both have
    a zero-cost optimum, yet any panel avoiding the last agent cannot tell
    the instances apart, so no purely multiplicative guarantee holds.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    b1, b2 = impossibility_budget_split(m, B)
    n = k + 2
    base = SaturatingShortfallCost(b2)
    intercept = b1 + b2 / m
    first = _single_project_cost(m, 0, intercept)
    second = _single_project_cost(m, 1, intercept)
    inst1 = PBInstance(m, B, (base,) * (n - 1) + (first,))
    inst2 = PBInstance(m, B, (base,) * (n - 1) + (second,))
    return inst1, inst2


def impossibility_zero_allocation(m: int, B: float, project: int) -> np.ndarray:
    """The zero-cost allocation for the instance whose last agent wants `project`."""
    b1, b2 = impossibility_budget_split(m, B)
    x = np.full(m, b2 / m)
    x[project] = b1 + b2 / m
    return x
