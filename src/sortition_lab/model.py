"""Shared domain types: metric spaces, features, discrete distributions, panels.

All types are immutable after construction. Constructors validate their
invariants and raise ``ValueError`` on bad input; axiom checking with a
structured report is available through :func:`validate_metric`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

#: Support points closer than this are treated as the same point and merged.
MERGE_TOL = 1e-12

#: Tolerance for metric axiom checks on explicit distance matrices.
METRIC_TOL = 1e-9


class Norm(enum.Enum):
    L1 = "l1"
    LINF = "linf"


class Mode(enum.Enum):
    WITHOUT_REPLACEMENT = "without_replacement"
    WITH_REPLACEMENT = "with_replacement"


@dataclass(frozen=True)
class Segment:
    """Closed interval [lo, hi] with the absolute-difference metric."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"segment needs lo < hi, got [{self.lo}, {self.hi}]")

    def distance(self, x, y) -> float:
        return abs(float(x) - float(y))

    def contains(self, x) -> bool:
        return self.lo - MERGE_TOL <= float(x) <= self.hi + MERGE_TOL


@dataclass(frozen=True)
class Box:
    """Unit cube [0,1]^dim under the l1 or l-infinity norm."""

    dim: int
    norm: Norm

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("box dimension must be positive")
        if not isinstance(self.norm, Norm):
            object.__setattr__(self, "norm", Norm(self.norm))

    def distance(self, x, y) -> float:
        diffs = [abs(float(a) - float(b)) for a, b in zip(x, y, strict=True)]
        return sum(diffs) if self.norm is Norm.L1 else max(diffs)

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            return False
        return all(-MERGE_TOL <= float(c) <= 1.0 + MERGE_TOL for c in x)


class FiniteMetric:
    """Explicit metric on points {0, ..., n-1} given by a distance matrix.

    The matrix must be symmetric, nonnegative, zero on the diagonal and
    satisfy the triangle inequality within ``METRIC_TOL``.
    """

    __slots__ = ("dist",)

    def __init__(self, dist):
        mat = np.asarray(dist, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("distance matrix must be square")
        if mat.shape[0] < 1:
            raise ValueError("distance matrix must be nonempty")
        violation = validate_metric(mat)
        if violation is not None:
            raise ValueError(f"not a metric: {violation}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "dist", mat)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMetric is immutable")

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    @classmethod
    def discrete(cls, n: int) -> "FiniteMetric":
        """Uniform 0/1 metric on n points."""
        mat = np.ones((n, n)) - np.eye(n)
        return cls(mat)

    def distance(self, x, y) -> float:
        return float(self.dist[int(x), int(y)])

    def contains(self, x) -> bool:
        return isinstance(x, (int, np.integer)) and 0 <= int(x) < self.n_points

    def __eq__(self, other):
        return isinstance(other, FiniteMetric) and np.array_equal(self.dist, other.dist)

    def __hash__(self):
        return hash((self.n_points, self.dist.tobytes()))

    def __repr__(self):
        return f"FiniteMetric(n_points={self.n_points})"


MetricSpace = Union[Segment, Box, FiniteMetric]

Point = Union[float, tuple, int]


def canonical_point(space: MetricSpace, p) -> Point:
    """Normalize a raw point to the hashable representation used internally."""
    if isinstance(space, Segment):
        return float(p)
    if isinstance(space, Box):
        return tuple(float(c) for c in p)
    return int(p)


def pairwise(space: MetricSpace, xs: Sequence, ys: Sequence) -> np.ndarray:
    """Distance matrix with entry [i, j] equal to ``space.distance(xs[i], ys[j])``.

    Entries match the scalar distance bit for bit: box coordinates are
    added one at a time in coordinate order, as the scalar l1 sum does.
    """
    if isinstance(space, FiniteMetric):
        return space.dist[np.ix_(np.asarray(xs, dtype=int), np.asarray(ys, dtype=int))]
    if isinstance(space, Segment):
        return np.abs(np.asarray(xs, dtype=float)[:, None] - np.asarray(ys, dtype=float)[None, :])
    X = np.asarray(xs, dtype=float).reshape(len(xs), space.dim)
    Y = np.asarray(ys, dtype=float).reshape(len(ys), space.dim)
    combine = np.add if space.norm is Norm.L1 else np.maximum
    out = np.abs(X[:, None, 0] - Y[None, :, 0])
    for c in range(1, space.dim):
        out = combine(out, np.abs(X[:, None, c] - Y[None, :, c]))
    return out


@dataclass(frozen=True)
class MetricViolation:
    """First violated metric axiom, with the witnessing point indices."""

    axiom: str
    witness: tuple

    def __str__(self):
        return f"{self.axiom} violated at {self.witness}"


def validate_metric(space_or_matrix) -> MetricViolation | None:
    """Check metric axioms; return the first violation found, or None.

    Accepts a raw square matrix (so candidate matrices can be screened
    before constructing a :class:`FiniteMetric`) or any metric space.
    Segment and Box satisfy the axioms by construction. Axioms are checked
    in the order: zero diagonal, symmetry, nonnegativity, triangle
    inequality. Triangle witnesses are reported as (i, j, k) meaning
    d(i, j) > d(i, k) + d(k, j) + tol.
    """
    if isinstance(space_or_matrix, (Segment, Box)):
        return None
    if isinstance(space_or_matrix, FiniteMetric):
        mat = space_or_matrix.dist
    else:
        mat = np.asarray(space_or_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("distance matrix must be square")
    n = mat.shape[0]
    for i in range(n):
        if abs(mat[i, i]) > METRIC_TOL:
            return MetricViolation("identity", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(mat[i, j] - mat[j, i]) > METRIC_TOL:
                return MetricViolation("symmetry", (i, j))
    if np.min(mat) < -METRIC_TOL:
        i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
        return MetricViolation("nonnegativity", (int(i), int(j)))
    # d[i, j] <= d[i, k] + d[k, j] for all triples, vectorized over k
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            slack = mat[i, :] + mat[:, j] - mat[i, j]
            k = int(np.argmin(slack))
            if slack[k] < -METRIC_TOL:
                return MetricViolation("triangle", (i, j, k))
    return None


@dataclass(frozen=True)
class Feature:
    """Assignment of one point in a metric space to each agent."""

    space: MetricSpace
    values: tuple

    def __post_init__(self):
        values = tuple(canonical_point(self.space, v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("feature needs at least one agent")
        for i, v in enumerate(values):
            if not self.space.contains(v):
                raise ValueError(f"value {v!r} of agent {i} lies outside the space")

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        """Values as a float array; only defined on a Segment."""
        if not isinstance(self.space, Segment):
            raise TypeError("as_array requires a Segment-valued feature")
        return np.asarray(self.values, dtype=float)


def real_feature(values: Sequence[float], lo: float = 0.0, hi: float = 1.0) -> Feature:
    """Feature on the segment [lo, hi]."""
    return Feature(Segment(lo, hi), tuple(float(v) for v in values))


class DiscreteDistribution:
    """Finitely supported probability distribution over a metric space.

    Support points within ``MERGE_TOL`` of each other are merged, with their
    masses added. On a ``Segment`` the points are stably sorted by value and
    merged in one pass (the anchor rule): a group is the run of sorted points
    within ``MERGE_TOL`` of its smallest point, so which points merge does
    not depend on the input order. A group keeps its first point in input
    order and adds its masses and counts in input order; the support is
    sorted. Elsewhere each point joins the first kept point within
    ``MERGE_TOL``, in input order; on a ``Segment`` that scan, then sorted,
    agrees with the anchor rule unless near-duplicates form a chain (y
    within ``MERGE_TOL`` of x and z of y, but z not of x).
    When built from integer counts (see :meth:`from_counts`)
    the exact rational masses are retained alongside the float ones, which
    lets transport computations on the line return correctly rounded
    results.
    """

    __slots__ = ("space", "support", "masses", "counts", "denom")

    def __init__(self, space: MetricSpace, support: Iterable, masses, _counts=None, _denom=None):
        points = [canonical_point(space, p) for p in support]
        weights = [float(m) for m in masses]
        if len(points) != len(weights):
            raise ValueError("support and masses must have equal length")
        if not points:
            raise ValueError("distribution needs nonempty support")
        for p in points:
            if not space.contains(p):
                raise ValueError(f"support point {p!r} lies outside the space")
        if min(weights) < 0.0:
            raise ValueError("masses must be nonnegative")
        counts = list(_counts) if _counts is not None else None

        group, size = _anchor_groups(points) if isinstance(space, Segment) else _scan_groups(space, points)
        merged_pts: list = [None] * size
        merged_w: list = [None] * size
        merged_c = [0] * size if counts is not None else None
        for i, g in enumerate(group):  # input order
            if merged_w[g] is None:
                merged_pts[g], merged_w[g] = points[i], weights[i]
            else:
                merged_w[g] += weights[i]
            if merged_c is not None:
                merged_c[g] += counts[i]

        total = math.fsum(merged_w)
        if not abs(total - 1.0) <= MERGE_TOL:  # also rejects a nan total
            raise ValueError(f"masses must sum to 1, got {total!r}")

        object.__setattr__(self, "space", space)
        object.__setattr__(self, "support", tuple(merged_pts))
        arr = np.asarray(merged_w, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)
        object.__setattr__(self, "counts", tuple(merged_c) if merged_c is not None else None)
        object.__setattr__(self, "denom", int(_denom) if _denom is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def from_counts(cls, space: MetricSpace, support: Iterable, counts: Sequence[int]) -> "DiscreteDistribution":
        """Distribution with exact masses count_i / sum(counts)."""
        counts = [int(c) for c in counts]
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        total = sum(counts)
        if total <= 0:
            raise ValueError("counts must not all be zero")
        masses = [c / total for c in counts]
        return cls(space, support, masses, _counts=counts, _denom=total)

    @property
    def is_exact(self) -> bool:
        return self.counts is not None

    def exact_masses(self) -> tuple[Fraction, ...]:
        if not self.is_exact:
            raise ValueError("distribution was not built from counts")
        return tuple(Fraction(c, self.denom) for c in self.counts)

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (
            self.space == other.space
            and self.support == other.support
            and np.array_equal(self.masses, other.masses)
        )

    def __repr__(self):
        return f"DiscreteDistribution(support={len(self.support)} points)"


def _anchor_groups(points: list) -> tuple[list[int], int]:
    """Group of each line point under the anchor rule, numbered by value: one stable sort, one pass."""
    group = [0] * len(points)
    size, anchor = 0, -math.inf
    for i in sorted(range(len(points)), key=points.__getitem__):
        if points[i] - anchor >= MERGE_TOL:  # a new group starts at its smallest point
            anchor = points[i]
            size += 1
        group[i] = size - 1
    return group, size


def _scan_groups(space: MetricSpace, points: list) -> tuple[list[int], int]:
    """Group of each point: the first kept point within ``MERGE_TOL``, numbered as kept in input order."""
    kept: list = []
    group = []
    for p in points:
        hit = next((g for g, q in enumerate(kept) if space.distance(p, q) < MERGE_TOL), None)
        if hit is None:
            hit = len(kept)
            kept.append(p)
        group.append(hit)
    return group, len(kept)


@dataclass(frozen=True)
class Panel:
    """A size-k selection of agent indices out of a population of n.

    Without replacement the members are a strictly increasing subset;
    with replacement they form a nondecreasing multiset.
    """

    n: int
    members: tuple[int, ...]
    mode: Mode = Mode.WITHOUT_REPLACEMENT

    def __post_init__(self):
        members = tuple(map(int, self.members))
        object.__setattr__(self, "members", members)
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))
        if self.n < 1:
            raise ValueError("population size must be positive")
        if not members:
            raise ValueError("panel must be nonempty")
        if members[0] < 0 or members[-1] >= self.n:
            raise ValueError("member index out of range")
        if self.mode is Mode.WITHOUT_REPLACEMENT:
            if not all(map(operator.lt, members, members[1:])):
                raise ValueError("members must be strictly increasing without replacement")
        elif not all(map(operator.le, members, members[1:])):
            raise ValueError("members must be nondecreasing")

    @property
    def k(self) -> int:
        return len(self.members)

    @classmethod
    def full(cls, n: int) -> "Panel":
        return cls(n, tuple(range(n)))


def panel_counts(codes, size: int) -> np.ndarray:
    """Occurrences of each code 0..size-1 in one panel's codes.

    ``codes`` holds one code per member (an agent index, a distinct value,
    a group); a (panels, k) matrix gives a (panels, size) matrix of counts,
    one row per panel.
    """
    codes = np.asarray(codes)
    if codes.ndim == 1:
        return np.bincount(codes, minlength=size)
    rows = codes.shape[0]
    flat = np.arange(rows)[:, None] * size + codes
    return np.bincount(flat.ravel(), minlength=rows * size).reshape(rows, size)


@dataclass(frozen=True)
class CamouflagedPopulation:
    """Near-uniform labeled population hiding a sign vector z.

    Agents carry labels 1..2h. For each pair index j, the label 2j is held
    by r*(w + z_j) agents and the label 2j-1 by r*(w - z_j) agents, so each
    pair covers exactly a 1/h fraction of the population while individual
    labels deviate from uniform by z_j/w. Labels are assigned in
    deterministic index blocks, ordered by label.
    """

    h: int
    w: int
    r: int
    z: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def n(self) -> int:
        return 2 * self.h * self.w * self.r

    def label_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {v: 0 for v in range(1, 2 * self.h + 1)}
        for v in self.labels:
            counts[v] += 1
        return counts

    def assignment_feature(self) -> Feature:
        """Feature view on the discrete metric over 2h points (0-based)."""
        return Feature(FiniteMetric.discrete(2 * self.h), tuple(v - 1 for v in self.labels))


def make_camouflaged(z: Sequence[int], h: int, w: int, r: int) -> CamouflagedPopulation:
    """Build the camouflaged population for a sign vector z.

    Requires len(z) == h, h >= 2, w >= 2, r >= 1 and entries in {-1, +1}.
    """
    z = tuple(int(s) for s in z)
    if len(z) != h:
        raise ValueError(f"need len(z) == h, got {len(z)} != {h}")
    if h < 2 or w < 2:
        raise ValueError("h and w must be at least 2")
    if r < 1:
        raise ValueError("r must be at least 1")
    if any(s not in (-1, 1) for s in z):
        raise ValueError("z entries must be -1 or +1")
    labels: list[int] = []
    for j in range(1, h + 1):
        labels.extend([2 * j - 1] * (r * (w - z[j - 1])))
        labels.extend([2 * j] * (r * (w + z[j - 1])))
    pop = CamouflagedPopulation(h, w, r, z, tuple(labels))
    assert len(labels) == pop.n
    return pop


def majority_estimator(panel_values: Sequence[int], h: int) -> tuple[int, ...]:
    """Recover a sign vector from observed labels by per-pair majority.

    Entry j is +1 iff label 2j occurs strictly more often than label 2j-1;
    ties resolve to -1 so repeated runs are reproducible.
    """
    values = np.asarray(panel_values, dtype=int)
    bad = values[(values < 1) | (values > 2 * h)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range 1..{2 * h}")
    return tuple(majority_signs(panel_counts(values, 2 * h + 1), h).tolist())


def majority_signs(counts: np.ndarray, h: int) -> np.ndarray:
    """``majority_estimator``'s rule on label counts (columns 0..2h), one row per panel."""
    return np.where(counts[..., 2 : 2 * h + 1 : 2] > counts[..., 1 : 2 * h : 2], 1, -1)
