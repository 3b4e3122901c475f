"""Single-facility location: costs, panel optima, reductions, and hard instances.

Candidate sets are always explicit finite lists. The order of the candidate
list matters: argmin ties are broken toward the smallest candidate index, and
the generators below exploit that to pin down reproducible worst cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .model import (
    Box,
    MetricSpace,
    Norm,
    Panel,
    Segment,
    canonical_point,
    make_camouflaged,
    pairwise,
)

COVER_CAP = 10**7

#: Distances gathered per step of CandidateDistances.panel_optimum_index (8 MB).
GATHER_CELLS = 2**20


@dataclass(frozen=True)
class FacilityInstance:
    """Agents and a finite candidate list inside one metric space."""

    space: MetricSpace
    candidates: tuple
    agents: tuple

    def __post_init__(self):
        cands = tuple(canonical_point(self.space, c) for c in self.candidates)
        agents = tuple(canonical_point(self.space, a) for a in self.agents)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "agents", agents)
        if not cands:
            raise ValueError("candidate list must be nonempty")
        if not agents:
            raise ValueError("agent list must be nonempty")
        for p in cands + agents:
            if not self.space.contains(p):
                raise ValueError(f"point {p!r} lies outside the space")

    @property
    def n(self) -> int:
        return len(self.agents)

    def candidate_index(self, q) -> int:
        q = canonical_point(self.space, q)
        try:
            return self.candidates.index(q)
        except ValueError:
            raise ValueError(f"{q!r} is not in the candidate list") from None


class CandidateDistances:
    """Cached candidate-by-agent distance matrix for one instance."""

    def __init__(self, inst: FacilityInstance):
        self.inst = inst
        self.matrix = pairwise(inst.space, inst.candidates, inst.agents)
        self.social = self.matrix.mean(axis=1)

    def optimum_index(self) -> int:
        return int(np.argmin(self.social))

    def panel_optimum_index(self, members) -> int | np.ndarray:
        """Least-cost candidate (ties to the smallest index) of one panel, as an
        int, or of each row of a ``(rows, k)`` member matrix, gathered a few
        rows at a time."""
        members = np.asarray(members)
        if members.ndim == 1:  # one panel, as panel_optimum passes
            return int(np.argmin(self.matrix[:, members].mean(axis=-1)))
        step = max(1, GATHER_CELLS // (self.matrix.shape[0] * members.shape[1]))
        return np.concatenate([
            np.argmin(self.matrix[:, members[lo : lo + step]].mean(axis=-1), axis=0)
            for lo in range(0, len(members), step)
        ])


def social_cost(inst: FacilityInstance, q) -> float:
    """Average distance from q (which must be a candidate) to the agents."""
    return float(np.mean(_agent_distances(inst, q)))


def panel_cost(inst: FacilityInstance, q, panel: Panel) -> float:
    return float(np.mean(_agent_distances(inst, q)[np.asarray(panel.members)]))


def _agent_distances(inst: FacilityInstance, q) -> np.ndarray:
    c = inst.candidates[inst.candidate_index(q)]
    return pairwise(inst.space, [c], inst.agents)[0]


def social_optimum(inst: FacilityInstance) -> tuple[object, float]:
    """Best candidate for the whole population and its social cost."""
    cd = CandidateDistances(inst)
    idx = cd.optimum_index()
    return inst.candidates[idx], float(cd.social[idx])


def panel_optimum(inst: FacilityInstance, panel: Panel):
    """Candidate minimizing the panel cost; ties go to the smallest index."""
    cd = CandidateDistances(inst)
    return inst.candidates[cd.panel_optimum_index(panel.members)]


def tail_panel_size(T: float, delta: float) -> int:
    """Closed-form panel size for the distance-T tail guarantee.

    Defined for T > 2 only; at T = 2 the guarantee provably fails on the
    star instance, so smaller T is rejected.
    """
    if not T > 2.0:
        raise ValueError("tail guarantee requires T > 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    k = 2.0 * math.log(1.0 / delta) / math.log(T * T / (4.0 * (T - 1.0)))
    return max(1, math.ceil(k))


@dataclass(frozen=True)
class ReducedInstance:
    """A reduction output; degenerate marks inputs whose optimum cost is 0."""

    instance: FacilityInstance
    opt: float
    degenerate: bool


def metric_map_to_line(inst: FacilityInstance, T: float) -> ReducedInstance:
    """Project an instance onto the half line through x -> d(x, q*).

    Agent i maps to its distance from the population optimum q*, which
    preserves distances to q* exactly and contracts all others. The
    candidate list becomes 0 (the image of q*) followed by T*Opt and the
    images of the original candidates at least T*Opt away, ascending.
    """
    q_star, opt = social_optimum(inst)
    mapped = pairwise(inst.space, [q_star], inst.agents)[0].tolist()
    if opt <= 0.0:
        hi = max(max(mapped), 1.0)
        line = FacilityInstance(Segment(0.0, hi + 1.0), (0.0,), tuple(mapped))
        return ReducedInstance(line, 0.0, True)
    cut = T * opt
    to_candidates = pairwise(inst.space, [q_star], inst.candidates)[0].tolist()
    far = sorted({cut} | {d for d in to_candidates if d >= cut - 1e-12})
    hi = max(max(mapped), far[-1]) + 1.0
    line = FacilityInstance(Segment(0.0, hi), (0.0, *far), tuple(mapped))
    return ReducedInstance(line, opt, False)


def finite_interval_reduce(
    line_inst: FacilityInstance, T: float, opt: float | None = None
) -> ReducedInstance:
    """Clamp a half-line instance with optimum 0 onto [0, T] with C = {0, T}.

    Agents are rescaled so the optimum cost is 1 (``opt`` overrides the
    computed cost at 0, for callers that already normalized), then clamped
    at T. The population optimum stays at 0 and any panel whose optimum was
    a far candidate in the input lands on T in the output.
    """
    if not isinstance(line_inst.space, Segment) or line_inst.candidates[0] != 0.0:
        raise ValueError("expected a half-line instance with candidate 0 first")
    if opt is None:
        opt = float(np.mean(line_inst.agents))  # distances to 0 on the half line
    if opt <= 0.0:
        return ReducedInstance(line_inst, 0.0, True)
    clamped = tuple(min(a / opt, float(T)) for a in line_inst.agents)
    inst = FacilityInstance(Segment(0.0, float(T)), (0.0, float(T)), clamped)
    return ReducedInstance(inst, float(np.mean(clamped)), False)


def box_cover(dim: int, radius: float, norm: Norm) -> list[tuple[float, ...]]:
    """Axis-aligned grid covering the unit cube with balls of the given radius.

    Per-axis step is 2*radius for the sup norm and 2*radius/dim for l1, so
    every cube point is within the radius of some cover point.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    norm = Norm(norm)
    step = 2.0 * radius if norm is Norm.LINF else 2.0 * radius / dim
    per_axis = max(1, math.ceil(1.0 / step - 1e-12))
    if per_axis**dim > COVER_CAP:
        raise ValueError(f"cover of size {per_axis**dim} exceeds the cap")
    centers = [min((i + 0.5) * step, 1.0) for i in range(per_axis)]
    return list(product(centers, repeat=dim))


def star_instance(k: int) -> FacilityInstance:
    """Population of 2k+1 line agents that defeats the distance-2 guarantee.

    k agents sit at 0, k at 1, and one more at 0, so the optimum is 0 with
    cost k/(2k+1) < 1/2. The candidate list is (1, 0): panels split evenly
    between the two ends then pick 1, which is how an adversary would break
    ties against a rule that favors the first candidate.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    agents = (0.0,) * k + (1.0,) * k + (0.0,)
    return FacilityInstance(Segment(0.0, 1.0), (1.0, 0.0), agents)


def linf_lower_instance(z: Sequence[int], t: int, w: int, r: int) -> FacilityInstance:
    """Hidden-sign population in the sup-norm cube with a 3^t candidate grid.

    Each camouflaged label 2j maps to the point c + e_j and 2j-1 to c - e_j,
    where c is the cube center and e_j moves coordinate j by 1/2. Candidates
    range over {1/4, 1/2, 3/4}^t, which contains every possible optimum
    corner c + sum_j (z_j/2) e_j.
    """
    z = tuple(int(s) for s in z)
    if len(z) != t:
        raise ValueError("need len(z) == t")
    pop = make_camouflaged(z, t, w, r)
    agents = []
    for label in pop.labels:
        j = (label + 1) // 2  # pair index 1..t
        coord = 1.0 if label % 2 == 0 else 0.0
        point = [0.5] * t
        point[j - 1] = coord
        agents.append(tuple(point))
    candidates = tuple(product((0.25, 0.5, 0.75), repeat=t))
    return FacilityInstance(Box(t, Norm.LINF), candidates, tuple(agents))


def linf_optimal_point(z: Sequence[int]) -> tuple[float, ...]:
    """The grid corner realizing social cost 1/2 - 1/(4w) on the instance above."""
    return tuple(0.75 if int(s) > 0 else 0.25 for s in z)

