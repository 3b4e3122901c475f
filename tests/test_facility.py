import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import shortest_path_closure
from hypothesis import given, settings
from hypothesis import strategies as st

from sortition_lab import experiments, facility
from sortition_lab.facility import (
    CandidateDistances,
    FacilityInstance,
    box_cover,
    finite_interval_reduce,
    linf_lower_instance,
    linf_optimal_point,
    metric_map_to_line,
    panel_cost,
    panel_optimum,
    social_cost,
    social_optimum,
    star_instance,
    tail_panel_size,
)
from sortition_lab.model import Box, FiniteMetric, Mode, Norm, Panel, Segment
from sortition_lab.sampling import TrialPlan, _weighted_panels, block_members

LINE = Segment(0.0, 1.0)


def line_instance(agents, candidates=(0.0, 1.0)):
    return FacilityInstance(LINE, candidates, agents)


class TestCosts:
    def test_social_cost_simple(self):
        inst = line_instance((0.0, 0.0, 1.0))
        assert social_cost(inst, 0.0) == pytest.approx(1 / 3)

    def test_singleton_panel_zero(self):
        inst = line_instance((0.2, 0.8), candidates=(0.2, 0.8))
        assert panel_cost(inst, 0.2, Panel(2, (0,))) == 0.0

    def test_star_population_cost(self):
        inst = star_instance(2)
        assert inst.agents == (0.0, 0.0, 1.0, 1.0, 0.0)
        assert social_cost(inst, 0.0) == pytest.approx(0.4)

    def test_rejects_non_candidate(self):
        inst = line_instance((0.0, 1.0))
        with pytest.raises(ValueError, match="candidate"):
            social_cost(inst, 0.5)


class TestPanelOptimum:
    def test_median_side(self):
        inst = line_instance((0.0, 0.0, 1.0))
        assert panel_optimum(inst, Panel.full(3)) == 0.0

    def test_single_agent(self):
        inst = line_instance((0.0, 0.0, 1.0))
        assert panel_optimum(inst, Panel(3, (2,))) == 1.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            agents = tuple(rng.random(20))
            candidates = tuple(np.linspace(0.0, 1.0, 11))
            inst = FacilityInstance(LINE, candidates, agents)
            members = tuple(sorted(rng.choice(20, size=7, replace=False)))
            panel = Panel(20, members)
            best = min(candidates, key=lambda q: (panel_cost(inst, q, panel), q))
            assert panel_optimum(inst, panel) == best


class TestTailPanelSize:
    def test_values(self):
        assert tail_panel_size(3.0, 0.1) == 40
        assert tail_panel_size(4.0, 0.1) == 17

    def test_ceiling_against_high_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        for T, delta in [(3.0, 0.1), (4.0, 0.05), (2.5, 0.2), (10.0, 0.01)]:
            want = int(mp.ceil(2 * mp.log(1 / mp.mpf(delta)) / mp.log(mp.mpf(T) ** 2 / (4 * (mp.mpf(T) - 1)))))
            assert tail_panel_size(T, delta) == want

    def test_domain_boundary(self):
        with pytest.raises(ValueError):
            tail_panel_size(2.0, 0.1)
        with pytest.raises(ValueError):
            tail_panel_size(3.0, 0.0)


class TestLineReduction:
    def test_half_line_identity(self):
        inst = line_instance((0.0, 0.0, 1.0))
        reduced = metric_map_to_line(inst, T=3.0)
        assert not reduced.degenerate
        assert reduced.instance.agents == (0.0, 0.0, 1.0)
        assert reduced.instance.candidates[0] == 0.0

    def test_finite_metric_maps_to_distance_row(self):
        mat = shortest_path_closure(np.array([
            [0.0, 0.3, 0.9, 0.7],
            [0.3, 0.0, 0.6, 0.8],
            [0.9, 0.6, 0.0, 0.5],
            [0.7, 0.8, 0.5, 0.0],
        ]))
        space = FiniteMetric(mat)
        inst = FacilityInstance(space, (0, 1, 2, 3), (0, 1, 2, 3))
        q_star, _ = social_optimum(inst)
        reduced = metric_map_to_line(inst, T=2.5)
        np.testing.assert_allclose(reduced.instance.agents, mat[q_star])

    def test_contraction_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            mat = shortest_path_closure(rng.uniform(0.1, 1.0, size=(6, 6)))
            space = FiniteMetric(mat)
            inst = FacilityInstance(space, tuple(range(6)), tuple(rng.integers(0, 6, size=10)))
            q_star, _ = social_optimum(inst)
            mapped = [space.distance(q_star, a) for a in inst.agents]
            for i in range(10):
                for j in range(10):
                    original = space.distance(inst.agents[i], inst.agents[j])
                    assert abs(mapped[i] - mapped[j]) <= original + 1e-12

    def test_degenerate_flagged(self):
        inst = line_instance((0.5, 0.5), candidates=(0.5, 1.0))
        reduced = metric_map_to_line(inst, T=3.0)
        assert reduced.degenerate and reduced.opt == 0.0

    def test_far_panel_choices_stay_far(self):
        # a panel whose optimum is T*Opt away from the population optimum
        # must keep a nonzero optimum after the projection onto the line
        rng = np.random.default_rng(7)
        from itertools import combinations

        hits = 0
        for _ in range(40):
            mat = shortest_path_closure(rng.uniform(0.1, 1.0, size=(7, 7)))
            space = FiniteMetric(mat)
            inst = FacilityInstance(space, tuple(range(7)), tuple(rng.integers(0, 7, size=7)))
            q_star, opt = social_optimum(inst)
            reduced = metric_map_to_line(inst, T=2.2)
            if reduced.degenerate:
                continue
            for size in (1, 2, 3):
                for members in combinations(range(7), size):
                    panel = Panel(7, members)
                    q_in = panel_optimum(inst, panel)
                    far = space.distance(q_in, q_star) >= 2.2 * opt - 1e-12
                    # preservation needs a strict preference; on exact ties the
                    # two instances may break them toward different candidates
                    strict = panel_cost(inst, q_in, panel) < panel_cost(inst, q_star, panel)
                    if far and strict:
                        hits += 1
                        assert panel_optimum(reduced.instance, panel) != 0.0
        assert hits > 0  # the property was actually exercised


class TestFiniteIntervalReduce:
    def test_clamp_example(self):
        inst = FacilityInstance(Segment(0.0, 8.0), (0.0, 3.0, 5.0, 7.0), (0.0, 2.0, 5.0, 7.0))
        # optimum cost at 0 is 3.5; rescale puts agents at (0, 4/7, 10/7, 2), all clamped at T
        reduced = finite_interval_reduce(inst, T=3.0)
        assert reduced.instance.candidates == (0.0, 3.0)
        assert max(reduced.instance.agents) <= 3.0

    def test_unit_optimum_clamp_rule(self):
        # with the optimum already normalized to 1, the rule is y = min(x, T)
        inst = FacilityInstance(Segment(0.0, 10.0), (0.0, 3.0, 5.0, 7.0), (0.0, 2.0, 5.0, 7.0))
        reduced = finite_interval_reduce(inst, T=3.0, opt=1.0)
        np.testing.assert_allclose(reduced.instance.agents, (0.0, 2.0, 3.0, 3.0))
        assert reduced.instance.candidates == (0.0, 3.0)

    def test_all_at_zero_flagged(self):
        inst = FacilityInstance(Segment(0.0, 2.0), (0.0, 1.0), (0.0, 0.0))
        reduced = finite_interval_reduce(inst, T=3.0)
        assert reduced.degenerate
        assert reduced.instance is inst

    def test_optimum_stays_at_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            agents = tuple(rng.uniform(0.0, 5.0, size=12))
            inst = FacilityInstance(Segment(0.0, 6.0), (0.0, 5.5), agents)
            reduced = finite_interval_reduce(inst, T=3.0)
            if reduced.degenerate:
                continue
            out = reduced.instance
            assert social_cost(out, 0.0) <= social_cost(out, 3.0) + 1e-12

    def test_far_panels_stay_far(self):
        # panels preferring the far candidate keep preferring T after clamping
        rng = np.random.default_rng(3)
        from itertools import combinations

        for _ in range(20):
            agents = tuple(rng.uniform(0.0, 6.0, size=8))
            far = 2.0 * float(np.mean(agents))
            inst = FacilityInstance(Segment(0.0, 20.0), (0.0, far + 1.0), agents)
            reduced = metric_map_to_line(inst, T=2.2)
            if reduced.degenerate:
                continue
            clamped = finite_interval_reduce(reduced.instance, T=2.2)
            for members in combinations(range(8), 4):
                panel = Panel(8, members)
                before = panel_optimum(reduced.instance, panel)
                after = panel_optimum(clamped.instance, panel)
                if before != 0.0:
                    assert after == 2.2


class TestBoxCover:
    def test_four_point_cover(self):
        assert len(box_cover(2, 0.25, Norm.LINF)) == 4

    def test_single_center(self):
        assert box_cover(3, 0.5, Norm.LINF) == [(0.5, 0.5, 0.5)]

    def test_random_points_covered(self):
        rng = np.random.default_rng(4)
        for dim, radius, norm in [(2, 0.2, Norm.LINF), (3, 0.3, Norm.L1), (1, 0.07, Norm.LINF)]:
            cover = np.asarray(box_cover(dim, radius, norm))
            points = rng.random((10_000, dim))
            diffs = np.abs(points[:, None, :] - cover[None, :, :])
            per_pair = diffs.max(axis=2) if norm is Norm.LINF else diffs.sum(axis=2)
            assert per_pair.min(axis=1).max() <= radius + 1e-12

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            box_cover(8, 0.01, Norm.LINF)


class TestStarInstance:
    def test_optimum_at_zero(self):
        for k in range(1, 7):
            inst = star_instance(k)
            q_star, opt = social_optimum(inst)
            assert q_star == 0.0
            assert opt == pytest.approx(k / (2 * k + 1))
            assert opt <= 0.5


class TestFarImpliesCostly:
    def test_cost_floor_for_distant_points(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            agents = tuple(rng.random(15))
            candidates = tuple(np.linspace(0.0, 1.0, 7))
            inst = FacilityInstance(LINE, candidates, agents)
            for q1 in candidates:
                sc1 = social_cost(inst, q1)
                if sc1 == 0.0:
                    continue
                for q2 in candidates:
                    T = inst.space.distance(q1, q2) / sc1
                    sc2 = social_cost(inst, q2)
                    assert sc2 > (T - 1.0) * sc1 - 1e-9


class TestLinfLowerInstance:
    def test_population_counts(self):
        inst = linf_lower_instance((1, 1), t=2, w=2, r=1)
        assert inst.n == 8
        assert len(inst.candidates) == 9

    def test_optimal_corner_cost(self):
        for z, w in [((1, 1), 2), ((1, -1), 3), ((-1, 1, -1), 2)]:
            t = len(z)
            inst = linf_lower_instance(z, t=t, w=w, r=2)
            q = linf_optimal_point(z)
            assert social_cost(inst, q) == pytest.approx(0.5 - 1.0 / (4 * w), abs=1e-12)
            _, opt = social_optimum(inst)
            assert opt == pytest.approx(0.5 - 1.0 / (4 * w), abs=1e-12)

    def test_wrong_side_coordinate_floor(self):
        z = (1, -1)
        w = 3
        inst = linf_lower_instance(z, t=2, w=w, r=1)
        per_coord_opt = 0.25 - 1.0 / (8 * w)  # contributes 1/(2t) - 1/(4tw) at t=2
        for q in inst.candidates:
            wrong = sum(
                1
                for j, s in enumerate(z)
                if (s > 0 and q[j] <= 0.5) or (s < 0 and q[j] >= 0.5)
            )
            floor = wrong * 0.25 + (2 - wrong) * per_coord_opt
            assert social_cost(inst, q) >= floor - 1e-12


class TestCandidateDistances:
    def test_matrix_matches_direct(self):
        inst = star_instance(2)
        cd = CandidateDistances(inst)
        for i, c in enumerate(inst.candidates):
            assert cd.social[i] == pytest.approx(social_cost(inst, c))

    @settings(max_examples=150)
    @given(
        st.sampled_from([LINE, Box(2, Norm.L1), Box(2, Norm.LINF), Box(3, Norm.L1)]),
        st.integers(1, 30),
        st.integers(1, 12),
        st.sampled_from([1, 5, 64, facility.GATHER_CELLS]),
        st.data(),
    )
    def test_block_argmin_matches_one_panel_form(self, space, n, n_cands, cells, data):
        # agents and candidates on a 1/8 grid tie often; a small cell budget
        # gathers the block a row or a few rows at a time
        dim = 1 if space is LINE else space.dim
        point = st.lists(st.integers(0, 8).map(lambda i: i / 8), min_size=dim, max_size=dim)
        point = point.map(lambda p: p[0]) if space is LINE else point.map(tuple)
        agents = data.draw(st.lists(point, min_size=n, max_size=n))
        cands = data.draw(st.lists(point, min_size=n_cands, max_size=n_cands))
        cd = CandidateDistances(FacilityInstance(space, tuple(cands), tuple(agents)))
        mode = data.draw(st.sampled_from(list(Mode)))
        k = data.draw(st.integers(1, n if mode is Mode.WITHOUT_REPLACEMENT else 2 * n))
        block = block_members(TrialPlan(n, k, mode, trials=data.draw(st.integers(1, 64)), seed=n), 0)

        def frozen(members):
            """Frozen copy of the one-panel argmin that the block form replaced."""
            costs = cd.matrix[:, np.asarray(members)].mean(axis=1)
            return int(np.argmin(costs))

        expected = [frozen(row) for row in block]
        with mock.patch.object(facility, "GATHER_CELLS", cells):
            assert cd.panel_optimum_index(block).tolist() == expected
        assert [cd.panel_optimum_index(row) for row in block] == expected

    def test_block_gather_memory_stays_bounded(self):
        # unchunked, a block here gathers 1,728 candidates x 64 rows x 400 members
        # of float64 distances at once (354 MB)
        params = {"dims": [3], "eps": 0.2, "k_grid": [100, 400], "n": 400}
        tracemalloc.start()
        try:
            experiments._run_facility_welfare(seed=0, trials=128, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def frozen_star_far_probability(k):
    """Frozen copy of the per-panel loop that the block scoring of star_far_probability replaced."""
    inst = star_instance(k)
    cd = CandidateDistances(inst)
    q_idx = cd.optimum_index()
    opt = float(cd.social[q_idx])
    q_star = inst.candidates[q_idx]
    total = Fraction(0)
    for members, weight in _weighted_panels(inst.n, k, Mode.WITHOUT_REPLACEMENT):
        chosen = inst.candidates[cd.panel_optimum_index(members)]
        if inst.space.distance(chosen, q_star) >= 2.0 * opt:
            total += Fraction(weight, math.comb(inst.n, k))
    return total, opt


class TestStarFarProbability:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_block_scoring_matches_per_panel_loop(self, k):
        p_far, opt = experiments.star_far_probability(k)
        assert isinstance(p_far, Fraction)
        assert (p_far, opt) == frozen_star_far_probability(k)

    def test_large_k_matches_hypergeometric_sum(self):
        # about 1e35 panels; a panel with j members at 1 scores (k-j)/k at candidate 1
        # and j/k at candidate 0, so it picks the far candidate 1 when j >= k/2
        k = 60
        p_far, opt = experiments.star_far_probability(k)
        expected = sum(
            Fraction(math.comb(k, j) * math.comb(k + 1, k - j), math.comb(2 * k + 1, k))
            for j in range(k + 1)
            if 2 * j >= k
        )
        assert p_far == expected
        assert opt == k / (2 * k + 1)
        assert p_far >= Fraction(1, 4)

    def test_enumeration_memory_stays_flat(self):
        # k + 1 count classes are scored, never the C(19, 9) = 92,378 panels,
        # which would hold 6.7 MB of members alone
        tracemalloc.start()
        try:
            experiments.star_far_probability(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
