from fractions import Fraction
from itertools import combinations

import math

import numpy as np
import pytest
from conftest import weighted_panels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortition_lab import experiments
from sortition_lab.experiments import SITE_CANDIDATES
from sortition_lab.facility import FacilityInstance, panel_optimum
from sortition_lab.model import Mode, Panel, Segment, pairwise
from sortition_lab.multifacility import (
    MultiFacilityInstance,
    _LineSets,
    brute_force_facilities,
    impossibility_instance,
    kmedian_line,
    multi_cost,
    panel_bound_check,
    panel_facilities,
)

LINE = Segment(0.0, 1.0)


def quadratic_kmedian_line(points, candidates, ell, weights=None):
    """Frozen O(ell*C*m^2) recurrence that kmedian_line replaced: every cut
    of every cell is scored as ``prev - prefix[cut] + prefix[p]`` and ties
    go to the smaller facility tuple. The differential reference for the
    running-minimum DP."""
    pts = np.asarray(points, dtype=float)
    if weights is None:
        wts = np.full(pts.size, 1.0 / pts.size)
    else:
        wts = np.asarray(weights, dtype=float)
    cands = sorted(set(float(c) for c in candidates))
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
    prefix = np.empty((len(cands), m + 1))
    for ci, c in enumerate(cands):
        prefix[ci] = np.concatenate(([0.0], np.cumsum(ws_arr * np.abs(xs_arr - c))))

    inf = math.inf
    best = [[(inf, ())] * (m + 1) for _ in range(len(cands))]
    for ci in range(len(cands)):
        row = prefix[ci]
        for p in range(m + 1):
            best[ci][p] = (row[p], (cands[ci],))
    for _ in range(1, ell):
        reach = [[(inf, ())] * (m + 1) for _ in range(len(cands))]
        for ci in range(len(cands)):
            for p in range(m + 1):
                entry = best[ci][p]
                if ci > 0 and reach[ci - 1][p] <= entry:
                    entry = reach[ci - 1][p]
                reach[ci][p] = entry
        new = [[(inf, ())] * (m + 1) for _ in range(len(cands))]
        for ci in range(1, len(cands)):
            row = prefix[ci]
            prev = reach[ci - 1]
            for p in range(m + 1):
                cur_cost, cur_fac = inf, ()
                for cut in range(p + 1):
                    pc, pf = prev[cut]
                    if pc == inf:
                        continue
                    cost = pc - row[cut] + row[p]
                    if cost < cur_cost or (cost == cur_cost and pf + (cands[ci],) < cur_fac):
                        cur_cost = cost
                        cur_fac = pf + (cands[ci],)
                new[ci][p] = (cur_cost, cur_fac)
        best = new

    winner = min(best[ci][m] for ci in range(len(cands)))
    return float(winner[0]), winner[1]


@st.composite
def grid_instances(draw):
    """Points, candidates and integer weights on a grid of step 1/d: many
    exact cost ties whose float sums differ in the last bits."""
    d = draw(st.sampled_from((3, 5, 7, 10, 12)))
    grid = st.integers(0, d)
    points = [i / d for i in draw(st.lists(grid, min_size=1, max_size=13))]
    candidates = [i / d for i in draw(st.lists(grid, min_size=1, max_size=9, unique=True))]
    ell = draw(st.integers(1, min(4, len(candidates))))
    raw = draw(st.none() | st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    weights = None if raw is None else [w / sum(raw) for w in raw]
    return points, candidates, ell, weights


SITE_GRID = tuple(float(c) for c in np.linspace(0.0, 1.0, SITE_CANDIDATES))


@st.composite
def site_blocks(draw):
    """Distinct sites, a block of panel counts over them and a facility count.

    The mirrored form puts sites at x and 1 - x with equal counts, so
    mirror-image facility sets over the symmetric candidate grid cost the
    same up to rounding: the near-ties that plain argmin may order
    differently from the line DP."""
    mirrored = draw(st.booleans())
    half = st.floats(0.0, 0.5 if mirrored else 1.0)
    xs = draw(st.lists(half, min_size=1, max_size=5 if mirrored else 10))
    sites = sorted(set(xs + [1.0 - x for x in xs] if mirrored else xs))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        at = dict.fromkeys(sites, 0)
        for x in xs:
            c = draw(st.integers(0, 5))
            at[x] += c
            if mirrored:
                at[1.0 - x] += c
        if not any(at.values()):
            at[sites[0]] = 1
        rows.append([at[x] for x in sites])
    counts = np.asarray(rows)
    k = int(counts.sum(axis=1).max())
    ell = draw(st.integers(1, len(SITE_GRID)))
    return np.asarray(sites), counts, k, ell


def random_instance(rng, n_agents=8, n_candidates=6, ell=2) -> MultiFacilityInstance:
    agents = tuple(float(v) for v in rng.random(n_agents))
    candidates = tuple(float(v) for v in np.sort(rng.random(n_candidates)))
    return MultiFacilityInstance(FacilityInstance(LINE, candidates, agents), ell)


class TestMultiCost:
    def test_facilities_at_agents_cost_zero(self):
        inst = MultiFacilityInstance(FacilityInstance(LINE, (0.2, 0.9), (0.2, 0.9, 0.2)), 2)
        assert multi_cost(inst, (0.2, 0.9)) == 0.0

    def test_single_facility_reduces_to_social_cost(self):
        from sortition_lab.facility import social_cost

        rng = np.random.default_rng(0)
        inst = random_instance(rng, ell=1)
        for q in inst.base.candidates:
            assert multi_cost(inst, (q,)) == pytest.approx(social_cost(inst.base, q))

    def test_direct_average(self):
        inst = MultiFacilityInstance(FacilityInstance(LINE, (0.0, 1.0), (0.0, 0.4, 1.0)), 2)
        assert multi_cost(inst, (0.0, 1.0)) == pytest.approx(0.4 / 3)

    def test_rejects_wrong_count_and_duplicates(self):
        inst = MultiFacilityInstance(FacilityInstance(LINE, (0.0, 0.5, 1.0), (0.2,)), 2)
        with pytest.raises(ValueError):
            multi_cost(inst, (0.0,))
        with pytest.raises(ValueError):
            multi_cost(inst, (0.0, 0.0))


class TestKMedianLine:
    def test_enough_facilities_cost_zero(self):
        points = (0.1, 0.4, 0.9)
        cost, chosen = kmedian_line(points, points + (0.6,), ell=3)
        assert cost == 0.0
        assert set(chosen) == set(points)

    def test_single_facility_matches_panel_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            agents = tuple(float(v) for v in rng.random(9))
            candidates = tuple(float(v) for v in np.sort(rng.random(5)))
            inst = FacilityInstance(LINE, candidates, agents)
            cost, chosen = kmedian_line(agents, candidates, 1)
            assert chosen == (panel_optimum(inst, Panel.full(9)),)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            ell = int(rng.integers(1, 4))
            inst = random_instance(rng, n_agents=int(rng.integers(2, 9)), ell=ell)
            cost_dp, chosen_dp = kmedian_line(inst.base.agents, inst.base.candidates, ell)
            cost_bf, chosen_bf = brute_force_facilities(inst)
            assert cost_dp == pytest.approx(cost_bf, abs=1e-12)
            assert multi_cost(inst, chosen_dp) == pytest.approx(cost_bf, abs=1e-12)

    def test_weighted_matches_weighted_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ell = int(rng.integers(1, 4))
            inst = random_instance(rng, n_agents=6, ell=ell)
            weights = rng.random(6)
            weights /= weights.sum()
            cost_dp, chosen_dp = kmedian_line(inst.base.agents, inst.base.candidates, ell, weights)
            cost_bf, chosen_bf = brute_force_facilities(inst, weights=weights)
            assert cost_dp == pytest.approx(cost_bf, abs=1e-12)

    def test_lexicographic_tie_break(self):
        # every set containing 0 serves the all-zero points at zero cost
        cost, chosen = kmedian_line((0.0, 0.0), (0.0, 0.5, 1.0), 2)
        assert cost == 0.0
        assert chosen == (0.0, 0.5)

    def test_rejects_bad_facility_count(self):
        with pytest.raises(ValueError):
            kmedian_line((0.1,), (0.0, 1.0), 3)

    def test_rounding_tie_takes_smaller_facilities(self):
        # {0, 0.5} and {0.1, 0.5} both cost exactly 1/4, but the two cut
        # terms differ in the last bit and only round together once
        # prefix[p] is added; the running minimum alone would pick (0.1, 0.5)
        case = ((0.3, 0.8), (0.0, 0.1, 0.5), 2)
        assert kmedian_line(*case) == quadratic_kmedian_line(*case) == (0.25, (0.0, 0.5))

    @given(grid_instances())
    @example(((0.3, 0.8), (0.0, 0.1, 0.5), 2, None))
    @example(((4 / 7, 6 / 7), (3 / 7, 2 / 7, 5 / 7), 2, (1 / 7, 6 / 7)))
    @settings(max_examples=300)
    def test_matches_quadratic_recurrence_exactly(self, instance):
        points, candidates, ell, weights = instance
        want = quadratic_kmedian_line(points, candidates, ell, weights)
        got = kmedian_line(np.asarray(points), candidates, ell, weights)
        assert got == want
        assert type(got[0]) is float and all(type(q) is float for q in got[1])


class TestLineSets:
    @given(site_blocks())
    # sites 0.05 and 0.95 with one panel member each: every 3-set holding 0
    # and 1 costs 0.05, plain argmin takes (0, 1/8, 1) and the DP (0, 1/4, 1)
    @example((np.array([0.05, 1 - 0.05]), np.array([[1, 1]]), 2, 3))
    @settings(max_examples=300)
    def test_block_choice_matches_line_dp(self, block):
        sites, counts, k, ell = block
        pop_w = np.full(sites.size, 1.0 / sites.size)
        table = _LineSets(LINE, sites, SITE_GRID, ell, pop_w)
        for row, s in zip(counts, table.choose(counts, k)):
            live = row > 0
            cost, best = kmedian_line(sites[live], SITE_GRID, ell, row[live] / k)
            assert table.sets[s] == best
            assert float(row / k @ table.mindist[s]) == pytest.approx(cost, rel=1e-12, abs=1e-15)
            assert table.pop_cost[s] == float(pop_w @ pairwise(LINE, sites, best).min(axis=1))


class TestPanelBound:
    def test_full_panel_equality(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, ell=2)
        check = panel_bound_check(inst, Panel.full(inst.base.n))
        assert check.ok
        assert check.w == pytest.approx(0.0, abs=1e-12)
        assert check.lhs == pytest.approx(check.panel_opt, abs=1e-12)

    def test_singleton_panels(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(rng, ell=2)
            agent = int(rng.integers(0, inst.base.n))
            check = panel_bound_check(inst, Panel(inst.base.n, (agent,)))
            assert check.ok
            assert check.panel_opt == pytest.approx(0.0, abs=1e-12) or check.panel_opt >= 0

    def test_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ell = int(rng.integers(1, 4))
            inst = random_instance(rng, n_agents=10, n_candidates=6, ell=ell)
            k = int(rng.integers(1, 11))
            members = tuple(sorted(rng.choice(10, size=k, replace=False)))
            check = panel_bound_check(inst, Panel(10, members))
            assert check.ok, (check.lhs, check.rhs)


class TestExpectedPanelOptimum:
    def test_mean_panel_optimum_below_population_optimum(self):
        from sortition_lab.sampling import TrialPlan, monte_carlo

        rng = np.random.default_rng(7)
        for ell in (1, 2, 3):
            inst = random_instance(rng, n_agents=40, n_candidates=7, ell=ell)
            opt, _ = brute_force_facilities(inst)

            def statistic(members):
                return np.array([panel_facilities(inst, Panel(40, tuple(row)))[0] for row in members.tolist()])

            est = monte_carlo(TrialPlan(40, 8, trials=600, seed=ell), statistic)
            assert est.mean <= opt + 3 * est.half_width_95


class TestImpossibility:
    def test_both_optima_zero(self):
        inst_a, inst_b = impossibility_instance(8)
        assert multi_cost(inst_a, (0.0, 0.5)) == 0.0
        assert multi_cost(inst_b, (0.0, 1.0)) == 0.0
        assert brute_force_facilities(inst_a)[0] == 0.0
        assert brute_force_facilities(inst_b)[0] == 0.0

    def test_blind_panels_leave_positive_cost(self):
        n = 8
        _, inst_b = impossibility_instance(n)
        for k in range(1, 7):
            positive = False
            for members in combinations(range(n), k):
                panel = Panel(n, members)
                _, chosen = panel_facilities(inst_b, panel)
                if n - 1 not in members:
                    # the panel saw only zeros; its pick must miss the outlier
                    assert chosen == (0.0, 0.5)
                    assert multi_cost(inst_b, chosen) > 0.0
                    positive = True
            assert positive

    @pytest.mark.parametrize("k_max, n", [(6, 10), (8, 14)])
    def test_expected_cost_matches_per_panel_loop(self, k_max, n):
        _, inst_b = impossibility_instance(n)
        for k in range(1, k_max + 1):
            # frozen copy of the per-panel loop that the count classes replaced
            expected = Fraction(0)
            for members, weight in weighted_panels(n, k, Mode.WITHOUT_REPLACEMENT):
                _, chosen = panel_facilities(inst_b, Panel(n, members))
                expected += Fraction(weight, math.comb(n, k)) * Fraction(multi_cost(inst_b, chosen))
            assert experiments.expected_panel_cost(inst_b, k) == expected
