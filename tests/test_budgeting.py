import copy
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import plan_blocks
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sortition_lab import budgeting
from sortition_lab.budgeting import (
    CoreLab,
    GridTableCost,
    LinearCost,
    PBInstance,
    SaturatingShortfallCost,
    core_check,
    core_extrapolation_experiment,
    cost_matrix,
    eval_cost,
    exact_witness_valid,
    impossibility_budget_split,
    impossibility_zero_allocation,
    optimal_allocation,
    pb_impossibility_family,
    pb_lower_instance,
    pb_lower_opt,
    simplex_cover,
    welfare_experiment,
)
from sortition_lab.experiments import ExperimentConfig, run_experiment, two_block_instance
from sortition_lab.model import Panel, make_camouflaged, panel_counts
from sortition_lab.sampling import TrialPlan, trial_values


def all_models(m=3):
    grid = GridTableCost(
        [(0.0, 0.5, 1.0)] * m,
        np.fromfunction(
            lambda *idx: 1.0 - sum(idx) / (2.0 * m), tuple([3] * m)
        ),
    )
    return [
        LinearCost((0.4, 0.3, 0.3)),
        LinearCost((1.0, 0.0, 0.0)),
        SaturatingShortfallCost(1.5),
        SaturatingShortfallCost(0.0),
        grid,
    ]


class TestEvalCost:
    def test_linear_values(self):
        model = LinearCost((0.5, 0.5))
        assert eval_cost(model, (1.0, 0.0)) == 0.5
        assert eval_cost(model, (1.0, 1.0)) == 0.0

    def test_shortfall_value(self):
        model = SaturatingShortfallCost(1.0)
        assert eval_cost(model, (0.5, 0.0)) == pytest.approx(0.5)

    def test_zero_shortfall_is_free(self):
        assert eval_cost(SaturatingShortfallCost(0.0), (0.0, 0.0)) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eval_cost(LinearCost((1.0, 0.0)), (1.5, 0.0))

    def test_cost_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 3))
        for model in all_models():
            many = model.cost_many(X)
            for row, value in zip(X, many):
                assert value == pytest.approx(model.cost(row), abs=1e-12)

    @given(
        x=st.lists(st.floats(0, 1), min_size=3, max_size=3),
        y=st.lists(st.floats(0, 1), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_lipschitz_and_range(self, x, y):
        l1 = sum(abs(a - b) for a, b in zip(x, y))
        for model in all_models():
            cx, cy = model.cost(x), model.cost(y)
            assert -1e-9 <= cx <= 1.0 + 1e-9
            assert abs(cx - cy) <= l1 + 1e-9

    @given(x=st.lists(st.floats(0, 1), min_size=3, max_size=3), data=st.data())
    @settings(max_examples=200)
    def test_monotone_in_funding(self, x, data):
        y = [data.draw(st.floats(xi, 1)) for xi in x]
        for model in all_models():
            assert model.cost(y) <= model.cost(x) + 1e-9


class TestModelValidation:
    def test_linear_rejects_heavy_alpha(self):
        with pytest.raises(ValueError):
            LinearCost((0.8, 0.4))
        with pytest.raises(ValueError):
            LinearCost((-0.1, 0.5))

    def test_shortfall_rejects_steep_slopes(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            SaturatingShortfallCost(0.5)

    def test_grid_table_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            GridTableCost([(0.0, 1.0), (0.0, 1.0)], [[0.0, 0.5], [0.0, 0.0]])

    def test_grid_table_rejects_steep_cells(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            GridTableCost([(0.0, 0.25, 1.0)], [1.0, 0.5, 0.0])

    def test_instance_checks_dimensions(self):
        with pytest.raises(ValueError):
            PBInstance(3, 1.0, (LinearCost((1.0, 0.0)),))
        with pytest.raises(ValueError):
            PBInstance(2, 3.0, (LinearCost((1.0, 0.0)),))
        with pytest.raises(ValueError):
            PBInstance(2, 1.0, (SaturatingShortfallCost(2.5),))


class TestSimplexCover:
    def test_small_grid(self):
        cover = simplex_cover(2, 1.0, 0.5)
        expected = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)}
        assert {tuple(row) for row in cover} == expected

    def test_coarse_step_keeps_corners(self):
        cover = simplex_cover(2, 1.0, 1.0)
        assert {tuple(row) for row in cover} == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}

    def test_covering_radius(self):
        rng = np.random.default_rng(1)
        for m, budget, step in [(2, 1.0, 0.25), (3, 2.0, 0.5), (2, 0.7, 0.25)]:
            cover = simplex_cover(m, budget, step)
            for _ in range(2000):
                x = rng.random(m) * rng.uniform(0, 1)
                if x.sum() > budget:
                    x *= budget / x.sum()
                best = np.abs(cover - x).sum(axis=1).min()
                assert best <= m * step / 2 + 1e-9

    def test_cap(self):
        with pytest.raises(ValueError, match="coarser"):
            simplex_cover(8, 4.0, 0.01)

    def test_lexicographic_order(self):
        cover = simplex_cover(2, 1.0, 0.5)
        assert [tuple(r) for r in cover] == sorted(tuple(r) for r in cover)


class TestOptimalAllocation:
    def test_greedy_two_agents(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)), LinearCost((0.0, 0.5))))
        x, cost = optimal_allocation(inst)
        np.testing.assert_allclose(x, (1.0, 0.0))
        assert cost == pytest.approx(0.25)

    def test_greedy_matches_fine_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            raw = rng.random((6, 2)) * 0.5
            inst = PBInstance(2, float(rng.uniform(0.4, 1.6)), tuple(LinearCost(tuple(r)) for r in raw))
            x, cost = optimal_allocation(inst)
            cover = simplex_cover(2, inst.B, 0.01)
            costs = cost_matrix(inst, cover).mean(axis=0)
            assert cost <= costs.min() + 1e-9

    def test_full_budget_funds_everything(self):
        inst = PBInstance(2, 2.0, (LinearCost((0.5, 0.5)),))
        x, cost = optimal_allocation(inst)
        np.testing.assert_allclose(x, (1.0, 1.0))
        assert cost == 0.0

    def test_zero_cost_optimum_of_mixed_instance(self):
        inst1, _ = pb_impossibility_family(3, 2.0, k=4)
        x_star = impossibility_zero_allocation(3, 2.0, 0)
        cover = simplex_cover(3, 2.0, 0.25)
        x, cost = optimal_allocation(inst1, cover=cover)
        assert cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(x, x_star)


class TestCostMatrix:
    def test_matches_three_array_form(self):
        # the linear rows as A.sum - A @ X.T into a separate out, as before the in-place subtraction
        cover = simplex_cover(3, 2.0, 0.25)
        for costs in (tuple(all_models()), tuple(all_models()[:2]) * 3):
            inst = PBInstance(3, 2.0, costs)
            A = np.asarray([c.alpha for c in costs if isinstance(c, LinearCost)])
            linear = [i for i, c in enumerate(costs) if isinstance(c, LinearCost)]
            expected = np.array([c.cost_many(cover) for c in costs])
            expected[linear] = A.sum(axis=1, keepdims=True) - A @ cover.T
            assert np.array_equal(cost_matrix(inst, cover), expected)

    def test_all_linear_peak_is_the_result(self):
        inst = two_block_instance(1000)
        cover = simplex_cover(2, 1.0, 0.025)
        tracemalloc.start()
        try:
            matrix = cost_matrix(inst, cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix.nbytes


class TestCoreCheck:
    def test_single_agent_optimum_is_core(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),))
        cover = simplex_cover(2, 1.0, 0.25)
        assert core_check(inst, (1.0, 0.0), 0.0, 0.0, 1.0, cover) is None

    def test_skewed_allocation_blocked(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),) * 2 + (LinearCost((0.0, 1.0)),) * 2)
        cover = simplex_cover(2, 1.0, 0.25)
        witness = core_check(inst, (1.0, 0.0), 0.0, 0.0, 1.0, cover)
        assert witness is not None
        assert sum(witness.alternative) <= 0.5 + 1e-12
        assert witness.coalition == (2, 3)
        assert exact_witness_valid(inst, (1.0, 0.0), witness, 0.0, 0.0, 1.0, 4)

    def test_balanced_allocation_in_core(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),) * 2 + (LinearCost((0.0, 1.0)),) * 2)
        cover = simplex_cover(2, 1.0, 0.25)
        assert core_check(inst, (0.5, 0.5), 0.0, 0.0, 1.0, cover) is None

    def test_witnesses_verify_exactly(self):
        rng = np.random.default_rng(3)
        cover = simplex_cover(2, 1.0, 0.2)
        for _ in range(25):
            raw = rng.random((5, 2)) * 0.5
            inst = PBInstance(2, 1.0, tuple(LinearCost(tuple(r)) for r in raw))
            x = cover[rng.integers(0, len(cover))]
            witness = core_check(inst, x, 0.05, 0.01, 1.0, cover)
            if witness is not None:
                assert exact_witness_valid(inst, x, witness, 0.05, 0.01, 1.0, inst.n)

    def test_panel_core_uses_multiplicity(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)), LinearCost((0.0, 1.0))))
        cover = simplex_cover(2, 1.0, 0.25)
        from sortition_lab.model import Mode

        panel = Panel(2, (0, 0, 0, 1), Mode.WITH_REPLACEMENT)
        witness = core_check(inst, (0.0, 1.0), 0.0, 0.0, 1.0, cover, panel=panel)
        assert witness is not None
        assert witness.coalition_fraction == pytest.approx(0.75)


def exact_blocked_mask(lab, counts, size, eta, tau, rho):
    """All-Fraction per-allocation scan: exact costs from each group's cost
    model and exact budget shares, over the binary floats of the cover."""
    cover = [[Fraction(v) for v in row] for row in lab.cover.tolist()]
    eta, tau, rho, budget = (Fraction(v) for v in (eta, tau, rho, lab.inst.B))
    costs = [[budgeting._exact_cost(lab.inst.costs[i], y) for y in cover] for i in lab.reps]
    moved = [[rho * c + tau for c in row] for row in costs]
    shares = [sum(y) / budget + eta for y in cover]
    mask = np.empty(lab.n_alloc, dtype=bool)
    for a in range(lab.n_alloc):
        T = [sum(int(c) for c, row, mv in zip(counts, costs, moved) if mv[b] < row[a]) for b in range(lab.n_alloc)]
        mask[a] = any(t >= 1 and share * size <= t for t, share in zip(T, shares))
    return mask


EIGHTHS = st.integers(0, 8).map(lambda i: i / 8)


@st.composite
def grouped_core_cases(draw):
    """A grouped instance of linear and shortfall costs, its cover, and group
    counts on a 1/8 grid: at most two nonzero groups (blocked_mask's sweep)
    or three or more (its scan), drawn evenly."""
    wide = draw(st.booleans())
    m = draw(st.sampled_from([2, 3]))
    costs = []
    for _ in range(draw(st.integers(3, 5) if wide else st.integers(1, 4))):
        if draw(st.booleans()):
            alpha = draw(st.lists(EIGHTHS, min_size=m, max_size=m))
            scale = max(1.0, sum(alpha))
            model = LinearCost(tuple(a / scale for a in alpha))
        else:
            model = SaturatingShortfallCost(draw(st.sampled_from([0.0, 1.0, 2.0])))
        costs += [model] * draw(st.integers(1, 5))
    inst = PBInstance(m, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])), tuple(costs))
    # the exact scan compares every pair of allocations in Fractions: at most 105 of them
    steps = [0.5, 0.25, 0.125] if m == 2 else [0.5, 0.25]
    lab = CoreLab(inst, simplex_cover(m, inst.B, draw(st.sampled_from(steps))))
    u = lab.rows.shape[0]
    assume(u >= 3 or not wide)  # distinct models can still share a cost row
    if (u >= 3) == wide and draw(st.booleans()):
        counts, size = lab.pop_counts, inst.n
    else:
        counts = np.asarray(draw(st.lists(st.integers(0, 4), min_size=u, max_size=u)), dtype=np.int64)
        if wide:
            counts[:3] = np.maximum(counts[:3], 1)
        else:
            counts[np.flatnonzero(counts)[2:]] = 0
        size = max(1, int(counts.sum()))
    eta, tau = draw(EIGHTHS.map(lambda v: v / 2)), draw(EIGHTHS.map(lambda v: v / 2))
    rho = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return lab, counts, size, eta, tau, rho


def population_case(costs, budget, step, eta, tau, rho):
    """A three-project instance scanned with its population counts."""
    inst = PBInstance(3, budget, costs)
    lab = CoreLab(inst, simplex_cover(3, budget, step))
    return lab, lab.pop_counts, inst.n, eta, tau, rho


def scan_blocked_mask(lab, counts, size, eta, tau, rho):
    """Frozen copy of the chunked scan of T that blocked_mask ran for every
    count vector before its two-group sweep."""
    cost, better = lab.order(rho, tau)
    need = lab.need(size, eta)
    groups = np.flatnonzero(counts)
    weights = np.asarray(counts)[groups].astype(np.int32)
    better = better[groups]
    mask = np.empty(lab.n_alloc, dtype=bool)
    for lo in range(0, lab.n_alloc, budgeting.SCAN_ROWS):
        current = cost[groups, lo : lo + budgeting.SCAN_ROWS, None]
        T = np.zeros((current.shape[1], lab.n_alloc), dtype=np.int32)
        for weight, b_cost, a_cost in zip(weights, better, current):
            T += weight * (b_cost < a_cost)
        mask[lo : lo + budgeting.SCAN_ROWS] = (T >= need).any(axis=1)
    return mask


class TestBlockedMask:
    @settings(max_examples=200)
    @given(grouped_core_cases())
    # float margins disagreed with this scan here: rho * cost + tau rounded to
    # the wrong side of the cost it is compared with
    @example(population_case((SaturatingShortfallCost(2.0),) * 2, 2.0, 0.5, 0.0625, 0.25, 2.0))
    @example(population_case((LinearCost((0.625 / 1.5, 0.875 / 1.5, 0.0)),), 2.0, 0.25, 0.3125, 0.375, 2.0))
    def test_matches_per_allocation_loop(self, case):
        lab, counts, size, eta, tau, rho = case
        expected = exact_blocked_mask(lab, counts, size, eta, tau, rho)
        assert np.array_equal(lab.blocked_mask(counts, size, eta, tau, rho), expected)

    def test_two_masks_stay_small_at_fine_step(self):
        # 3,321 cover points: a (groups, N, N) int64 table would take 176 MB;
        # the three-block masks take the chunked scan, the two-block ones the sweep
        blocks = (LinearCost((1.0, 0.0)), LinearCost((0.0, 1.0)), SaturatingShortfallCost(1.0))
        three = PBInstance(2, 1.0, tuple(model for model in blocks for _ in range(67)))
        labs = [CoreLab(inst, simplex_cover(2, 1.0, 0.0125)) for inst in (two_block_instance(200), three)]
        assert [lab.rows.shape[0] for lab in labs] == [2, 3]
        tracemalloc.start()
        try:
            for lab, panel in zip(labs, (np.array([30, 34]), np.array([20, 24, 20]))):
                lab.blocked_mask(lab.pop_counts, lab.inst.n, 0.25, 0.25, 1.0)
                lab.blocked_mask(panel, 64, 0.0, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_sweep_matches_scan_on_fine_two_block_cover(self):
        # every count vector pb_core's workload config can meet at k = 64
        inst = two_block_instance(200)
        lab = CoreLab(inst, simplex_cover(2, 1.0, 0.0125))
        cases = [(lab.pop_counts, inst.n, 0.25, 0.25)]
        cases += [(np.array([c, 64 - c]), 64, 0.0, 0.0) for c in range(65)]
        for counts, size, eta, tau in cases:
            expected = scan_blocked_mask(lab, counts, size, eta, tau, 1.0)
            assert np.array_equal(lab.blocked_mask(counts, size, eta, tau, 1.0), expected), counts


def fraction_need(lab, size, eta):
    """The Fraction formula CoreLab.need replaced: exact budget shares,
    max(1, ceil((share + eta) * size)), capped at NEED_CAP."""
    budget, slack = Fraction(lab.inst.B), Fraction(eta)
    shares = [sum(map(Fraction, row)) / budget for row in lab.cover.tolist()]
    return np.array([min(max(1, math.ceil((share + slack) * size)), budgeting.NEED_CAP) for share in shares])


class TestNeed:
    @settings(max_examples=100)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0]),
        st.one_of(st.sampled_from([1 / 3, 0.07, 0.125, 0.5]), st.floats(0.1, 1.0)),
        st.one_of(st.sampled_from([0.0, 1 / 3, 0.35, 0.05, 0.25]), st.floats(-1.0, 2.0)),
        st.integers(1, 300),
    )
    # share 0.45 + eps 0.05 rounds to 1/2 in floats; the exact sum exceeds it
    @example(2, 1.0, 0.025, 0.05, 200)
    def test_matches_fraction_formula(self, m, budget, step, eta, size):
        lab = CoreLab(PBInstance(m, budget, (SaturatingShortfallCost(0.0),)), simplex_cover(m, budget, step))
        need = lab.need(size, eta)
        assert need.dtype == np.int32
        assert np.array_equal(need, fraction_need(lab, size, eta))

    def test_saturates_where_int32_ends(self):
        # eta = 1e12 asks for coalitions of 2e14 agents, past any int32 count
        lab = CoreLab(two_block_instance(200), simplex_cover(2, 1.0, 0.05))
        need = lab.need(200, 1e12)
        assert need.dtype == np.int32 and (need == budgeting.NEED_CAP).all()
        assert np.array_equal(need, fraction_need(lab, 200, 1e12))
        assert not lab.blocked_mask(lab.pop_counts, 200, 1e12, 0.0, 1.0).any()


def unique_grouped(lab):
    """Frozen copy of the grouping CoreLab.__init__ replaced: np.unique over the
    cost rows, numbering groups in lexicographic row order, with the first
    agent of each group found by a scan."""
    frozen = copy.copy(lab)
    rows, group = np.unique(cost_matrix(lab.inst, lab.cover), axis=0, return_inverse=True)
    frozen.rows, frozen.group = rows, np.asarray(group).ravel()
    frozen.pop_counts = panel_counts(frozen.group, rows.shape[0])
    frozen.reps = [-1] * rows.shape[0]
    for i, g in enumerate(frozen.group):
        if frozen.reps[g] < 0:
            frozen.reps[g] = i
    return frozen


COST_POOL = (
    LinearCost((1.0, 0.0)),
    LinearCost((0.0, 1.0)),
    LinearCost((0.25, 0.5)),
    LinearCost((0.5, 0.125)),
    SaturatingShortfallCost(1.0),
    SaturatingShortfallCost(2.0),
)


class TestCoreGrouping:
    @settings(max_examples=100)
    @given(
        st.lists(st.sampled_from(COST_POOL), min_size=2, max_size=12),
        st.sampled_from([0.5, 0.25, 0.125]),
        st.data(),
    )
    def test_matches_unique_grouping(self, costs, step, data):
        inst = PBInstance(2, 1.0, tuple(costs))
        lab = CoreLab(inst, simplex_cover(2, inst.B, step))
        frozen = unique_grouped(lab)
        members = np.sort(data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=8)))
        eta, tau = data.draw(EIGHTHS.map(lambda v: v / 2)), data.draw(EIGHTHS.map(lambda v: v / 2))
        rho = data.draw(st.sampled_from([1.0, 1.5]))
        x = lab.cover[data.draw(st.integers(0, lab.n_alloc - 1))]
        for size, who in ((inst.n, None), (len(members), members)):
            new, old = (
                this.pop_counts if who is None else panel_counts(this.group[who], this.rows.shape[0])
                for this in (lab, frozen)
            )
            assert np.array_equal(
                lab.blocked_mask(new, size, eta, tau, rho), frozen.blocked_mask(old, size, eta, tau, rho)
            )
            assert lab.first_witness(x, new, size, who, eta, tau, rho) == frozen.first_witness(
                x, old, size, who, eta, tau, rho
            )

    def test_two_block_groups_in_order_of_appearance(self):
        # np.unique put the second block's rows first; first appearance does not
        lab = CoreLab(two_block_instance(40), simplex_cover(2, 1.0, 0.05))
        assert lab.group.tolist() == [0] * 20 + [1] * 20
        assert unique_grouped(lab).group.tolist() == [1] * 20 + [0] * 20

    def test_mixed_failure_rate_csv_bytes(self, tmp_path):
        # failure rate 0.222, strictly inside (0, 1), so a mix-up of groups
        # and cost rows would move it; recorded with the np.unique grouping
        out = tmp_path / "core.csv"
        params = {"n": 40, "k": 3, "step": 0.05, "eps": 0.1}
        run_experiment(ExperimentConfig("pb_core", params, seed=0, trials=500, output=str(out)))
        assert out.read_text().splitlines()[1] == "3,0.1,0,0,1,0.222,0.03642817,0"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "441bf08dc4c6c1793d9d77c2ed65a83dd8e5319777f545279d759a2092e286bf"

    def test_exact_shares_reach_a_verdict(self, tmp_path):
        # share 0.45 + eps 0.05 rounds to 1/2 in floats while the exact sum
        # exceeds it: the float scan blocked allocations that the exact
        # re-verification rejected, and the run crashed on trial 2. Exact
        # shares alone read 0.182; float margins missed real blocking moves
        out = tmp_path / "core.csv"
        params = {"n": 200, "k": 16, "step": 0.025, "eps": 0.05}
        code, result = run_experiment(ExperimentConfig("pb_core", params, seed=0, trials=500, output=str(out)))
        assert code == 1
        assert result.rows[0]["gap_or_rate"] == 0.422
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "15911ddf87b16ee7e5fe98eff2479e8ff5f32a3a2a9154e6e2dd995ec8cfb298"


class TestWelfare:
    def test_identical_agents_have_no_gap(self):
        inst = PBInstance(2, 1.0, (LinearCost((0.6, 0.2)),) * 20)
        report = welfare_experiment(inst, k=1, trials=200, seed=0)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_full_panel_has_no_gap(self):
        inst = pb_lower_instance((1, -1), 2, 2, 2)
        report = welfare_experiment(inst, k=inst.n, trials=50, seed=0)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_sloppy_deliberation_respects_margin(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),) * 3 + (LinearCost((0.0, 1.0)),) * 3)
        cover = simplex_cover(2, 1.0, 0.25)
        report = welfare_experiment(
            inst, k=4, rho=1.0, tau=0.25, trials=300, seed=1, cover=cover
        )
        assert report.mean_social_cost <= report.rho * report.social_opt + report.tau + 0.3 + 3 * report.ci_half_width


def frozen_greedy_fill(agg, B):
    """Frozen copy of the one-vector greedy loop that the row-wise fill replaced."""
    x = np.zeros(agg.size)
    remaining = B
    for j in sorted(range(agg.size), key=lambda j: (-agg[j], j)):
        if remaining <= 0:
            break
        x[j] = min(1.0, remaining)
        remaining -= x[j]
    return x


def frozen_welfare_statistic(inst, rho, tau, cover):
    """Frozen copy of welfare_experiment's one-panel statistic."""
    exact_decision = rho == 1.0 and tau == 0.0
    if exact_decision and all(isinstance(c, LinearCost) for c in inst.costs):
        A = np.asarray([c.alpha for c in inst.costs])
        pop_agg = A.mean(axis=0)
        pop_base = float(A.sum(axis=1).mean())

        def statistic(panel):
            agg = A[np.asarray(panel.members)].mean(axis=0)
            return pop_base - float(pop_agg @ frozen_greedy_fill(agg, inst.B))

        return statistic
    M = cost_matrix(inst, cover)
    pop_costs = M.mean(axis=0)

    def statistic(panel):
        costs = panel_counts(panel.members, inst.n) / panel.k @ M
        if exact_decision:
            idx = int(np.argmin(costs))
        else:
            target = rho * float(costs.min()) + tau
            idx = int(np.argmax(costs <= target + 1e-12))
        return float(pop_costs[idx])

    return statistic


def welfare_values(inst, k, rho, tau, cover, seed):
    """Trial values of welfare_experiment's block statistic and of the frozen one-panel form."""
    with mock.patch.object(budgeting, "monte_carlo", wraps=budgeting.monte_carlo) as spy:
        welfare_experiment(inst, k, rho=rho, tau=tau, trials=150, seed=seed, cover=cover)
    plan, statistic = spy.call_args.args
    scalar = frozen_welfare_statistic(inst, rho, tau, cover)
    rows = np.concatenate(plan_blocks(plan)).tolist()
    return trial_values(plan, statistic), np.array([scalar(Panel(plan.n, tuple(r), plan.mode)) for r in rows])


SIXTEENTHS = st.integers(0, 16).map(lambda i: i / 16)


class TestWelfareBlocks:
    @settings(max_examples=300)
    @given(
        st.integers(2, 5).flatmap(
            lambda m: st.lists(st.lists(SIXTEENTHS, min_size=m, max_size=m), min_size=1, max_size=20)
        ),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.75, 3.0, 5.0]),
    )
    def test_greedy_fill_rows_match_loop(self, agg, B):
        agg = np.asarray(agg)
        expected = np.array([frozen_greedy_fill(row, B) for row in agg])
        assert np.array_equal(budgeting._greedy_fill(agg, B), expected)
        assert np.array_equal(budgeting._greedy_fill(agg[0], B), expected[0])

    @settings(max_examples=40)
    @given(st.integers(2, 4), st.integers(2, 60), st.integers(0, 2**32), st.booleans(), st.data())
    def test_greedy_statistic_matches_one_panel_form(self, m, n, seed, coarse, data):
        # random weights exercise the rounding of each dot; coarse ones tie often
        rng = np.random.default_rng(seed)
        alphas = rng.random((n, m)) / m
        if coarse:
            alphas = np.round(alphas * 16) / 16
        inst = PBInstance(m, float(rng.uniform(0.3, m)), tuple(LinearCost(tuple(a)) for a in alphas))
        block, scalar = welfare_values(inst, data.draw(st.integers(1, n)), 1.0, 0.0, None, seed)
        assert np.array_equal(block, scalar)

    @settings(max_examples=60)
    @given(
        st.integers(2, 120),
        st.lists(st.sampled_from(COST_POOL), max_size=3),
        st.sampled_from([(1.0, 0.0), (1.0, 0.125), (1.5, 0.0), (2.0, 0.0625)]),
        st.sampled_from([0.5, 0.25, 0.1]),
        st.integers(0, 2**32),
        st.booleans(),
        st.data(),
    )
    def test_cover_choice_matches_one_panel_form(self, n, extra, margin, step, seed, coarse, data):
        # coarse weights put exact ties between cover points, where the
        # rounding of each panel cost decides the argmin
        rng = np.random.default_rng(seed)
        alphas = rng.random((n, 2)) / 2
        if coarse:
            alphas = np.round(alphas * 8) / 8
        costs = tuple(LinearCost(tuple(a)) for a in alphas) + tuple(extra)
        inst = PBInstance(2, float(rng.uniform(0.3, 2.0)), costs)
        if margin == (1.0, 0.0) and not extra:
            inst = PBInstance(2, inst.B, costs + (SaturatingShortfallCost(1.0),))  # keep off the greedy path
        k = data.draw(st.integers(1, inst.n))
        block, scalar = welfare_values(inst, k, *margin, simplex_cover(2, inst.B, step), seed)
        assert np.array_equal(block, scalar)

class TestCoreExperiment:
    def test_run_leaves_numpy_ma_unimported(self):
        # np.unique with no return flag tests for a masked array, and importing
        # numpy.ma for that costs a pb_core run 13-19 ms
        script = (
            "import sys\n"
            "from sortition_lab.experiments import ExperimentConfig, run_experiment\n"
            "params = {'n': 80, 'k': 16, 'eps': 0.25, 'step': 0.1, 'delta': 0.1}\n"
            "code, _ = run_experiment(ExperimentConfig('pb_core', params, trials=50))\n"
            "assert code == 0, code\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(budgeting.__file__))
        subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": src})

    def test_identical_agents_never_fail(self):
        inst = PBInstance(2, 1.0, (LinearCost((0.7, 0.1)),) * 30)
        report = core_extrapolation_experiment(inst, k=4, eps=0.2, trials=100, seed=2, step=0.25)
        assert report.failure_rate == 0.0
        assert report.unresolved == 0

    def test_full_panel_never_fails(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),) * 4 + (LinearCost((0.0, 1.0)),) * 4)
        report = core_extrapolation_experiment(inst, k=8, eps=0.2, trials=50, seed=3, step=0.25)
        assert report.failure_rate == 0.0

    def test_two_block_failures_reverify(self):
        inst = PBInstance(2, 1.0, (LinearCost((1.0, 0.0)),) * 10 + (LinearCost((0.0, 1.0)),) * 10)
        report = core_extrapolation_experiment(inst, k=4, eps=0.05, trials=400, seed=4, step=0.1)
        # small panels with tiny slack do fail sometimes; every failure passed
        # the exact re-verification inside the experiment
        assert report.unresolved == 0
        assert 0.0 <= report.failure_rate <= 1.0

    def test_each_failing_cover_point_verified_once(self, monkeypatch):
        # the exact re-verification depends only on the chosen cover point:
        # 312 failing trials here choose at most k + 1 = 5 distinct points
        verified = []
        exact = budgeting.exact_witness_valid

        def counted(inst, x, *args):
            verified.append(tuple(x))
            return exact(inst, x, *args)

        monkeypatch.setattr(budgeting, "exact_witness_valid", counted)
        report = core_extrapolation_experiment(two_block_instance(200), k=4, eps=0.1, trials=500, seed=0, step=0.05)
        assert report.failure_rate == 0.624
        assert 1 <= len(verified) == len(set(verified)) <= 5

    def test_failed_reverification_names_first_trial_of_the_point(self, monkeypatch):
        # fail the second exact check: the error names the first trial that
        # chose the second distinct failing cover point
        inst = two_block_instance(200)
        lab = budgeting.CoreLab(inst, budgeting.simplex_cover(2, 1.0, 0.05))
        pop_blocked = lab.blocked_mask(lab.pop_counts, inst.n, 0.1, 0.1, 1.0)
        first_trial = {}
        t = 0
        for members in plan_blocks(TrialPlan(inst.n, 4, trials=500, seed=0)):
            for counts in panel_counts(lab.group[members], lab.rows.shape[0]):
                free = np.flatnonzero(~lab.blocked_mask(counts, 4, 0.0, 0.0, 1.0))
                if free.size and pop_blocked[free[0]]:
                    first_trial.setdefault(int(free[0]), t)
                t += 1
        assert len(first_trial) >= 2
        verdicts = iter([True, False])
        monkeypatch.setattr(budgeting, "exact_witness_valid", lambda *args: next(verdicts))
        expected = list(first_trial.values())[1]
        with pytest.raises(RuntimeError, match=f"failure on trial {expected} did not re-verify"):
            core_extrapolation_experiment(inst, k=4, eps=0.1, trials=500, seed=0, step=0.05)


class TestLowerInstance:
    def test_social_opt_closed_form(self):
        inst = pb_lower_instance((1, 1), 2, 2, 1)
        _, cost = optimal_allocation(inst)
        assert cost == pytest.approx(0.25, abs=1e-15)
        assert pb_lower_opt(2) == 0.25

    def test_optimal_allocation_funds_heavy_projects(self):
        for z in [(1, 1), (-1, 1), (-1, -1, 1)]:
            h = len(z)
            inst = pb_lower_instance(z, h, 3, 2)
            x, cost = optimal_allocation(inst)
            assert cost == pytest.approx(pb_lower_opt(3), abs=1e-12)
            for j, s in enumerate(z, start=1):
                heavy = 2 * j - 1 if s > 0 else 2 * j - 2
                light = 2 * j - 2 if s > 0 else 2 * j - 1
                assert x[heavy] == 1.0
                assert x[light] == 0.0

    def test_matches_population_labels(self):
        pop = make_camouflaged((1, -1), 2, 2, 1)
        inst = pb_lower_instance((1, -1), 2, 2, 1)
        assert inst.n == pop.n
        for agent, label in zip(inst.costs, pop.labels):
            assert agent.alpha[label - 1] == 1.0


class TestImpossibilityFamily:
    def test_budget_splits(self):
        assert impossibility_budget_split(2, 1.0) == (1.0, 0.0)
        assert impossibility_budget_split(3, 2.0) == (0.5, 1.5)

    def test_intermediate_budget_keeps_lipschitz(self):
        b1, b2 = impossibility_budget_split(2, 1.2)
        assert b2 == 1.0 and b1 == pytest.approx(0.2)
        assert b1 + b2 / 2 <= 1.0 + 1e-12

    def test_zero_cost_allocations(self):
        for m, budget in [(2, 1.0), (3, 2.0), (2, 1.2), (4, 3.0)]:
            inst1, inst2 = pb_impossibility_family(m, budget, k=3)
            x1 = impossibility_zero_allocation(m, budget, 0)
            x2 = impossibility_zero_allocation(m, budget, 1)
            assert sum(x1) <= budget + 1e-12
            for model in inst1.costs:
                assert eval_cost(model, x1) == pytest.approx(0.0, abs=1e-12)
            for model in inst2.costs:
                assert eval_cost(model, x2) == pytest.approx(0.0, abs=1e-12)

    def test_instances_differ_only_in_last_agent(self):
        inst1, inst2 = pb_impossibility_family(3, 2.0, k=3)
        assert inst1.costs[:-1] == inst2.costs[:-1]
        assert inst1.costs[-1] != inst2.costs[-1]

    def test_blind_panels_pay_on_one_instance(self):
        # panels of the shared-cost agents cannot distinguish the two instances
        inst1, inst2 = pb_impossibility_family(2, 1.0, k=2)
        cover = simplex_cover(2, 1.0, 0.25)
        weights = panel_counts([0, 1], inst1.n) / 2
        x1, _ = optimal_allocation(inst1, weights, cover)
        x2, _ = optimal_allocation(inst2, weights, cover)
        np.testing.assert_allclose(x1, x2)
        costs = [eval_cost(inst1.costs[-1], x1), eval_cost(inst2.costs[-1], x1)]
        assert max(costs) > 0.0

    def test_expected_cost_positive_by_enumeration(self):
        from fractions import Fraction

        from sortition_lab.model import Mode
        from sortition_lab.sampling import _weighted_panels

        k = 3
        for m, budget in ((2, 1.0), (3, 2.0)):
            pair = pb_impossibility_family(m, budget, k=k)
            cover = simplex_cover(m, budget, 0.25)
            n = pair[0].n
            expected = []
            for inst in pair:
                total = Fraction(0)
                for members, weight in _weighted_panels(n, k, Mode.WITHOUT_REPLACEMENT):
                    x, _ = optimal_allocation(inst, panel_counts(members, n) / k, cover)
                    sc = float(np.mean([eval_cost(c, x) for c in inst.costs]))
                    total += Fraction(weight, math.comb(n, k)) * Fraction(sc)
                expected.append(total)
                _, opt = optimal_allocation(inst, cover=cover)
                assert opt == pytest.approx(0.0, abs=1e-12)
            # a fixed rule cannot achieve zero on both sides of the family
            assert max(expected) > 0
