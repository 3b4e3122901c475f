import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import plan_blocks

from sortition_lab.experiments import ExperimentConfig, run_experiment
from sortition_lab.model import Mode, Panel, real_feature
from sortition_lab.representativeness import PanelWasserstein
from sortition_lab.sampling import (
    TRIAL_BLOCK,
    EstimateWithCI,
    StatisticError,
    TrialPlan,
    _weighted_panels,
    block_members,
    draw_panel,
    monte_carlo,
    proportion_ci,
    trial_rng,
    trial_values,
)


class TestDrawPanel:
    def test_full_population(self):
        panel = draw_panel(5, 5, Mode.WITHOUT_REPLACEMENT, trial_rng(0, 0))
        assert panel.members == (0, 1, 2, 3, 4)

    def test_seed_determinism(self):
        a = draw_panel(50, 7, Mode.WITHOUT_REPLACEMENT, trial_rng(9, 3))
        b = draw_panel(50, 7, Mode.WITHOUT_REPLACEMENT, trial_rng(9, 3))
        assert a == b

    def test_rejects_oversized_subset(self):
        with pytest.raises(ValueError):
            draw_panel(3, 4, Mode.WITHOUT_REPLACEMENT, trial_rng(0, 0))
        draw_panel(3, 4, Mode.WITH_REPLACEMENT, trial_rng(0, 0))

    def test_uniform_over_pairs(self):
        # n=4, k=2: each of the 6 pairs should appear with frequency 1/6 +- 0.01
        draws = 60_000
        rows = np.concatenate(plan_blocks(TrialPlan(4, 2, trials=draws, seed=17)))
        counts = Counter(map(tuple, rows.tolist()))
        assert len(counts) == 6
        for pair, hits in counts.items():
            assert abs(hits / draws - 1 / 6) < 0.01, pair

    def test_with_replacement_multiset(self):
        panel = draw_panel(3, 5, Mode.WITH_REPLACEMENT, trial_rng(1, 1))
        assert panel.mode is Mode.WITH_REPLACEMENT
        assert all(a <= b for a, b in zip(panel.members, panel.members[1:]))

    @pytest.mark.parametrize(
        "n, k, mode",
        [
            (5, 5, Mode.WITHOUT_REPLACEMENT),
            (1, 1, Mode.WITHOUT_REPLACEMENT),
            (50, 1, Mode.WITHOUT_REPLACEMENT),
            (50, 7, Mode.WITHOUT_REPLACEMENT),
            (200, 25, Mode.WITHOUT_REPLACEMENT),
            (40, 40, Mode.WITHOUT_REPLACEMENT),
            (30, 1, Mode.WITH_REPLACEMENT),
            (40, 12, Mode.WITH_REPLACEMENT),
            (3, 5, Mode.WITH_REPLACEMENT),
            (1, 4, Mode.WITH_REPLACEMENT),
        ],
    )
    def test_matches_list_swap_draw(self, n, k, mode):
        # a frozen copy of the per-panel draw that swapped a list of ints:
        # the one-row block draw gives the same panel and leaves the
        # generator in the same state
        def list_swap_draw(rng):
            if mode is Mode.WITH_REPLACEMENT:
                return tuple(np.sort(rng.integers(0, n, size=k)).tolist())
            idx = list(range(n))
            for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
                idx[i], idx[j] = idx[j], idx[i]
            return tuple(sorted(idx[:k]))

        for t in range(20):
            ours, frozen = trial_rng(5, t), trial_rng(5, t)
            assert draw_panel(n, k, mode, ours).members == list_swap_draw(frozen)
            assert ours.integers(1 << 62) == frozen.integers(1 << 62)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_string_mode_is_coerced(self, mode):
        for t in range(50):
            by_value = draw_panel(4, 2, mode.value, trial_rng(3, t))
            assert by_value == draw_panel(4, 2, mode, trial_rng(3, t))
            assert by_value.mode is mode


class TestEnumeratePanels:
    """The one exact enumerator: members of every panel and its integer count of draws."""

    def test_subsets_uniform(self):
        panels = list(_weighted_panels(5, 2, Mode.WITHOUT_REPLACEMENT))
        assert len(panels) == 10
        assert all(weight == 1 for _, weight in panels)
        assert sum(Fraction(weight, math.comb(5, 2)) for _, weight in panels) == 1

    def test_multisets_weighted(self):
        panels = list(_weighted_panels(5, 2, Mode.WITH_REPLACEMENT))
        assert len(panels) == 15
        assert sum(weight for _, weight in panels) == 25
        weights = dict(panels)
        assert weights[(0, 0)] == 1
        assert weights[(0, 1)] == 2

    def test_single_panel(self):
        panels = list(_weighted_panels(3, 3, Mode.WITHOUT_REPLACEMENT))
        assert panels == [((0, 1, 2), 1)]

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            list(_weighted_panels(60, 20, Mode.WITHOUT_REPLACEMENT))

    def test_rejects_oversized_subset(self):
        with pytest.raises(ValueError, match="exceeds"):
            list(_weighted_panels(3, 4, Mode.WITHOUT_REPLACEMENT))
        # with replacement a panel may be larger than the population
        assert len(list(_weighted_panels(2, 3, Mode.WITH_REPLACEMENT))) == 4

    @pytest.mark.parametrize("mode", list(Mode))
    def test_string_mode_is_coerced(self, mode):
        assert list(_weighted_panels(5, 2, mode.value)) == list(_weighted_panels(5, 2, mode))


class TestMonteCarlo:
    def test_constant_statistic(self):
        est = monte_carlo(TrialPlan(10, 3, trials=100, seed=0), lambda members: np.ones(len(members)))
        assert est == EstimateWithCI(1.0, 0.0, 100)

    def test_half_probability_event(self):
        plan = TrialPlan(10, 1, trials=100_000, seed=42)
        est = monte_carlo(plan, lambda members: (members[:, 0] < 5).astype(float))
        assert abs(est.mean - 0.5) < 0.01
        assert est.half_width_95 < 0.005

    def test_statistic_failure_carries_trial_index(self):
        def bad(members):
            if np.any(members[:, 0] == 0):
                raise ValueError("boom")
            return np.zeros(len(members))

        with pytest.raises(StatisticError, match="trial"):
            monte_carlo(TrialPlan(3, 2, trials=50, seed=1), bad)

    def test_wilson_interval_for_rare_events(self):
        plan = TrialPlan(500, 1, trials=1500, seed=1000)
        est = monte_carlo(plan, lambda members: (members[:, 0] == 0).astype(float))
        assert 0.0 < est.mean < 0.01
        # the normal width would be misleadingly tiny here
        assert est.half_width_95 > 1.96 * math.sqrt(est.mean * (1 - est.mean) / 1500)

    def test_degenerate_indicator_keeps_zero_width(self):
        est = monte_carlo(TrialPlan(10, 1, trials=500, seed=3), lambda members: np.zeros(len(members)))
        assert est.mean == 0.0 and est.half_width_95 == 0.0


class TestTrialStreams:
    def test_distinct_seeds_give_distinct_estimates(self):
        # seed XOR trial made these four seeds replay one set of panels
        stat = lambda members: members.sum(axis=1).astype(float)
        means = {monte_carlo(TrialPlan(30, 5, trials=1024, seed=seed), stat).mean for seed in (0, 1, 5, 1023)}
        assert len(means) == 4

    def test_blocks_of_one_seed_differ(self):
        plan = TrialPlan(30, 5, trials=3 * TRIAL_BLOCK, seed=11)
        first, second = block_members(plan, 0), block_members(plan, 1)
        assert first.shape == second.shape == (TRIAL_BLOCK, 5)
        assert not np.array_equal(first, second)

    def test_block_replays_its_stream(self):
        plan = TrialPlan(30, 5, trials=200, seed=4)
        assert np.array_equal(block_members(plan, 2), block_members(plan, 2))
        assert [m.shape[0] for m in plan_blocks(plan)] == [TRIAL_BLOCK] * 3 + [200 - 3 * TRIAL_BLOCK]

    def test_uniform_over_subsets(self):
        # n=5, k=2: each of the 10 subsets should appear with frequency 1/10 +- 0.01
        draws = 60_000
        plan = TrialPlan(5, 2, trials=draws, seed=17)
        rows = np.concatenate(plan_blocks(plan))
        assert np.all(rows[:, 0] < rows[:, 1])
        counts = Counter(map(tuple, rows.tolist()))
        assert len(counts) == 10
        for pair, hits in counts.items():
            assert abs(hits / draws - 1 / 10) < 0.01, pair

    def test_uniform_over_multisets(self):
        # n=3, k=2 with replacement: {i, i} has probability 1/9, {i, j} 2/9
        draws = 60_000
        plan = TrialPlan(3, 2, Mode.WITH_REPLACEMENT, trials=draws, seed=18)
        rows = np.concatenate(plan_blocks(plan))
        assert np.all(rows[:, 0] <= rows[:, 1])
        counts = Counter(map(tuple, rows.tolist()))
        assert len(counts) == 6
        for (a, b), hits in counts.items():
            assert abs(hits / draws - (1 / 9 if a == b else 2 / 9)) < 0.01, (a, b)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_rows_are_sorted_panels(self, mode):
        plan = TrialPlan(40, 12, mode, trials=300, seed=21)
        for members in plan_blocks(plan):
            steps = np.diff(members, axis=1)
            assert np.all(steps > 0) if mode is Mode.WITHOUT_REPLACEMENT else np.all(steps >= 0)
            assert members.min() >= 0 and members.max() < 40

    @pytest.mark.parametrize("n, k", [(9, 4), (30, 30), (50, 7)])
    def test_matches_sequential_fisher_yates(self, n, k):
        # the block's column swaps replay a per-row Fisher-Yates on its own draws
        plan = TrialPlan(n, k, trials=150, seed=12)
        for block, members in enumerate(plan_blocks(plan)):
            swaps = trial_rng(12, block).integers(np.arange(k), n, size=(len(members), k))
            for row, targets in zip(members.tolist(), swaps.tolist()):
                perm = list(range(n))
                for i, j in enumerate(targets):
                    perm[i], perm[j] = perm[j], perm[i]
                assert row == sorted(perm[:k])

    def test_full_population_block(self):
        members = block_members(TrialPlan(6, 6, trials=10, seed=0), 0)
        assert np.array_equal(members, np.tile(np.arange(6), (10, 1)))


class TestTrialValues:
    FEATURE = real_feature(np.random.default_rng(8).random(50))

    def test_batch_matches_scalar_path(self):
        # the batch method against the one-panel call on every row
        stat = PanelWasserstein(self.FEATURE)
        plan = TrialPlan(50, 9, trials=300, seed=5)
        batched = trial_values(plan, stat)
        rows = np.concatenate(plan_blocks(plan)).tolist()
        scalar = [stat(Panel(plan.n, tuple(row), plan.mode)) for row in rows]
        np.testing.assert_allclose(batched, scalar, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [False, True])
    def test_partial_block_filled(self, batch):
        # 130 trials: two full blocks and a partial one; a plain function or
        # an evaluator object with a batch method
        plan = TrialPlan(20, 4, trials=130, seed=6)
        expected = np.concatenate([m[:, 0] + 0.5 for m in plan_blocks(plan)])
        stat = lambda members: members[:, 0] + 0.5
        if batch:
            stat = SimpleNamespace(batch=stat)
        values = trial_values(plan, stat)
        assert values.shape == (130,)
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("batch", [False, True])
    def test_block_order_independent(self, batch):
        # blocks drawn and scored last to first, then put back in trial order
        stat = PanelWasserstein(self.FEATURE)
        plan = TrialPlan(50, 9, trials=1000, seed=7)
        blocks = range(-(-plan.trials // TRIAL_BLOCK))
        scored = {block: stat.batch(block_members(plan, block)) for block in reversed(blocks)}
        expected = np.concatenate([scored[block] for block in blocks])
        values = trial_values(plan, stat if batch else (lambda members: stat.batch(members)))
        assert np.array_equal(values, expected)

    def test_scalar_failure_reports_trial(self):
        # the failing block is scored again row by row to find the trial
        plan = TrialPlan(20, 4, trials=200, seed=2)
        first_bad = next(
            t for t, row in enumerate(np.concatenate(plan_blocks(plan)).tolist()) if row[0] == 0
        )

        def bad(members):
            if np.any(members[:, 0] == 0):
                raise ValueError("boom")
            return np.zeros(len(members))

        with pytest.raises(StatisticError) as err:
            trial_values(plan, bad)
        assert err.value.trial == first_bad

    def test_columns_match_each_column_alone(self):
        # a (rows, m) statistic fills (trials, m) values, each column with
        # the same bits as trial_values of that column's statistic
        stat = PanelWasserstein(self.FEATURE)
        columns = [stat.batch, lambda members: members.mean(axis=1), lambda members: members[:, -1] * 0.1]
        plan = TrialPlan(50, 9, trials=200, seed=3)
        values = trial_values(plan, lambda members: np.column_stack([c(members) for c in columns]))
        assert values.shape == (200, 3)
        for j, column in enumerate(columns):
            assert values[:, j].tobytes() == trial_values(plan, column).tobytes(), j

    def test_multi_column_failure_reports_trial(self):
        plan = TrialPlan(20, 4, trials=200, seed=2)
        first_bad = next(t for t, row in enumerate(np.concatenate(plan_blocks(plan)).tolist()) if row[1] == 1)

        def bad(members):
            if np.any(members[:, 1] == 1):
                raise ValueError("boom")
            return np.column_stack([members[:, 0], members[:, 1]]).astype(float)

        with pytest.raises(StatisticError) as err:
            trial_values(plan, bad)
        assert err.value.trial == first_bad

    def test_batch_failure_reports_block_start(self):
        blocks = []

        def stat(panel):
            return 0.0

        def batch(members):
            blocks.append(members)
            if len(blocks) == 2:
                raise ValueError("boom")
            return np.zeros(len(members))

        stat.batch = batch
        with pytest.raises(StatisticError) as err:
            trial_values(TrialPlan(20, 4, trials=200, seed=2), stat)
        assert err.value.trial == TRIAL_BLOCK

    @pytest.mark.parametrize(
        "kind",
        ["rep_sweep", "concentration", "facility_tail", "facility_welfare",
         "pb_welfare", "pb_core", "pb_lower", "multifacility_line"],
    )
    def test_monte_carlo_kinds_build_no_panel(self, kind, monkeypatch):
        # every Monte Carlo kind scores member matrices; none validates a Panel per trial
        built = []
        post_init = Panel.__post_init__
        monkeypatch.setattr(Panel, "__post_init__", lambda panel: built.append(post_init(panel)))
        run_experiment(ExperimentConfig(kind, {}, seed=0, trials=130))
        assert len(built) == 0


class TestProportionCI:
    def test_interior_uses_normal(self):
        est = proportion_ci(500, 1000)
        assert est.half_width_95 == pytest.approx(1.96 * math.sqrt(0.25 / 1000))

    def test_near_extremes_widen(self):
        est = proportion_ci(2, 1000)
        assert est.half_width_95 > 1.96 * math.sqrt(est.mean * (1 - est.mean) / 1000)

    def test_degenerate_counts_collapse(self):
        assert proportion_ci(0, 1000).half_width_95 == 0.0
        assert proportion_ci(1000, 1000).half_width_95 == 0.0


class TestTrialPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPlan(5, 6)
        with pytest.raises(ValueError):
            TrialPlan(5, 0)
        with pytest.raises(ValueError):
            TrialPlan(5, 2, trials=0)
        TrialPlan(5, 6, mode=Mode.WITH_REPLACEMENT)

    def test_string_mode_is_coerced(self):
        plan = TrialPlan(3, 3, mode="with_replacement", trials=64)
        assert plan.mode is Mode.WITH_REPLACEMENT
        members = block_members(plan, 0)
        assert np.array_equal(members, block_members(TrialPlan(3, 3, Mode.WITH_REPLACEMENT, trials=64), 0))
        assert (np.diff(members, axis=1) == 0).any(axis=1).sum() > 0
        with pytest.raises(ValueError, match="exceeds"):
            TrialPlan(3, 5, mode="without_replacement")
