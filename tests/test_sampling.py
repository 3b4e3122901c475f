import math
from collections import Counter
from fractions import Fraction

import pytest

from sortition_lab.model import Mode, Panel
from sortition_lab.sampling import (
    EstimateWithCI,
    StatisticError,
    TrialPlan,
    draw_panel,
    enumerate_panels,
    monte_carlo,
    proportion_ci,
    trial_rng,
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
        counts = Counter()
        draws = 60_000
        for t in range(draws):
            counts[draw_panel(4, 2, Mode.WITHOUT_REPLACEMENT, trial_rng(17, t)).members] += 1
        assert len(counts) == 6
        for pair, hits in counts.items():
            assert abs(hits / draws - 1 / 6) < 0.01, pair

    def test_with_replacement_multiset(self):
        panel = draw_panel(3, 5, Mode.WITH_REPLACEMENT, trial_rng(1, 1))
        assert panel.mode is Mode.WITH_REPLACEMENT
        assert all(a <= b for a, b in zip(panel.members, panel.members[1:]))


class TestEnumeratePanels:
    def test_subsets_uniform(self):
        panels = list(enumerate_panels(5, 2, Mode.WITHOUT_REPLACEMENT))
        assert len(panels) == 10
        assert all(prob == Fraction(1, 10) for _, prob in panels)
        assert sum(prob for _, prob in panels) == 1

    def test_multisets_weighted(self):
        panels = list(enumerate_panels(5, 2, Mode.WITH_REPLACEMENT))
        assert len(panels) == 15
        assert sum(prob for _, prob in panels) == 1
        probs = {panel.members: prob for panel, prob in panels}
        assert probs[(0, 0)] == Fraction(1, 25)
        assert probs[(0, 1)] == Fraction(2, 25)

    def test_single_panel(self):
        panels = list(enumerate_panels(3, 3, Mode.WITHOUT_REPLACEMENT))
        assert len(panels) == 1
        assert panels[0][1] == 1

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_panels(60, 20, Mode.WITHOUT_REPLACEMENT))

    def test_rejects_oversized_subset(self):
        with pytest.raises(ValueError, match="exceeds"):
            list(enumerate_panels(3, 4, Mode.WITHOUT_REPLACEMENT))
        # with replacement a panel may be larger than the population
        assert len(list(enumerate_panels(2, 3, Mode.WITH_REPLACEMENT))) == 4


class TestMonteCarlo:
    def test_constant_statistic(self):
        est = monte_carlo(TrialPlan(10, 3, trials=100, seed=0), lambda panel: 1.0)
        assert est == EstimateWithCI(1.0, 0.0, 100)

    def test_half_probability_event(self):
        plan = TrialPlan(10, 1, trials=100_000, seed=42)
        est = monte_carlo(plan, lambda panel: float(panel.members[0] < 5))
        assert abs(est.mean - 0.5) < 0.01
        assert est.half_width_95 < 0.005

    def test_worker_count_independent(self, monkeypatch):
        plan = TrialPlan(30, 5, trials=4000, seed=7)
        stat = lambda panel: float(sum(panel.members))
        monkeypatch.setenv("SORTITION_THREADS", "1")
        serial = monte_carlo(plan, stat)
        monkeypatch.setenv("SORTITION_THREADS", "7")
        threaded = monte_carlo(plan, stat)
        assert serial == threaded

    def test_statistic_failure_carries_trial_index(self):
        def bad(panel):
            if panel.members[0] == 0:
                raise ValueError("boom")
            return 0.0

        with pytest.raises(StatisticError, match="trial"):
            monte_carlo(TrialPlan(3, 2, trials=50, seed=1), bad)

    def test_wilson_interval_for_rare_events(self):
        plan = TrialPlan(500, 1, trials=1500, seed=1000)
        est = monte_carlo(plan, lambda panel: float(panel.members[0] == 0))
        assert 0.0 < est.mean < 0.01
        # the normal width would be misleadingly tiny here
        assert est.half_width_95 > 1.96 * math.sqrt(est.mean * (1 - est.mean) / 1500)

    def test_degenerate_indicator_keeps_zero_width(self):
        est = monte_carlo(TrialPlan(10, 1, trials=500, seed=3), lambda panel: 0.0)
        assert est.mean == 0.0 and est.half_width_95 == 0.0


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
