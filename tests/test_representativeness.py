from fractions import Fraction
from math import comb

import numpy as np
import pytest
from conftest import weighted_panels
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sortition_lab.model import Mode, Panel, real_feature
from sortition_lab.representativeness import (
    PanelWasserstein,
    default_k_grid,
    expected_w_exact,
    is_representative,
    mean_gap,
    min_k_sweep,
    panel_distribution,
    population_distribution,
)
from sortition_lab.sampling import TrialPlan, block_members
from sortition_lab.transport import wasserstein_1d

FEATURE = real_feature((0.0, 0.5, 0.5, 0.5, 1.0))


class TestPanelDistribution:
    def test_two_member_panel(self):
        dist = panel_distribution(FEATURE, Panel(5, (0, 1)))
        assert dist.support == (0.0, 0.5)
        np.testing.assert_allclose(dist.masses, [0.5, 0.5])

    def test_full_panel_is_population(self):
        assert panel_distribution(FEATURE, Panel.full(5)) == population_distribution(FEATURE)

    def test_replacement_multiplicity_collapses(self):
        dist = panel_distribution(FEATURE, Panel(5, (1, 1), Mode.WITH_REPLACEMENT))
        assert dist.support == (0.5,)
        assert dist.masses[0] == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            panel_distribution(FEATURE, Panel(6, (0, 5)))


class TestIsRepresentative:
    def test_mid_pair_within_point_two(self):
        ok, w = is_representative(FEATURE, Panel(5, (1, 2)), 0.2)
        assert ok and w == 0.2

    def test_low_mid_pair_not_within(self):
        ok, w = is_representative(FEATURE, Panel(5, (0, 1)), 0.2)
        assert not ok and w == 0.25

    def test_population_panel(self):
        ok, w = is_representative(FEATURE, Panel.full(5), 0.0)
        assert ok and w == 0.0


class TestMeanGap:
    def test_direct_value(self):
        assert mean_gap(FEATURE, Panel(5, (0, 1))) == pytest.approx(0.25)

    def test_population_zero(self):
        assert mean_gap(FEATURE, Panel.full(5)) == 0.0

    def test_gap_bounded_by_distance(self):
        # the mean moves by at most the transport distance, checked in bulk
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 25))
            k = int(rng.integers(1, n + 1))
            feature = real_feature(rng.random(n))
            members = tuple(sorted(rng.choice(n, size=k, replace=False)))
            panel = Panel(n, members)
            _, w = is_representative(feature, panel, 0.0)
            assert mean_gap(feature, panel) <= w + 1e-12

    def test_requires_unit_interval(self):
        feature = real_feature((0.0, 2.0), hi=2.0)
        with pytest.raises(ValueError):
            mean_gap(feature, Panel(2, (0,)))


class TestPanelWasserstein:
    def test_matches_exact_route(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, n + 1))
            feature = real_feature(rng.random(n))
            panel = Panel(n, tuple(sorted(rng.choice(n, size=k, replace=False))))
            fast = PanelWasserstein(feature)(panel)
            exact = wasserstein_1d(
                population_distribution(feature), panel_distribution(feature, panel)
            )
            assert fast == pytest.approx(exact, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        feature = real_feature(rng.random(12))
        stat = PanelWasserstein(feature)
        members = np.array([sorted(rng.choice(12, size=4, replace=False)) for _ in range(50)])
        batched = stat.batch(members)
        for row, value in zip(members, batched):
            assert value == pytest.approx(stat(Panel(12, tuple(row))), abs=1e-14)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_batch_matches_scalar_on_drawn_blocks(self, data):
        n = data.draw(st.integers(1, 40))
        mode = data.draw(st.sampled_from(list(Mode)))
        k = data.draw(st.integers(1, n if mode is Mode.WITHOUT_REPLACEMENT else 2 * n))
        # a small grid of values makes ties and repeated support points common
        values = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        stat = PanelWasserstein(real_feature([v / 8 for v in values]))
        plan = TrialPlan(n, k, mode, trials=data.draw(st.integers(1, 100)), seed=data.draw(st.integers(0, 2**64 - 1)))
        members = block_members(plan, data.draw(st.integers(0, (plan.trials - 1) // 64)))
        for row, value in zip(members.tolist(), stat.batch(members)):
            assert value == pytest.approx(stat(Panel(n, tuple(row), mode)), abs=1e-12)


def enumerated_expected_w(feature, k: int, mode: Mode) -> Fraction:
    """E[W] over every panel with its draw count, all in Fractions: the closed form's oracle."""
    grid = sorted(set(feature.values))
    pop_cdf = [Fraction(sum(v <= u for v in feature.values), feature.n) for u in grid]
    total = Fraction(0)
    draws = 0
    for members, weight in weighted_panels(feature.n, k, mode):
        w = Fraction(0)
        for j in range(len(grid) - 1):
            panel_cdf = Fraction(sum(feature.values[i] <= grid[j] for i in members), k)
            w += abs(panel_cdf - pop_cdf[j]) * (Fraction(grid[j + 1]) - Fraction(grid[j]))
        total += weight * w
        draws += weight
    return total / draws


class TestExpectedClosedForm:
    @given(data=st.data())
    @settings(max_examples=80)
    def test_matches_fraction_enumeration(self, data):
        n = data.draw(st.integers(1, 10))
        mode = data.draw(st.sampled_from(list(Mode)))
        k = data.draw(st.integers(1, n))
        assume(comb(n + k - 1, k) <= 2000)
        # eighths make repeated values common; a float draw makes gaps generic
        values = data.draw(
            st.one_of(
                st.lists(st.integers(0, 8).map(lambda v: v / 8), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            )
        )
        feature = real_feature(values)
        assert expected_w_exact(feature, k, mode) == float(enumerated_expected_w(feature, k, mode))

    def test_rejects_empty_panel(self):
        with pytest.raises(ValueError, match="at least 1"):
            expected_w_exact(FEATURE, 0, Mode.WITH_REPLACEMENT)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_string_mode_is_coerced(self, mode):
        # 0.24 without replacement, 0.272 with: a mode given by its value must not pick the other
        feature = real_feature([0.0, 0.25, 0.5, 0.75, 1.0])
        assert expected_w_exact(feature, 2, mode.value) == expected_w_exact(feature, 2, mode)


class TestExpectedOrdering:
    def test_without_replacement_never_worse(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, n + 1))
            feature = real_feature(rng.random(n))
            eu = expected_w_exact(feature, k, Mode.WITHOUT_REPLACEMENT)
            er = expected_w_exact(feature, k, Mode.WITH_REPLACEMENT)
            assert eu <= er + 1e-12

    def test_oversized_subset_rejected(self):
        feature = real_feature(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="exceeds"):
            expected_w_exact(feature, 4, Mode.WITHOUT_REPLACEMENT)


class TestMinKSweep:
    def test_constant_feature_never_fails(self):
        feature = real_feature((0.3,) * 16)
        result = min_k_sweep([feature], eps=0.1, delta=0.05, trials=200, seed=0)
        assert result.recommended_k == result.rows[0].k == 2
        assert all(row.failure_rate == 0.0 for row in result.rows)

    def test_half_half_feature_succeeds_at_k_one(self):
        # any single agent sits at distance exactly 1/2 from the population
        feature = real_feature((0.0,) * 8 + (1.0,) * 8)
        result = min_k_sweep([feature], eps=0.5, delta=0.0, k_grid=(1, 2), trials=400, seed=1)
        assert result.recommended_k == 1

    def test_failure_rate_trend_and_eps_monotonicity(self):
        rng = np.random.default_rng(5)
        features = [real_feature(rng.random(64)) for _ in range(4)]
        recommended = []
        for eps in (0.1, 0.2, 0.4):
            result = min_k_sweep(features, eps=eps, delta=0.1, trials=400, seed=2)
            ks = [row.k for row in result.rows]
            rates = [row.failure_rate for row in result.rows]
            cis = [row.ci_half_width for row in result.rows]
            for i in range(len(ks) - 1):
                assert rates[i + 1] <= rates[i] + 3 * (cis[i] + cis[i + 1])
            recommended.append(result.recommended_k if result.recommended_k else max(ks) + 1)
        assert recommended[0] >= recommended[1] >= recommended[2]

    def test_default_grid(self):
        assert default_k_grid(20) == (2, 4, 8, 16, 20)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            min_k_sweep([FEATURE], 0.1, 0.1, k_grid=())
