import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shortest_path_closure

from sortition_lab.model import (
    MERGE_TOL,
    Box,
    DiscreteDistribution,
    Feature,
    FiniteMetric,
    Mode,
    Norm,
    Panel,
    Segment,
    camouflaged_from_dict,
    distribution_from_dict,
    feature_from_dict,
    majority_estimator,
    majority_signs,
    make_camouflaged,
    pairwise,
    panel_counts,
    panel_from_dict,
    real_feature,
    space_from_dict,
    validate_metric,
)
from sortition_lab.representativeness import population_distribution


class TestValidateMetric:
    def test_two_point_metric_ok(self):
        assert validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]])) is None

    def test_triangle_violation_reports_witness(self):
        mat = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        violation = validate_metric(mat)
        assert violation is not None
        assert violation.axiom == "triangle"
        assert violation.witness == (0, 1, 2)

    def test_symmetry_violation(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert validate_metric(mat).axiom == "symmetry"

    def test_nonzero_diagonal(self):
        mat = np.array([[0.5, 1.0], [1.0, 0.0]])
        assert validate_metric(mat).axiom == "identity"

    def test_shortest_path_closed_matrices_are_metrics(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.uniform(0.1, 1.0, size=(6, 6))
            assert validate_metric(shortest_path_closure(raw)) is None

    def test_segment_and_box_are_valid(self):
        assert validate_metric(Segment(0.0, 1.0)) is None
        assert validate_metric(Box(3, Norm.L1)) is None


class TestSpaces:
    def test_segment_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Segment(1.0, 1.0)

    def test_box_distances(self):
        box1 = Box(2, Norm.L1)
        binf = Box(2, Norm.LINF)
        assert box1.distance((0.0, 0.0), (0.5, 0.25)) == 0.75
        assert binf.distance((0.0, 0.0), (0.5, 0.25)) == 0.5

    def test_finite_metric_rejects_non_metric(self):
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetric([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def test_discrete_metric(self):
        space = FiniteMetric.discrete(4)
        assert space.distance(0, 1) == 1.0
        assert space.distance(2, 2) == 0.0


def _scalar_matrix(space, xs, ys):
    return np.array([[space.distance(x, y) for y in ys] for x in xs]).reshape(len(xs), len(ys))


unit = st.floats(0.0, 1.0)


class TestPairwise:
    """pairwise must equal the scalar distance bit for bit, not approximately."""

    @given(xs=st.lists(st.floats(-3.0, 5.0), max_size=8), ys=st.lists(st.floats(-3.0, 5.0), max_size=8))
    @settings(max_examples=100)
    def test_segment(self, xs, ys):
        space = Segment(-3.0, 5.0)
        assert np.array_equal(pairwise(space, xs, ys), _scalar_matrix(space, xs, ys))

    # dims 9 and 12 included: a vectorized sum over the last axis already
    # differs from the in-order l1 sum there
    @pytest.mark.parametrize("norm", [Norm.L1, Norm.LINF])
    @pytest.mark.parametrize("dim", [1, 2, 5, 9, 12])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_box(self, norm, dim, data):
        point = st.tuples(*[unit] * dim)
        xs = data.draw(st.lists(point, min_size=1, max_size=6))
        ys = data.draw(st.lists(point, min_size=1, max_size=6))
        space = Box(dim, norm)
        assert np.array_equal(pairwise(space, xs, ys), _scalar_matrix(space, xs, ys))

    @given(data=st.data())
    @settings(max_examples=60)
    def test_finite_metric(self, data):
        n = data.draw(st.integers(1, 6))
        raw = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n * n, max_size=n * n)))
        space = FiniteMetric(shortest_path_closure(raw.reshape(n, n)))
        index = st.lists(st.integers(0, n - 1), max_size=7)
        xs, ys = data.draw(index), data.draw(index)
        assert np.array_equal(pairwise(space, xs, ys), _scalar_matrix(space, xs, ys))


class TestPanelCounts:
    def test_counts_with_multiplicity(self):
        assert panel_counts([0, 2, 2], 4).tolist() == [1, 0, 2, 0]

    @given(data=st.data())
    @settings(max_examples=100)
    def test_matrix_rows_match_single_panels(self, data):
        size = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(st.integers(0, size - 1), min_size=k, max_size=k), min_size=1, max_size=5))
        counts = panel_counts(np.array(rows), size)
        assert counts.shape == (len(rows), size)
        for row, got in zip(rows, counts):
            assert np.array_equal(got, panel_counts(row, size))


class TestFeature:
    def test_rejects_out_of_space_values(self):
        with pytest.raises(ValueError):
            Feature(Segment(0.0, 1.0), (0.5, 1.5))
        with pytest.raises(ValueError):
            Feature(FiniteMetric.discrete(3), (0, 3))

    def test_as_array_segment_only(self):
        feature = Feature(Box(2, Norm.L1), ((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(TypeError):
            feature.as_array()


class TestDiscreteDistribution:
    def test_merges_nearby_support(self):
        dist = DiscreteDistribution(Segment(0.0, 1.0), (0.5, 0.5 + 1e-14, 0.0), (0.25, 0.25, 0.5))
        assert len(dist.support) == 2
        np.testing.assert_allclose(sorted(dist.masses), [0.5, 0.5])

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution(Segment(0.0, 1.0), (0.0, 1.0), (0.4, 0.4))

    def test_from_counts_tracks_exact_masses(self):
        dist = DiscreteDistribution.from_counts(Segment(0.0, 1.0), (0.0, 0.5), (1, 3))
        assert dist.is_exact
        fracs = dist.exact_masses()
        assert fracs[0] + fracs[1] == 1

    def test_segment_support_sorted(self):
        dist = DiscreteDistribution(Segment(0.0, 1.0), (0.9, 0.1), (0.5, 0.5))
        assert dist.support == (0.1, 0.9)


def frozen_scan_merge(points, masses, counts=None):
    """Frozen copy of the nested support-merge scan, then sort, that the Segment merge replaced."""
    merged_pts, merged_w, merged_c = [], [], []
    for idx, p in enumerate(points):
        for j, q in enumerate(merged_pts):
            if abs(p - q) < MERGE_TOL:
                merged_w[j] += masses[idx]
                if counts is not None:
                    merged_c[j] += counts[idx]
                break
        else:
            merged_pts.append(p)
            merged_w.append(masses[idx])
            if counts is not None:
                merged_c.append(counts[idx])
    order = sorted(range(len(merged_pts)), key=merged_pts.__getitem__)
    counts_out = tuple(merged_c[j] for j in order) if counts is not None else None
    return tuple(merged_pts[j] for j in order), [merged_w[j] for j in order], counts_out


@st.composite
def chain_free_supports(draw):
    """Counted line points in clusters 1e-3 apart, each spanning under MERGE_TOL (no chains), shuffled."""
    centers = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=8, unique=True))
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(centers), st.integers(-4, 4), st.integers(1, 9)), min_size=1, max_size=30
        )
    )
    entries = draw(st.permutations(entries))
    points = [c / 1000 + off * 1e-13 for c, off, _ in entries]
    return points, [count for _, _, count in entries]


class TestSegmentMerge:
    @settings(max_examples=200, deadline=None)
    @given(chain_free_supports())
    def test_matches_frozen_scan_without_chains(self, case):
        points, counts = case
        space = Segment(0.0, 1.0)
        exact = DiscreteDistribution.from_counts(space, points, counts)
        support, masses, merged_counts = frozen_scan_merge(points, [c / sum(counts) for c in counts], counts)
        assert exact.support == support
        assert exact.masses.tobytes() == np.asarray(masses).tobytes()
        assert exact.counts == merged_counts
        plain = DiscreteDistribution(space, points, [c / sum(counts) for c in counts])
        assert plain.support == support
        assert plain.masses.tobytes() == np.asarray(masses).tobytes()
        assert plain.counts is None

    @pytest.mark.parametrize(
        "points, scan, anchor",
        [
            # 0 and 6e-13 are near, and so are 6e-13 and 1.2e-12, but 0 and 1.2e-12 are not
            ((6e-13, 0.0, 1.2e-12), ((6e-13,), (7,)), ((6e-13, 1.2e-12), (3, 4))),
            ((1.2e-12, 6e-13, 0.0), ((0.0, 1.2e-12), (4, 3)), ((6e-13, 1.2e-12), (6, 1))),
        ],
    )
    def test_chain_merges_from_the_smallest_point(self, points, scan, anchor):
        counts = (1, 2, 4)
        support, _, merged_counts = frozen_scan_merge(points, [c / 7 for c in counts], counts)
        assert (support, merged_counts) == scan  # the scan's grouping followed the input order
        dist = DiscreteDistribution.from_counts(Segment(0.0, 1.0), points, counts)
        assert (dist.support, dist.counts) == anchor

    def test_chain_grouping_ignores_input_order(self):
        count = {0.0: 2, 6e-13: 1, 1.2e-12: 4}
        for points in itertools.permutations(count):
            dist = DiscreteDistribution.from_counts(Segment(0.0, 1.0), points, [count[p] for p in points])
            assert dist.counts == (3, 4)
            assert dist.support == (next(p for p in points if p < 1e-12), 1.2e-12)  # the group's first point

    def test_population_merge_makes_no_distance_calls(self, monkeypatch):
        calls = []
        distance = Segment.distance
        monkeypatch.setattr(Segment, "distance", lambda self, x, y: calls.append((x, y)) or distance(self, x, y))
        population_distribution(real_feature(np.random.default_rng(0).random(5000)))
        assert calls == []

    def test_population_of_twenty_thousand_keeps_every_point(self):
        values = np.random.default_rng(1).random(20000)
        dist = population_distribution(real_feature(values))
        assert len(dist.support) == 20000
        assert dist.support == tuple(sorted(values.tolist()))


class TestPanel:
    def test_without_replacement_needs_strict_increase(self):
        with pytest.raises(ValueError):
            Panel(5, (1, 1))
        Panel(5, (1, 1), Mode.WITH_REPLACEMENT)

    def test_bounds(self):
        with pytest.raises(ValueError):
            Panel(5, (0, 5))

    def test_full(self):
        assert Panel.full(3).members == (0, 1, 2)


class TestCamouflaged:
    def test_counts_small_example(self):
        pop = make_camouflaged((1, 1), 2, 2, 1)
        assert pop.n == 8
        counts = pop.label_counts()
        assert counts[2] == 3 and counts[1] == 1
        assert counts[4] == 3 and counts[3] == 1

    def test_sign_flip_makes_odd_label_heavier(self):
        pop = make_camouflaged((-1, -1, -1), 3, 4, 2)
        counts = pop.label_counts()
        for j in range(1, 4):
            assert counts[2 * j] == 2 * (4 - 1)
            assert counts[2 * j - 1] == 2 * (4 + 1)
            assert counts[2 * j] < counts[2 * j - 1]

    def test_mixed_counts(self):
        pop = make_camouflaged((1, -1), 2, 3, 2)
        assert pop.n == 24
        counts = pop.label_counts()
        assert (counts[1], counts[2], counts[3], counts[4]) == (4, 8, 8, 4)

    def test_pair_fraction_exact(self):
        # each label pair holds exactly a 1/h share, as integer counts
        for h, w, r in [(2, 2, 1), (3, 5, 2), (4, 2, 3)]:
            z = tuple(1 if i % 2 else -1 for i in range(h))
            pop = make_camouflaged(z, h, w, r)
            counts = pop.label_counts()
            for j in range(1, h + 1):
                assert (counts[2 * j] + counts[2 * j - 1]) * h == pop.n

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            make_camouflaged((1,), 1, 2, 1)
        with pytest.raises(ValueError):
            make_camouflaged((1, 1), 2, 1, 1)
        with pytest.raises(ValueError):
            make_camouflaged((1, 0), 2, 2, 1)

    def test_assignment_feature_in_range(self):
        pop = make_camouflaged((1, -1), 2, 2, 2)
        feature = pop.assignment_feature()
        assert feature.n == pop.n
        assert set(feature.values) <= set(range(4))


class TestMajorityEstimator:
    def test_majority(self):
        assert majority_estimator([2, 2, 1], 1) == (1,)

    def test_tie_goes_negative(self):
        assert majority_estimator([1, 2], 1) == (-1,)

    def test_two_pairs(self):
        assert majority_estimator([2, 2, 3, 3, 3, 4], 2) == (1, -1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            majority_estimator([5], 2)

    @given(
        st.integers(1, 5).flatmap(lambda h: st.integers(1, 12).flatmap(lambda k: st.tuples(
            st.just(h),
            st.lists(st.lists(st.integers(1, 2 * h), min_size=k, max_size=k), min_size=1, max_size=10),
        )))
    )
    def test_block_rule_matches_loop(self, case):
        # majority_signs on a block of label panels against a frozen copy of
        # the per-label counting loop it replaced
        h, panels = case

        def frozen(values):
            counts = [0] * (2 * h + 1)
            for v in values:
                counts[v] += 1
            return tuple(1 if counts[2 * j] > counts[2 * j - 1] else -1 for j in range(1, h + 1))

        expected = [frozen(values) for values in panels]
        assert [majority_estimator(values, h) for values in panels] == expected
        rows = majority_signs(panel_counts(np.array(panels), 2 * h + 1), h)
        assert [tuple(row) for row in rows.tolist()] == expected


class TestSerialization:
    def test_space_round_trips(self):
        for space in [Segment(0.0, 2.0), Box(3, Norm.LINF), FiniteMetric.discrete(4)]:
            data = json.loads(json.dumps(space.to_dict()))
            assert space_from_dict(data) == space

    def test_feature_round_trip(self):
        for feature in [
            Feature(Segment(0.0, 1.0), (0.0, 0.5, 1.0)),
            Feature(Box(2, Norm.L1), ((0.0, 1.0), (0.5, 0.5))),
            Feature(FiniteMetric.discrete(3), (0, 2, 1)),
        ]:
            data = json.loads(json.dumps(feature.to_dict()))
            assert feature_from_dict(data) == feature

    def test_distribution_round_trip(self):
        dist = DiscreteDistribution.from_counts(Segment(0.0, 1.0), (0.0, 0.5, 1.0), (1, 3, 1))
        back = distribution_from_dict(json.loads(json.dumps(dist.to_dict())))
        assert back == dist
        assert back.exact_masses() == dist.exact_masses()

    def test_panel_round_trip(self):
        panel = Panel(9, (1, 1, 4), Mode.WITH_REPLACEMENT)
        assert panel_from_dict(json.loads(json.dumps(panel.to_dict()))) == panel

    def test_camouflaged_round_trip(self):
        pop = make_camouflaged((1, -1, 1), 3, 2, 2)
        assert camouflaged_from_dict(json.loads(json.dumps(pop.to_dict()))) == pop
