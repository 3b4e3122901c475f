import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import shortest_path_closure
from hypothesis import given, settings
from hypothesis import strategies as st

from sortition_lab import transport
from sortition_lab.model import (
    Box,
    DiscreteDistribution,
    FiniteMetric,
    Norm,
    Segment,
)
from sortition_lab.transport import (
    MassScalingError,
    SpaceMismatchError,
    _w1_exact,
    convexity_check,
    mixture,
    wasserstein_1d,
    wasserstein_flow,
)

LINE = Segment(0.0, 1.0)


def counterexample_population() -> DiscreteDistribution:
    return DiscreteDistribution.from_counts(LINE, (0.0, 0.5, 1.0), (1, 3, 1))


def random_counts_dist(rng, space, points) -> DiscreteDistribution:
    counts = rng.integers(1, 6, size=len(points))
    return DiscreteDistribution.from_counts(space, points, counts)


class TestWasserstein1D:
    def test_panel_low_mid_value(self):
        pop = counterexample_population()
        panel = DiscreteDistribution.from_counts(LINE, (0.0, 0.5), (1, 1))
        assert wasserstein_1d(pop, panel) == 0.25

    def test_panel_point_mass_value(self):
        pop = counterexample_population()
        panel = DiscreteDistribution.from_counts(LINE, (0.5,), (2,))
        assert wasserstein_1d(pop, panel) == 0.2

    def test_panel_extremes_value(self):
        pop = counterexample_population()
        panel = DiscreteDistribution.from_counts(LINE, (0.0, 1.0), (1, 1))
        assert wasserstein_1d(pop, panel) == 0.3

    def test_identity(self):
        pop = counterexample_population()
        assert wasserstein_1d(pop, pop) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = random_counts_dist(rng, LINE, rng.random(4))
            b = random_counts_dist(rng, LINE, rng.random(5))
            assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a), abs=1e-15)

    def test_space_mismatch(self):
        a = DiscreteDistribution(LINE, (0.5,), (1.0,))
        b = DiscreteDistribution(Segment(0.0, 2.0), (0.5,), (1.0,))
        with pytest.raises(SpaceMismatchError):
            wasserstein_1d(a, b)

    def test_float_mass_path_matches_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pts = rng.random(5)
            counts = rng.integers(1, 5, size=5)
            exact = DiscreteDistribution.from_counts(LINE, pts, counts)
            floaty = DiscreteDistribution(LINE, pts, counts / counts.sum())
            other = random_counts_dist(rng, LINE, rng.random(4))
            assert wasserstein_1d(exact, other) == pytest.approx(
                wasserstein_1d(floaty, other), abs=1e-12
            )


class TestFlow:
    def test_two_point_full_move(self):
        space = FiniteMetric.discrete(2)
        phi = DiscreteDistribution.from_counts(space, (0, 1), (1, 0))
        psi = DiscreteDistribution.from_counts(space, (0, 1), (0, 1))
        value, coupling = wasserstein_flow(phi, psi)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert coupling.marginal_error(phi, psi) <= 1e-9

    def test_identical_distributions_zero_cost(self):
        rng = np.random.default_rng(2)
        phi = random_counts_dist(rng, LINE, rng.random(6))
        value, coupling = wasserstein_flow(phi, phi)
        assert value == pytest.approx(0.0, abs=1e-12)
        off_diag = coupling.gamma - np.diag(np.diag(coupling.gamma))
        assert np.abs(off_diag).max() <= 1e-12

    def test_line_agreement_is_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = random_counts_dist(rng, LINE, rng.random(rng.integers(1, 6)))
            b = random_counts_dist(rng, LINE, rng.random(rng.integers(1, 6)))
            value, coupling = wasserstein_flow(a, b)
            assert abs(value - wasserstein_1d(a, b)) <= 1e-9
            assert coupling.marginal_error(a, b) <= 1e-9
            assert abs(coupling.cost(LINE) - value) <= 1e-9

    def test_box_supports(self):
        space = Box(2, Norm.LINF)
        phi = DiscreteDistribution.from_counts(space, ((0.0, 0.0), (1.0, 1.0)), (1, 1))
        psi = DiscreteDistribution.from_counts(space, ((0.0, 1.0),), (1,))
        value, _ = wasserstein_flow(phi, psi)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_scaling_overflow_suggests_rational(self):
        masses = np.array([1.0 / 3.0, np.pi / 8.0, 0.0])
        masses[2] = 1.0 - masses[0] - masses[1]
        phi = DiscreteDistribution(LINE, (0.1, 0.5, 0.9), masses)
        psi = DiscreteDistribution.from_counts(LINE, (0.2, 0.8), (1, 1))
        with pytest.raises(MassScalingError, match="rational"):
            wasserstein_flow(phi, psi)
        value, _ = wasserstein_flow(phi, psi, rational=True)
        assert abs(value - wasserstein_1d(phi, psi)) <= 1e-9


def lp_transport_value(phi, psi) -> float:
    """Independent oracle: the same transportation problem as a dense LP."""
    from scipy.optimize import linprog

    ns, nt = len(phi.support), len(psi.support)
    costs = np.array(
        [phi.space.distance(x, y) for x in phi.support for y in psi.support]
    )
    a_eq = np.zeros((ns + nt, ns * nt))
    for i in range(ns):
        a_eq[i, i * nt : (i + 1) * nt] = 1.0
    for j in range(nt):
        a_eq[ns + j, j::nt] = 1.0
    b_eq = np.concatenate([phi.masses, psi.masses])
    res = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


class TestFlowAgainstLP:
    def test_general_metric_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            space = FiniteMetric(shortest_path_closure(rng.uniform(0.1, 1.0, (n, n))))
            phi = DiscreteDistribution.from_counts(space, range(n), rng.integers(1, 6, n))
            psi = DiscreteDistribution.from_counts(space, range(n), rng.integers(1, 6, n))
            value, _ = wasserstein_flow(phi, psi)
            assert value == pytest.approx(lp_transport_value(phi, psi), abs=1e-7)

    def test_box_agreement(self):
        rng = np.random.default_rng(10)
        space = Box(2, Norm.L1)
        for _ in range(20):
            na, nb = rng.integers(1, 6, 2)
            phi = DiscreteDistribution.from_counts(
                space, [tuple(p) for p in rng.random((na, 2))], rng.integers(1, 4, na)
            )
            psi = DiscreteDistribution.from_counts(
                space, [tuple(p) for p in rng.random((nb, 2))], rng.integers(1, 4, nb)
            )
            value, _ = wasserstein_flow(phi, psi)
            assert value == pytest.approx(lp_transport_value(phi, psi), abs=1e-7)


class TestMetricAxioms:
    def test_symmetry_zero_triangle_on_random_finite_metrics(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            space = FiniteMetric(shortest_path_closure(rng.uniform(0.2, 1.0, size=(5, 5))))
            points = tuple(range(5))
            dists = [
                DiscreteDistribution.from_counts(space, points, rng.integers(1, 4, size=5))
                for _ in range(3)
            ]
            w01, _ = wasserstein_flow(dists[0], dists[1])
            w10, _ = wasserstein_flow(dists[1], dists[0])
            w02, _ = wasserstein_flow(dists[0], dists[2])
            w12, _ = wasserstein_flow(dists[1], dists[2])
            assert abs(w01 - w10) <= 1e-9
            assert w02 <= w01 + w12 + 1e-9
            zero, _ = wasserstein_flow(dists[0], dists[0])
            assert zero <= 1e-12

    def test_bounded_differences_single_swap(self):
        # panels differing in one member shift the distance by at most 1/k
        from sortition_lab.model import Panel
        from sortition_lab.representativeness import panel_distribution, population_distribution

        rng = np.random.default_rng(6)
        for _ in range(50):
            n, k = 12, 6
            feature_values = rng.random(n)
            from sortition_lab.model import Feature

            feature = Feature(LINE, tuple(feature_values))
            pop = population_distribution(feature)
            members = list(rng.choice(n, size=k, replace=False))
            alt = int(rng.integers(0, n))
            swapped = sorted(set(members[1:] + [alt])) if alt not in members[1:] else None
            if swapped is None or len(swapped) != k:
                continue
            p1 = Panel(n, tuple(sorted(members)))
            p2 = Panel(n, tuple(swapped))
            w1 = wasserstein_1d(pop, panel_distribution(feature, p1))
            w2 = wasserstein_1d(pop, panel_distribution(feature, p2))
            assert abs(w1 - w2) <= 1.0 / k + 1e-9


class TestConvexity:
    def test_equal_mixture_components(self):
        rng = np.random.default_rng(7)
        phi = random_counts_dist(rng, LINE, rng.random(4))
        psi = random_counts_dist(rng, LINE, rng.random(4))
        assert convexity_check(phi, psi, psi, 0.3)

    def test_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            phi = random_counts_dist(rng, LINE, rng.random(6))
            psi1 = random_counts_dist(rng, LINE, rng.random(6))
            psi2 = random_counts_dist(rng, LINE, rng.random(6))
            t = float(rng.uniform(0.05, 0.95))
            assert convexity_check(phi, psi1, psi2, t)

    def test_midpoint_mixture(self):
        phi = counterexample_population()
        psi1 = DiscreteDistribution.from_counts(LINE, (0.0,), (1,))
        psi2 = DiscreteDistribution.from_counts(LINE, (1.0,), (1,))
        assert convexity_check(phi, psi1, psi2, 0.5)

    def test_mixture_merges_support(self):
        psi1 = DiscreteDistribution.from_counts(LINE, (0.0, 0.5), (1, 1))
        psi2 = DiscreteDistribution.from_counts(LINE, (0.5, 1.0), (1, 1))
        mixed = mixture(psi1, psi2, 0.5)
        assert mixed.support == (0.0, 0.5, 1.0)
        np.testing.assert_allclose(mixed.masses, [0.25, 0.5, 0.25])


def frozen_w1_exact(phi: DiscreteDistribution, psi: DiscreteDistribution) -> Fraction:
    """The per-step Fraction loop that ``_w1_exact`` replaced, kept as its oracle."""
    grid = sorted(set(phi.support) | set(psi.support))
    pos_a = {x: i for i, x in enumerate(phi.support)}
    pos_b = {x: i for i, x in enumerate(psi.support)}
    total = Fraction(0)
    cum_a = 0
    cum_b = 0
    for idx in range(len(grid) - 1):
        x = grid[idx]
        if x in pos_a:
            cum_a += phi.counts[pos_a[x]]
        if x in pos_b:
            cum_b += psi.counts[pos_b[x]]
        gap = abs(Fraction(cum_a, phi.denom) - Fraction(cum_b, psi.denom))
        if gap:
            total += gap * (Fraction(grid[idx + 1]) - Fraction(x))
    return total


def frozen_transport_ssp(supply, demand, cost: np.ndarray) -> dict:
    """The numpy Bellman-Ford solver that ``_transport_ssp`` replaced, kept as its oracle."""
    ns, nt = cost.shape
    remaining_a = list(supply)
    remaining_b = list(demand)
    flow: dict = {}
    guard = 0
    max_iters = 4 * (ns + nt) * (ns + nt) + 16
    while any(a > 0 for a in remaining_a):
        guard += 1
        if guard > max_iters:
            raise RuntimeError("transport solver failed to converge")
        dist_a = np.where([a > 0 for a in remaining_a], 0.0, math.inf)
        dist_b = np.full(nt, math.inf)
        pred_b = np.full(nt, -1)
        pred_a = np.full(ns, -1)
        for _ in range(ns + nt):
            candidates = dist_a[:, None] + cost
            best = candidates.min(axis=0)
            improved = best < dist_b - 1e-15
            changed = bool(improved.any())
            if changed:
                dist_b[improved] = best[improved]
                pred_b[improved] = candidates.argmin(axis=0)[improved]
            for (i, j) in flow:
                nd = dist_b[j] - cost[i, j]
                if nd < dist_a[i] - 1e-15:
                    dist_a[i] = nd
                    pred_a[i] = j
                    changed = True
            if not changed:
                break
        live = [j for j in range(nt) if remaining_b[j] > 0]
        if not live or not np.isfinite(dist_b[live]).any():
            raise RuntimeError("transport solver found no augmenting path")
        target = min(live, key=lambda j: dist_b[j])
        path = []
        j = target
        seen = 0
        while True:
            seen += 1
            if seen > 2 * (ns + nt) + 4:
                raise RuntimeError("transport solver path reconstruction cycled")
            i = pred_b[j]
            path.append((i, j, True))
            if pred_a[i] < 0:
                break
            j = pred_a[i]
            path.append((i, j, False))
        source = path[-1][0]
        bottleneck = min(remaining_a[source], remaining_b[target])
        for i, j, forward in path:
            if not forward:
                bottleneck = min(bottleneck, flow[(i, j)])
        for i, j, forward in path:
            if forward:
                flow[(i, j)] = flow.get((i, j), 0) + bottleneck
            else:
                flow[(i, j)] -= bottleneck
                if flow[(i, j)] == 0:
                    del flow[(i, j)]
        remaining_a[source] -= bottleneck
        remaining_b[target] -= bottleneck
    return flow


def assert_same_flow(phi, psi, rational=False):
    value, coupling = wasserstein_flow(phi, psi, rational)
    with mock.patch.object(transport, "_transport_ssp", frozen_transport_ssp):
        frozen_value, frozen_coupling = wasserstein_flow(phi, psi, rational)
    assert np.float64(value).tobytes() == np.float64(frozen_value).tobytes()
    assert coupling.gamma.tobytes() == frozen_coupling.gamma.tobytes()


# eighths make equal costs, equal column minima and degenerate flows common
EIGHTHS = st.integers(0, 8).map(lambda v: v / 8)


@st.composite
def counted(draw, space, points, max_size=8):
    support = draw(st.lists(points, min_size=1, max_size=max_size))
    counts = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    return DiscreteDistribution.from_counts(space, support, counts)


class TestSolverMatchesFrozenCopy:
    @given(data=st.data())
    @settings(max_examples=150)
    def test_eighths_segment(self, data):
        assert_same_flow(data.draw(counted(LINE, EIGHTHS, 12)), data.draw(counted(LINE, EIGHTHS, 12)))

    @given(data=st.data(), norm=st.sampled_from([Norm.L1, Norm.LINF]))
    @settings(max_examples=100)
    def test_box(self, data, norm):
        space = Box(2, norm)
        points = st.tuples(EIGHTHS, EIGHTHS)
        assert_same_flow(data.draw(counted(space, points)), data.draw(counted(space, points)))

    @given(data=st.data())
    @settings(max_examples=100)
    def test_finite_metric(self, data):
        n = data.draw(st.integers(2, 7))
        raw = data.draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
        space = FiniteMetric(shortest_path_closure(np.reshape(raw, (n, n)) / 4))
        points = st.integers(0, n - 1)
        assert_same_flow(data.draw(counted(space, points)), data.draw(counted(space, points)))

    @given(data=st.data(), t=st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_rational_mixture(self, data, t):
        phi = data.draw(counted(LINE, EIGHTHS))
        mixed = mixture(data.draw(counted(LINE, EIGHTHS)), data.draw(counted(LINE, EIGHTHS)), t)
        assert_same_flow(phi, mixed, rational=True)

    def test_dry_argmin_source_with_tie(self):
        # both sources are 0.25 from the sink at 0.5, so its column minimum ties and
        # goes to source 0; the first search fills the sink at 0.875 from source 1,
        # the second drains source 0, and only the tied column is recomputed
        phi = DiscreteDistribution.from_counts(LINE, [0.25, 0.75], [1, 3])
        psi = DiscreteDistribution.from_counts(LINE, [0.5, 0.875], [2, 2])
        real = transport._column_minimum
        seen = []

        def spy(column, live):
            seen.append((list(column), list(live)))
            return real(column, live)

        with mock.patch.object(transport, "_column_minimum", spy):
            wasserstein_flow(phi, psi)
        assert seen[:3] == [([0.25, 0.25], [0, 1]), ([0.625, 0.125], [0, 1]), ([0.25, 0.25], [1])]
        assert_same_flow(phi, psi)
        assert_same_flow(phi, psi, rational=True)

    def test_random_float_segments(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            na, nb = rng.integers(1, 21, 2)
            assert_same_flow(
                DiscreteDistribution.from_counts(LINE, rng.random(na), rng.integers(1, 10, na)),
                DiscreteDistribution.from_counts(LINE, rng.random(nb), rng.integers(1, 10, nb)),
            )


class TestW1MatchesFrozenCopy:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_eighths_grids(self, data):
        a = data.draw(counted(LINE, EIGHTHS, 12))
        b = data.draw(counted(LINE, EIGHTHS, 12))
        assert _w1_exact(a, b) == frozen_w1_exact(a, b)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_repeated_support(self, data):
        a = data.draw(counted(LINE, st.floats(0.0, 1.0)))
        b = DiscreteDistribution.from_counts(
            LINE, a.support, data.draw(st.lists(st.integers(1, 6), min_size=len(a.support), max_size=len(a.support)))
        )
        assert _w1_exact(a, b) == frozen_w1_exact(a, b)
        assert _w1_exact(a, a) == frozen_w1_exact(a, a) == 0

    @given(data=st.data())
    @settings(max_examples=100)
    def test_disjoint_integer_supports(self, data):
        space = Segment(0.0, 20.0)
        a = data.draw(counted(space, st.integers(0, 9)))
        b = data.draw(counted(space, st.integers(10, 20)))
        assert _w1_exact(a, b) == frozen_w1_exact(a, b)

    @given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0), ca=st.integers(1, 9), cb=st.integers(1, 9))
    def test_single_points(self, x, y, ca, cb):
        a = DiscreteDistribution.from_counts(LINE, (x,), (ca,))
        b = DiscreteDistribution.from_counts(LINE, (y,), (cb,))
        assert _w1_exact(a, b) == frozen_w1_exact(a, b)

    def test_random_float_supports(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            na, nb = rng.integers(1, 30, 2)
            a = DiscreteDistribution.from_counts(LINE, rng.random(na), rng.integers(1, 10, na))
            b = DiscreteDistribution.from_counts(LINE, rng.random(nb), rng.integers(1, 10, nb))
            assert _w1_exact(a, b) == frozen_w1_exact(a, b)
