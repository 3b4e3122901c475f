"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated tolerance and carries its stated runtime
budget; the assertions never loosen to accommodate noise beyond the
confidence-interval slack written into the criterion itself.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np

import sortition_lab as sl
from sortition_lab import budgeting, facility, multifacility
from sortition_lab import representativeness as rep
from sortition_lab import experiments
from sortition_lab.experiments import ExperimentConfig, derived_seed, run_experiment
from sortition_lab.model import Mode, Panel, real_feature
from sortition_lab.sampling import TrialPlan, proportion_ci, trial_values
from sortition_lab.transport import convexity_check, wasserstein_1d, wasserstein_flow

LINE = sl.Segment(0.0, 1.0)


def verdict(name: str, checks: list[tuple[str, bool]], started: float, budget: float):
    elapsed = time.perf_counter() - started
    checks = checks + [(f"runtime {elapsed:.1f}s < {budget:.0f}s", elapsed < budget)]
    ok = all(flag for _, flag in checks)
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    for desc, flag in checks:
        if not flag:
            print(f"  failed: {desc}")
    assert ok, [desc for desc, flag in checks if not flag]


def test_01_exact_counterexample_reproduction():
    started = time.perf_counter()
    p_u, p_r, w_values = experiments.sd_exact_probabilities()
    checks = [
        ("P over subsets equals 3/10", p_u == Fraction(3, 10)),
        ("P over multisets equals 9/25", p_r == Fraction(9, 25)),
        ("formatted values", (f"{float(p_u):.6f}", f"{float(p_r):.6f}") == ("0.300000", "0.360000")),
        ("W(low, mid) bit-matches 0.25", w_values[(0.0, 0.5)] == 0.25),
        ("W(mid, mid) bit-matches 0.2", w_values[(0.5, 0.5)] == 0.2),
        ("W(low, high) bit-matches 0.3", w_values[(0.0, 1.0)] == 0.3),
    ]
    verdict("exact-counterexample-reproduction", checks, started, 1.0)


def test_02_transport_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    marginals_ok = True
    for _ in range(500):
        na, nb = rng.integers(1, 21, 2)
        phi = sl.DiscreteDistribution.from_counts(LINE, rng.random(na), rng.integers(1, 9, na))
        psi = sl.DiscreteDistribution.from_counts(LINE, rng.random(nb), rng.integers(1, 9, nb))
        value, coupling = wasserstein_flow(phi, psi)
        worst_gap = max(worst_gap, abs(value - wasserstein_1d(phi, psi)))
        marginals_ok = marginals_ok and coupling.marginal_error(phi, psi) <= 1e-9
    triangle_ok = True
    convexity_ok = True
    for _ in range(200):
        dists = []
        for _ in range(3):
            m = int(rng.integers(1, 7))
            dists.append(sl.DiscreteDistribution.from_counts(LINE, rng.random(m), rng.integers(1, 6, m)))
        a, b, c = dists
        wab = wasserstein_flow(a, b)[0]
        wbc = wasserstein_flow(b, c)[0]
        wac = wasserstein_flow(a, c)[0]
        triangle_ok = triangle_ok and wac <= wab + wbc + 1e-9
        convexity_ok = convexity_ok and convexity_check(a, b, c, float(rng.uniform(0.05, 0.95)))
    checks = [
        ("|flow - closed form| <= 1e-9 on 500 instances", worst_gap <= 1e-9),
        ("couplings match marginals within 1e-9", marginals_ok),
        ("triangle inequality within 1e-9 on 200 triples", triangle_ok),
        ("convexity within 1e-9 on 200 triples", convexity_ok),
    ]
    verdict("transport-oracle-equivalence", checks, started, 30.0)


def test_03_subset_sampling_never_worse_in_expectation():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, n + 1))
        while math.comb(n + k - 1, k) > 10**6:
            k = int(rng.integers(1, n + 1))
        feature = real_feature(rng.random(n))
        e_subset = rep.expected_w_exact(feature, k, Mode.WITHOUT_REPLACEMENT)
        e_multiset = rep.expected_w_exact(feature, k, Mode.WITH_REPLACEMENT)
        if e_subset > e_multiset + 1e-12:
            violations += 1
    checks = [("E[W] without replacement <= with replacement + 1e-12, 100 features", violations == 0)]
    verdict("subset-sampling-expectation-ordering", checks, started, 120.0)


def test_04_concentration_tail_shape():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    n, trials = 200, 20_000
    failures = []
    for f_idx in range(20):
        feature = real_feature(rng.random(n))
        stat = rep.PanelWasserstein(feature)
        for k_idx, k in enumerate((25, 100)):
            plan = TrialPlan(n, k, Mode.WITHOUT_REPLACEMENT, trials, derived_seed(404, f_idx, k_idx))
            values = trial_values(plan, stat)
            mu_hat = float(values.mean())
            for t_level in (0.1, 0.2, 0.3):
                tail = int(np.sum(values >= mu_hat + t_level))
                est = proportion_ci(tail, trials)
                bound = math.exp(-t_level * t_level * k / 4.0)
                if est.mean > bound + 3.0 * est.half_width_95:
                    failures.append((f_idx, k, t_level, est.mean, bound))
    checks = [("empirical tails within exp(-t^2 k/4) + 3ci (20 features, k in {25,100})", not failures)]
    verdict("concentration-tail-shape", checks, started, 120.0)


def test_05_mean_tracks_transport_distance():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        feature = real_feature(rng.random(n))
        members = tuple(sorted(rng.choice(n, size=k, replace=False)))
        panel = Panel(n, members)
        _, w = rep.is_representative(feature, panel, 0.0)
        if rep.mean_gap(feature, panel) > w + 1e-12:
            violations += 1
    checks = [("mean gap <= W + 1e-12 on 1000 random pairs", violations == 0)]
    verdict("mean-tracks-transport-distance", checks, started, 10.0)


def test_06_facility_tail_bound():
    started = time.perf_counter()
    import mpmath as mp

    mp.mp.dps = 50
    trials = 20_000
    rng = np.random.default_rng(606)
    instances = [facility.star_instance(50)]
    for i in range(20):
        instances.append(experiments.random_line_instance(np.random.default_rng(derived_seed(606, i)), 120))
    checks = []
    k_expected = {}
    for T, delta in ((3.0, 0.1), (4.0, 0.05)):
        k = facility.tail_panel_size(T, delta)
        oracle = int(mp.ceil(2 * mp.log(1 / mp.mpf(delta)) / mp.log(mp.mpf(T) ** 2 / (4 * (mp.mpf(T) - 1)))))
        k_expected[(T, delta)] = k
        checks.append((f"k({T},{delta}) = {k} matches high-precision ceiling {oracle}", k == oracle))
        covered = True
        for idx, inst in enumerate(instances):
            est = experiments._tail_estimate(inst, T, k, trials, derived_seed(606, idx, int(10 * T)))
            if est.mean < 1.0 - delta - 3.0 * est.half_width_95:
                covered = False
        checks.append((f"coverage >= 1-{delta}-3ci on all 21 instances at T={T}", covered))
    checks.append(("k(3, 0.1) is exactly 40", k_expected[(3.0, 0.1)] == 40))
    verdict("facility-tail-bound", checks, started, 120.0)


def test_07_star_far_probability():
    started = time.perf_counter()
    all_ok = True
    for k in range(1, 7):
        p_far, _ = experiments.star_far_probability(k)
        all_ok = all_ok and p_far >= Fraction(1, 4)
    checks = [("exact P[far choice] >= 1/4 for k = 1..6", all_ok)]
    verdict("star-far-probability", checks, started, 10.0)


def test_08_multifacility_panel_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    bound_ok = True
    dp_ok = True
    for _ in range(1000):
        ell = int(rng.integers(1, 4))
        n_agents = int(rng.integers(2, 11))
        inst = multifacility.MultiFacilityInstance(
            facility.FacilityInstance(
                LINE,
                tuple(float(v) for v in np.sort(rng.random(6))),
                tuple(float(v) for v in rng.random(n_agents)),
            ),
            ell,
        )
        k = int(rng.integers(1, n_agents + 1))
        members = tuple(sorted(rng.choice(n_agents, size=k, replace=False)))
        check = multifacility.panel_bound_check(inst, Panel(n_agents, members))
        bound_ok = bound_ok and check.ok
        cost_dp, chosen_dp = multifacility.kmedian_line(inst.base.agents, inst.base.candidates, ell)
        cost_bf, _ = multifacility.brute_force_facilities(inst)
        dp_ok = dp_ok and abs(cost_dp - cost_bf) <= 1e-12
    checks = [
        ("panel social cost <= W + panel optimum + 1e-9 on 1000 pairs", bound_ok),
        ("line solver equals exhaustive search on every instance", dp_ok),
    ]
    verdict("multifacility-panel-bound", checks, started, 120.0)


def test_09_multifacility_line_trend():
    started = time.perf_counter()
    result = experiments._run_multifacility_line(
        seed=909,
        trials=150,
        eps_list=[0.2, 0.1], c=4.0, ells=[1, 2, 3], n_instances=10, n=500, n_sites=10,
    )
    ks = sorted({row["k"] for row in result.rows})
    # strict flatness drops the eps/20 tolerance the flatness checks allow
    flat = [c for c in result.checks if c.name.startswith("gap spread over ells")]
    checks = [
        ("panel sizes are 4/eps^2", ks == [100, 400]),
        ("gap <= eps + 3ci for every facility count", result.passed),
        ("one flatness check per eps", len(flat) == 2),
        ("gap table flat in facility count within CI", all(c.value <= c.bound for c in flat)),
    ]
    verdict("multifacility-line-trend", checks, started, 180.0)


def test_10_budget_welfare_trend():
    started = time.perf_counter()
    result = experiments._run_pb_welfare(
        seed=1010,
        trials=2000,
        m=2, n=200, eps=0.1, k_grid=[4, 16, 64], n_instances=10,
    )
    gap_64 = [row for row in result.rows if row["k"] == 64]
    bound_ok = all(row["gap_or_rate"] <= 0.1 + 3.0 * row["ci"] for row in gap_64)
    checks = [
        ("per-instance gap at k=64 within 0.1 + 3ci", bound_ok),
        ("gap nonincreasing over k in {4,16,64} (within ci), all instances", result.passed),
    ]
    verdict("budget-welfare-trend", checks, started, 120.0)


def test_11_budget_hard_instances():
    started = time.perf_counter()
    inst = budgeting.pb_lower_instance((1, 1), 2, 2, 1)
    x_opt, opt = budgeting.optimal_allocation(inst)
    recovered = (x_opt[1], x_opt[3]) == (1.0, 1.0) and (x_opt[0], x_opt[2]) == (0.0, 0.0)
    zero_ok = True
    for m, budget in ((2, 1.0), (3, 2.0)):
        inst1, inst2 = budgeting.pb_impossibility_family(m, budget, k=4)
        x1 = budgeting.impossibility_zero_allocation(m, budget, 0)
        x2 = budgeting.impossibility_zero_allocation(m, budget, 1)
        zero_ok = zero_ok and all(budgeting.eval_cost(c, x1) == 0.0 for c in inst1.costs)
        zero_ok = zero_ok and all(budgeting.eval_cost(c, x2) == 0.0 for c in inst2.costs)
    checks = [
        ("hidden-sign optimum is exactly 0.25", opt == 0.25),
        ("greedy funds exactly the heavy projects", recovered),
        ("zero-cost allocations verify on both impossibility instances", zero_ok),
    ]
    verdict("budget-hard-instances", checks, started, 5.0)


def test_12_core_extrapolation():
    started = time.perf_counter()
    inst = experiments.two_block_instance(200)
    report = budgeting.core_extrapolation_experiment(
        inst, k=64, eps=0.25, trials=2000, seed=1212, step=0.05
    )
    checks = [
        ("panel-core points found in every trial", report.unresolved == 0),
        (
            f"population-core pass rate {1 - report.failure_rate:.4f} >= 0.9",
            report.failure_rate <= 0.1,
        ),
    ]
    verdict("core-extrapolation", checks, started, 300.0)


DETERMINISM_CONFIGS = {
    "rep_sweep": ({"n": 48, "n_features": 2, "eps": 0.25, "delta": 0.15, "k_grid": [4, 16]}, 300),
    "sd_counterexample": ({}, 1),
    "concentration": ({"n": 60, "k_list": [12], "t_list": [0.2], "n_features": 2}, 500),
    "facility_tail": ({"T": 3.0, "delta": 0.1, "star_k": 25, "n_instances": 1, "n": 60}, 1200),
    "facility_welfare": ({"dims": [1], "eps": 0.3, "k_grid": [8, 32], "n": 60}, 400),
    "facility_star": ({"k_max": 4}, 1),
    "pb_welfare": ({"m": 2, "n": 80, "eps": 0.15, "k_grid": [4, 16], "n_instances": 2}, 400),
    "pb_core": ({"n": 80, "k": 16, "eps": 0.25, "step": 0.1, "delta": 0.1}, 300),
    "pb_lower": ({"h": 2, "w": 2, "r": 10, "z": None, "k_grid": [4, 16]}, 300),
    "multifacility_line": ({"eps_list": [0.25], "c": 4.0, "ells": [1, 2], "n_instances": 2, "n": 120, "n_sites": 6}, 60),
    "multifacility_impossible": ({"k_max": 4, "n": 8}, 1),
}


# sha256 of each kind's CSV at DETERMINISM_CONFIGS with seed 1313. Re-record a
# digest only in a change that alters the random stream on purpose, and log
# the new values in CHANGES.md; any other mismatch is a changed result.
GOLDEN_SHA256 = {
    "rep_sweep": "c1d5e4b2514be4be4a878ad88853ef0ac59d4912876aab3e8897bc3084883a26",
    "sd_counterexample": "83b70591ed6436e32551bf037cffc3e18ceff987fa88277fc7e7e0c5944dbe99",
    "concentration": "b050dcf13b1d29c12538c959f9367fcc5b2e2bc6d3bf064d0a6f6770b157416d",
    "facility_tail": "88321ea7dcfcecc87bfdcbb18c1c6d3fdb7e9aeb2b0b2ca5ff3e4fd4af1f5686",
    "facility_welfare": "add3f13685dff134a5c23a4fcc11ad06c820d5c8b2f1508c7017fadedab24527",
    "facility_star": "c623ce3c81c694beac13fa9ba3d4641f2d55e658be8aa3f6eda72600dbefc09a",
    "pb_welfare": "c2cb45a881d5cddc69560392eb2b7c25c90448adbd06fb50d265cb6778573699",
    "pb_core": "59c3723fa893e256d782a091b174b712eca125a8c04e66c9cdef3635e914e9e4",
    "pb_lower": "0bdbec57c2820e0050829087991c201785f2876cd572c9dc13f9e464f77d3d81",
    "multifacility_line": "768d11a72f497a3ca9d4098227550cf16f21e1f88f5369ab129c12e4ef5f050e",
    "multifacility_impossible": "ddae35ab647a9d0c27bd85229497d2a48132471069d082f29df590e60e4d17dc",
}


def test_13_experiment_determinism(tmp_path):
    started = time.perf_counter()
    mismatched = []
    changed = []
    assert set(DETERMINISM_CONFIGS) == set(experiments.KINDS)
    for kind, (params, trials) in DETERMINISM_CONFIGS.items():
        payloads = []
        for run in (1, 2):
            out = tmp_path / f"{kind}-{run}.csv"
            config = ExperimentConfig(kind, params, seed=1313, trials=trials, output=str(out))
            run_experiment(config)
            payloads.append(out.read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(kind)
        if hashlib.sha256(payloads[0]).hexdigest() != GOLDEN_SHA256[kind]:
            changed.append(kind)
    checks = [
        ("byte-identical CSV across two runs for all 11 kinds", not mismatched),
        ("CSV sha256 matches the recorded digest for all 11 kinds", not changed),
    ]
    if mismatched:
        checks.append((f"mismatched kinds: {mismatched}", False))
    if changed:
        checks.append((f"kinds whose CSV changed: {changed}", False))
    verdict("experiment-determinism", checks, started, 300.0)


# multifacility_line where every panel sees at most three sites and picks 1 to
# 9 of the 9 candidates: most facility sets tie up to rounding, so many rows
# take the line-DP fallback of the block choice. The digest (seed 1313) was
# recorded when every row was solved by the line DP.
TIE_HEAVY_LINE = {"eps_list": [0.25], "c": 4.0, "ells": list(range(1, 10)), "n_instances": 2, "n": 120, "n_sites": 3}
TIE_HEAVY_SHA256 = "c79d35987c90140b9ccd1c8892ce8440c583eb9548577af04a5c25263ffe6bf0"


def test_13_tie_heavy_multifacility_line_bytes(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "ties.csv"
    run_experiment(ExperimentConfig("multifacility_line", TIE_HEAVY_LINE, seed=1313, trials=60, output=str(out)))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    checks = [("tie-heavy multifacility_line CSV sha256 matches the recorded digest", digest == TIE_HEAVY_SHA256)]
    verdict("tie-heavy-line-determinism", checks, started, 60.0)


# The exact kinds at sizes where each count class stands for many panels, up
# to C(21, 10) for facility_star and C(20, 9) for multifacility_impossible.
# Digests at seed 0, recorded while multifacility_impossible still enumerated
# every subset.
EXACT_SHA256 = [
    ("facility_star", {"k_max": 10}, "e28d67498bebf7698ea8877131e1dbee58fbf9752997d87d10ca479f7c3d7d49"),
    ("multifacility_impossible", {"k_max": 8, "n": 14}, "2dcd818b1d5a2800d915882e2fb400babc6f5fb3dc4d9d51e0206dfc000dc64a"),
    ("multifacility_impossible", {"k_max": 9, "n": 20}, "44673fda92fc78911af65487d3c2f1169f6dc50a4672201584861bf5a70fda6f"),
]


def test_13_exact_kind_bytes(tmp_path):
    started = time.perf_counter()
    checks = []
    for kind, params, digest in EXACT_SHA256:
        out = tmp_path / f"{kind}.csv"
        run_experiment(ExperimentConfig(kind, params, seed=0, output=str(out)))
        matches = hashlib.sha256(out.read_bytes()).hexdigest() == digest
        checks.append((f"{kind} {params} CSV sha256 matches the recorded digest", matches))
    verdict("exact-kind-determinism", checks, started, 60.0)
