"""Experiment kinds behind the command-line front end.

Each kind reproduces one verifiable claim at desk scale and returns its CSV
rows with a list of ``Check`` records, one per criterion cell: a value, the
bound it is compared with, and the verdict. The run passes when every check
holds; a FAIL summary names the first failing check. Reruns with the same
config and seed produce byte-identical CSV.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import budgeting, facility, multifacility, representativeness
from .model import (
    Feature,
    Mode,
    Norm,
    Segment,
    majority_signs,
    make_camouflaged,
    pairwise,
    panel_counts,
    real_feature,
)
from .sampling import (
    Z_95,
    TrialPlan,
    derived_seed,
    enumerate_panels,
    monte_carlo,
    proportion_ci,
    trial_blocks,
    trial_values,
)
from .transport import wasserstein_1d


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0
    trials: int = 2000
    output: str | None = None


@dataclass(frozen=True)
class Check:
    """One criterion cell; the name states how ``value`` is compared with ``bound``."""

    name: str
    value: float
    bound: float
    ok: bool


def ci_bound(cell: str, what: str, mean: float, bound: float, ci: float, upper: bool = True) -> Check:
    """``mean <= bound + 3 ci``, or ``mean >= bound - 3 ci`` when not ``upper``."""
    if upper:
        limit = bound + 3.0 * ci
        return Check(f"{cell} <= {what} + 3ci", mean, limit, mean <= limit)
    limit = bound - 3.0 * ci
    return Check(f"{cell} >= {what} - 3ci", mean, limit, mean >= limit)


def ci_trend(cell: str, ks: list[int], means: list[float], cis: list[float], upper: bool = True) -> list[Check]:
    """One check per adjacent pair on the k grid: from one k to the next the mean
    rises (``upper``) or falls by at most 3 times the sum of the two CIs."""
    return [
        ci_bound(f"{cell} k={k1}", f"its value at k={k0}", m1, m0, c0 + c1, upper)
        for (k0, m0, c0), (k1, m1, c1) in itertools.pairwise(zip(ks, means, cis))
    ]


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[dict]
    checks: list[Check]

    @property
    def columns(self) -> list[str]:
        return list(self.rows[0])

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def summary(self) -> str:
        failed = [c for c in self.checks if not c.ok]
        if not failed:
            return f"{len(self.checks)}/{len(self.checks)} checks held"
        first = failed[0]
        return (
            f"{len(failed)}/{len(self.checks)} checks failed, first: {first.name} "
            f"(value {format_cell(first.value)}, bound {format_cell(first.bound)})"
        )


@dataclass(frozen=True)
class KindSpec:
    name: str
    claim: str
    required: tuple[str, ...]
    defaults: dict
    runner: Callable[[dict, int, int], ExperimentResult]
    validate: Callable[[dict, int], None] = lambda params, trials: None


# ---------------------------------------------------------------------------
# rep_sweep


def _run_rep_sweep(params: dict, seed: int, trials: int) -> ExperimentResult:
    n = int(params["n"])
    n_features = int(params["n_features"])
    eps = float(params["eps"])
    delta = float(params["delta"])
    k_grid = tuple(int(k) for k in params["k_grid"]) if params.get("k_grid") else None
    rng = np.random.default_rng(derived_seed(seed, 0))
    features = [real_feature(rng.random(n)) for _ in range(n_features)]
    sweep = representativeness.min_k_sweep(
        features, eps, delta, k_grid=k_grid, trials=trials, seed=seed
    )
    best = min(sweep.rows, key=lambda row: row.failure_rate)
    name = f"lowest failure_rate on the grid (k={best.k}) <= delta"
    return ExperimentResult(sweep.as_csv_rows(), [Check(name, best.failure_rate, delta, best.failure_rate <= delta)])


# ---------------------------------------------------------------------------
# sd_counterexample


SD_FEATURE = (0.0, 0.5, 0.5, 0.5, 1.0)
SD_THRESHOLD = 0.2
#: CSV quantity -> (panel values, the exact W of that panel)
SD_W = {"w_low_mid": ((0.0, 0.5), 0.25), "w_mid_mid": ((0.5, 0.5), 0.2), "w_low_high": ((0.0, 1.0), 0.3)}


def sd_exact_probabilities() -> tuple[Fraction, Fraction, dict[tuple, float]]:
    """Exact P[W <= 0.2] under both sampling modes for the pinned feature, k=2."""
    feature = real_feature(SD_FEATURE)
    pop = representativeness.population_distribution(feature)
    w_values: dict[tuple, float] = {}
    probs = {}
    for mode in (Mode.WITHOUT_REPLACEMENT, Mode.WITH_REPLACEMENT):
        total = Fraction(0)
        for panel, prob in enumerate_panels(feature.n, 2, mode):
            w = wasserstein_1d(pop, representativeness.panel_distribution(feature, panel))
            key = tuple(feature.values[i] for i in panel.members)
            w_values.setdefault(key, w)
            if w <= SD_THRESHOLD:
                total += prob
        probs[mode] = total
    return probs[Mode.WITHOUT_REPLACEMENT], probs[Mode.WITH_REPLACEMENT], w_values


def _run_sd_counterexample(params: dict, seed: int, trials: int) -> ExperimentResult:
    p_u, p_r, w_values = sd_exact_probabilities()
    rows = [
        {"quantity": "p_without_replacement", "value": float(p_u)},
        {"quantity": "p_with_replacement", "value": float(p_r)},
        {"quantity": "threshold", "value": SD_THRESHOLD},
    ]
    checks = [
        Check("p_without_replacement == 3/10", float(p_u), 0.3, p_u == Fraction(3, 10)),
        Check("p_with_replacement == 9/25", float(p_r), 0.36, p_r == Fraction(9, 25)),
    ]
    for quantity, (key, exact) in SD_W.items():
        rows.append({"quantity": quantity, "value": w_values[key]})
        checks.append(Check(f"{quantity} == {exact}", w_values[key], exact, w_values[key] == exact))
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# concentration


def _run_concentration(params: dict, seed: int, trials: int) -> ExperimentResult:
    n = int(params["n"])
    ks = [int(k) for k in params["k_list"]]
    ts = [float(t) for t in params["t_list"]]
    n_features = int(params["n_features"])
    rows = []
    checks = []
    for f_idx in range(n_features):
        rng = np.random.default_rng(derived_seed(seed, f_idx))
        feature = real_feature(rng.random(n))
        stat = representativeness.PanelWasserstein(feature)
        for k_idx, k in enumerate(ks):
            plan = TrialPlan(n, k, trials=trials, seed=derived_seed(seed, f_idx, k_idx))
            values = trial_values(plan, stat)
            mu_hat = float(values.mean())
            for t in ts:
                tail = int(np.sum(values >= mu_hat + t))
                est = proportion_ci(tail, trials)
                bound = math.exp(-t * t * k / 4.0)
                cell = f"tail_rate feature={f_idx} k={k} t={t:g}"
                checks.append(ci_bound(cell, "exp(-t^2 k/4)", est.mean, bound, est.half_width_95))
                rows.append(
                    {
                        "feature": f_idx,
                        "n": n,
                        "k": k,
                        "t": t,
                        "tail_rate": est.mean,
                        "bound": bound,
                        "ci": est.half_width_95,
                        "seed": seed,
                    }
                )
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# facility_tail


def random_line_instance(rng: np.random.Generator, n: int, n_candidates: int = 11) -> facility.FacilityInstance:
    agents = tuple(float(v) for v in rng.random(n))
    candidates = tuple(float(c) for c in np.linspace(0.0, 1.0, n_candidates))
    return facility.FacilityInstance(Segment(0.0, 1.0), candidates, agents)


def _tail_estimate(inst, T, delta, k, trials, seed):
    cd = facility.CandidateDistances(inst)
    q_idx = cd.optimum_index()
    opt = float(cd.social[q_idx])
    q_star = inst.candidates[q_idx]
    dist_to_opt = pairwise(inst.space, inst.candidates, [q_star])[:, 0]
    within = (dist_to_opt <= T * opt + 1e-12).astype(float)  # one indicator per candidate
    plan = TrialPlan(n=inst.n, k=k, mode=Mode.WITHOUT_REPLACEMENT, trials=trials, seed=seed)
    return monte_carlo(plan, lambda members: within[cd.panel_optimum_index(members)])


def _run_facility_tail(params: dict, seed: int, trials: int) -> ExperimentResult:
    T = float(params["T"])
    delta = float(params["delta"])
    star_k = int(params["star_k"])
    n_instances = int(params["n_instances"])
    n = int(params["n"])
    k = facility.tail_panel_size(T, delta)
    instances = [facility.star_instance(star_k)]
    for i in range(n_instances):
        rng = np.random.default_rng(derived_seed(seed, 100 + i))
        instances.append(random_line_instance(rng, n))
    rows = []
    checks = []
    for idx, inst in enumerate(instances):
        est = _tail_estimate(inst, T, delta, k, trials, derived_seed(seed, idx))
        checks.append(ci_bound(f"p_within instance={idx}", "1-delta", est.mean, 1.0 - delta, est.half_width_95, False))
        rows.append(
            {
                "T": T,
                "delta": delta,
                "k": k,
                "p_within": est.mean,
                "ci": est.half_width_95,
                "seed": seed,
            }
        )
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# facility_welfare


def _run_facility_welfare(params: dict, seed: int, trials: int) -> ExperimentResult:
    dims = [int(d) for d in params["dims"]]
    eps = float(params["eps"])
    k_grid = [int(k) for k in params["k_grid"]]
    n = int(params["n"])
    rows = []
    checks = []
    for d_idx, dim in enumerate(dims):
        rng = np.random.default_rng(derived_seed(seed, d_idx))
        space = facility.Box(dim, Norm.L1) if dim > 1 else Segment(0.0, 1.0)
        if dim == 1:
            agents = tuple(float(v) for v in rng.random(n))
            candidates = tuple(float(c) for c in np.linspace(0.0, 1.0, 9))
        else:
            agents = tuple(tuple(float(v) for v in row) for row in rng.random((n, dim)))
            candidates = tuple(facility.box_cover(dim, 0.125, Norm.L1))
        inst = facility.FacilityInstance(space, candidates, agents)
        cd = facility.CandidateDistances(inst)
        opt = float(cd.social.min())
        means, cis = [], []
        for k_idx, k in enumerate(k_grid):
            plan = TrialPlan(n=n, k=k, mode=Mode.WITHOUT_REPLACEMENT, trials=trials,
                             seed=derived_seed(seed, d_idx, k_idx))
            est = monte_carlo(plan, lambda members: cd.social[cd.panel_optimum_index(members)])
            means.append(est.mean)
            cis.append(est.half_width_95)
            rows.append(
                {
                    "dim": dim,
                    "k": k,
                    "eps": eps,
                    "mean_sc": est.mean,
                    "opt": opt,
                    "ci": est.half_width_95,
                    "seed": seed,
                }
            )
        cell = f"mean_sc dim={dim}"
        checks.append(ci_bound(f"{cell} k={k_grid[-1]}", "(1+eps)*opt", means[-1], (1.0 + eps) * opt, cis[-1]))
        checks += ci_trend(cell, k_grid, means, cis)
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# facility_star


def star_far_probability(k: int) -> tuple[Fraction, float]:
    """Exact P[d(panel choice, optimum) >= 2 * opt] on the star instance."""
    inst = facility.star_instance(k)
    cd = facility.CandidateDistances(inst)
    q_idx = cd.optimum_index()
    opt = float(cd.social[q_idx])
    q_star = inst.candidates[q_idx]
    total = Fraction(0)
    for panel, prob in enumerate_panels(inst.n, k, Mode.WITHOUT_REPLACEMENT):
        chosen = inst.candidates[cd.panel_optimum_index(panel.members)]
        if inst.space.distance(chosen, q_star) >= 2.0 * opt:
            total += prob
    return total, opt


def _run_facility_star(params: dict, seed: int, trials: int) -> ExperimentResult:
    k_max = int(params["k_max"])
    rows = []
    checks = []
    for k in range(1, k_max + 1):
        p_far, opt = star_far_probability(k)
        checks.append(Check(f"p_far k={k} >= 1/4", float(p_far), 0.25, p_far >= Fraction(1, 4)))
        rows.append({"k": k, "p_far": float(p_far), "opt": opt, "threshold": 0.25})
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# pb_welfare


def _pb_row(k, eps, eta, tau, rho, gap_or_rate, ci, seed) -> dict:
    """One row of the table shared by pb_welfare, pb_core and pb_lower."""
    return {"k": k, "eps": eps, "eta": eta, "tau": tau, "rho": rho, "gap_or_rate": gap_or_rate, "ci": ci, "seed": seed}


def random_linear_instance(rng: np.random.Generator, m: int, n: int) -> budgeting.PBInstance:
    raw = rng.random((n, m)) * rng.random((n, 1))
    scale = np.maximum(raw.sum(axis=1, keepdims=True), 1.0)
    alphas = raw / scale
    budget = float(rng.uniform(0.5, 1.5))
    costs = tuple(budgeting.LinearCost(tuple(row)) for row in alphas)
    return budgeting.PBInstance(m, budget, costs)


def _run_pb_welfare(params: dict, seed: int, trials: int) -> ExperimentResult:
    m = int(params["m"])
    n = int(params["n"])
    eps = float(params["eps"])
    k_grid = [int(k) for k in params["k_grid"]]
    n_instances = int(params["n_instances"])
    rows = []
    checks = []
    for i_idx in range(n_instances):
        rng = np.random.default_rng(derived_seed(seed, i_idx))
        inst = random_linear_instance(rng, m, n)
        gaps, cis = [], []
        for k_idx, k in enumerate(k_grid):
            rep = budgeting.welfare_experiment(
                inst, k, eps, trials=trials, seed=derived_seed(seed, i_idx, k_idx)
            )
            gaps.append(rep.gap)
            cis.append(rep.ci_half_width)
            rows.append(_pb_row(k, eps, 0.0, rep.tau, rep.rho, rep.gap, rep.ci_half_width, seed))
        cell = f"gap instance={i_idx}"
        checks.append(ci_bound(f"{cell} k={k_grid[-1]}", "eps", gaps[-1], eps, cis[-1]))
        checks += ci_trend(cell, k_grid, gaps, cis)
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# pb_core


def two_block_instance(n: int) -> budgeting.PBInstance:
    """Half the agents want only project 1, half only project 2; B = 1."""
    if n % 2:
        raise ValueError("two-block instance needs an even population")
    first = budgeting.LinearCost((1.0, 0.0))
    second = budgeting.LinearCost((0.0, 1.0))
    return budgeting.PBInstance(2, 1.0, (first,) * (n // 2) + (second,) * (n // 2))


def _run_pb_core(params: dict, seed: int, trials: int) -> ExperimentResult:
    n = int(params["n"])
    k = int(params["k"])
    eps = float(params["eps"])
    step = float(params["step"])
    delta = float(params["delta"])
    inst = two_block_instance(n)
    report = budgeting.core_extrapolation_experiment(
        inst, k, eps, trials=trials, seed=seed, step=step
    )
    rows = [_pb_row(k, eps, report.eta, report.tau, report.rho, report.failure_rate, report.ci_half_width, seed)]
    checks = [
        Check("population-core failure rate <= delta", report.failure_rate, delta, report.failure_rate <= delta),
        Check("unresolved trials == 0", report.unresolved, 0, report.unresolved == 0),
    ]
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# pb_lower


def _run_pb_lower(params: dict, seed: int, trials: int) -> ExperimentResult:
    h = int(params["h"])
    w = int(params["w"])
    r = int(params["r"])
    z = tuple(int(s) for s in params["z"]) if params.get("z") else (1,) * h
    k_grid = [int(k) for k in params["k_grid"]]
    inst = budgeting.pb_lower_instance(z, h, w, r)
    x_opt, opt = budgeting.optimal_allocation(inst)
    expected = budgeting.pb_lower_opt(w)
    funded = sum(
        bool((x_opt[2 * j - 1] == 1.0) == (z[j - 1] > 0) and (x_opt[2 * j - 2] == 1.0) == (z[j - 1] < 0))
        for j in range(1, h + 1)
    )
    pop = make_camouflaged(z, h, w, r)
    labels = np.asarray(pop.labels)

    def recovered(members: np.ndarray) -> np.ndarray:
        guess = majority_signs(panel_counts(labels[members], 2 * h + 1), h)
        return (np.abs(guess - z).sum(axis=1) <= h / 4.0).astype(float)

    rows = []
    rates, cis = [], []
    for k_idx, k in enumerate(k_grid):
        plan = TrialPlan(pop.n, k, trials=trials, seed=derived_seed(seed, k_idx))
        est = proportion_ci(int(trial_values(plan, recovered).sum()), trials)
        rates.append(est.mean)
        cis.append(est.half_width_95)
        rows.append(_pb_row(k, 0.0, 0.0, 0.0, 1.0, est.mean, est.half_width_95, seed))
    best = max(range(len(k_grid)), key=rates.__getitem__)
    checks = [
        Check("optimum == 1/2 - 1/(2w) within 1e-12", opt, expected, abs(opt - expected) <= 1e-12),
        Check("sign pairs funded by the optimum == h", funded, h, funded == h),
        *ci_trend("recovery_rate", k_grid, rates, cis, upper=False),
        Check(f"highest recovery_rate (k={k_grid[best]}) >= 6/7", rates[best], 6.0 / 7.0, rates[best] >= 6.0 / 7.0),
    ]
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# multifacility_line


#: Candidate facilities of a multifacility_line instance, evenly spaced on [0, 1].
SITE_CANDIDATES = 9


def random_site_instance(
    rng: np.random.Generator, n: int, n_sites: int, n_candidates: int = SITE_CANDIDATES
) -> facility.FacilityInstance:
    sites = np.sort(rng.random(n_sites))
    agents = tuple(float(sites[i]) for i in rng.integers(0, n_sites, size=n))
    candidates = tuple(float(c) for c in np.linspace(0.0, 1.0, n_candidates))
    return facility.FacilityInstance(Segment(0.0, 1.0), candidates, agents)


def _run_multifacility_line(params: dict, seed: int, trials: int) -> ExperimentResult:
    eps_list = [float(e) for e in params["eps_list"]]
    c = float(params["c"])
    ells = [int(e) for e in params["ells"]]
    n_instances = int(params["n_instances"])
    n = int(params["n"])
    n_sites = int(params["n_sites"])
    rows = []
    checks = []
    for eps_idx, eps in enumerate(eps_list):
        k = math.ceil(c / (eps * eps))
        gap_pool: dict[int, list[float]] = {ell: [] for ell in ells}
        for i_idx in range(n_instances):
            rng = np.random.default_rng(derived_seed(seed, eps_idx, i_idx))
            inst = random_site_instance(rng, n, n_sites)
            w_stat = representativeness.PanelWasserstein(Feature(inst.space, inst.agents))
            sites, site_of = w_stat.unique, w_stat.index
            pop_w = np.bincount(site_of, minlength=sites.size) / n
            opts = {ell: multifacility.kmedian_line(sites, inst.candidates, ell, pop_w)[0] for ell in ells}
            tables = {ell: multifacility._LineSets(inst.space, sites, inst.candidates, ell, pop_w) for ell in ells}
            sc_sums = {ell: 0.0 for ell in ells}
            w_sum = 0.0
            plan = TrialPlan(n, k, trials=trials, seed=derived_seed(seed, eps_idx, i_idx, 7))
            for members in trial_blocks(plan):
                counts = panel_counts(site_of[members], sites.size)
                w_sum += float(w_stat.from_counts(counts, k).sum())
                for ell, table in tables.items():
                    # one float at a time in trial order: np.sum would pair terms up
                    for sc in table.pop_cost[table.choose(counts, k)].tolist():
                        sc_sums[ell] += sc
                        gap_pool[ell].append(sc - opts[ell])
            for ell in ells:
                rows.append(
                    {
                        "ell": ell,
                        "k": k,
                        "eps": eps,
                        "mean_sc": sc_sums[ell] / trials,
                        "opt": opts[ell],
                        "w_mean": w_sum / trials,
                        "seed": seed,
                    }
                )
        gaps, cis = [], []
        for ell in ells:
            arr = np.asarray(gap_pool[ell])
            gaps.append(float(arr.mean()))
            cis.append(Z_95 * float(arr.std(ddof=1)) / math.sqrt(arr.size))
            checks.append(ci_bound(f"gap eps={eps:g} ell={ell}", "eps", gaps[-1], eps, cis[-1]))
        spread = max(gaps) - min(gaps)
        flat = 3.0 * (max(cis) + min(cis))
        # the facility-count effect on the gap is real but tiny; judge
        # flatness at the scale of the eps guarantee, not only CI noise
        name = f"gap spread over ells eps={eps:g} <= 3(max ci + min ci) + eps/20"
        checks.append(Check(name, spread, flat, spread <= flat + eps / 20.0))
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# multifacility_impossible


def _run_multifacility_impossible(params: dict, seed: int, trials: int) -> ExperimentResult:
    k_max = int(params["k_max"])
    n = int(params["n"])
    inst_a, inst_b = multifacility.impossibility_instance(n)
    opt_a = multifacility.brute_force_facilities(inst_a)[0]
    opt_b = multifacility.brute_force_facilities(inst_b)[0]
    rows = []
    checks = [Check("opt_a == 0", opt_a, 0.0, opt_a == 0.0), Check("opt_b == 0", opt_b, 0.0, opt_b == 0.0)]
    for k in range(1, k_max + 1):
        expected_sc = Fraction(0)
        for panel, prob in enumerate_panels(n, k, Mode.WITHOUT_REPLACEMENT):
            _, chosen = multifacility.panel_facilities(inst_b, panel)
            sc = multifacility.multi_cost(inst_b, chosen)
            expected_sc += prob * Fraction(sc)
        rows.append(
            {"k": k, "expected_sc": float(expected_sc), "opt_a": opt_a, "opt_b": opt_b}
        )
        checks.append(Check(f"expected_sc k={k} > 0", float(expected_sc), 0.0, expected_sc > 0))
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# registry / runner


KINDS: dict[str, KindSpec] = {}


def _register(spec: KindSpec):
    KINDS[spec.name] = spec


def _require_above(params: dict, key: str, floor: float):
    if float(params[key]) <= floor:
        raise ValueError(f"{key} must be greater than {floor}")


def _validate_k_grid_fits(params: dict, k_key: str = "k_grid", n: int | None = None):
    ks = params[k_key]
    if ks in (None, []):
        return  # rep_sweep picks its own grid
    ks = [int(k) for k in (ks if isinstance(ks, list) else [ks])]
    if min(ks) < 1:
        raise ValueError(f"panel size k={min(ks)} in {k_key} must be at least 1")
    n = int(params["n"]) if n is None else n
    if max(ks) > n:
        raise ValueError(f"panel size k={max(ks)} in {k_key} exceeds the population n={n}")


def _validate_pb_lower(params: dict, trials: int):
    _validate_k_grid_fits(params, n=2 * int(params["h"]) * int(params["w"]) * int(params["r"]))


def _validate_multifacility_line(params: dict, trials: int):
    for key in ("ells", "eps_list"):
        values = [float(v) for v in params[key]]
        if len(set(values)) < len(values):
            raise ValueError(f"{key} {params[key]} repeats a value; each would count twice")
    bad = [ell for ell in params["ells"] if not 1 <= int(ell) <= SITE_CANDIDATES]
    if bad:
        raise ValueError(f"ells {bad} must lie in 1..{SITE_CANDIDATES}, the candidate count")
    _require_above(params, "c", 0.0)
    eps = min(float(e) for e in params["eps_list"])
    if eps <= 0.0:
        raise ValueError("every eps must be greater than 0")
    k = math.ceil(float(params["c"]) / (eps * eps))
    if k > int(params["n"]):
        raise ValueError(f"eps={eps} needs panels of k={k}, more than the population {params['n']}")
    if int(params["n_instances"]) * trials < 2:
        raise ValueError("n_instances * trials must be at least 2 for a confidence interval on the gap")


def _validate_multifacility_impossible(params: dict, trials: int):
    if int(params["k_max"]) > int(params["n"]):
        raise ValueError(f"k_max={params['k_max']} exceeds the population n={params['n']}")


def _validate_pb_core(params: dict, trials: int):
    _require_above(params, "step", 0.0)
    _validate_k_grid_fits(params, "k")
    if int(params["n"]) % 2:
        raise ValueError(f"n={params['n']} must be even to split into two equal blocks")


def _validate_tail(params: dict, trials: int):
    _require_above(params, "T", 2.0)
    k = facility.tail_panel_size(float(params["T"]), float(params["delta"]))
    smallest = min(2 * int(params["star_k"]) + 1, int(params["n"]))
    if smallest < k:
        raise ValueError(
            f"population sizes must reach the formula panel size k={k}; "
            f"raise star_k or n"
        )


_register(
    KindSpec(
        "rep_sweep",
        "failure probability of eps-representativeness over several features is "
        "nonincreasing in k and crosses delta",
        ("eps", "delta"),
        {"n": 128, "n_features": 4, "eps": 0.2, "delta": 0.1, "k_grid": None},
        _run_rep_sweep,
        lambda params, trials: _validate_k_grid_fits(params),
    )
)
_register(
    KindSpec(
        "sd_counterexample",
        "with-replacement panels beat without-replacement ones at one threshold, "
        "so neither stochastically dominates (exact enumeration)",
        (),
        {},
        _run_sd_counterexample,
    )
)
_register(
    KindSpec(
        "concentration",
        "upper tail of the panel-population transport distance decays at least "
        "as fast as exp(-t^2 k / 4)",
        (),
        {"n": 200, "k_list": [25, 100], "t_list": [0.1, 0.2, 0.3], "n_features": 5},
        _run_concentration,
        lambda params, trials: _validate_k_grid_fits(params, "k_list"),
    )
)
_register(
    KindSpec(
        "facility_tail",
        "the panel-optimal facility lies within T times the optimal social cost "
        "with probability at least 1 - delta at the closed-form panel size",
        ("T", "delta"),
        {"T": 3.0, "delta": 0.1, "star_k": 50, "n_instances": 5, "n": 120},
        _run_facility_tail,
        _validate_tail,
    )
)
_register(
    KindSpec(
        "facility_welfare",
        "expected social cost of the panel-optimal facility approaches "
        "(1 + eps) times optimal as the panel grows (box instances)",
        (),
        {"dims": [1, 2], "eps": 0.2, "k_grid": [16, 64, 256], "n": 400},
        _run_facility_welfare,
        lambda params, trials: _validate_k_grid_fits(params),
    )
)
_register(
    KindSpec(
        "facility_star",
        "on the star population no panel size keeps the chosen facility within "
        "twice the optimal cost more than 3/4 of the time (exact enumeration)",
        (),
        {"k_max": 6},
        _run_facility_star,
    )
)
_register(
    KindSpec(
        "pb_welfare",
        "expected social cost of the panel-optimal budget allocation is within "
        "eps of optimal and shrinks with the panel size",
        (),
        {"m": 2, "n": 200, "eps": 0.1, "k_grid": [4, 16, 64], "n_instances": 10},
        _run_pb_welfare,
        lambda params, trials: _validate_k_grid_fits(params),
    )
)
_register(
    KindSpec(
        "pb_core",
        "allocations in the panel core stay in the population core after an "
        "eps slack on the share and cost margins",
        (),
        {"n": 200, "k": 64, "eps": 0.25, "step": 0.05, "delta": 0.1},
        _run_pb_core,
        _validate_pb_core,
    )
)
_register(
    KindSpec(
        "pb_lower",
        "hidden-sign budgeting family: the optimum matches 1/2 - 1/(2w) and "
        "majority recovery of the signs needs panels growing like h*w^2",
        (),
        {"h": 2, "w": 3, "r": 30, "z": None, "k_grid": [4, 16, 64, 256]},
        _run_pb_lower,
        _validate_pb_lower,
    )
)
_register(
    KindSpec(
        "multifacility_line",
        "expected multi-facility social cost on the line is within eps of "
        "optimal at k = c/eps^2, independent of the facility count",
        (),
        {
            "eps_list": [0.2, 0.1],
            "c": 4.0,
            "ells": [1, 2, 3],
            "n_instances": 10,
            "n": 500,
            "n_sites": 10,
        },
        _run_multifacility_line,
        _validate_multifacility_line,
    )
)
_register(
    KindSpec(
        "multifacility_impossible",
        "two-facility family with zero optimum on which any fixed panel rule "
        "keeps positive expected cost (exact enumeration)",
        (),
        {"k_max": 6, "n": 10},
        _run_multifacility_impossible,
        _validate_multifacility_impossible,
    )
)


class UsageError(ValueError):
    pass


def validate_config(config: ExperimentConfig) -> KindSpec:
    if config.kind not in KINDS:
        raise UsageError(f"unknown kind {config.kind!r}; see `sortition-lab list`")
    spec = KINDS[config.kind]
    if config.seed < 0:
        raise UsageError("seed must be nonnegative")
    if config.trials < 1:
        raise UsageError("trials must be positive")
    unknown = set(config.params) - set(spec.defaults) - set(spec.required)
    if unknown:
        raise UsageError(f"unknown params for {config.kind}: {sorted(unknown)}")
    merged = dict(spec.defaults)
    merged.update(config.params)
    missing = [p for p in spec.required if merged.get(p) is None]
    if missing:
        raise UsageError(f"missing params for {config.kind}: {missing}")
    try:
        # an empty list or a zero count would leave the criterion nothing to check
        for key, default in spec.defaults.items():
            if isinstance(default, list) and not (isinstance(merged[key], list) and merged[key]):
                raise ValueError(f"{key} must be a nonempty list")
        for key in ("n_features", "n_instances", "n_sites"):
            if key in merged and int(merged[key]) < 1:
                raise ValueError(f"{key} must be at least 1")
        spec.validate(merged, config.trials)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec


def run_experiment(config: ExperimentConfig) -> tuple[int, ExperimentResult]:
    """Run one experiment; returns (exit code, result) and writes the CSV."""
    spec = validate_config(config)
    params = dict(spec.defaults)
    params.update(config.params)
    result = spec.runner(params, config.seed, config.trials)
    if config.output:
        write_csv(config.output, result.columns, result.rows)
    return (0 if result.passed else 1), result


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def write_csv(path: str, columns: list[str], rows: list[dict]):
    """Write rows atomically; floats carry 9 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row[c]) for c in columns))
    payload = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".csv-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def list_kinds() -> list[dict]:
    """Stable table of experiment kinds, their parameters, and their claims."""
    table = []
    for name in sorted(KINDS):
        spec = KINDS[name]
        table.append(
            {
                "kind": name,
                "required": ", ".join(spec.required) if spec.required else "-",
                "defaults": ", ".join(f"{k}={v}" for k, v in spec.defaults.items()) or "-",
                "claim": spec.claim,
            }
        )
    return table
