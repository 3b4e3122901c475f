"""Experiment kinds behind the command-line front end.

Each kind reproduces one verifiable claim at desk scale and returns its CSV
rows with a list of ``Check`` records, one per criterion cell: a value, the
bound it is compared with, and the verdict. The run passes when every check
holds; a FAIL summary names the first failing check. Reruns with the same
config and seed produce byte-identical CSV.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import sys
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
    Panel,
    Segment,
    majority_signs,
    make_camouflaged,
    pairwise,
    panel_counts,
    real_feature,
)
from .sampling import (
    ENUMERATION_CAP,
    TrialPlan,
    _weighted_panels,
    derived_seed,
    mean_ci,
    monte_carlo,
    proportion_ci,
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
    defaults: dict
    runner: Callable[..., ExperimentResult]  # (seed, trials, **params)
    validate: Callable[[dict, int], None] = lambda params, trials: None


# ---------------------------------------------------------------------------
# rep_sweep


def _run_rep_sweep(
    seed: int, trials: int, n: int, n_features: int, eps: float, delta: float, k_grid: list[int] | None
) -> ExperimentResult:
    rng = np.random.default_rng(derived_seed(seed, 0))
    features = [real_feature(rng.random(n)) for _ in range(n_features)]
    sweep = representativeness.min_k_sweep(
        features, eps, delta, k_grid=k_grid or None, trials=trials, seed=seed
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
    n, k = feature.n, 2
    w_values: dict[tuple, float] = {}
    probs = {}
    for mode in (Mode.WITHOUT_REPLACEMENT, Mode.WITH_REPLACEMENT):
        hits = 0  # draws, out of C(n, k) subsets or n^k ordered draws
        for members, weight in _weighted_panels(n, k, mode):
            w = wasserstein_1d(pop, representativeness.panel_distribution(feature, Panel(n, members, mode)))
            w_values.setdefault(tuple(feature.values[i] for i in members), w)
            if w <= SD_THRESHOLD:
                hits += weight
        probs[mode] = Fraction(hits, math.comb(n, k) if mode is Mode.WITHOUT_REPLACEMENT else n**k)
    return probs[Mode.WITHOUT_REPLACEMENT], probs[Mode.WITH_REPLACEMENT], w_values


def _run_sd_counterexample(seed: int, trials: int) -> ExperimentResult:
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


def _run_concentration(
    seed: int, trials: int, n: int, k_list: list[int], t_list: list[float], n_features: int
) -> ExperimentResult:
    rows = []
    checks = []
    for f_idx in range(n_features):
        rng = np.random.default_rng(derived_seed(seed, f_idx))
        feature = real_feature(rng.random(n))
        stat = representativeness.PanelWasserstein(feature)
        for k_idx, k in enumerate(k_list):
            plan = TrialPlan(n, k, trials=trials, seed=derived_seed(seed, f_idx, k_idx))
            values = trial_values(plan, stat)
            mu_hat = float(values.mean())
            for t in t_list:
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


def _tail_estimate(inst, T, k, trials, seed):
    cd = facility.CandidateDistances(inst)
    q_idx = cd.optimum_index()
    opt = float(cd.social[q_idx])
    q_star = inst.candidates[q_idx]
    dist_to_opt = pairwise(inst.space, inst.candidates, [q_star])[:, 0]
    within = (dist_to_opt <= T * opt + 1e-12).astype(float)  # one indicator per candidate
    plan = TrialPlan(n=inst.n, k=k, mode=Mode.WITHOUT_REPLACEMENT, trials=trials, seed=seed)
    return monte_carlo(plan, lambda members: within[cd.panel_optimum_index(members)])


def _run_facility_tail(
    seed: int, trials: int, T: float, delta: float, star_k: int, n_instances: int, n: int
) -> ExperimentResult:
    k = facility.tail_panel_size(T, delta)
    instances = [facility.star_instance(star_k)]
    for i in range(n_instances):
        rng = np.random.default_rng(derived_seed(seed, 100 + i))
        instances.append(random_line_instance(rng, n))
    rows = []
    checks = []
    for idx, inst in enumerate(instances):
        est = _tail_estimate(inst, T, k, trials, derived_seed(seed, idx))
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


def _run_facility_welfare(
    seed: int, trials: int, dims: list[int], eps: float, k_grid: list[int], n: int
) -> ExperimentResult:
    rows = []
    checks = []
    for d_idx, dim in enumerate(dims):
        rng = np.random.default_rng(derived_seed(seed, d_idx))
        if dim == 1:
            inst = random_line_instance(rng, n, 9)
        else:
            agents = tuple(tuple(float(v) for v in row) for row in rng.random((n, dim)))
            cover = tuple(facility.box_cover(dim, 0.125, Norm.L1))
            inst = facility.FacilityInstance(facility.Box(dim, Norm.L1), cover, agents)
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
    """Exact P[d(panel choice, optimum) >= 2 * opt] on the star instance.

    Precondition: the agents sit at two positions and every candidate-to-agent
    distance is exactly 0.0 or 1.0. A panel's candidate means are then sums of
    0.0s and 1.0s, exact in any order, over k, so they depend only on j, the
    number of members at the upper position. One panel per j is scored by
    ``panel_optimum_index`` in a ``(k+1, k)`` block, and each class that
    chooses a far candidate adds its C(#upper, j) * C(#lower, k-j) panels;
    none of the C(2k+1, k) panels is enumerated.
    """
    inst = facility.star_instance(k)
    cd = facility.CandidateDistances(inst)
    assert np.isin(cd.matrix, (0.0, 1.0)).all(), "count classes need 0/1 distances"
    q_idx = cd.optimum_index()
    opt = float(cd.social[q_idx])
    far = pairwise(inst.space, inst.candidates, [inst.candidates[q_idx]])[:, 0] >= 2.0 * opt
    lower, upper = ([i for i, x in enumerate(inst.agents) if x == at] for at in sorted(set(inst.agents)))
    panels = np.array([upper[:j] + lower[: k - j] for j in range(k + 1)])
    hits = far[cd.panel_optimum_index(panels)]
    weight = sum(math.comb(len(upper), j) * math.comb(len(lower), k - j) for j in range(k + 1) if hits[j])
    return Fraction(weight, math.comb(inst.n, k)), opt


def _run_facility_star(seed: int, trials: int, k_max: int) -> ExperimentResult:
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


def _run_pb_welfare(
    seed: int, trials: int, m: int, n: int, eps: float, k_grid: list[int], n_instances: int
) -> ExperimentResult:
    rows = []
    checks = []
    for i_idx in range(n_instances):
        rng = np.random.default_rng(derived_seed(seed, i_idx))
        inst = random_linear_instance(rng, m, n)
        gaps, cis = [], []
        for k_idx, k in enumerate(k_grid):
            rep = budgeting.welfare_experiment(inst, k, trials=trials, seed=derived_seed(seed, i_idx, k_idx))
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


def _run_pb_core(seed: int, trials: int, n: int, k: int, eps: float, step: float, delta: float) -> ExperimentResult:
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


def _run_pb_lower(
    seed: int, trials: int, h: int, w: int, r: int, z: list[int] | None, k_grid: list[int]
) -> ExperimentResult:
    z = z or [1] * h
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


def _run_multifacility_line(
    seed: int, trials: int, eps_list: list[float], c: float, ells: list[int], n_instances: int, n: int, n_sites: int
) -> ExperimentResult:
    rows = []
    checks = []
    for eps_idx, eps in enumerate(eps_list):
        k = math.ceil(c / (eps * eps))
        gap_pool: dict[int, list[np.ndarray]] = {ell: [] for ell in ells}
        for i_idx in range(n_instances):
            rng = np.random.default_rng(derived_seed(seed, eps_idx, i_idx))
            inst = random_site_instance(rng, n, n_sites)
            w_stat = representativeness.PanelWasserstein(Feature(inst.space, inst.agents))
            sites, site_of = w_stat.unique, w_stat.index
            pop_w = np.bincount(site_of, minlength=sites.size) / n
            opts = [multifacility.kmedian_line(sites, inst.candidates, ell, pop_w)[0] for ell in ells]
            tables = [multifacility._LineSets(inst.space, sites, inst.candidates, ell, pop_w) for ell in ells]

            def scores(members: np.ndarray) -> np.ndarray:
                """W, then each ell's chosen population cost, per trial."""
                counts = panel_counts(site_of[members], sites.size)
                costs = [table.pop_cost[table.choose(counts, k)] for table in tables]
                return np.column_stack([w_stat.from_counts(counts, k), *costs])

            plan = TrialPlan(n, k, trials=trials, seed=derived_seed(seed, eps_idx, i_idx, 7))
            values = trial_values(plan, scores)
            w_mean = float(values[:, 0].sum()) / trials
            for ell, opt, column in zip(ells, opts, values[:, 1:].T):
                sc_sum = 0.0
                for sc in column.tolist():  # one float at a time: np.sum would pair terms up
                    sc_sum += sc
                gap_pool[ell].append(column - opt)
                rows.append(
                    {
                        "ell": ell,
                        "k": k,
                        "eps": eps,
                        "mean_sc": sc_sum / trials,
                        "opt": opt,
                        "w_mean": w_mean,
                        "seed": seed,
                    }
                )
        gaps = [mean_ci(np.concatenate(gap_pool[ell])) for ell in ells]
        for ell, gap in zip(ells, gaps):
            checks.append(ci_bound(f"gap eps={eps:g} ell={ell}", "eps", gap.mean, eps, gap.half_width_95))
        spread = max(g.mean for g in gaps) - min(g.mean for g in gaps)
        flat = 3.0 * (max(g.half_width_95 for g in gaps) + min(g.half_width_95 for g in gaps))
        # the facility-count effect on the gap is real but tiny; judge
        # flatness at the scale of the eps guarantee, not only CI noise
        name = f"gap spread over ells eps={eps:g} <= 3(max ci + min ci) + eps/20"
        checks.append(Check(name, spread, flat, spread <= flat + eps / 20.0))
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# multifacility_impossible


def expected_panel_cost(inst: multifacility.MultiFacilityInstance, k: int) -> Fraction:
    """Exact mean social cost of the panel-optimal facilities over every k-subset of a line instance.

    A panel's facilities depend only on its sorted agent positions, so the
    line DP runs once per distinct position tuple, weighted by its count.
    """
    base = inst.base
    tally = collections.Counter(
        tuple(sorted(base.agents[i] for i in members))
        for members, _ in _weighted_panels(base.n, k, Mode.WITHOUT_REPLACEMENT)
    )
    total = Fraction(0)
    for positions, count in tally.items():
        _, chosen = multifacility.kmedian_line(positions, base.candidates, inst.ell)
        total += Fraction(count, math.comb(base.n, k)) * Fraction(multifacility.multi_cost(inst, chosen))
    return total


def _run_multifacility_impossible(seed: int, trials: int, k_max: int, n: int) -> ExperimentResult:
    inst_a, inst_b = multifacility.impossibility_instance(n)
    opt_a = multifacility.brute_force_facilities(inst_a)[0]
    opt_b = multifacility.brute_force_facilities(inst_b)[0]
    rows = []
    checks = [Check("opt_a == 0", opt_a, 0.0, opt_a == 0.0), Check("opt_b == 0", opt_b, 0.0, opt_b == 0.0)]
    for k in range(1, k_max + 1):
        expected_sc = expected_panel_cost(inst_b, k)
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
    if params[key] <= floor:
        raise ValueError(f"{key} must be greater than {floor}")


def _validate_k_grid_fits(key: str, ks: list[int] | None, n: int):
    """Every panel size in ``ks`` lies in 1..n; a null or empty grid is rep_sweep's own choice."""
    if not ks:
        return
    if min(ks) < 1:
        raise ValueError(f"panel size k={min(ks)} in {key} must be at least 1")
    if max(ks) > n:
        raise ValueError(f"panel size k={max(ks)} in {key} exceeds the population n={n}")


def _validate_facility_welfare(params: dict, trials: int):
    if min(params["dims"]) < 1:
        raise ValueError(f"dims {params['dims']} must all be at least 1")
    _validate_k_grid_fits("k_grid", params["k_grid"], params["n"])


def _validate_pb_welfare(params: dict, trials: int):
    if params["m"] < 2:
        raise ValueError(f"m={params['m']} must be at least 2 projects")
    _validate_k_grid_fits("k_grid", params["k_grid"], params["n"])


def _validate_pb_lower(params: dict, trials: int):
    # the population checks z itself: len(z) == h and every entry -1 or +1
    pop = make_camouflaged(params["z"] or [1] * params["h"], params["h"], params["w"], params["r"])
    _validate_k_grid_fits("k_grid", params["k_grid"], pop.n)


def _validate_multifacility_line(params: dict, trials: int):
    for key in ("ells", "eps_list"):
        if len(set(params[key])) < len(params[key]):
            raise ValueError(f"{key} {params[key]} repeats a value; each would count twice")
    bad = [ell for ell in params["ells"] if not 1 <= ell <= SITE_CANDIDATES]
    if bad:
        raise ValueError(f"ells {bad} must lie in 1..{SITE_CANDIDATES}, the candidate count")
    _require_above(params, "c", 0.0)
    eps = min(params["eps_list"])
    if eps <= 0.0:
        raise ValueError("every eps must be greater than 0")
    k = math.ceil(params["c"] / (eps * eps))
    if k > params["n"]:
        raise ValueError(f"eps={eps} needs panels of k={k}, more than the population {params['n']}")
    if params["n_instances"] * trials < 2:
        raise ValueError("n_instances * trials must be at least 2 for a confidence interval on the gap")


def _validate_enumeration(n: int, k: int, k_max: int):
    """Reject ``k_max`` when C(n, k) panels exceed ``ENUMERATION_CAP``; stops as soon as they do."""
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)  # C(n, i + 1), which grows while i + 1 <= n / 2
        if count > ENUMERATION_CAP:
            raise ValueError(f"k_max={k_max} needs C({n},{k}) panels, more than the enumeration cap {ENUMERATION_CAP}")


def _validate_multifacility_impossible(params: dict, trials: int):
    k_max, n = params["k_max"], params["n"]
    if k_max > n:
        raise ValueError(f"k_max={k_max} exceeds the population n={n}")
    _validate_enumeration(n, min(k_max, n // 2), k_max)


def _validate_pb_core(params: dict, trials: int):
    _require_above(params, "step", 0.0)
    if params["eps"] < 0.0:
        raise ValueError(f"eps={params['eps']} must be at least 0")
    _validate_k_grid_fits("k", [params["k"]], params["n"])
    if params["n"] % 2:
        raise ValueError(f"n={params['n']} must be even to split into two equal blocks")


def _validate_tail(params: dict, trials: int):
    _require_above(params, "T", 2.0)
    k = facility.tail_panel_size(params["T"], params["delta"])
    if min(2 * params["star_k"] + 1, params["n"]) < k:
        raise ValueError(
            f"population sizes must reach the formula panel size k={k}; "
            f"raise star_k or n"
        )


_register(
    KindSpec(
        "rep_sweep",
        "failure probability of eps-representativeness over several features is "
        "nonincreasing in k and crosses delta",
        {"n": 128, "n_features": 4, "eps": 0.2, "delta": 0.1, "k_grid": None},
        _run_rep_sweep,
        lambda params, trials: _validate_k_grid_fits("k_grid", params["k_grid"], params["n"]),
    )
)
_register(
    KindSpec(
        "sd_counterexample",
        "with-replacement panels beat without-replacement ones at one threshold, "
        "so neither stochastically dominates (exact enumeration)",
        {},
        _run_sd_counterexample,
    )
)
_register(
    KindSpec(
        "concentration",
        "upper tail of the panel-population transport distance decays at least "
        "as fast as exp(-t^2 k / 4)",
        {"n": 200, "k_list": [25, 100], "t_list": [0.1, 0.2, 0.3], "n_features": 5},
        _run_concentration,
        lambda params, trials: _validate_k_grid_fits("k_list", params["k_list"], params["n"]),
    )
)
_register(
    KindSpec(
        "facility_tail",
        "the panel-optimal facility lies within T times the optimal social cost "
        "with probability at least 1 - delta at the closed-form panel size",
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
        {"dims": [1, 2], "eps": 0.2, "k_grid": [16, 64, 256], "n": 400},
        _run_facility_welfare,
        _validate_facility_welfare,
    )
)
_register(
    KindSpec(
        "facility_star",
        "on the star population no panel size keeps the chosen facility within "
        "twice the optimal cost more than 3/4 of the time (exact enumeration)",
        {"k_max": 6},
        _run_facility_star,
        lambda params, trials: _validate_enumeration(2 * params["k_max"] + 1, params["k_max"], params["k_max"]),
    )
)
_register(
    KindSpec(
        "pb_welfare",
        "expected social cost of the panel-optimal budget allocation is within "
        "eps of optimal and shrinks with the panel size",
        {"m": 2, "n": 200, "eps": 0.1, "k_grid": [4, 16, 64], "n_instances": 10},
        _run_pb_welfare,
        _validate_pb_welfare,
    )
)
_register(
    KindSpec(
        "pb_core",
        "allocations in the panel core stay in the population core after an "
        "eps slack on the share and cost margins",
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
        {"k_max": 6, "n": 10},
        _run_multifacility_impossible,
        _validate_multifacility_impossible,
    )
)


class UsageError(ValueError):
    pass


def _typed(key: str, value, default):
    """``value`` in the type of its default, or a ValueError that names ``key``.

    An int default takes a JSON integer (not a bool) and a float default any
    finite number; a list default takes a nonempty list whose entries follow
    its first element. A None default takes null or [] (the built-in choice)
    or a list of integers.
    """
    if default is None:
        return value if value is None or value == [] else _typed(key, value, [0])
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{key} must be a nonempty list")
        return [_typed(f"each entry of {key}", v, default[0]) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        if not (number and isinstance(value, int)):
            raise ValueError(f"{key} must be an integer, not {value!r}")
        return value
    if not (number and abs(value) <= sys.float_info.max):  # no nan, no infinity, no int beyond float range
        raise ValueError(f"{key} must be a finite number, not {value!r}")
    return float(value)


def validate_config(config: ExperimentConfig) -> tuple[KindSpec, dict]:
    """Check a config once; returns its kind and every param typed as its default."""
    if config.kind not in KINDS:
        raise UsageError(f"unknown kind {config.kind!r}; see `sortition-lab list`")
    spec = KINDS[config.kind]
    try:
        if _typed("seed", config.seed, 0) < 0:
            raise ValueError("seed must be nonnegative")
        if _typed("trials", config.trials, 0) < 1:
            raise ValueError("trials must be positive")
        if not isinstance(config.params, dict):
            raise ValueError(f"params must be a JSON object, not {config.params!r}")
        unknown = set(config.params) - set(spec.defaults)
        if unknown:
            raise ValueError(f"unknown params for {config.kind}: {sorted(unknown)}")
        # null means "use the built-in choice", which only a None default has
        nulls = sorted(key for key, value in config.params.items() if value is None and spec.defaults[key] is not None)
        if nulls:
            raise ValueError(f"params {nulls} of {config.kind} may not be null")
        params = {key: _typed(key, config.params.get(key, default), default) for key, default in spec.defaults.items()}
        spec.validate(params, config.trials)
        # a zero count would leave the criterion nothing to check
        for key, value in params.items():
            if isinstance(value, int) and value < 1:
                raise ValueError(f"{key} must be at least 1")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec, params


def run_experiment(config: ExperimentConfig) -> tuple[int, ExperimentResult]:
    """Run one experiment; returns (exit code, result) and writes the CSV."""
    spec, params = validate_config(config)
    result = spec.runner(config.seed, config.trials, **params)
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
                "defaults": ", ".join(f"{k}={v}" for k, v in spec.defaults.items()) or "-",
                "claim": spec.claim,
            }
        )
    return table
