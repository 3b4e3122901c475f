"""Library-call operations of the ``exact_oracles`` workload.

Each function generates its inputs from ``rng`` (set-up), makes ``trials``
oracle calls per size, checks the results and returns (digest values,
failed checks). With ``trials == 0`` only the inputs are generated.
"""

from __future__ import annotations

import numpy as np

import sortition_lab as sl
from sortition_lab.experiments import ExperimentConfig, run_experiment

FLOW_TOL = 1e-9  # flow solver against the 1D closed form
W1_TOL = 1e-12  # PanelWasserstein against is_representative's exact distance


def is_representative(rng, params, trials):
    cases = []
    for n in params["ns"]:
        feature = sl.real_feature(rng.random(n))
        panels = [sl.draw_panel(n, params["k"], sl.Mode.WITHOUT_REPLACEMENT, rng) for _ in range(trials)]
        cases.append((feature, panels))
    values, failures = [], []
    for feature, panels in cases:
        if not panels:
            continue
        fast = sl.PanelWasserstein(feature)
        for panel in panels:
            _, exact = sl.is_representative(feature, panel, params["eps"])
            values.append(exact)
            if abs(exact - fast(panel)) > W1_TOL:
                failures.append(f"n={feature.n}: PanelWasserstein {fast(panel)!r} != {exact!r}")
    return values, failures


def wasserstein_flow(rng, params, trials):
    space = sl.Segment(0.0, 1.0)
    pairs = []
    for _ in range(trials):
        sizes = rng.integers(1, params["max_points"] + 1, size=2)
        pairs.append(
            tuple(
                sl.DiscreteDistribution.from_counts(space, rng.random(s).tolist(), rng.integers(1, 10, s).tolist())
                for s in sizes
            )
        )
    values, failures = [], []
    for phi, psi in pairs:
        flow, _ = sl.wasserstein_flow(phi, psi)
        closed = sl.wasserstein_1d(phi, psi)
        values.append(flow)
        if abs(flow - closed) > FLOW_TOL:
            failures.append(f"flow {flow!r} != closed form {closed!r}")
    return values, failures


def _experiment(kind):
    def run(rng, params, trials):
        if not trials:
            return [], []
        code, result = run_experiment(ExperimentConfig(kind, params))
        values = [[row[c] for c in result.columns] for row in result.rows]
        return values, ([] if code == 0 else [f"{kind} criterion failed: {result.summary}"])

    return run


OPS = {
    "is_representative": is_representative,
    "wasserstein_flow": wasserstein_flow,
    "facility_star": _experiment("facility_star"),
    "multifacility_impossible": _experiment("multifacility_impossible"),
    "sd_counterexample": _experiment("sd_counterexample"),
}


def run(name, seed, params, trials):
    rng = np.random.default_rng([seed, sorted(OPS).index(name)])
    return OPS[name](rng, params, trials)
