"""Workload definitions: which operations each workload runs, at which sizes.

An operation is either one ``sortition-lab run`` of an experiment kind (the
CLI path, ``experiments.run_experiment``) or one library-call oracle from
``oracles.py``. Every operation runs in a fresh child process. Parameters
are spelled out in full so that a change to a kind's defaults does not
silently change the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

PB_COLUMNS = ("k", "eps", "eta", "tau", "rho", "gap_or_rate", "ci", "seed")

#: CSV header of every experiment kind (README "CSV columns" plus the
#: self-describing headers of the remaining kinds).
COLUMNS = {
    "rep_sweep": ("k", "failure_rate", "ci_half_width", "eps", "delta", "n_features", "seed"),
    "sd_counterexample": ("quantity", "value"),
    "concentration": ("feature", "n", "k", "t", "tail_rate", "bound", "ci", "seed"),
    "facility_tail": ("T", "delta", "k", "p_within", "ci", "seed"),
    "facility_welfare": ("dim", "k", "eps", "mean_sc", "opt", "ci", "seed"),
    "facility_star": ("k", "p_far", "opt", "threshold"),
    "pb_welfare": PB_COLUMNS,
    "pb_core": PB_COLUMNS,
    "pb_lower": PB_COLUMNS,
    "multifacility_line": ("ell", "k", "eps", "mean_sc", "opt", "w_mean", "seed"),
    "multifacility_impossible": ("k", "expected_sc", "opt_a", "opt_b"),
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``library`` ops are oracle calls from ``oracles.py``; the others are CLI
    runs of the experiment kind ``name``. ``trials`` is the Monte Carlo trial
    count of a CLI run, or the number of oracle calls per size of a library
    op. Set-up runs the same op at one trial (CLI) or zero calls (library:
    import and input generation only).
    """

    name: str
    params: dict = field(default_factory=dict)
    trials: int = 1
    library: bool = False
    small: dict | None = None  # overrides for the self-test size

    @property
    def setup_trials(self) -> int:
        return 0 if self.library else 1

    def scaled(self, size: str) -> "Op":
        if size == "full" or not self.small:
            return self
        small = dict(self.small)
        trials = small.pop("trials", self.trials)
        return replace(self, params={**self.params, **small}, trials=trials)

    def rows(self) -> int:
        """Rows the CSV (or the result table) must have."""
        p = self.params
        return {
            "rep_sweep": lambda: len(p["k_grid"]),
            "facility_welfare": lambda: len(p["dims"]) * len(p["k_grid"]),
            "concentration": lambda: p["n_features"] * len(p["k_list"]) * len(p["t_list"]),
            "facility_tail": lambda: 1 + p["n_instances"],
            "pb_welfare": lambda: p["n_instances"] * len(p["k_grid"]),
            "pb_core": lambda: 1,
            "pb_lower": lambda: len(p["k_grid"]),
            "multifacility_line": lambda: len(p["eps_list"]) * p["n_instances"] * len(p["ells"]),
            "facility_star": lambda: p["k_max"],
            "multifacility_impossible": lambda: p["k_max"],
            "sd_counterexample": lambda: 6,
        }[self.name]()

    def evals(self, trials: int) -> int:
        """Statistic evaluations: Monte Carlo trials, oracle calls or enumerated panels."""
        p = self.params
        if self.name == "concentration":
            return p["n_features"] * len(p["k_list"]) * trials
        if self.name == "facility_tail":
            return (1 + p["n_instances"]) * trials
        if self.name == "pb_welfare":
            return p["n_instances"] * len(p["k_grid"]) * trials
        if self.name == "pb_core":
            return trials
        if self.name == "pb_lower":
            return len(p["k_grid"]) * trials
        if self.name == "multifacility_line":
            return len(p["eps_list"]) * p["n_instances"] * trials
        if self.name == "is_representative":
            return len(p["ns"]) * trials
        if self.name == "wasserstein_flow":
            return trials
        if not trials:
            return 0
        if self.name == "facility_star":  # star population of 2k+1 agents, panels of size k
            return sum(math.comb(2 * k + 1, k) for k in range(1, p["k_max"] + 1))
        if self.name == "multifacility_impossible":
            return sum(math.comb(p["n"], k) for k in range(1, p["k_max"] + 1))
        if self.name == "sd_counterexample":  # k=2 of 5 agents, both sampling modes
            return math.comb(5, 2) + math.comb(6, 2)
        raise KeyError(self.name)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # test_04's pipeline: trial_rng + draw_panel + Panel dominate each trial,
    # so stream and batched-engine changes show here.
    "w1_tail": (
        Op(
            "concentration",
            {"n": 200, "k_list": [25, 100], "t_list": [0.1, 0.2, 0.3], "n_features": 5},
            trials=2000,
            small={"trials": 100},
        ),
    ),
    # kmedian_line is over 90% of each trial: DP changes show here, and
    # sampling changes should show almost nothing.
    "line_kmedian": (
        Op(
            "multifacility_line",
            {"eps_list": [0.2, 0.1], "c": 4.0, "ells": [1, 2, 3], "n_instances": 10,
             "n": 500, "n_sites": 10},
            trials=60,
            small={"trials": 5, "n_instances": 3},
        ),
    ),
    # Reach sampling through monte_carlo closures and the hand-written
    # pb_lower loop, scoring with facility argmin, greedy allocation and the
    # cached core mask; pb_core builds two 176 MB tables once (set-up, RSS).
    "panel_decisions": (
        Op("facility_tail", {"T": 3.0, "delta": 0.1, "star_k": 50, "n_instances": 5, "n": 120},
           trials=600, small={"trials": 200}),
        Op("pb_welfare", {"m": 2, "n": 200, "eps": 0.1, "k_grid": [4, 16, 64], "n_instances": 10},
           trials=200, small={"trials": 100, "n_instances": 2}),
        Op("pb_core", {"n": 200, "k": 64, "eps": 0.25, "step": 0.0125, "delta": 0.1},
           trials=600, small={"trials": 50, "step": 0.05}),
        Op("pb_lower", {"h": 2, "w": 3, "r": 30, "z": None, "k_grid": [4, 16, 64, 256]},
           trials=600, small={"trials": 200}),
    ),
    # The exact oracles: model support merge, transport flow and closed form,
    # exact enumeration. They are the differential reference for fast paths.
    "exact_oracles": (
        Op("is_representative", {"ns": [1000, 2000, 4000], "k": 50, "eps": 0.1}, trials=1,
           library=True, small={"ns": [200, 400]}),
        Op("wasserstein_flow", {"max_points": 20}, trials=200, library=True,
           small={"trials": 10}),
        Op("facility_star", {"k_max": 9}, trials=1, library=True, small={"k_max": 5}),
        Op("multifacility_impossible", {"k_max": 8, "n": 14}, trials=1, library=True,
           small={"k_max": 4, "n": 8}),
        Op("sd_counterexample", {}, trials=1, library=True),
    ),
}

#: Small sizes for the smoke pass over all eleven kinds: (params, trials).
SMOKE = {
    "rep_sweep": ({"n": 48, "n_features": 2, "eps": 0.25, "delta": 0.15, "k_grid": [4, 16]}, 300),
    "sd_counterexample": ({}, 1),
    "concentration": ({"n": 60, "k_list": [12], "t_list": [0.2], "n_features": 2}, 500),
    "facility_tail": ({"T": 3.0, "delta": 0.1, "star_k": 25, "n_instances": 1, "n": 60}, 1200),
    "facility_welfare": ({"dims": [1], "eps": 0.3, "k_grid": [8, 32], "n": 60}, 400),
    "facility_star": ({"k_max": 4}, 1),
    "pb_welfare": ({"m": 2, "n": 80, "eps": 0.15, "k_grid": [4, 16], "n_instances": 2}, 400),
    "pb_core": ({"n": 80, "k": 16, "eps": 0.25, "step": 0.1, "delta": 0.1}, 300),
    "pb_lower": ({"h": 2, "w": 2, "r": 10, "z": None, "k_grid": [4, 16]}, 300),
    "multifacility_line": ({"eps_list": [0.25], "c": 4.0, "ells": [1, 2], "n_instances": 2,
                            "n": 120, "n_sites": 6}, 60),
    "multifacility_impossible": ({"k_max": 4, "n": 8}, 1),
}
