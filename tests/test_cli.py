import dataclasses
import json
import os
import pathlib
import re
import types
import typing

import pytest

from sortition_lab import sampling
from sortition_lab.cli import main
from sortition_lab.experiments import (
    KINDS,
    ExperimentConfig,
    UsageError,
    list_kinds,
    run_experiment,
    validate_config,
    write_csv,
)
from sortition_lab.sampling import StatisticError
from test_acceptance import DETERMINISM_CONFIGS


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def of_type(value, hint) -> bool:
    """``value`` has exactly the annotated type: no bool for int, no int for float."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(of_type(value, option) for option in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return type(value) is list and all(of_type(v, typing.get_args(hint)[0]) for v in value)
    return type(value) is hint


# Configs that cannot run, each with the field its error names; every number
# must be a JSON integer where the default is an integer, and no param takes
# a string or a bool.
MALFORMED_CONFIGS = [
    ({"kind": "concentration", "seed": "x"}, "seed"),
    ({"kind": "concentration", "trials": "many"}, "trials"),
    ({"kind": "concentration", "params": 5}, "params"),
    ({"kind": "facility_tail", "params": {"n_instances": None}}, "n_instances"),
    ({"kind": "rep_sweep", "params": {"eps": None}}, "eps"),
    ({"kind": "pb_core", "params": {"k": None}}, "k"),
    (
        {"kind": "concentration", "seed": 1.9, "trials": 2.5,
         "params": {"n": 40.7, "k_list": [8.9], "t_list": [0.2], "n_features": 2}},
        "seed",
    ),
    ({"kind": "facility_tail", "params": {"T": "3"}}, "T"),
    ({"kind": "pb_core", "params": {"eps": "0.25"}}, "eps"),
    ({"kind": "concentration", "params": {"n_features": True}}, "n_features"),
    ({"kind": "concentration", "trials": True}, "trials"),
    ({"kind": "multifacility_line", "params": {"ells": [1, 1.5]}}, "ells"),
    ({"kind": "facility_welfare", "params": {"dims": [1.7]}}, "dims"),
    ({"kind": "rep_sweep", "params": {"k_grid": [4.5, 16]}}, "k_grid"),
    ({"kind": "pb_lower", "params": {"z": [1.5, -1]}}, "z"),
    ({"kind": "pb_core", "params": {"eps": 10**400}}, "eps"),
    ({"kind": "facility_star", "params": {"k_max": 11}}, "k_max"),
    ({"kind": "multifacility_impossible", "params": {"k_max": 10, "n": 30}}, "k_max"),
]


class TestListKinds:
    def test_eleven_kinds(self):
        assert len(list_kinds()) == 11
        assert len(KINDS) == 11

    def test_contains_expected_kinds(self):
        names = {row["kind"] for row in list_kinds()}
        assert "facility_tail" in names
        assert "pb_core" in names

    def test_claims_unique_and_stable(self):
        table = list_kinds()
        claims = [row["claim"] for row in table]
        assert len(set(claims)) == len(claims)
        assert table == list_kinds()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown kind"):
            validate_config(ExperimentConfig("nope", {}))

    def test_tail_requires_t_above_two(self):
        with pytest.raises(UsageError, match="T"):
            validate_config(ExperimentConfig("facility_tail", {"T": 2.0, "delta": 0.1}))

    def test_unknown_param(self):
        with pytest.raises(UsageError, match="unknown params"):
            validate_config(ExperimentConfig("facility_star", {"bogus": 1}))

    def test_ok(self):
        validate_config(ExperimentConfig("facility_tail", {"T": 3.0, "delta": 0.1}))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_defaults_are_their_own_typed_params(self, kind):
        # the runner's signature states each param's type: a default like
        # "c": 4 would make c an integer param and reject 4.5
        spec = KINDS[kind]
        _, params = validate_config(ExperimentConfig(kind, {}))
        assert params == spec.defaults
        hints = typing.get_type_hints(spec.runner)
        assert list(hints) == ["seed", "trials", *spec.defaults, "return"]
        for key, value in params.items():
            default = spec.defaults[key]
            assert type(value) is type(default)
            if isinstance(value, list):
                assert [type(v) for v in value] == [type(v) for v in default]
            assert of_type(value, hints[key]), key


class TestCliCommands:
    def test_run_pass_and_csv(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        cfg = write_config(tmp_path, kind="sd_counterexample", seed=1, trials=10, output=str(out))
        assert main(["run", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert "PASS sd_counterexample: 5/5 checks held" in printed
        assert out.exists()

    def test_run_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kind="facility_tail", params={"T": 1.5, "delta": 0.1})
        assert main(["run", "--config", cfg]) == 2

    def test_run_missing_file_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_pb_core_odd_population_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kind="pb_core", params={"n": 201, "k": 16})
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        assert "even" in capsys.readouterr().err

    def test_pb_core_negative_eps_rejected(self, tmp_path, capsys):
        # a negative slack validated and then read as a criterion FAIL (exit 1)
        cfg = write_config(tmp_path, kind="pb_core", params={"eps": -0.5}, trials=50)
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "eps=-0.5 must be at least 0" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    def test_pb_core_huge_eps_runs(self, tmp_path, capsys):
        # the coalition sizes overflowed int32 and the run crashed (exit 3);
        # capped, no coalition is large enough and nothing blocks
        out = tmp_path / "core.csv"
        cfg = write_config(tmp_path, kind="pb_core", params={"eps": 1e12, "step": 0.05}, trials=50, output=str(out))
        assert main(["run", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "PASS pb_core: 2/2 checks held" in captured.out
        assert out.read_text().splitlines()[1].split(",")[5] == "0"

    @pytest.mark.parametrize(
        "kind, params, reason",
        [
            ("multifacility_line", {"ells": [10]}, "ells"),
            ("multifacility_line", {"eps_list": [0.05]}, "k=1600"),
            ("multifacility_impossible", {"k_max": 11, "n": 10}, "k_max=11"),
            ("concentration", {"k_list": [500]}, "k=500 in k_list"),
            ("rep_sweep", {"k_grid": [4, 500]}, "k=500 in k_grid"),
            ("pb_welfare", {"k_grid": [4, 500]}, "k=500 in k_grid"),
            ("pb_core", {"k": 300}, "k=300 in k"),
            ("concentration", {"k_list": [0]}, "k=0 in k_list must be at least 1"),
            ("concentration", {"k_list": [-3]}, "k=-3 in k_list must be at least 1"),
            ("pb_core", {"k": 0}, "k=0 in k must be at least 1"),
            ("pb_welfare", {"k_grid": [0, 4]}, "k=0 in k_grid must be at least 1"),
            ("pb_lower", {"k_grid": [0, 4]}, "k=0 in k_grid must be at least 1"),
            ("rep_sweep", {"eps": 0.2, "delta": 0.1, "k_grid": [0, 4]}, "k=0 in k_grid must be at least 1"),
            ("facility_welfare", {"k_grid": [0, 4]}, "k=0 in k_grid must be at least 1"),
        ],
    )
    def test_panels_beyond_population_or_candidates_rejected(self, tmp_path, capsys, kind, params, reason):
        cfg = write_config(tmp_path, kind=kind, params=params)
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize(
        "kind, params, reason",
        [
            ("concentration", {"k_list": []}, "k_list must be a nonempty list"),
            ("concentration", {"n_features": 0}, "n_features must be at least 1"),
            ("pb_welfare", {"n_instances": 0}, "n_instances must be at least 1"),
            ("pb_welfare", {"k_grid": []}, "k_grid must be a nonempty list"),
            ("facility_welfare", {"dims": []}, "dims must be a nonempty list"),
            ("multifacility_line", {"ells": []}, "ells must be a nonempty list"),
            ("multifacility_line", {"n_sites": 0}, "n_sites must be at least 1"),
            ("multifacility_line", {"n_sites": -1}, "n_sites must be at least 1"),
            ("facility_star", {"k_max": 0}, "k_max must be at least 1"),
            ("multifacility_impossible", {"k_max": 0}, "k_max must be at least 1"),
            ("pb_welfare", {"m": 0}, "m=0 must be at least 2 projects"),
            ("rep_sweep", {"n": 0}, "n must be at least 1"),
            # configs that validated, then crashed the run with exit 3
            ("pb_lower", {"z": [1, -1, 1]}, "need len(z) == h, got 3 != 2"),
            ("pb_lower", {"z": [0, 1]}, "z entries must be -1 or +1"),
            ("facility_welfare", {"dims": [0]}, "dims [0] must all be at least 1"),
            ("pb_welfare", {"m": 1}, "m=1 must be at least 2 projects"),
        ],
    )
    def test_run_that_checks_nothing_rejected(self, tmp_path, capsys, kind, params, reason):
        cfg = write_config(tmp_path, kind=kind, params=params, trials=50)
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize(
        "kind, params, reason",
        [
            ("multifacility_line", {"ells": [2, 2]}, "ells [2, 2] repeats a value"),
            ("multifacility_line", {"eps_list": [0.2, 0.2]}, "eps_list [0.2, 0.2] repeats a value"),
        ],
    )
    def test_repeated_values_rejected(self, tmp_path, capsys, kind, params, reason):
        # a repeated facility count would write its rows twice and pool every
        # gap twice, narrowing that count's confidence interval
        cfg = write_config(tmp_path, kind=kind, params=params, trials=50)
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize(
        "config, field",
        [pytest.param(config, field, id=f"config{i}") for i, (config, field) in enumerate(MALFORMED_CONFIGS)],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, config, field):
        # exit 1 means a criterion failed; a config that cannot run is a usage error
        cfg = write_config(tmp_path, **config)
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid: ") and "\nerror: " in captured.err
        assert "Traceback" not in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        for line in captured.err.splitlines():
            assert re.search(rf"\b{field}\b", line), line

    def test_null_only_where_the_default_is_none(self):
        with pytest.raises(UsageError, match=r"params \['delta', 'eps'\] of rep_sweep may not be null"):
            validate_config(ExperimentConfig("rep_sweep", {"eps": None, "delta": None}))
        validate_config(ExperimentConfig("rep_sweep", {"k_grid": None}))
        validate_config(ExperimentConfig("pb_lower", {"z": None}))

    def test_rep_sweep_empty_grid_still_means_default(self):
        validate_config(ExperimentConfig("rep_sweep", {"eps": 0.2, "delta": 0.1, "k_grid": []}))

    def test_multifacility_line_needs_two_gaps(self, tmp_path, capsys):
        # one instance at one trial leaves a single gap and no confidence interval
        cfg = write_config(
            tmp_path, kind="multifacility_line", params={"n_instances": 1, "eps_list": [0.2]}, trials=1
        )
        assert main(["validate", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "n_instances * trials" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        ok = write_config(
            tmp_path, kind="multifacility_line", params={"n_instances": 2, "eps_list": [0.2]}, trials=1
        )
        assert main(["validate", ok]) == 0

    def test_out_in_missing_directory_exits_two_before_running(self, tmp_path, capsys, monkeypatch):
        calls = []
        spec = dataclasses.replace(KINDS["facility_star"], runner=lambda *args: calls.append(args))
        monkeypatch.setitem(KINDS, "facility_star", spec)
        cfg = write_config(tmp_path, kind="facility_star")
        missing = tmp_path / "nodir" / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(missing)]) == 2
        assert calls == []
        assert "does not exist" in capsys.readouterr().err

    def test_runner_crash_exits_three(self, tmp_path, capsys, monkeypatch):
        def crash(seed, trials, **params):
            raise StatisticError(7, ZeroDivisionError("division by zero"))

        spec = dataclasses.replace(KINDS["facility_star"], runner=crash)
        monkeypatch.setitem(KINDS, "facility_star", spec)
        cfg = write_config(tmp_path, kind="facility_star")
        assert main(["run", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "error: facility_star: statistic failed on trial 7" in captured.err
        assert "(trial 7)" in captured.err

    def test_validate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kind="facility_star", params={"k_max": 3})
        assert main(["validate", cfg]) == 0
        bad = write_config(tmp_path, kind="zzz")
        assert main(["validate", bad]) == 2

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "11 kinds" in out

    def test_flag_overrides(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg = write_config(
            tmp_path, kind="rep_sweep",
            params={"n": 32, "n_features": 2, "eps": 0.3, "delta": 0.2, "k_grid": [4, 8]},
            seed=3, trials=100, output=str(out_a),
        )
        assert main(["run", "--config", cfg]) in (0, 1)
        assert main(["run", "--config", cfg, "--seed", "3", "--trials", "100", "--out", str(out_b)]) in (0, 1)
        assert out_a.read_bytes() == out_b.read_bytes()


# Configs whose criterion fails at seed 0, each with the first check its FAIL
# line names: a CI bound, an exact bound, a trend pair between grid sizes.
FAILING_CONFIGS = [
    (
        "facility_welfare", {"dims": [1], "eps": 0.0, "k_grid": [4, 8], "n": 60}, 400,
        "1/2 checks failed, first: mean_sc dim=1 k=8 <= (1+eps)*opt + 3ci "
        "(value 0.268630989, bound 0.255656215)",
    ),
    (
        "pb_welfare", {"m": 2, "n": 80, "eps": 0.0, "k_grid": [4, 16], "n_instances": 2}, 400,
        "2/4 checks failed, first: gap instance=0 k=16 <= eps + 3ci (value 0.0103072414, bound 0.00498899274)",
    ),
    (
        "pb_lower", {"h": 2, "w": 3, "r": 30, "z": None, "k_grid": [4]}, 300,
        "1/3 checks failed, first: highest recovery_rate (k=4) >= 6/7 (value 0.336666667, bound 0.857142857)",
    ),
    (
        "rep_sweep", {"n": 48, "n_features": 2, "eps": 0.01, "delta": 0.1, "k_grid": [4]}, 200,
        "1/1 checks failed, first: lowest failure_rate on the grid (k=4) <= delta (value 1, bound 0.1)",
    ),
    (
        "pb_core", {"n": 200, "k": 4, "eps": 0.1, "step": 0.05, "delta": 0.1}, 500,
        "1/2 checks failed, first: population-core failure rate <= delta (value 0.624, bound 0.1)",
    ),
    (
        "pb_lower", {"h": 2, "w": 3, "r": 30, "z": None, "k_grid": [256, 4]}, 300,
        "1/4 checks failed, first: recovery_rate k=4 >= its value at k=256 - 3ci "
        "(value 0.35, bound 0.838077426)",
    ),
    (
        "facility_welfare", {"dims": [1], "eps": 0.3, "k_grid": [32, 4], "n": 60}, 400,
        "1/2 checks failed, first: mean_sc dim=1 k=4 <= its value at k=32 + 3ci "
        "(value 0.28288878, bound 0.266703487)",
    ),
    (
        # crashed while shares and margins were floats: 0.45 + 0.05 rounds to 1/2
        "pb_core", {"n": 200, "k": 16, "step": 0.025, "eps": 0.05}, 500,
        "1/2 checks failed, first: population-core failure rate <= delta (value 0.422, bound 0.1)",
    ),
]

# (kind, seed) -> exit code of each DETERMINISM_CONFIGS run. A change to how
# verdicts are built or printed must not move any of them (FAILING_CONFIGS exit 1).
DETERMINISM_EXIT_CODES = {(kind, seed): 0 for kind in DETERMINISM_CONFIGS for seed in (0, 1313)}
DETERMINISM_EXIT_CODES["pb_lower", 1313] = 1


class TestVerdicts:
    @pytest.mark.parametrize("kind, params, trials, summary", FAILING_CONFIGS)
    def test_fail_line_names_first_failing_check(self, tmp_path, capsys, kind, params, trials, summary):
        cfg = write_config(tmp_path, kind=kind, params=params, seed=0, trials=trials)
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().out == f"FAIL {kind}: {summary}\n"

    @pytest.mark.parametrize("kind, seed", sorted(DETERMINISM_EXIT_CODES))
    def test_exit_code_unchanged(self, kind, seed):
        params, trials = DETERMINISM_CONFIGS[kind]
        code, _ = run_experiment(ExperimentConfig(kind, params, seed=seed, trials=trials))
        assert code == DETERMINISM_EXIT_CODES[kind, seed]

    @pytest.mark.parametrize("kind", sorted(DETERMINISM_CONFIGS))
    def test_every_kind_reports_checks(self, kind):
        # an empty check list would pass vacuously
        params, trials = DETERMINISM_CONFIGS[kind]
        code, result = run_experiment(ExperimentConfig(kind, params, seed=1313, trials=trials))
        assert result.checks
        assert (code == 0) == all(c.ok for c in result.checks)

    def test_pass_line_counts_checks(self):
        params, trials = DETERMINISM_CONFIGS["concentration"]
        _, result = run_experiment(ExperimentConfig("concentration", params, seed=0, trials=trials))
        assert len(result.checks) == len(result.rows) == 2
        assert result.summary == "2/2 checks held"


class TestDeterminism:
    RERUNS = {
        "concentration": ({"n": 40, "k_list": [8], "t_list": [0.2], "n_features": 2}, 9, 400),
        "facility_tail": ({"T": 3.0, "delta": 0.1, "star_k": 25, "n_instances": 1, "n": 60}, 4, 1500),
        "multifacility_line": (
            {"eps_list": [0.25], "c": 4.0, "ells": [1, 2], "n_instances": 2, "n": 120, "n_sites": 6}, 3, 150
        ),
        # a failure rate near 0.6, so failing points are re-verified at their first trials
        "pb_core": ({"n": 200, "k": 4, "eps": 0.1, "step": 0.05, "delta": 0.1}, 2, 300),
    }

    def test_rerun_byte_identical(self, tmp_path):
        for kind, (params, seed, trials) in self.RERUNS.items():
            payloads = []
            for run in (1, 2):
                out = tmp_path / f"{kind}{run}.csv"
                run_experiment(ExperimentConfig(kind, params, seed, trials, str(out)))
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1], kind

    def test_worker_count_does_not_change_csv(self, tmp_path, monkeypatch):
        # however trials are split, each block comes from its own stream:
        # drawing every plan's blocks last to first gives the same CSV bytes
        drawn = []
        pending = {}
        draw = sampling.block_members

        def block_drawn_backwards(plan, block):
            if plan not in pending:
                blocks = range(-(-plan.trials // sampling.TRIAL_BLOCK))
                pending[plan] = {b: draw(plan, b) for b in reversed(blocks)}
                drawn.append(len(pending[plan]))
            members = pending[plan].pop(block)
            if not pending[plan]:
                del pending[plan]
            return members

        for kind, (params, seed, trials) in self.RERUNS.items():
            in_order = tmp_path / f"{kind}-in-order.csv"
            run_experiment(ExperimentConfig(kind, params, seed, trials, str(in_order)))
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "block_members", block_drawn_backwards)
                backwards = tmp_path / f"{kind}-backwards.csv"
                drawn.clear()
                run_experiment(ExperimentConfig(kind, params, seed, trials, str(backwards)))
            assert sum(drawn) >= 2, kind
            assert in_order.read_bytes() == backwards.read_bytes(), kind


class TestCsvFormat:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "fmt.csv"
        write_csv(str(path), ["a", "b"], [{"a": 1 / 3, "b": 7}])
        text = path.read_text()
        assert text == "a,b\n0.333333333,7\n"

    def test_atomic_replace(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["v"], [{"v": 1}])
        write_csv(str(path), ["v"], [{"v": 2}])
        assert path.read_text() == "v\n2\n"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".csv-")] == []


class TestReadme:
    def test_python_blocks_run(self):
        # the documented library calls must keep working as the API changes
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


class TestPackageExports:
    def test_star_import_resolves_every_name(self):
        # a name left in __all__ after its definition is deleted breaks `import *`
        import sortition_lab

        assert [name for name in sortition_lab.__all__ if not hasattr(sortition_lab, name)] == []
        namespace = {}
        exec("from sortition_lab import *", namespace)
        assert set(sortition_lab.__all__) <= set(namespace)
