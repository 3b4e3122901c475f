"""Command-line front end: run, list, and validate experiment configs.

Configs are single JSON documents; command-line flags override the seed,
trial count, and output path. Exit codes: 0 criterion passed, 1 criterion
failed, 2 usage or config error, 3 the run crashed before reaching a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .experiments import (
    ExperimentConfig,
    UsageError,
    list_kinds,
    run_experiment,
    validate_config,
)
from .sampling import StatisticError


def load_config(path: str, seed=None, trials=None, output=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError("config must be a JSON object with a 'kind' field")
    known = {"kind", "params", "seed", "trials", "output"}
    unknown = set(data) - known
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(
        kind=data["kind"],
        params=data.get("params", {}) or {},
        seed=seed if seed is not None else data.get("seed", 0),
        trials=trials if trials is not None else data.get("trials", 2000),
        output=output if output is not None else data.get("output"),
    )


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config, args.seed, args.trials, args.out)
        validate_config(config)
        if config.output and not os.path.isdir(os.path.dirname(os.path.abspath(config.output))):
            raise UsageError(f"output directory of {config.output!r} does not exist")
    except (ValueError, TypeError, OSError) as exc:  # unreadable or malformed config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, result = run_experiment(config)
    except Exception as exc:  # a crash is not a criterion verdict
        traceback.print_exc()
        where = f" (trial {exc.trial})" if isinstance(exc, StatisticError) else ""
        print(f"error: {config.kind}: {exc}{where}", file=sys.stderr)
        return 3
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {config.kind}: {result.summary}")
    if config.output:
        print(f"wrote {config.output} ({len(result.rows)} rows)")
    return code


def _cmd_list(args) -> int:
    table = list_kinds()
    width = max(len(row["kind"]) for row in table)
    for row in table:
        print(f"{row['kind']:<{width}}  {row['claim']}")
        print(f"{'':<{width}}  params: defaults {row['defaults']}")
    print(f"{len(table)} kinds")
    return 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
        validate_config(config)
    except (ValueError, TypeError, OSError) as exc:  # unreadable or malformed config
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {config.kind}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortition-lab",
        description="Run desk-scale panel experiments with deterministic CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument("--out", default=None, help="override the CSV output path")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list experiment kinds and their claims")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to a JSON config")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
