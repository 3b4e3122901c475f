"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that a small-size run of every workload in BENCHMARK.json, untraced
and traced, ends with no failed operation and prints every named metric
with its unit; that the smoke pass over all eleven kinds runs; and that the
benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(label: str, proc, expected: dict[str, str], positive: bool) -> list[str]:
    problems = []
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        return [f"{label}: exit {proc.returncode}, no result; stderr tail: {proc.stderr[-300:]!r}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {entry}")
        elif positive and value <= 0:
            problems.append(f"{label}: {name} = {value} is not positive")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = []
    sets = ((0, bench["end_to_end"], True), (1, bench["per_layer"], False))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics, positive in sets:
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "small"],
                capture_output=True, text=True, timeout=180,
            )
            found = check_result(label, proc, {m["name"]: m["unit"] for m in metrics}, positive)
            print(f"{'FAIL' if found else 'ok  '} {label}")
            problems += found

    from workloads import SMOKE

    proc = subprocess.run([sys.executable, RUN, "--smoke", "--seed", "7"], capture_output=True, text=True,
                          timeout=180)
    found = check_result("smoke", proc, {f"smoke.{kind}_s": "s" for kind in SMOKE}, True)
    print(f"{'FAIL' if found else 'ok  '} smoke pass over {len(SMOKE)} kinds")
    problems += found

    os.makedirs(os.path.join(root, ".perfbench-tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, ".perfbench-tmp"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, RUN, "--workload", "w1_tail", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and last_json(proc.stdout) is None
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program (exit {proc.returncode})")
    if not refused:
        problems.append("ran without the program")

    for problem in problems:
        print("  " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
