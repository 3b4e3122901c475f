"""Pipeline benchmark for sortition-lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Every operation runs in a fresh child process (``child.py``), one at a time,
with ``SORTITION_THREADS`` removed from its environment. The workload's
operations run in turn, each at one trial (set-up) and then at full size,
until ``--seconds`` is used up; each time metric sums the operations' median
wall times, scaled to a reference host speed by a fixed host job timed
between operations. With ``--trace 1`` rounds of one untraced and one traced
pass alternate instead, and the per-layer metrics come from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Operation details go
to standard error. Outputs are written to a scratch directory inside the
checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import layers
import probe
from workloads import COLUMNS, SMOKE, WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SCRATCH = ".perfbench-tmp"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
# set-up/full pairs of every op in an untraced run, even if they overrun --seconds
MIN_SAMPLES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PROBE_METRICS = tuple((f"probe.{name}", "us") for name in (
    "trial_rng_us", "draw_panel_us", "panel_us", "w1_call_us", "w1_batch_us",
    "monte_carlo_us", "proportion_ci_us", "write_csv_us",
))
PER_LAYER = tuple(layers.PER_LAYER) + (("trace.overhead_s", "s"), ("host.probe_ms", "ms")) + PROBE_METRICS


@dataclass
class OpResult:
    op: Op | None
    trials: int
    trace: bool
    wall_s: float
    rss_mb: float
    failures: list[str] = field(default_factory=list)
    import_s: float = 0.0
    trace_data: dict | None = None
    probe: dict | None = None
    sha256: str = "-"
    verdict: str = "-"


@dataclass
class Pair:
    """One op's set-up and full run, and the host job time around them."""

    setup: OpResult
    full: OpResult
    host_ms: float

    @property
    def scale(self) -> float:
        return probe.HOST_REF_MS / self.host_ms


class Runner:
    """Runs operations in child processes and checks their outputs."""

    def __init__(self, root: str, seed: int, started: float):
        self.root = root
        self.seed = seed
        self.started = started
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, SCRATCH))
        self.env = {k: v for k, v in os.environ.items() if k != "SORTITION_THREADS"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.count = 0
        self.results: list[OpResult] = []
        self.digests: dict[tuple, str] = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def run(self, op: Op | None, trials: int = 0, trace: bool = False, gate_verdict: bool = True) -> OpResult:
        """Run one op (``None`` runs the layer probe) and check what it wrote.

        Without ``gate_verdict`` a criterion FAIL (exit 1) is reported, not failed.
        """
        self.count += 1
        base = os.path.join(self.tmp, f"op{self.count}")
        spec = {"src": os.path.join(self.root, "src"), "trace": trace, "result": base + ".json",
                "seed": self.seed}
        if op is None:
            spec.update(kind="probe", dir=self.tmp)
        elif op.library:
            spec.update(kind="library", name=op.name, params=op.params, trials=trials)
        else:
            config = {"kind": op.name, "params": op.params, "seed": self.seed, "trials": trials}
            _write_json(base + ".config.json", config)
            spec.update(kind="cli", config=base + ".config.json", csv=base + ".csv")
        _write_json(base + ".spec.json", spec)

        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, base + ".spec.json"], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = OpResult(op, trials, trace, wall, usage.ru_maxrss / 1024.0)
        self.results.append(result)
        self._check(result, base, proc.returncode, gate_verdict)
        _log_op(result, proc.returncode)
        return result

    def _check(self, result: OpResult, base: str, code: int, gate_verdict: bool):
        fail = result.failures.append
        if code < 0:
            fail(f"killed after {result.wall_s:.1f} s (signal {-code})")
        if not os.path.exists(base + ".json"):
            with open(base + ".err", "rb") as handle:
                tail = handle.read().decode(errors="replace").strip().splitlines()[-3:]
            fail("crashed: " + " | ".join(tail))
            return
        with open(base + ".json", encoding="utf-8") as handle:
            data = json.load(handle)
        result.import_s = data["import_s"]
        result.trace_data = data.get("trace")
        result.probe = data.get("probe")
        op = result.op
        if op is None:
            return
        # a criterion verdict at one trial means nothing; only crashes and usage errors fail set-up
        if result.trials == op.setup_trials:
            gate_verdict = False
        if code not in ((0,) if gate_verdict else (0, 1)):
            fail(f"exit code {code}")
        if op.library:
            for message in data["failures"]:
                fail(message)
            values = data["values"]
            expected = 0 if not result.trials else (op.rows() if op.name in COLUMNS else op.evals(result.trials))
            if len(values) != expected:
                fail(f"{len(values)} results, expected {expected}")
            payload = json.dumps(values).encode()
        else:
            with open(base + ".out", encoding="utf-8", errors="replace") as handle:
                result.verdict = handle.read().split(" ", 1)[0] or "-"
            if not os.path.exists(base + ".csv"):
                fail("no CSV written")
                return
            with open(base + ".csv", "rb") as handle:
                payload = handle.read()
            lines = payload.decode().splitlines() or [""]
            if tuple(lines[0].split(",")) != COLUMNS[op.name]:
                fail(f"CSV header {lines[0]!r}")
            if len(lines) - 1 != op.rows():
                fail(f"CSV has {len(lines) - 1} rows, expected {op.rows()}")
        digest = result.sha256 = hashlib.sha256(payload).hexdigest()
        # reruns of one op in one run, traced or not, must give the same bytes
        key = (op.name, result.trials)
        if self.digests.setdefault(key, digest) != digest:
            fail("output differs from an earlier run of the same operation")

    def run_pass(self, ops, setup: bool, trace: bool) -> list[OpResult]:
        return [self.run(op, op.setup_trials if setup else op.trials, trace) for op in ops]


def _write_json(path: str, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _log_op(result: OpResult, code: int):
    name = result.op.name if result.op else "layer_probe"
    status = "ok" if not result.failures else "FAILED: " + "; ".join(result.failures)
    print(f"# op {name} trials={result.trials} trace={int(result.trace)} wall_s={result.wall_s:.4f} "
          f"rss_mb={result.rss_mb:.1f} exit={code} verdict={result.verdict} sha256={result.sha256} {status}",
          file=sys.stderr, flush=True)


def _wall(results: list[OpResult]) -> float:
    return sum(r.wall_s for r in results)


def _median_over(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def run_facts(root: str, args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    src = os.path.join(root, "src", "sortition_lab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": args.workload or "smoke",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "SORTITION_THREADS": os.environ.get("SORTITION_THREADS"),  # removed for the children
        "host_probe_ms": round(statistics.median(probe.host_job_ms() for _ in range(3)), 3),
    }


def measure(runner: Runner, ops, seconds: float) -> dict[str, float]:
    """End-to-end metrics: set-up and full runs of each op in turn until ``seconds`` is used up.

    Each op's set-up run directly precedes its full run, so the pair sees
    the same host speed, and the host job is timed between pairs. The ops
    are cycled one pair at a time, not in whole rounds, so that at most one
    pair's time is left unused at the end.
    """
    deadline = runner.started + seconds
    # warm-up: the first children pay for cold file caches and bytecode compilation
    runner.run_pass(ops, True, False)
    pairs: list[list[Pair]] = [[] for _ in ops]
    pair_s = [0.0] * len(ops)
    host_ms = probe.host_job_ms()
    turn = 0
    while True:
        i = turn % len(ops)
        t0 = time.perf_counter()
        setup = runner.run(ops[i], ops[i].setup_trials)
        full = runner.run(ops[i], ops[i].trials)
        now = time.perf_counter()
        before, host_ms = host_ms, probe.host_job_ms()
        pairs[i].append(Pair(setup, full, (before + host_ms) / 2))
        pair_s[i] = now - t0
        turn += 1
        if any(r.failures for r in runner.results) or runner.remaining() < 2 * max(pair_s):
            break
        # every op gets MIN_SAMPLES pairs; after that no pair starts that would end past the deadline
        if turn >= MIN_SAMPLES * len(ops) and now + pair_s[turn % len(ops)] > deadline:
            break
    return e2e_metrics(ops, pairs)


def measure_traced(runner: Runner, ops, seconds: float) -> dict[str, float]:
    """Per-layer metrics: rounds of one untraced and one traced pass, in alternating order."""
    deadline = runner.started + seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        order = (False, True) if len(rounds) % 2 == 0 else (True, False)
        rounds.append({flag: runner.run_pass(ops, False, flag) for flag in order})
        now = time.perf_counter()
        if (any(r.failures for r in runner.results) or now + (now - t0) > deadline
                or runner.remaining() < 2 * (now - t0)):
            break
    return trace_metrics(runner, rounds)


def e2e_metrics(ops, pairs: list[list[Pair]]) -> dict[str, float]:
    """Sums over ops of each op's median wall time, scaled to the reference host speed.

    Each pair's times are scaled by ``HOST_REF_MS`` over the host job time
    around it, so a slow minute of the host, which slows the children and
    the host job alike, is taken out. A slow moment spoils one sample of one
    operation, not a whole pass over the ops.
    """
    def median_s(attr: str, scaled: bool) -> float:
        return sum(statistics.median(getattr(p, attr).wall_s * (p.scale if scaled else 1.0) for p in runs)
                   for runs in pairs)

    evals = sum(op.evals(op.trials) - op.evals(op.setup_trials) for op in ops)
    for op, runs in zip(ops, pairs):
        print(f"# samples {op.name} " + " ".join(
            f"{p.setup.wall_s:.4f}/{p.full.wall_s:.4f}/{p.host_ms:.3f}" for p in runs), file=sys.stderr)
    raw_wall, raw_setup = median_s("full", False), median_s("setup", False)
    host = statistics.median(p.host_ms for runs in pairs for p in runs)
    print(f"# measured wall_s={raw_wall:.4f} setup_s={raw_setup:.4f} "
          f"evals_per_s={evals / max(raw_wall - raw_setup, 1e-9):.2f} host_job_ms={host:.3f}")
    wall, setup_s = median_s("full", True), median_s("setup", True)
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "evals_per_s": evals / max(wall - setup_s, 1e-9),
        "peak_rss_mb": max(r.rss_mb for runs in pairs for p in runs for r in (p.setup, p.full)),
    }


def trace_metrics(runner: Runner, rounds) -> dict[str, float]:
    passes = []
    for r in rounds:
        traced = r[True]
        if any(x.failures for x in traced):
            continue
        passes.append(layers.pass_metrics([x.trace_data for x in traced], [x.import_s for x in traced]))
    metrics = _median_over(passes) if passes else {name: 0.0 for name, _ in layers.PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(_wall(r[True]) for r in rounds)
                                   - statistics.median(_wall(r[False]) for r in rounds))
    print(f"# traced passes={len(rounds)} untraced wall_s={statistics.median(_wall(r[False]) for r in rounds):.4f} "
          f"traced wall_s={statistics.median(_wall(r[True]) for r in rounds):.4f}", file=sys.stderr)
    return metrics


def layer_probe(runner: Runner) -> dict[str, float]:
    result = runner.run(None)
    measured = result.probe if not result.failures else {}
    print("# layer probe at n=200, k=25 (µs per call; ROADMAP figures come from another host)")
    for name, _ in PROBE_METRICS:
        key = name.split(".", 1)[1]
        roadmap = probe.ROADMAP_US.get(key)
        print(f"#   {key:<18} measured {measured.get(key, float('nan')):9.2f}   "
              f"roadmap {roadmap if roadmap is not None else '-':>5}")
    return {name: measured.get(name.split(".", 1)[1], 0.0) for name, _ in PROBE_METRICS}


def smoke(runner: Runner) -> dict[str, float]:
    """All eleven kinds at small sizes: wall seconds and verdict (reported, not gated)."""
    metrics = {}
    for kind, (params, trials) in SMOKE.items():
        result = runner.run(Op(kind, params, trials), trials, gate_verdict=False)
        print(f"# smoke {kind:<25} wall_s={result.wall_s:7.3f} verdict={result.verdict}"
              + ("" if not result.failures else " FAILED: " + "; ".join(result.failures)))
        metrics[f"smoke.{kind}_s"] = result.wall_s
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced sizes for the self-test")
    parser.add_argument("--smoke", action="store_true", help="run all eleven kinds at small sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sortition_lab", "cli.py")):
        print("error: run from the root of a sortition-lab checkout (src/sortition_lab not found)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # the runner, its children and the host job share one CPU, so they see the same host speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    facts = run_facts(root, args)
    print("# facts " + json.dumps(facts))
    # the workload seed becomes the experiment seed and the oracle input seed
    runner = Runner(root, args.seed & 0xFFFFFFFF, started)
    try:
        if args.smoke:
            metrics = smoke(runner)
            units = {name: "s" for name in metrics}
        else:
            ops = [op.scaled(args.size) for op in WORKLOADS[args.workload]]
            if args.trace:
                metrics = layer_probe(runner)
                metrics["host.probe_ms"] = facts["host_probe_ms"]
                metrics.update(measure_traced(runner, ops, args.seconds))
                units = dict(PER_LAYER)
            else:
                metrics = measure(runner, ops, args.seconds)
                units = dict(END_TO_END)
    finally:
        runner.close()
    attempted = len(runner.results)
    failed = sum(1 for r in runner.results if r.failures)
    for name, unit in units.items():
        print(f"{name:<42} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':<42} {failed / attempted:>16.6g} ratio   ({failed} of {attempted} operations)")
    report = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
