"""Fixed probes: the layer probe at the ROADMAP reference point and a host-speed probe.

``run`` executes in a child process and times single layers of the trial
pipeline at n=200, k=25 with ``PanelWasserstein``. ``host_job_ms`` times a
fixed host job, a fresh Python that imports numpy: at the start of every run
for its facts, and between the operations of an untraced run, whose
end-to-end times it scales.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

N, K, SEED = 200, 25, 12345
REPEATS = 5

#: Figures quoted in ROADMAP.md (a different host), in µs per call.
ROADMAP_US = {
    "monte_carlo_us": 97.0,
    "draw_panel_us": 71.0,
    "trial_rng_us": 16.0,
    "panel_us": 10.0,
    "w1_call_us": 19.0,
}


def _per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def run(workdir: str) -> dict:
    import sortition_lab as sl
    from sortition_lab.experiments import write_csv
    from sortition_lab.sampling import trial_rng

    mode = sl.Mode.WITHOUT_REPLACEMENT
    rng = np.random.default_rng(SEED)
    stat = sl.PanelWasserstein(sl.real_feature(rng.random(N)))
    calls = 2000
    panels = [sl.draw_panel(N, K, mode, trial_rng(SEED, t)) for t in range(calls)]
    members = np.asarray([p.members for p in panels])
    rows = [{c: float(i) for c in "abcdefgh"} for i in range(30)]
    csv_path = os.path.join(workdir, "probe.csv")
    return {
        # draw_panel includes deriving its generator, as the ROADMAP figure does
        "trial_rng_us": _per_call_us(lambda: [trial_rng(SEED, t) for t in range(calls)], calls),
        "draw_panel_us": _per_call_us(
            lambda: [sl.draw_panel(N, K, mode, trial_rng(SEED, t)) for t in range(calls)], calls
        ),
        "panel_us": _per_call_us(lambda: [sl.Panel(N, p.members, mode) for p in panels], calls),
        "w1_call_us": _per_call_us(lambda: [stat(p) for p in panels], calls),
        "w1_batch_us": _per_call_us(lambda: stat.batch(members), calls),
        "monte_carlo_us": _per_call_us(
            lambda: sl.monte_carlo(sl.TrialPlan(n=N, k=K, trials=calls, seed=SEED), stat), calls
        ),
        "proportion_ci_us": _per_call_us(
            lambda: [sl.proportion_ci(s % (calls + 1), calls) for s in range(calls)], calls
        ),
        "write_csv_us": _per_call_us(lambda: [write_csv(csv_path, list("abcdefgh"), rows) for _ in range(20)], 20),
    }


#: The host job's time on the reference host, in ms. End-to-end times are
#: scaled by HOST_REF_MS over the host job's time, so they read as seconds on
#: a host where the job takes this long.
HOST_REF_MS = 150.0


def host_job_ms() -> float:
    """Wall time of starting a fresh Python that imports numpy, in ms.

    Every operation of the benchmark is such a child process, so a slow
    spell of the host that hits process start, imports and numpy hits this
    job alike. It tracks such spells better than a pure-Python loop does.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3
