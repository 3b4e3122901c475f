"""Run one benchmark operation in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

The spec names a CLI run (``sortition-lab run --config ... --out ...``), a
library oracle from ``oracles.py``, or the layer probe. The child times the
import of ``sortition_lab.cli``, optionally installs the tracer, runs the
operation and writes a result JSON next to the spec. A crash leaves no
result file, which the parent counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    t0 = time.perf_counter()
    from sortition_lab import cli

    import_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout under {src}")

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    result = {"import_s": import_s}
    if spec["kind"] == "cli":
        code = cli.main(["run", "--config", spec["config"], "--out", spec["csv"]])
    elif spec["kind"] == "library":
        import oracles

        values, failures = oracles.run(spec["name"], spec["seed"], spec["params"], spec["trials"])
        result.update(values=values, failures=failures)
        code = 0
    else:
        import probe

        result["probe"] = probe.run(spec["dir"])
        code = 0
    if tracer is not None:
        result["trace"] = tracer.dump(spec["result"][: -len(".json")])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
