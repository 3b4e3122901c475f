"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the time its child spans cover.
Function metrics (``*_us``, ``*_ms``) are inclusive mean times per call;
``<layer>.self_s`` sums self time over the layer's functions. A metric whose
function was not called in the pass reads 0.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracer import LAYERS

KMEDIAN_ELLS = (1, 2, 3)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("sampling.trial_rng_us", "us"),
        ("sampling.draw_panel_us", "us"),
        ("sampling.draw_calls", "count"),
        ("sampling.enumerate_us_per_panel", "us"),
        ("model.panel_us", "us"),
        ("model.distribution_build_ms", "ms"),
        ("representativeness.w1_us", "us"),
        ("representativeness.is_representative_ms", "ms"),
        ("transport.flow_ms", "ms"),
        ("transport.w1_closed_us", "us"),
        ("facility.distances_ms", "ms"),
        ("facility.argmin_us", "us"),
    ]
    + [(f"multifacility.kmedian_us_ell{ell}", "us") for ell in KMEDIAN_ELLS]
    + [
        ("multifacility.kmedian_calls", "count"),
        ("budgeting.core_tables_s", "s"),
        ("budgeting.table_bytes", "bytes"),
        ("budgeting.blocked_mask_calls", "count"),
        ("budgeting.core_cache_hit_ratio", "ratio"),
        ("experiments.write_csv_ms", "ms"),
        ("cli.import_s", "s"),
        ("trace.spans", "count"),
    ]
)


def span_totals(traces: list[dict]):
    """Calls, inclusive ns and self ns per span name, summed over the ops of a pass."""
    calls, incl, self_ns = Counter(), Counter(), Counter()
    counters = Counter()
    for trace in traces:
        counters.update(trace["counters"])
        spans = np.load(trace["spans"])
        if not len(spans):
            continue
        ids, start, end, parent = spans.T
        dur = (end - start).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
        width = len(trace["names"])
        n_calls = np.bincount(ids, minlength=width)
        n_incl = np.bincount(ids, weights=dur, minlength=width)
        n_self = np.bincount(ids, weights=dur - covered, minlength=width)
        for nid, name in enumerate(trace["names"]):
            if n_calls[nid]:
                calls[name] += int(n_calls[nid])
                incl[name] += float(n_incl[nid])
                self_ns[name] += float(n_self[nid])
    return calls, incl, self_ns, counters


def pass_metrics(traces: list[dict], import_s: list[float]) -> dict[str, float]:
    calls, incl, self_ns, counters = span_totals(traces)

    def per_call(name, ns_per_unit):
        return incl[name] / calls[name] / ns_per_unit if calls[name] else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer) / 1e9
    m["sampling.trial_rng_us"] = per_call("sampling.trial_rng", 1e3)
    m["sampling.draw_panel_us"] = per_call("sampling.draw_panel", 1e3)
    m["sampling.draw_calls"] = calls["sampling.draw_panel"]
    panels = counters["sampling.enumerate_panels#items"]
    m["sampling.enumerate_us_per_panel"] = incl["sampling.enumerate_panels"] / panels / 1e3 if panels else 0.0
    m["model.panel_us"] = per_call("model.Panel.__init__", 1e3)
    # total support-merge work of the pass, dominated by the n-point populations
    m["model.distribution_build_ms"] = incl["model.DiscreteDistribution.__init__"] / 1e6
    m["representativeness.w1_us"] = per_call("representativeness.PanelWasserstein.__call__", 1e3)
    m["representativeness.is_representative_ms"] = per_call("representativeness.is_representative", 1e6)
    m["transport.flow_ms"] = per_call("transport.wasserstein_flow", 1e6)
    m["transport.w1_closed_us"] = per_call("transport.wasserstein_1d", 1e3)
    m["facility.distances_ms"] = per_call("facility.CandidateDistances.__init__", 1e6)
    m["facility.argmin_us"] = per_call("facility.CandidateDistances.panel_optimum_index", 1e3)
    kmedian = [k for k in calls if k.startswith("multifacility.kmedian_line[")]
    for ell in KMEDIAN_ELLS:
        m[f"multifacility.kmedian_us_ell{ell}"] = per_call(f"multifacility.kmedian_line[ell={ell}]", 1e3)
    m["multifacility.kmedian_calls"] = sum(calls[k] for k in kmedian)
    m["budgeting.core_tables_s"] = incl["budgeting.CoreLab._improvement_tables"] / 1e9
    m["budgeting.table_bytes"] = counters["budgeting.table_bytes"]
    masks = calls["budgeting.CoreLab.blocked_mask"]
    m["budgeting.blocked_mask_calls"] = masks
    # each core experiment masks the population once; the rest are panel
    # compositions missing from its cache, against one group count per trial
    trials = calls["budgeting.CoreLab.group_counts"]
    panel_masks = masks - calls["budgeting.core_extrapolation_experiment"]
    m["budgeting.core_cache_hit_ratio"] = 1.0 - panel_masks / trials if trials else 0.0
    m["experiments.write_csv_ms"] = per_call("experiments.write_csv", 1e6)
    m["cli.import_s"] = float(np.mean(import_s)) if import_s else 0.0
    m["trace.spans"] = sum(calls.values())
    return m
