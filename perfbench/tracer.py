"""Span recording installed from outside the program.

``install`` wraps the public functions and public methods of every
``sortition_lab`` module and then rebinds each module attribute that still
holds an original function, so names imported at more than one site
(``experiments`` imports ``draw_panel`` and ``trial_rng`` by name;
``budgeting.core_extrapolation_experiment`` imports them inside the
function) reach the wrapper too. Spans (name, start, end, parent) are kept in
memory and written out once by ``dump``. The program itself is not edited.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "model",
    "transport",
    "sampling",
    "representativeness",
    "facility",
    "multifacility",
    "budgeting",
    "experiments",
    "cli",
)

# Point-level metric methods run O(n^2) times inside support merges; a span
# per call would cost more than the work, so their time stays in the caller.
SKIP_METHODS = {"distance", "contains"}

# Private methods whose spans a per-layer metric needs.
EXTRA_METHODS = {("budgeting", "CoreLab", "_improvement_tables")}

# Spans split by one argument, so per-value costs can be told apart.
TAGGED_ARGS = {"multifacility.kmedian_line": "ell"}

# Callables passed as this positional argument are wrapped as statistics, so
# a closure's time is charged to the layer that defined it, not the engine.
STATISTIC_ARG = {"sampling.monte_carlo": 1}

_DONE = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._table_ids: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        nid = self.name_id(name)
        tag = TAGGED_ARGS.get(name)
        stat_pos = STATISTIC_ARG.get(name)
        signature = inspect.signature(fn) if tag else None
        observe = self._observe_table if name == "budgeting.CoreLab._improvement_tables" else None

        if inspect.isgeneratorfunction(fn):
            items = name + "#items"

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(inner, _DONE)
                    finally:
                        spans[sid] = (nid, t0, clock(), parent)
                        stack.pop()
                    if item is _DONE:
                        return
                    self.count(items)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = nid
            if tag is not None:
                value = signature.bind(*args, **kwargs).arguments[tag]
                span_id = self.name_id(f"{name}[{tag}={value}]")
            if stat_pos is not None and len(args) > stat_pos and inspect.isfunction(args[stat_pos]):
                stat = args[stat_pos]
                label = f"{_layer_of(stat)}.{stat.__qualname__}"
                args = args[:stat_pos] + (self.wrap(label, stat),) + args[stat_pos + 1:]
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (span_id, t0, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_table(self, table):
        # bytes of each distinct improvement table built: u * N^2 * itemsize
        if table is not None and id(table) not in self._table_ids:
            self._table_ids.add(id(table))
            self.count("budgeting.table_bytes", table.nbytes)

    def dump(self, prefix: str) -> dict:
        """Write the spans to ``prefix.npy``; return names and counters."""
        # every span is closed here: dump runs outside all wrapped calls
        np.save(prefix + ".npy", np.asarray(self.spans, dtype=np.int64).reshape(-1, 4))
        return {"spans": prefix + ".npy", "names": self.names, "counters": self.counters}


def _layer_of(obj) -> str:
    return obj.__module__.rpartition(".")[2]


def install(tracer: Tracer):
    """Wrap every public function and method of the layers, at every binding site."""
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"sortition_lab.{layer}"]
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another layer; wrapped there
            if inspect.isfunction(obj) and not attr.startswith("_"):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                _wrap_class(tracer, layer, obj)
    for name, module in list(sys.modules.items()):
        if name != "sortition_lab" and not name.startswith("sortition_lab."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def _wrap_class(tracer: Tracer, layer: str, cls):
    for attr, raw in list(vars(cls).items()):
        public = not attr.startswith("_") and attr not in SKIP_METHODS
        if not (public or attr in ("__init__", "__call__") or (layer, cls.__name__, attr) in EXTRA_METHODS):
            continue
        label = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(label, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(label, raw))

