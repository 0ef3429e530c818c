"""Spans for the traced benchmark run.

A span covers one call into a layer's public function: its name, layer,
start and end (``time.monotonic_ns``, which is one clock for every process on
the machine), the span that caused it and the job it belongs to.  Spans stay
in memory and are written out once, when the benchmark ends.

The package itself is not changed: `install` replaces the public functions
listed in `LAYER_FUNCTIONS` by recording wrappers, in every loaded
``triplepole`` module that holds a reference to them, so calls from one layer
into another are recorded too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time
from statistics import median

# (module, function) -> layer.  `shipped_catalogue` lives in the sweep module
# but only builds `AbelianModel` objects, so its time is the models layer's.
LAYER_FUNCTIONS = {
    ("triplepole.cli", "main"): "cli",
    ("triplepole.config", "load_config"): "config",
    ("triplepole.config", "build_model"): "config",
    ("triplepole.config", "build_labels"): "config",
    ("triplepole.config", "build_family"): "config",
    ("triplepole.config", "build_budget"): "config",
    ("triplepole.sweep", "shipped_catalogue"): "models",
    ("triplepole.sweep", "sweep"): "sweep",
    ("triplepole.sweep", "find_witness"): "sweep",
    ("triplepole.calculus", "matching_matrix"): "calculus",
    ("triplepole.calculus", "triple_pole_order"): "calculus",
    ("triplepole.calculus", "factorize"): "calculus",
    ("triplepole.group_oracle", "oracle_group"): "group_oracle",
    ("triplepole.group_oracle", "oracle_agreement_sweep"): "group_oracle",
    ("triplepole.group_oracle", "projection_formula_sweep"): "group_oracle",
    ("triplepole.group_oracle", "oracle_compare"): "group_oracle",
    ("triplepole.group_oracle", "trivial_multiplicity"): "group_oracle",
    ("triplepole.gauss_sums", "character_sum"): "gauss_sums",
    ("triplepole.gauss_sums", "numeric_triple_estimate"): "gauss_sums",
    ("triplepole.gauss_sums", "ideal_count"): "gauss_sums",
}

# Layers no benchmark call can reach from outside the package.
UNREACHED = {
    "cyclotomic": (
        "no public call on a workload path; its exact arithmetic runs inside "
        "group_oracle.agreement_s and group_oracle.trivial_multiplicity_ms and "
        "needs spans inside the program to be split out"
    ),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, parent: str | None = None, job: str | None = None):
        self.spans: list[dict] = []
        self.install_s = 0.0
        self._prefix = f"{os.getpid()}."
        self._ids = itertools.count()
        self._stack = [(parent, job)]

    def span(self, name: str, layer: str, job: str | None = None) -> "_Span":
        return _Span(self, name, layer, job)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Record a span around every function in LAYER_FUNCTIONS and every
        CLI subcommand handler."""
        start = time.perf_counter()
        for (modname, fname), layer in LAYER_FUNCTIONS.items():
            original = getattr(importlib.import_module(modname), fname)
            traced = self.wrap(original, f"{layer}.{fname}", layer)
            for name, module in list(sys.modules.items()):
                if name == "triplepole" or name.startswith("triplepole."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        cli = sys.modules["triplepole.cli"]
        for command, handler in list(cli._HANDLERS.items()):
            cli._HANDLERS[command] = self.wrap(handler, f"cli.{handler.__name__}", "cli")
        self.install_s = time.perf_counter() - start

    def cost(self) -> dict:
        """What tracing added to this process: installing the wrappers, and
        the spans recorded times the cost of one span, timed here."""
        span_s = span_cost()
        return {
            "install_s": self.install_s,
            "spans": len(self.spans),
            "span_s": span_s,
            "overhead_s": self.install_s + len(self.spans) * span_s,
        }


def span_cost(batches: int = 7, calls: int = 2000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    no-op, median over batches, in this process."""
    probe = Tracer(job="calibration")

    def noop():
        return None

    traced = probe.wrap(noop, "calibration", "calibration")
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        costs.append(((end - bare) - (bare - start)) / calls)
        probe.spans.clear()
    return median(costs)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, layer: str, job: str | None):
        parent, current_job = tracer._stack[-1]
        self.tracer = tracer
        self.record = {
            "id": tracer._prefix + str(next(tracer._ids)),
            "name": name,
            "layer": layer,
            "parent": parent,
            "job": job if job is not None else current_job,
            "start": 0,
            "end": 0,
        }

    def __enter__(self) -> dict:
        rec = self.record
        self.tracer._stack.append((rec["id"], rec["job"]))
        rec["start"] = time.monotonic_ns()
        return rec

    def __exit__(self, *exc) -> None:
        rec = self.record
        rec["end"] = time.monotonic_ns()
        self.tracer._stack.pop()
        self.tracer.spans.append(rec)


def seconds(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in the layer's own spans and not in a child
    span.  Children run inside their parent's interval on the same thread
    or in a child process the parent waits for, so they never overlap."""
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + seconds(s)
    out: dict[str, float] = {}
    for s in spans:
        own = seconds(s) - child_time.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return dict(sorted(out.items()))
