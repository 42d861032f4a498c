"""Spans around devmux's public functions, recorded from outside the program.

`Tracer.install()` swaps each target function (and every alias that devmux
modules imported under the same name) for a wrapper that records a span;
`uninstall()` puts the originals back, so untraced operations run the
unmodified code. Spans stay in memory and are written out once, at the end.

A span is `[name, start_ns, end_ns, parent, op, counters]`; `parent` is the
index of the enclosing span and `op` the operation it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager


def _sim_counts(args, result):
    report = result[0]
    return {
        "tasks": report.n_tasks,
        "failed": report.failed_count,
        "cloud": round(report.cloud_call_fraction * report.n_tasks),
    }


def _assemble_counts(args, result):
    scored, budget = args[0], args[1]
    return {"used": result.total_tokens, "budget": budget, "dropped": len(scored) - len(result.entries)}


# (module, attribute, span name, counters(args, result) or None). A call
# that raises gets the counter {"error": 1} instead.
TARGETS = (
    ("configfile", "load_config", "configfile.load", None),
    ("workload", "generate_workload", "workload.generate", lambda a, r: {"tasks": len(r)}),
    ("routing", "build_mdp", "routing.build_mdp", None),
    ("routing", "value_iteration", "routing.value_iteration",
     lambda a, r: {"sweeps": len(r.delta_history)}),
    ("simulate", "run_simulation", "simulate.run", _sim_counts),
    ("simulate", "metrics_from_events", "simulate.metrics", None),
    ("codegraph", "parse_to_graph", "codegraph.parse", lambda a, r: {"nodes": len(r.nodes)}),
    ("codegraph", "fallback_token_graph", "codegraph.fallback", lambda a, r: {"nodes": len(r.nodes)}),
    ("embedding", "graph_to_vector", "embedding.embed", lambda a, r: {"nodes": len(a[0].nodes)}),
    ("vindex", "VectorIndex.insert", "vindex.insert", None),
    ("vindex", "VectorIndex.save", "vindex.save", lambda a, r: {"bytes": os.path.getsize(a[1])}),
    ("vindex", "VectorIndex.load", "vindex.load", lambda a, r: {"records": len(r)}),
    ("vindex", "VectorIndex.search", "vindex.search", lambda a, r: {"records": len(a[0])}),
    ("vindex", "VectorIndex.vector", "vindex.lookup", None),
    ("fusion", "score_items", "fusion.score", lambda a, r: {"items": len(a[1])}),
    ("fusion", "assemble_context", "fusion.assemble", _assemble_counts),
    ("layoutlint", "parse_layout", "layoutlint.parse", None),
    ("layoutlint", "build_constraint_graph", "layoutlint.graph", lambda a, r: {"edges": len(r[0].edges)}),
    ("layoutlint", "describe", "layoutlint.describe", None),
    ("layoutlint", "detect_inconsistencies", "layoutlint.detect", lambda a, r: {"findings": len(r)}),
)



class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn, counters):
        # Inserts made while loading an index are part of the load, not writes.
        quiet_under = "vindex.load" if name == "vindex.insert" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if quiet_under and self._stack and self.spans[self._stack[-1]][0] == quiet_under:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.close(idx)
                self.spans[idx][5] = {"error": 1}
                raise
            self.close(idx)
            if counters is not None:
                self.spans[idx][5] = counters(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counters in TARGETS:
            module = importlib.import_module(f"devmux.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counters))
                else:
                    wrapped = self._wrap(name, raw, counters)
                self._patches.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "devmux" and mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counters) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                if counters:
                    record["counters"] = counters
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def with_self_times(spans: list[dict]) -> list[dict]:
    """Add `self_ms`: the span's duration minus its children's."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s, inner in zip(spans, child_ns):
        s["self_ms"] = (s["end_ns"] - s["start_ns"] - inner) / 1e6
        s["dur_ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
    return spans


# Per-layer metrics: (name, unit, better, spans, value, aggregation).
# `value` is "self" (self time in ms), "us" (self time in microseconds),
# "calls" (1 per span) or a counter name. Aggregation "call" takes the
# median over spans; "op" sums within each operation and takes the median
# over the operations that reached the layer. A layer that no operation of
# the workload reached reports 0.
LAYER_METRICS = (
    ("routing.solve_ms", "ms", "lower", ("routing.build_mdp", "routing.value_iteration"), "self", "op"),
    ("routing.vi_sweeps", "count", "lower", ("routing.value_iteration",), "sweeps", "call"),
    ("workload.generate_ms", "ms", "lower", ("workload.generate",), "self", "call"),
    ("workload.tasks", "count", "lower", ("workload.generate",), "tasks", "call"),
    ("simulate.run_ms", "ms", "lower", ("simulate.run",), "self", "call"),
    ("simulate.metrics_ms", "ms", "lower", ("simulate.metrics",), "self", "call"),
    ("simulate.offline_failed", "count", "lower", ("simulate.run",), "failed", "op"),
    ("simulate.cloud_calls", "count", "lower", ("simulate.run",), "cloud", "op"),
    ("configfile.load_ms", "ms", "lower", ("configfile.load",), "self", "call"),
    ("codegraph.parse_ms", "ms", "lower", ("codegraph.parse", "codegraph.fallback"), "self", "op"),
    ("codegraph.nodes", "count", "lower", ("codegraph.parse", "codegraph.fallback"), "nodes", "op"),
    ("codegraph.parse_attempted", "count", "lower", ("codegraph.parse",), "calls", "op"),
    ("codegraph.parse_failed", "count", "lower", ("codegraph.parse",), "error", "op"),
    ("embedding.embed_ms", "ms", "lower", ("embedding.embed",), "self", "op"),
    ("vindex.insert_us", "us", "lower", ("vindex.insert",), "us", "call"),
    ("vindex.save_ms", "ms", "lower", ("vindex.save",), "self", "call"),
    ("vindex.bytes_written", "bytes", "lower", ("vindex.save",), "bytes", "call"),
    ("vindex.load_ms", "ms", "lower", ("vindex.load",), "self", "call"),
    ("vindex.search_ms", "ms", "lower", ("vindex.search",), "self", "call"),
    ("vindex.records_scanned", "count", "lower", ("vindex.search",), "records", "call"),
    ("vindex.lookup_ms", "ms", "lower", ("vindex.lookup",), "self", "op"),
    ("fusion.score_ms", "ms", "lower", ("fusion.score",), "self", "call"),
    ("fusion.assemble_ms", "ms", "lower", ("fusion.assemble",), "self", "call"),
    ("fusion.items_scored", "count", "lower", ("fusion.score",), "items", "call"),
    ("fusion.items_dropped", "count", "lower", ("fusion.assemble",), "dropped", "call"),
    ("fusion.tokens_used", "count", "lower", ("fusion.assemble",), "used", "call"),
    ("fusion.budget", "count", "higher", ("fusion.assemble",), "budget", "call"),
    ("layoutlint.parse_ms", "ms", "lower", ("layoutlint.parse",), "self", "call"),
    ("layoutlint.graph_ms", "ms", "lower", ("layoutlint.graph",), "self", "call"),
    ("layoutlint.describe_ms", "ms", "lower", ("layoutlint.describe",), "self", "call"),
    ("layoutlint.detect_ms", "ms", "lower", ("layoutlint.detect",), "self", "call"),
    ("layoutlint.edges", "count", "lower", ("layoutlint.graph",), "edges", "call"),
    ("layoutlint.findings", "count", "lower", ("layoutlint.detect",), "findings", "call"),
)

# Throughputs: (name, spans, counter) -> total counter / total span duration.
RATE_METRICS = (
    ("simulate.tasks_per_s", ("simulate.run",), "tasks"),
    ("embedding.nodes_per_s", ("embedding.embed",), "nodes"),
)

CLI_COMMANDS = ("compare", "simulate", "index", "query", "describe-layout")


def _value(span: dict, value: str) -> float:
    if value == "self":
        return span["self_ms"]
    if value == "us":
        return span["self_ms"] * 1000.0
    if value == "calls":
        return 1
    return (span.get("counters") or {}).get(value, 0)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers from a traced run's spans (self times added)."""
    out: dict[str, float] = {}
    for name, _unit, _better, names, value, how in LAYER_METRICS:
        chosen = [s for s in spans if s["name"] in names]
        if how == "call":
            samples = [_value(s, value) for s in chosen]
        else:
            per_op: dict[int, float] = {}
            for s in chosen:
                per_op[s["op"]] = per_op.get(s["op"], 0) + _value(s, value)
            samples = list(per_op.values())
        out[name] = statistics.median(samples) if samples else 0
    for name, names, counter in RATE_METRICS:
        chosen = [s for s in spans if s["name"] in names]
        seconds = sum(s["dur_ms"] for s in chosen) / 1000.0
        out[name] = sum(_value(s, counter) for s in chosen) / seconds if seconds > 0 else 0
    for command in CLI_COMMANDS:
        roots = [s["self_ms"] for s in spans if s["name"] == f"cli.{command}"]
        out[f"cli.self_ms.{command}"] = statistics.median(roots) if roots else 0
    return out
