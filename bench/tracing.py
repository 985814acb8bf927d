"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at every
module that binds it (``trainer.loss``, ``objective.batch_log_pass``,
``simulator.batch_log_pass``, ...), because a module that imported a name
keeps its own reference. ``Tracer.uninstall`` puts the originals back, so
untraced runs execute the unmodified package.

Spans are kept in memory as ``(id, parent_id, name, start_ns, end_ns)``
tuples and written out once at the end of the run. The package is
single-threaded here (the simulator's thread pool is off), so a plain stack
gives each span its parent.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from collections import defaultdict

# (module name, attribute, span name). One span name per function, whichever
# module's binding the call went through.
TARGETS = (
    ("datagen", "generate", "datagen.generate"),
    ("cli", "generate", "datagen.generate"),
    ("datagen", "write_dataset", "datagen.write_dataset"),
    ("cli", "write_dataset", "datagen.write_dataset"),
    ("datagen", "read_dataset", "datagen.read_dataset"),
    ("cli", "read_dataset", "datagen.read_dataset"),
    ("core", "pack_groups", "core.pack_groups"),
    ("cascade", "pack_groups", "core.pack_groups"),
    ("objective", "pack_groups", "core.pack_groups"),
    ("trainer", "pack_groups", "core.pack_groups"),
    ("evaluator", "pack_groups", "core.pack_groups"),
    ("simulator", "pack_groups", "core.pack_groups"),
    ("cli", "pack_groups", "core.pack_groups"),
    ("cascade", "batch_log_pass", "cascade.batch_log_pass"),
    ("objective", "batch_log_pass", "cascade.batch_log_pass"),
    ("simulator", "batch_log_pass", "cascade.batch_log_pass"),
    ("objective", "loss", "objective.loss"),
    ("trainer", "loss", "objective.loss"),
    ("evaluator", "expected_cost", "objective.expected_cost"),
    ("evaluator", "per_query_expectations", "objective.per_query_expectations"),
    ("trainer", "train", "trainer.train"),
    ("evaluator", "train", "trainer.train"),
    ("cli", "train", "trainer.train"),
    ("trainer", "save_model", "trainer.save_model"),
    ("cli", "save_model", "trainer.save_model"),
    ("trainer", "load_model", "trainer.load_model"),
    ("cli", "load_model", "trainer.load_model"),
    ("evaluator", "macro_auc", "evaluator.macro_auc"),
    ("evaluator", "evaluate", "evaluator.evaluate"),
    ("cli", "evaluate", "evaluator.evaluate"),
    ("simulator", "plan", "simulator.plan"),
    ("simulator", "serve_query", "simulator.serve_query"),
    ("simulator", "simulate", "simulator.simulate"),
    ("cli", "simulate", "simulator.simulate"),
    ("cli", "cmd_datagen", "cli.datagen"),
    ("cli", "cmd_train", "cli.train"),
)


def _count_rows(counts, args, kwargs, result):
    counts["cascade.rows"] += args[1].n_instances


def _count_batches(counts, args, kwargs, result):
    want_grad = kwargs.get("want_grad", args[4] if len(args) > 4 else True)
    if want_grad:
        counts["trainer.batches"] += 1


def _count_survivors(counts, args, kwargs, result):
    counts["simulator.entrants"] += result.stage_entrants[0]
    counts["simulator.survivors"] += len(result.ranking)


def _count_file_bytes(counts, args, kwargs, result):
    counts["datagen.file_bytes"] = os.path.getsize(args[0])


ON_RESULT = {
    "cascade.batch_log_pass": _count_rows,
    "objective.loss": _count_batches,
    "simulator.serve_query": _count_survivors,
    "datagen.read_dataset": _count_file_bytes,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.phases: list[tuple[str, list, dict]] = []   # (label, spans, counts)
        self._spans: list = []
        self._counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, name, fn):
        on_result = ON_RESULT.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans, stack = self._spans, self._stack
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(self._counts, args, kwargs, result)
            return result

        return wrapper

    def begin(self, label: str) -> None:
        """Start a phase (a set-up or one timed iteration) with fresh spans."""
        self._spans, self._counts, self._stack = [], defaultdict(int), []
        self.phases.append((label, self._spans, self._counts))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in TARGETS:
            module = getattr(self.package, mod_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def write(self, path) -> None:
        """All spans of all phases, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("phase\tid\tparent\tname\tstart_ns\tend_ns\n")
            for label, spans, _ in self.phases:
                for sid, parent, name, start, end in spans:
                    fh.write(f"{label}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def summarize(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one phase: inclusive and self seconds per span
    name, call counts, and the ratios the benchmark reports."""
    incl = defaultdict(int)
    child = defaultdict(int)          # span id -> time covered by its children
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    under_sim = [False] * len(spans)
    serve_us = []
    for sid, parent, name, start, end in spans:
        dur = end - start
        incl[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
        under_sim[sid] = name == "simulator.simulate" or (parent >= 0 and under_sim[parent])
        if name == "simulator.serve_query":
            serve_us.append(dur / 1e3)
    for sid, parent, name, start, end in spans:
        self_ns[name] += (end - start) - child[sid]
    sim_log_passes = sum(
        1 for sid, _, name, _, _ in spans if name == "cascade.batch_log_pass" and under_sim[sid]
    )

    def s(ns):
        return ns / 1e9

    n_queries = calls["simulator.serve_query"]
    p50, p99 = _percentiles(serve_us)
    return {
        "evaluator.macro_auc_s": s(incl["evaluator.macro_auc"]),
        "evaluator.macro_auc_calls": calls["evaluator.macro_auc"],
        "simulator.plan_s": s(incl["simulator.plan"]),
        "simulator.serve_query_s": s(incl["simulator.serve_query"]),
        "simulator.serve_query_p50_us": p50,
        "simulator.serve_query_p99_us": p99,
        "simulator.simulate_self_s": s(self_ns["simulator.simulate"]),
        "simulator.log_pass_per_query": sim_log_passes / n_queries if n_queries else 0.0,
        "simulator.survivor_ratio": (
            counts["simulator.survivors"] / counts["simulator.entrants"]
            if counts["simulator.entrants"] else 0.0
        ),
        "cascade.log_pass_s": s(incl["cascade.batch_log_pass"]),
        "cascade.log_pass_calls": calls["cascade.batch_log_pass"],
        "cascade.rows_per_call": (
            counts["cascade.rows"] / calls["cascade.batch_log_pass"]
            if calls["cascade.batch_log_pass"] else 0.0
        ),
        "objective.loss_s": s(incl["objective.loss"]),
        "objective.loss_calls": calls["objective.loss"],
        "objective.expectations_s": s(
            incl["objective.expected_cost"] + incl["objective.per_query_expectations"]
        ),
        "trainer.train_self_s": s(self_ns["trainer.train"]),
        "trainer.batches": counts["trainer.batches"],
        "trainer.model_io_s": s(incl["trainer.save_model"] + incl["trainer.load_model"]),
        "core.pack_s": s(incl["core.pack_groups"]),
        "core.pack_calls": calls["core.pack_groups"],
        "datagen.generate_s": s(incl["datagen.generate"]),
        "datagen.write_s": s(incl["datagen.write_dataset"]),
        "datagen.read_s": s(incl["datagen.read_dataset"]),
        "datagen.file_mb": counts["datagen.file_bytes"] / 1e6,
        "evaluator.evaluate_self_s": s(self_ns["evaluator.evaluate"]),
        "cli.datagen_s": s(incl["cli.datagen"]),
        "cli.train_s": s(incl["cli.train"]),
    }


def _percentiles(values):
    """(p50, p99) by the nearest-rank rule; zeros when there are no values."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    return (statistics.median(ordered), ordered[min(n - 1, max(0, -(-99 * n // 100) - 1))])


# Ratios and percentiles describe the timed iterations alone; every other
# per-layer figure is additive and also counts the traced set-up.
NOT_ADDITIVE = frozenset({
    "simulator.serve_query_p50_us", "simulator.serve_query_p99_us",
    "simulator.log_pass_per_query", "simulator.survivor_ratio",
    "cascade.rows_per_call", "datagen.file_mb",
})


def layer_metrics(phases, plain_seconds, traced_seconds) -> dict[str, float]:
    """Per-layer metrics of a traced run: the traced set-up plus the median
    traced iteration, metric by metric, and the tracing overhead (median
    traced minus median untraced iteration seconds)."""
    setup = [summarize(spans, counts) for label, spans, counts in phases if label == "setup"]
    iters = [summarize(spans, counts) for label, spans, counts in phases if label.startswith("iter")]
    if not iters or not plain_seconds or not traced_seconds:
        return {}
    out = {}
    for name in iters[0]:
        out[name] = statistics.median(it[name] for it in iters)
        if name not in NOT_ADDITIVE:
            out[name] += sum(s[name] for s in setup)
    out["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(plain_seconds)
    return out
