"""The benchmark in ``bench/`` reaches into the package by module attribute:
its tracer wraps every ``(module, attribute)`` of ``bench/tracing.py``'s
``TARGETS``, and ``bench/run.py`` calls ``simulator.plan(model, group)`` to
check keep counts. A rename or deletion in ``src/`` fails here, not only
when the benchmark runs. The smoke test runs both workloads of
``bench/run.py`` at 200 queries, untraced and traced; on ``train`` the
traced loss calls and batches must be counted. These tests read ``bench/``
and change nothing there."""

import ast
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

import cascade_ranker
import cascade_ranker.cli  # noqa: F401  (the package does not import its CLI)
from cascade_ranker.simulator import plan

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _targets():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_traced_bindings_resolve():
    unresolved = [
        f"{module}.{attr}" for module, attr, _ in _targets()
        if not callable(getattr(getattr(cascade_ranker, module, None), attr, None))
    ]
    assert unresolved == []


def test_plan_takes_model_and_group():
    assert "cr.simulator.plan(model, g)" in (BENCH / "run.py").read_text(encoding="utf-8")
    inspect.signature(plan).bind(object(), object())


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; it imports ``bench/tracing.py`` by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train", "replay"])
def test_workload_runs_without_failed_operations(bench_run, tmp_path, name):
    small = type(f"Small{name}", (bench_run.WORKLOADS[name],), {"n_queries": 200})
    run = bench_run.Run(bench_run.Tracer(cascade_ranker))
    workload = small(cascade_ranker, 1, tmp_path)
    run.start("setup", False)
    workload.setup(run)
    if hasattr(workload, "after_setup"):
        workload.after_setup(run)
    plain, traced = bench_run.timed_phase(workload, run, 0.0, True)
    quality = workload.quality(run)
    assert run.failed_ops == set(), run.errors
    assert plain and traced
    assert set(quality) == {"auc", "cost_ratio", "frac_above_ceiling"}
    assert all(math.isfinite(v) for v in quality.values()), quality
    if name == "train":
        # the tracer counts batches at the loss binding it wraps in the trainer
        layers = bench_run.layer_metrics(run.tracer.phases, [sum(it.values()) for it in plain],
                                         [sum(it.values()) for it in traced])
        assert layers["objective.loss_calls"] == layers["trainer.batches"] > 0
        assert layers["objective.loss_s"] > 0
