"""The benchmark in ``bench/`` reaches into the package by module attribute:
its tracer wraps every ``(module, attribute)`` of ``bench/tracing.py``'s
``TARGETS``, and ``bench/run.py`` calls ``simulator.plan(model, group)`` to
check keep counts. A rename or deletion in ``src/`` fails here, not only
when the benchmark runs. This test reads ``bench/`` and changes nothing."""

import ast
import inspect
from pathlib import Path

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
