"""Every name a package module imports is used in that module. The one
exception is a binding that ``bench/tracing.py``'s ``TARGETS`` wraps: the
tracer replaces a function at each module that binds it, so such a name may
be imported only to be traced. Deleting code often leaves an import behind;
this catches it.

Only ``core`` tells a ``PackedDataset`` from a list of groups: every other
module hands its data to ``pack_groups``, which returns a ``PackedDataset``
unchanged."""

import ast
from pathlib import Path

import pytest

from test_bench_bindings import _targets

SRC = Path(__file__).resolve().parents[1] / "src" / "cascade_ranker"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == ["math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    traced = {attr for module, attr, _ in _targets() if module == path.stem}
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if name not in traced] == []


def packed_isinstance_lines(source: str) -> list[int]:
    """The lines of ``source`` that call ``isinstance`` with ``PackedDataset``
    in its second argument."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "PackedDataset"
                for n in ast.walk(node.args[1]))
    ]


def test_finds_a_packed_isinstance():
    source = "x = 1\nif isinstance(d, (list, PackedDataset)):\n    pass\n"
    assert packed_isinstance_lines(source) == [2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "core"], ids=lambda p: p.stem)
def test_only_core_tests_for_packed_data(path):
    assert packed_isinstance_lines(path.read_text(encoding="utf-8")) == []
