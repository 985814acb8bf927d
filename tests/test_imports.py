"""Every name a package module imports is used in that module. The one
exception is a binding that ``bench/tracing.py``'s ``TARGETS`` wraps: the
tracer replaces a function at each module that binds it, so such a name may
be imported only to be traced. Deleting code often leaves an import behind;
this catches it."""

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
