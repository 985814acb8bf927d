"""Every name a package module imports is used in that module. The one
exception is a binding that ``bench/tracing.py``'s ``TARGETS`` wraps: the
tracer replaces a function at each module that binds it, so such a name may
be imported only to be traced. Deleting code often leaves an import behind;
this catches it.

Only ``core`` tells a ``PackedDataset`` from a list of groups: every other
module hands its data to ``pack_groups``, which returns a ``PackedDataset``
unchanged. Only ``core`` calls the ``PackedDataset`` constructor: every
other module builds one through ``PackedDataset.from_columns``, the one
code that derives its offsets and binary labels. ``pack_groups`` is also
the one function that holds the rules for a group's block of rows, so no
other function may hold their messages. Likewise ``check_domains`` is the one
reader of the domain tables, so no other function may hold a domain message:
an array's rule says "must all be" instead."""

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


def packed_constructor_lines(source: str) -> list[int]:
    """The lines of ``source`` that call ``PackedDataset`` itself, by name or
    as a module attribute; ``PackedDataset.from_columns(...)`` is not one."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == "PackedDataset"
             or isinstance(node.func, ast.Attribute) and node.func.attr == "PackedDataset")
    ]


def test_finds_a_packed_constructor_call():
    source = ("a = PackedDataset.from_columns(X, y)\nb = PackedDataset(X=X)\n"
              "c = core.PackedDataset(X=X)\n")
    assert packed_constructor_lines(source) == [2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "core"], ids=lambda p: p.stem)
def test_only_core_calls_the_packed_constructor(path):
    assert packed_constructor_lines(path.read_text(encoding="utf-8")) == []


# the messages of the block rules, with ``...`` for each formatted field
BLOCK_RULE_MESSAGES = (
    "do not form one block of rows",
    "labels must be 0 (none), 1 (click) or 2 (purchase)",
    "group ...: recalled_count must be >= 1",
)


# the fixed parts of the messages of a number outside its domain
DOMAIN_MESSAGES = ("must be finite", "must be in [", "must be in (")


def block_rule_holders(source: str, messages=BLOCK_RULE_MESSAGES) -> set[tuple[str, str]]:
    """The (function, message) pairs of ``source``: each function whose body
    holds a string, or an f-string with ``...`` for its fields, that contains
    one of ``messages``; code outside any function is ``<module>``."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "..."
                           for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            text = ""
        found.update((where, m) for m in messages if m in text.replace("{}", "..."))
        if not isinstance(node, ast.JoinedStr):
            for child in ast.iter_child_nodes(node):
                visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_finds_a_block_rule_message():
    source = ("def check(g):\n    raise ValueError(f'group {g}: recalled_count must be >= 1')\n"
              "BAD = 'group {}: labels must be 0 (none), 1 (click) or 2 (purchase)'\n")
    assert block_rule_holders(source) == {
        ("check", "group ...: recalled_count must be >= 1"),
        ("<module>", "labels must be 0 (none), 1 (click) or 2 (purchase)"),
    }


def test_only_pack_groups_holds_the_block_rules():
    holders = {(path.stem, where, message) for path in MODULES
               for where, message in block_rule_holders(path.read_text(encoding="utf-8"))}
    assert holders == {("core", "pack_groups", m) for m in BLOCK_RULE_MESSAGES}


def test_finds_a_domain_message():
    source = ("def check(x):\n    raise ValueError(f'x must be in [0, 1], got {x}')\n"
              "def weights(w):\n    \"\"\"Weights must all be finite.\"\"\"\n")
    assert block_rule_holders(source, DOMAIN_MESSAGES) == {("check", "must be in [")}


def test_only_check_domains_holds_the_domain_messages():
    # its "must be in" message formats the interval, so only "must be finite" shows
    holders = {(path.stem, where, message) for path in MODULES
               for where, message in block_rule_holders(path.read_text(encoding="utf-8"),
                                                        DOMAIN_MESSAGES)}
    assert holders == {("core", "check_domains", "must be finite")}
