"""Every public definition in ``src/repro`` is reached from outside itself.

A public top-level function or class stays only if something other than
the tests uses it: another ``src/repro`` module (its own module counts,
outside the definition's body), a paper benchmark, perfbench or an
example.  Package ``__init__`` re-exports do not count, and neither do
mentions in docstrings or comments: a reference is a name, an attribute
or an imported name in the syntax tree.  The check is by name, so a
definition that shares its name with something live passes; it is a
floor against dead code growing back, not a proof of reachability.

``ALLOWED`` lists the few definitions only the tests call, each with the
reason it stays.  The field-level counterpart of this census is
``test_settable_fields_census`` in ``tests/test_config.py``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OUTSIDE_SRC = ("benchmarks", "perfbench", "examples")

ALLOWED = {
    "clear_workspaces": "test teardown for the live im2col workspace pool",
    "assert_no_leaked_segments": (
        "test teardown gate for the live shared-memory segment registry"
    ),
}


def _names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


@functools.cache
def _unreached() -> dict[str, str]:
    """``{name: "module.py:line"}`` of public defs nothing else references."""
    outside: set[str] = set()
    for folder in OUTSIDE_SRC:
        for path in (ROOT / folder).rglob("*.py"):
            outside |= _names(ast.parse(path.read_text()))
    # name -> the (module, statement) pairs whose code references it
    users: dict[str, set[tuple[Path, int]]] = {}
    defs: list[tuple[Path, int, ast.stmt]] = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            for name in _names(stmt):
                users.setdefault(name, set()).add((path, index))
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not stmt.name.startswith("_"):
                defs.append((path, index, stmt))
    unreached = {}
    for path, index, stmt in defs:
        if stmt.name in outside or users.get(stmt.name, set()) - {(path, index)}:
            continue
        unreached[stmt.name] = f"{path.relative_to(SRC)}:{stmt.lineno}"
    return unreached


def test_every_public_definition_is_reached():
    unreached = {
        name: where for name, where in _unreached().items() if name not in ALLOWED
    }
    assert not unreached, (
        "public definitions only tests reach (delete them with their tests, "
        f"or add them to ALLOWED with a reason): {unreached}"
    )


def test_allowlist_is_current():
    """Each allowed name still exists and still needs its exemption."""
    assert set(ALLOWED) <= set(_unreached())
