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

The same syntax trees, over ``tests/`` too, pin the import side: a
module-level import whose bound name its module never uses fails, so
an import left behind by a deleted or moved caller goes with it.
``UNUSED_IMPORTS_ALLOWED`` lists the few kept on purpose.
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

#: ``(path from the repo root, bound name)`` -> why the import stays.
UNUSED_IMPORTS_ALLOWED = {
    ("src/repro/dsp/pipeline.py", "replace_outliers"): (
        "perfbench's tracer wraps it on the pipeline module"
    ),
}


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """The parsed modules of ``src/repro``, ``tests/`` and outside ``src``."""
    folders = (SRC, ROOT / "tests", *(ROOT / name for name in OUTSIDE_SRC))
    return {
        path: ast.parse(path.read_text())
        for folder in folders
        for path in sorted(folder.rglob("*.py"))
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
    trees = _trees()
    outside: set[str] = set()
    for path, tree in trees.items():
        if path.relative_to(ROOT).parts[0] in OUTSIDE_SRC:
            outside |= _names(tree)
    # name -> the (module, statement) pairs whose code references it
    users: dict[str, set[tuple[Path, int]]] = {}
    defs: list[tuple[Path, int, ast.stmt]] = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        for index, stmt in enumerate(tree.body):
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


def _module_imports(body: list[ast.stmt]):
    """Import statements at module level, also under ``if TYPE_CHECKING:``."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body + stmt.orelse)


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module loads, including in string annotations and ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            annotations = []
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _names(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                sub.value for sub in ast.walk(node.value)
                if isinstance(sub, ast.Constant)
            }
    return used


@functools.cache
def _unused_imports() -> dict[tuple[str, str], int]:
    """``{(path, bound name): line}`` of module-level imports never used."""
    unused = {}
    for path, tree in _trees().items():
        used = _used_names(tree)
        for stmt in _module_imports(tree.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*" and name not in used:
                    unused[(path.relative_to(ROOT).as_posix(), name)] = stmt.lineno
    return unused


def test_no_unused_module_imports():
    unused = {
        f"{path}:{line} {name}"
        for (path, name), line in _unused_imports().items()
        if (path, name) not in UNUSED_IMPORTS_ALLOWED
    }
    assert not unused, (
        "module-level imports whose name the module never uses (delete "
        f"them, or add them to UNUSED_IMPORTS_ALLOWED with a reason): {sorted(unused)}"
    )


def test_unused_import_allowlist_is_current():
    assert set(UNUSED_IMPORTS_ALLOWED) <= set(_unused_imports())
