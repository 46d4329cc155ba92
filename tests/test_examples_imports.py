"""Every ``repro`` import in ``examples/*.py`` resolves.

The examples are documentation that runs for minutes, so no test runs
them; this one parses each file and resolves its ``repro`` imports
(module-level and function-local) without executing anything else, so
a moved or narrowed package export cannot silently break them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` binds the submodule.
        importlib.import_module(f"{module_name}.{name}")
