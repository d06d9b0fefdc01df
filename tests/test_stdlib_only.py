"""The library imports nothing outside the standard library at run time,
and every name a module imports is used there or exported."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqcert"
MODULES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level names of the modules that `path` imports by absolute name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_module_is_checked():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = [name for name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level `__all__`."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports but never reads and does not export."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | _exported(tree)]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from .lp import OPTIMAL, EQUAL\nfrom . import games\n"
              "__all__ = ['games']\n"
              "def f(x: EQUAL) -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["j", "OPTIMAL"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
