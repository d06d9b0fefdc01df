"""The library imports nothing outside the standard library at run time."""

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
