"""The library imports nothing outside the standard library at run time,
every name a module, demo or test imports is used there or exported,
every private top-level function or class is referred to somewhere in the
library, and every public one somewhere in the library, the demos, the
tests, the tools or the benchmark (whose tracer names the functions it
wraps in strings).  No module but `theory` imports `theory`, which only
the demos and tests use, and the package `__init__` imports no submodule,
so a command loads only the modules it runs."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqcert"
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tests/*.py"))
USERS = SCRIPTS + sorted(ROOT.glob("tools/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
TRACER = "perfbench/tracing.py"  # its spans name the functions they wrap as strings


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


def package_imports(source: str) -> set[str]:
    """The package's submodules that `source` imports, by relative or absolute name."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("eqcert.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "eqcert":
                    continue
                parts = parts[1:] or [""]
            names |= {parts[0]} if parts[0] else {alias.name for alias in node.names}
    return names


def test_package_imports_are_found():
    source = ("from __future__ import annotations\nimport json\n"
              "from . import games, lp\nfrom .theory import affine_transform\n"
              "import eqcert.report\nfrom eqcert.cli import main\n"
              "from eqcert import dynamics\n")
    assert package_imports(source) == {"games", "lp", "theory", "report", "cli",
                                       "dynamics"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_theory_imports_theory_and_init_imports_nothing(path):
    imported = package_imports(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        assert imported == set()
    elif path.stem != "theory":
        assert "theory" not in imported


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p.parent == PACKAGE
                         else str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_names(sources: dict[str, str], selects, strings=()) -> list[str]:
    """Top-level functions and classes that `selects(module, name)` picks and no module refers to.

    `sources` maps module names to their source.  A reference is a name or
    an attribute read anywhere (`_f`, `lp._f`), a name imported with
    `from`, or, in the modules named in `strings`, a string constant; one
    inside the definition itself, such as a recursive call, does not count.
    """
    defined: list[tuple[str, str]] = []
    references: list[tuple[tuple[str, str], str]] = []  # (enclosing definition, name)
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            owner = (module, getattr(statement, "name", ""))
            if (isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and selects(module, statement.name)):
                defined.append(owner)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    references.append((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    references.append((owner, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    references += [(owner, alias.name) for alias in node.names]
                elif (module in strings and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    references.append((owner, node.value))
    return [f"{module}.{name}" for module, name in defined
            if not any(ref == name and owner != (module, name) for owner, ref in references)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes that no module of `sources` refers to."""
    return unreferenced_names(
        sources, lambda module, name: name.startswith("_") and not name.startswith("__"))


def unreferenced_public_names(library: dict[str, str], users: dict[str, str],
                              strings=()) -> list[str]:
    """Public top-level functions and classes of `library` that no module of
    `library` or `users` refers to; `strings` as in `unreferenced_names`."""
    return unreferenced_names(
        {**library, **users},
        lambda module, name: module in library and not name.startswith("_"), strings)


def test_unreferenced_private_names_are_found():
    sources = {
        "a": ("def _called():\n    pass\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Lonely:\n    def _method(self):\n        pass\n"
              "def _imported():\n    pass\n"
              "def _attribute():\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "def public():\n    return _called()\n"),
        "b": "from .a import _imported\nfrom . import a\nX = a._attribute\n",
    }
    assert unreferenced_private_names(sources) == ["a._recursive", "a._Lonely"]


def test_every_private_function_and_class_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_public_names_are_found():
    library = {
        "games": ("def int_payoff_row(game):\n    return int_payoff_row(game)\n"
                  "def opponent_bases(game):\n    pass\n"
                  "def load_game(path):\n    pass\n"
                  "def _private():\n    pass\n"
                  "class Game:\n    def rows(self):\n        return opponent_bases(self)\n"),
        "zerosum": "def maximin(game):\n    return 'int_payoff_row'\n",
    }
    users = {
        "tests/test_games.py": "from eqcert.games import Game\nfrom eqcert import zerosum\n"
                               "zerosum.maximin\n",
        TRACER: 'SPANS = (("games", "load_game", "games.load"),)\n',
    }
    assert unreferenced_public_names(library, users, {TRACER}) == ["games.int_payoff_row"]
    assert unreferenced_public_names(library, users) == ["games.int_payoff_row",
                                                         "games.load_game"]


def test_every_public_function_and_class_is_referenced():
    library = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    users = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
             for path in USERS}
    assert TRACER in users
    assert unreferenced_public_names(library, users, {TRACER}) == []
