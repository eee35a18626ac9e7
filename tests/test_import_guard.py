"""``src/repro`` never imports a module that lives under ``tests/``.

The product package holds the compiler; the semantic oracles
(``tests/semantics/``) and the reference implementations
(``tests/oracles.py``) check it from outside.  ``tests/`` is on
``sys.path`` whenever the suite runs, so an import of an oracle from
``src/`` would pass every test here and then fail for every user.  This
check parses each product module and rejects any import whose top-level
name is a module or package under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"


def names_under_tests() -> set[str]:
    """Top-level names importable from ``tests/``: its modules and packages."""
    names = {path.stem for path in TESTS.glob("*.py")}
    names |= {path.parent.name for path in TESTS.glob("*/__init__.py")}
    return names


UNDER_TESTS = names_under_tests()


def from_tests(names: set[str]) -> set[str]:
    """The names in ``names`` that belong to ``tests/`` or look like a test module."""
    return {name for name in names if name in UNDER_TESTS or name.startswith("test_")}


def imported_top_levels(source: str) -> set[str]:
    """The first dotted component of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_guard_sees_the_test_modules():
    assert {"oracles", "semantics", "test_import_guard"} <= UNDER_TESTS
    planted = (
        "import numpy, oracles\n"
        "from semantics.stabilizer import Tableau\n"
        "from repro.graphstate import GraphState\n"
        "from . import sibling\n"
        "def f():\n"
        "    import test_future_module\n"
    )
    assert from_tests(imported_top_levels(planted)) == {
        "oracles",
        "semantics",
        "test_future_module",
    }


def test_src_never_imports_tests():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        found = from_tests(imported_top_levels(path.read_text()))
        if found:
            offenders[str(path.relative_to(ROOT))] = sorted(found)
    assert not offenders, f"product modules import test code: {offenders}"
