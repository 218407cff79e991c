"""Every third-party module the package or its tests import is declared.

The package needs only numpy at run time; scipy and pytest are test
dependencies (``pyproject.toml``'s ``test`` extra).  No package module
imports another's underscore-prefixed (private) name.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ebqkd"
TESTS = ROOT / "tests"


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.split(r"[\s\[<>=!~;]", r, maxsplit=1)[0].lower().replace("-", "_") for r in requirements}


def _project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _third_party_imports(path: Path, local: set[str]) -> set[str]:
    """Top-level names of the absolute imports in ``path`` that are neither stdlib nor local."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_are_runtime_dependencies(path):
    imported = _third_party_imports(path, {"ebqkd"})
    assert imported <= _requirement_names(_project()["dependencies"])


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_imports_are_declared(path):
    project = _project()
    declared = _requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])
    local = {"ebqkd"} | {p.stem for p in TESTS.glob("*.py")}
    assert _third_party_imports(path, local) <= declared


def test_runtime_dependencies_are_numpy_only():
    assert _requirement_names(_project()["dependencies"]) == {"numpy"}


def _private_package_imports(path: Path) -> list[str]:
    """``module.name`` for each underscore-prefixed name ``path`` imports from an ebqkd module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "ebqkd"):
            found += [f"{node.module or '.'}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_no_private_names(path):
    """A name with a leading underscore stays inside the module that defines it."""
    assert _private_package_imports(path) == []
