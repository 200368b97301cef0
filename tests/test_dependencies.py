"""The package needs nothing at run time beyond numpy and the standard library."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gpcn").glob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_numpy_the_stdlib_and_gpcn():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy", "gpcn"}
    foreign = {f"{path.name}: {name}" for path in SOURCES for name in imported_modules(path)
               if name not in allowed}
    assert not foreign, sorted(foreign)


def test_declared_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
