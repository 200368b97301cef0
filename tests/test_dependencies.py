"""The package needs nothing at run time beyond numpy and the standard library,
and only the finite-state lab takes dense eigendecompositions or inverses."""

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


DENSE_SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "inv", "pinv", "det", "slogdet",
                 "cholesky"}


def linalg_names(path):
    """Names that one source file takes from numpy.linalg, as ``np.linalg.<name>``
    or ``numpy.linalg.<name>`` or by ``from numpy.linalg import``, with their lines."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy")):
                yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_only_the_spectral_lab_calls_dense_solvers():
    # The sampler works on a curvature factor in O(N r); an N x N
    # eigendecomposition, inverse or determinant belongs to the finite-state
    # lab alone (and to the dense oracles under tests/).
    found = {f"{path.name}:{line}: numpy.linalg.{name}" for path in SOURCES
             if path.name != "spectral.py"
             for name, line in linalg_names(path) if name in DENSE_SOLVERS}
    assert not found, sorted(found)
    assert any(name in DENSE_SOLVERS for name, _ in linalg_names(ROOT / "src/gpcn/spectral.py"))


def gpcn_modules(path):
    """The ``gpcn`` modules that one source file imports, relative or absolute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.startswith("gpcn"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "gpcn" + (f".{module}" if module else "")
            if module.startswith("gpcn"):
                yield module
                yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("name", ["gaussian_ops", "proposals", "metropolis", "elliptic",
                                  "diagnostics"])
def test_sampler_modules_never_import_the_lab(name):
    # the lab reads the sampler's proposal law (discretize_kernel); the sampler
    # must not lean on the lab in turn
    imported = set(gpcn_modules(ROOT / "src" / "gpcn" / f"{name}.py"))
    assert "gpcn.spectral" not in imported, sorted(imported)


def test_the_lab_imports_the_sampler():
    assert "gpcn.proposals" in set(gpcn_modules(ROOT / "src" / "gpcn" / "spectral.py"))


def named(path):
    """Every name that one source file defines, reads or imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[-1] for alias in node.names)


def test_only_the_kernel_builds_a_fixed_pack():
    # A gn-rw or gpcn kernel builds its pack from its own (prior, Gamma, s), so
    # no other module can hand it one built on another prior or step size.
    # The package __init__ re-exports the builder for library callers.
    naming = {path.name for path in SOURCES if "build_operator_pack" in set(named(path))}
    assert naming - {"__init__.py"} <= {"gaussian_ops.py", "proposals.py"}, sorted(naming)


def test_the_kernel_names_the_pack_builder():
    assert "build_operator_pack" in set(named(ROOT / "src" / "gpcn" / "proposals.py"))
