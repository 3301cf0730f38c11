"""The two-route guarantee as checked properties.

The finite-difference route and the quadrature rules must reach their results
without the closed form: statically, by the modules they import, and at run
time, with the closed form and the sine basis made to raise.  Every comparison
of an estimate with {C_n} lives in `experiments`.
"""

import ast
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from deformspec import (
    canonical_params,
    composite_simpson_rule,
    discretize,
    eigenvalues_tridiagonal,
    eigenvector_inverse_iteration,
    gauss_legendre_rule,
    top_eigenvalues,
)
from deformspec.quadrature import _unit_gauss_legendre

SRC = Path(__file__).parents[1] / "src" / "deformspec"
CANON = canonical_params()

# The closed form and the sine basis, by the module that defines each name.
CLOSED_FORM = {
    "deformspec.spectrum": ("eigenvalue", "wavenumber", "_deficit", "eigenfunction", "sinpi", "_phase", "_half_turns"),
    "deformspec.transform": ("_sine_tables", "_sine_sums", "project", "evaluate"),
}


def _imports(path: Path) -> tuple[set, set]:
    """(package modules, top-level outside packages) that the file at path imports."""
    package, outside = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".")
            if parts[0] == "deformspec":
                package.update(parts[1:2] or [a.name for a in node.names])
            outside.add(parts[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                package.update(parts[1:2] if parts[0] == "deformspec" else [])
                outside.add(parts[0])
    return package, outside


def test_the_estimate_modules_import_no_closed_form():
    """fdsolver and quadrature reach neither spectrum nor transform, and the
    CLI takes the FD comparison from experiments, like every other report."""
    assert _imports(SRC / "fdsolver.py")[0] <= {"errors", "params", "quadrature"}
    assert _imports(SRC / "quadrature.py")[0] <= {"errors", "params"}
    assert "fdsolver" not in _imports(SRC / "cli.py")[0]


def test_no_module_imports_scipy_or_mpmath():
    for path in SRC.rglob("*.py"):
        assert not _imports(path)[1] & {"scipy", "mpmath"}, path.name


def test_the_fd_comparison_is_defined_only_in_experiments():
    owners = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                owners.setdefault(name, set()).add(path.stem)
    for name in ("refinement_study", "FDSpectrumReport", "FD_MAX_INTERIOR_POINTS"):
        assert owners[name] == {"experiments"}, name


class RouteViolation(AssertionError):
    """The estimate reached a function it must not use."""


def _raises(label):
    def poisoned(*args, **kwargs):
        raise RouteViolation(f"{label} called on an estimate route")

    return poisoned


@pytest.fixture
def poison(monkeypatch):
    """``poison(trig)`` makes every closed-form and sine-basis function raise,
    in every deformspec namespace that binds it (``from ... import`` binds a
    name per module), and with trig also numpy's and math's sin and cos."""

    def install(trig: bool):
        labels = {}
        for module_name, names in CLOSED_FORM.items():
            module = importlib.import_module(module_name)
            labels.update({getattr(module, name): f"{module_name}.{name}" for name in names})
        patched = set()
        for module_name, module in list(sys.modules.items()):
            if module_name != "deformspec" and not module_name.startswith("deformspec."):
                continue
            for name, value in list(vars(module).items()):
                if callable(value) and value in labels:
                    monkeypatch.setattr(module, name, _raises(labels[value]))
                    patched.add((module_name, name))
        # the defining module and one that imports the name
        assert {("deformspec.spectrum", "eigenvalue"), ("deformspec", "eigenvalue")} <= patched
        if trig:
            for module in (np, math):
                for name in ("sin", "cos"):
                    monkeypatch.setattr(module, name, _raises(f"{module.__name__}.{name}"))

    return install


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fd_eigenpairs_run_without_the_closed_form_or_trig(poison):
    A, small = discretize(CANON, 2000), discretize(CANON, 250)
    top = top_eigenvalues(A, 10)
    every = eigenvalues_tridiagonal(small)
    vectors = [eigenvector_inverse_iteration(A, lam) for lam in top[:3]]
    poison(trig=True)
    with pytest.raises(RouteViolation):
        np.sin(0.0)
    with pytest.raises(RouteViolation):
        importlib.import_module("deformspec.spectrum").eigenvalue(CANON, 0)
    A, small = discretize(CANON, 2000), discretize(CANON, 250)
    assert _same_bits(top_eigenvalues(A, 10), top)
    assert _same_bits(eigenvalues_tridiagonal(small), every)
    for lam, want in zip(top[:3], vectors):
        assert _same_bits(eigenvector_inverse_iteration(A, lam), want)


def test_quadrature_rules_run_without_the_closed_form(poison):
    """Without trig poisoned: the Legendre-root start is a cosine."""
    gauss, simpson = gauss_legendre_rule(CANON, 4096), composite_simpson_rule(CANON, 16385)
    poison(trig=False)
    with pytest.raises(RouteViolation):
        importlib.import_module("deformspec.transform").evaluate(None, None)
    _unit_gauss_legendre.cache_clear()
    rebuilt = gauss_legendre_rule(CANON, 4096)
    assert _unit_gauss_legendre.cache_info().misses == 1
    assert _same_bits(rebuilt.nodes, gauss.nodes) and _same_bits(rebuilt.weights, gauss.weights)
    again = composite_simpson_rule(CANON, 16385)
    assert _same_bits(again.nodes, simpson.nodes) and _same_bits(again.weights, simpson.weights)
