"""The two-route guarantee and the package's caller rules as checked properties.

The finite-difference route and the quadrature rules must reach their results
without the closed form: statically, by the modules they import, and at run
time, with the closed form and the sine basis made to raise.  Every comparison
of an estimate with {C_n} lives in `experiments`.  Every exported name has a
caller outside the tests, every parameter under `src/` is read, the CLI
imports no private name, no sampled grid has a hand-picked size, and no FD
entry point calls another.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deformspec
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

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "deformspec"
CANON = canonical_params()

# The closed form and the sine basis, by the module that defines each name.
CLOSED_FORM = {
    "deformspec.spectrum": ("eigenvalue", "wavenumber", "_deficit", "eigenfunction", "_phase", "_half_turns"),
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
    """fdsolver and quadrature reach neither spectrum nor transform, the FD
    solver no quadrature either, and the CLI takes the FD comparison from
    experiments, like every other report."""
    assert _imports(SRC / "fdsolver.py")[0] <= {"errors", "params"}
    assert _imports(SRC / "quadrature.py")[0] <= {"errors", "params"}
    assert "fdsolver" not in _imports(SRC / "cli.py")[0]


def test_the_cli_imports_no_private_name():
    """Every relative import in cli.py binds public names (dunders allowed),
    parenthesized lists included."""
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                assert not alias.name.startswith("_") or alias.name.startswith("__"), alias.name


def _uses(tree: ast.Module) -> list[tuple]:
    """(the name it defines or None, the names it loads or reads as
    attributes) for each top-level statement of tree; an import reads none."""
    uses = []
    for top in tree.body:
        defined = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        nodes = list(ast.walk(top))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        uses.append((defined, names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}))
    return uses


def test_every_export_has_a_caller_outside_the_tests():
    """A name in `__all__` is used by another library module, a demo or the
    benchmark (perfbench/tests excluded), not only by its own definition."""
    paths = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    paths += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    uses = [use for path in paths for use in _uses(ast.parse(path.read_text()))]
    called = {name for defined, names in uses for name in names - {defined}}
    assert [name for name in deformspec.__all__ if name not in called] == []


def test_every_parameter_under_src_is_read():
    """Nested functions and lambdas count as readers of the enclosing
    parameters; an augmented assignment reads its target."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = set()
            for inner in (n for statement in body for n in ast.walk(statement)):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    read.add(inner.id)
                elif isinstance(inner, ast.AugAssign) and isinstance(inner.target, ast.Name):
                    read.add(inner.target.id)
            a = node.args
            params = [arg.arg for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if arg]
            label = getattr(node, "name", f"lambda at line {node.lineno}")
            unread += [f"{path.stem}.{label}({name})" for name in params if name not in read]
    assert unread == []


def test_hbar_enters_arithmetic_only_through_hbar_over_c():
    """hbar and c combine in one place: an operand `.hbar` of arithmetic under
    src/ appears only inside OperatorParams.hbar_over_c, which the closed form
    and the FD matrix read alike."""
    operands = {ast.BinOp: ("left", "right"), ast.UnaryOp: ("operand",), ast.AugAssign: ("target", "value")}
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "OperatorParams"
            for function in cls.body
            if isinstance(function, ast.FunctionDef) and function.name == "hbar_over_c"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            for field in operands.get(type(node), ()):
                operand = getattr(node, field)
                if isinstance(operand, ast.Attribute) and operand.attr == "hbar":
                    (inside if id(node) in exempt else outside).append(f"{path.name}:{node.lineno}")
    assert outside == [] and len(inside) == 1, (outside, inside)


def test_every_uniform_grid_is_sized_from_its_inputs():
    """No `uniform_grid(...)` call under src/ has an integer-literal interval
    count: a grid that samples modes 0..N takes its size from N (through
    NODES_PER_MODE) or from a caller's count, never from a fixed number alone."""
    literal = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "uniform_grid"):
                continue
            counts = node.args[1:] + [k.value for k in node.keywords if k.arg == "m"]
            if any(isinstance(count, ast.Constant) and isinstance(count.value, int) for count in counts):
                literal.append(f"{path.name}:{node.lineno}")
    assert literal == []


def test_no_fdsolver_function_calls_a_public_one():
    """No module-level function of fdsolver, public or private, calls a public
    one: perfbench's tracer derives the FD work counts from the arguments of
    public calls, so a nested call would count the same Sturm work twice."""
    tree = ast.parse((SRC / "fdsolver.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    public = {function.name for function in functions if not function.name.startswith("_")}
    nested = [
        f"{function.name} -> {node.func.id}"
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in public
    ]
    assert nested == []


def test_no_module_imports_scipy_or_mpmath():
    for path in SRC.rglob("*.py"):
        assert not _imports(path)[1] & {"scipy", "mpmath"}, path.name


def test_no_module_uses_numpy_random():
    """No `random` attribute and no import of numpy.random under src/: on
    NumPy >= 2, which loads it lazily, its import alone adds about 5 MB to a
    process."""
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "random", f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
                assert node.module != "numpy.random" and "random" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.Import):
                assert "numpy.random" not in [a.name for a in node.names], path.name


def test_fd_eigenvectors_never_import_numpy_random():
    """The benchmark's path: the CLI imported, the ten top vectors at m = 2000.
    NumPy 1.x imports numpy.random with numpy itself; there only the name scan
    above can tell."""
    script = """
import sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(99)
from deformspec import canonical_params, cli, discretize, eigenvector_inverse_iteration, top_eigenvalues
cli.run(["--version"])
A = discretize(canonical_params(), 2000)
vectors = [eigenvector_inverse_iteration(A, lam) for lam in top_eigenvalues(A, 10)]
assert len(vectors) == 10 and "numpy.random" not in sys.modules, sorted(sys.modules)
"""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    if done.returncode == 99:
        pytest.skip(f"numpy.random is loaded with numpy {np.__version__}, before deformspec")
    assert done.returncode == 0, done.stderr


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
