"""`errors._finite`, the one overflow check every numeric result passes."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from deformspec import NumericalError
from deformspec.errors import _finite


@pytest.mark.parametrize(
    "compute",
    [lambda: 10.0**400, lambda: math.exp(1000.0), lambda: 1.0 / 0.0, lambda: 1 // 0],
    ids=["pow-overflow", "exp-overflow", "float-division", "int-division"],
)
def test_python_overflow_and_zero_division_become_numerical_error(compute):
    with pytest.raises(NumericalError, match="^the given message$"):
        _finite(compute, "the given message")


@pytest.mark.parametrize(
    "compute",
    [
        lambda: np.array([1.0, 1e308]) * 10.0,
        lambda: np.float64(1e308) * 10.0,
        lambda: np.array([0.0]) / 0.0,
        lambda: np.array([1.0, -1.0]) / 0.0,
        lambda: np.array([1e308]) @ np.array([10.0]),
        lambda: np.sum(np.full(4, 1e308)),
        lambda: float(np.sqrt(np.dot([1e308, 1e308], [10.0, 10.0]))),
        lambda: (1.0, math.inf),
    ],
    ids=["array-overflow", "scalar-overflow", "nan", "divide", "matmul", "sum", "dot", "tuple"],
)
def test_numpy_inf_or_nan_becomes_numerical_error_without_a_warning(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^overflow$"):
            _finite(compute, "overflow")


def test_numpy_error_state_is_restored():
    _finite(lambda: 1.0, "unused")
    with pytest.raises(NumericalError):
        _finite(lambda: np.array([1e308]) * 10.0, "overflow")
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.array([1e308]) * 10.0


def test_finite_values_come_back_unchanged():
    assert _finite(lambda: 2.5, "unused") == 2.5 and type(_finite(lambda: 2.5, "unused")) is float
    zero_d = np.array(-0.0)
    assert _finite(lambda: zero_d, "unused") is zero_d
    array = np.array([1.0, -2.0, 5e-324, 1.7976931348623157e308])
    assert _finite(lambda: array, "unused") is array
    assert _finite(lambda: (1.0, 2.0), "unused") == (1.0, 2.0)


def test_other_errors_propagate():
    with pytest.raises(ValueError, match="not a number"):
        _finite(lambda: float("not a number"), "unused")



def _errstate_owners(node, module, owner="<module>"):
    """(module, innermost enclosing function) of every `errstate` reference under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Attribute) and node.attr == "errstate":
        yield module, owner
    for child in ast.iter_child_nodes(node):
        yield from _errstate_owners(child, module, owner)


def test_error_state_is_set_only_by_finite_and_the_sturm_counts():
    """Every check on a computed result goes through `_finite`; only the Sturm
    counts, which need divide and invalid to raise, set numpy's error state."""
    owners = set()
    for path in (Path(__file__).parents[1] / "src" / "deformspec").glob("*.py"):
        owners.update(_errstate_owners(ast.parse(path.read_text()), path.stem))
    assert owners == {("errors", "_finite"), ("fdsolver", "_sturm_counts")}
