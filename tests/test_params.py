import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    CRITICAL_VELOCITY_RATIO,
    DecayModel,
    DomainError,
    OperatorParams,
    QuadratureRule,
    TridiagonalSymmetricMatrix,
    ValidationError,
    canonical_params,
    custom_params,
    deformation_profile,
    fd_derivative,
    gauss_legendre_rule,
    project,
    si_params,
    top_eigenvalues,
    uniform_grid,
)


def test_canonical_values():
    p = canonical_params()
    assert p.hbar == 1.0 and p.c == 1.0
    assert p.v_c == pytest.approx(math.sqrt(1.0 - 1.0 / math.pi), rel=1e-15)
    assert p.v_c == pytest.approx(0.8256452711765563, rel=1e-15)
    # four-digit value commonly quoted for sqrt(1 - 1/pi)
    assert p.v_c == pytest.approx(0.8257, abs=1e-4)
    assert p.unit_mode == "dimensionless"


def test_canonical_gamma():
    p = canonical_params()
    assert p.gamma == pytest.approx(1.0 / p.v_c, rel=1e-15)
    assert p.gamma == pytest.approx(1.211175, abs=5e-6)


def test_profile_at_critical_velocity_is_one():
    p = canonical_params()
    assert deformation_profile(p, p.v_c) == pytest.approx(1.0, abs=1e-12)
    assert deformation_profile(p, -p.v_c) == pytest.approx(1.0, abs=1e-12)


def test_profile_center_and_midpoint():
    p = canonical_params()
    assert deformation_profile(p, 0.0) == math.pi
    # oracle: direct evaluation pi*(1 - (v_c/2)^2)
    assert deformation_profile(p, p.v_c / 2) == pytest.approx(2.6061944901923453, rel=1e-14)
    assert deformation_profile(p, p.v_c / 2) == pytest.approx(2.60622, abs=1e-4)


def test_profile_domain_error():
    p = canonical_params()
    with pytest.raises(DomainError):
        deformation_profile(p, p.v_c * 1.0000001)
    with pytest.raises(DomainError):
        deformation_profile(p, np.array([0.0, -2.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v", [math.nan, np.array([0.0, math.nan, 0.5])], ids=["scalar", "array"])
def test_profile_rejects_nan(v):
    with pytest.raises(DomainError, match="v = nan"):
        deformation_profile(canonical_params(), v)


def test_custom_params_gamma():
    p = custom_params(0.1, 1.0, 0.8256453)
    assert p.gamma == pytest.approx(0.1 / 0.8256453, rel=1e-15)
    assert p.gamma == pytest.approx(0.1211175, abs=1e-6)


@pytest.mark.parametrize(
    "hbar,c,v_c,message",
    [
        (1.0, 1.0, 1.5, "v_c must be < c"),
        (0.0, 1.0, 0.5, "hbar must be positive"),
        (-1.0, 1.0, 0.5, "hbar must be positive"),
        (1.0, -2.0, 0.5, "c must be positive"),
        (1.0, 1.0, 0.0, "v_c must be positive"),
        (1.0, 2.0, 1e-320, "v_c must be a normal float"),
        (1.0, 1.7976931348623157e308, 1.7e308, "whose double is finite"),
    ],
)
def test_custom_params_validation(hbar, c, v_c, message):
    with pytest.raises(ValidationError, match=message):
        custom_params(hbar, c, v_c)


@pytest.mark.parametrize("c, v_c", [(2.0, 2.2250738585072014e-308), (1.7976931348623157e308, 8.98e307)])
def test_v_c_range_ends_accepted(c, v_c):
    assert custom_params(1.0, c, v_c).v_c == v_c


def test_si_params():
    p = si_params()
    assert p.unit_mode == "SI"
    assert p.v_c == pytest.approx(CRITICAL_VELOCITY_RATIO * p.c, rel=1e-15)
    assert p.v_c < p.c


def test_params_immutable():
    p = canonical_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.v_c = 0.5


@settings(max_examples=100, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0))
def test_profile_even_and_bounded(t):
    p = canonical_params()
    v = t * p.v_c
    value = deformation_profile(p, v)
    assert deformation_profile(p, -v) == value  # exact parity: depends on v only via v**2
    assert 1.0 - 1e-12 <= value <= math.pi + 1e-12


@settings(max_examples=50, deadline=None)
@given(i=st.integers(min_value=0, max_value=1000), j=st.integers(min_value=0, max_value=1000))
def test_profile_strictly_decreasing_in_speed(i, j):
    p = canonical_params()
    lo, hi = sorted((i, j))
    if lo != hi:
        assert deformation_profile(p, hi / 1000 * p.v_c) < deformation_profile(p, lo / 1000 * p.v_c)


def test_profile_attains_both_bounds():
    p = canonical_params()
    values = deformation_profile(p, np.linspace(-p.v_c, p.v_c, 101))
    assert np.max(values) == math.pi
    assert np.min(values) == pytest.approx(1.0, abs=1e-12)


def _two_by_two():
    return TridiagonalSymmetricMatrix(diag=np.ones(2), offdiag=np.ones(1))


# One input check per case, each pinned by its message.
INPUT_CHECKS = {
    "matrix-non-finite": (
        lambda: TridiagonalSymmetricMatrix(diag=np.array([1.0, np.nan]), offdiag=np.zeros(1)),
        "entries must be finite",
    ),
    "top-count-zero": (lambda: top_eigenvalues(_two_by_two(), 0), "count must be in"),
    "top-count-above-dim": (lambda: top_eigenvalues(_two_by_two(), 3), "count must be in"),
    "unit-mode-unknown": (lambda: OperatorParams(1.0, 1.0, 0.5, "natural"), "unit_mode must be one of"),
    "dimensionless-hbar": (
        lambda: OperatorParams(2.0, 3.0, CRITICAL_VELOCITY_RATIO, "dimensionless"),
        "requires hbar = c = 1",
    ),
    "dimensionless-v_c": (lambda: OperatorParams(1.0, 1.0, 0.5, "dimensionless"), "requires v_c = sqrt"),
    "grid-one-point": (lambda: uniform_grid(canonical_params(), 0), "m >= 2 intervals"),
    "rule-shapes": (lambda: QuadratureRule(np.zeros(3), np.ones(2)), "1-d arrays of equal length"),
    "rule-zero-weight": (lambda: QuadratureRule(np.arange(3.0), np.array([1.0, 0.0, 1.0])), "weights positive"),
    "samples-2d": (lambda: fd_derivative(canonical_params(), np.zeros((9, 9)), 1), "in a 1-d array"),
    "samples-non-finite": (
        lambda: fd_derivative(canonical_params(), np.array([0.0] * 4 + [np.inf] + [0.0] * 4), 1),
        "sampled values must be finite",
    ),
    "project-negative-n_max": (
        lambda: project(canonical_params(), np.cos, -1, gauss_legendre_rule(canonical_params(), 64)),
        "n_max must be >= 0",
    ),
    "decay-negative-n_max": (lambda: DecayModel(1.0, 1.0, -1), "n_max must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    build, message = INPUT_CHECKS[case]
    with pytest.raises(ValidationError, match=message):
        build()
