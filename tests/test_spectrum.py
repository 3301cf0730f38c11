import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    DomainError,
    NumericalError,
    ValidationError,
    asymptotic_coefficient,
    asymptotic_eigenvalue,
    canonical_params,
    count_interior_zeros,
    critical_index,
    custom_params,
    eigenfunction,
    eigenvalue,
    gauss_legendre_rule,
    si_params,
    uniform_grid,
    wavenumber,
)
from deformspec.transform import _sine_tables

CANON = canonical_params()


def test_wavenumber_values():
    assert wavenumber(CANON, 0) == pytest.approx(math.pi / (2 * CANON.v_c), rel=1e-15)
    assert wavenumber(CANON, 0) == pytest.approx(1.9025075073178697, rel=1e-14)
    assert wavenumber(CANON, 1) == pytest.approx(2 * wavenumber(CANON, 0), rel=1e-15)
    assert wavenumber(custom_params(1, 1, 0.5), 0) == pytest.approx(math.pi, rel=1e-15)


def test_wavenumber_validation():
    with pytest.raises(ValidationError):
        wavenumber(CANON, -1)
    with pytest.raises(ValidationError):
        wavenumber(CANON, 1.5)


@pytest.mark.parametrize("n", [2**63 - 1, np.uint64(2**64 - 1)], ids=["int64-max", "uint64-max"])
def test_wavenumber_at_the_largest_integers_is_positive(n):
    # n + 1 would wrap in the integer type; n + 1.0 is a float
    assert wavenumber(CANON, n) == pytest.approx((float(n) + 1.0) * math.pi / (2.0 * CANON.v_c), rel=1e-15)
    assert wavenumber(CANON, n) > 0.0


def test_eigenvalue_values():
    # oracle: direct closed-form evaluation with k0^2 = 3.6195348154008538
    assert eigenvalue(CANON, 0) == pytest.approx(-8.229511331886018, rel=1e-14)
    assert eigenvalue(custom_params(0.1, 1, 0.8256453), 0) == pytest.approx(3.0278816, rel=1e-6)
    assert eigenvalue(CANON, 0) == pytest.approx(math.pi * (1 - wavenumber(CANON, 0) ** 2), rel=1e-15)


@pytest.mark.parametrize("n", [0, np.arange(5)])
def test_eigenvalue_overflow_raises(n):
    with pytest.raises(NumericalError, match="overflows"):
        eigenvalue(custom_params(1, 1, 1e-300), n)


@pytest.mark.parametrize("n", [2, np.arange(5)])
def test_wavenumber_overflow_raises(n):
    # at the smallest normal v_c, pi/(2 v_c) is about 7.1e307: k_1 is finite and k_2 is not
    with pytest.raises(NumericalError, match="wavenumber overflows"):
        wavenumber(custom_params(1, 2, 2.2250738585072014e-308), n)


def test_eigenvalues_strictly_below_pi_and_decreasing_to_1e6():
    ns = np.arange(1_000_001)
    values = eigenvalue(CANON, ns)
    assert np.all(values < math.pi)
    assert np.all(np.diff(values) < 0)


def test_eigenfunction_boundary_zeros_exact():
    for n in range(65):
        assert abs(eigenfunction(CANON, n, CANON.v_c)) < 1e-12
        assert abs(eigenfunction(CANON, n, -CANON.v_c)) < 1e-12


def test_eigenfunction_values():
    assert eigenfunction(CANON, 0, 0.0) == pytest.approx(math.sqrt(1 / CANON.v_c), rel=1e-15)
    assert eigenfunction(CANON, 0, 0.0) == pytest.approx(1.1005334598440506, rel=1e-14)
    assert abs(eigenfunction(CANON, 1, 0.0)) < 1e-12  # odd mode vanishes at the center


def test_eigenfunction_domain_error():
    with pytest.raises(DomainError):
        eigenfunction(CANON, 0, 1.01 * CANON.v_c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v", [math.nan, np.array([0.0, math.nan, 0.5])], ids=["scalar", "array"])
def test_eigenfunction_rejects_nan(v):
    with pytest.raises(DomainError, match="v = nan"):
        eigenfunction(CANON, 0, v)


def test_eigenfunction_holds_17_bytes_a_point_at_its_peak():
    """The phase product is the one float array of the result: it is reduced,
    then sin, sign and scale are applied in place.  Beside it the reduction
    holds the rounded phase (8 B a point, reused for the parity) and the mask
    of odd turns (1 B a point)."""
    points = 500_001
    grid = uniform_grid(CANON, points - 1)
    tracemalloc.start()
    try:
        values = eigenfunction(CANON, 3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == grid.shape
    assert peak < 17 * points + 1e6


def test_eigenfunction_parity():
    v = np.linspace(0, CANON.v_c, 37)
    for n in (0, 1, 4, 7):
        left = eigenfunction(CANON, n, -v)
        right = eigenfunction(CANON, n, v)
        np.testing.assert_allclose(left, (-1.0) ** n * right, atol=1e-13)


def test_modes_decreasing():
    values = eigenvalue(CANON, np.arange(9))
    assert len(values) == 9
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] == eigenvalue(CANON, 0)


def test_modes_sign_change_small_hbar():
    values = eigenvalue(custom_params(0.1, 1, 0.8256453), np.arange(6))
    # oracle: brute-force evaluation of the closed form
    assert values[4] == pytest.approx(0.2988167, rel=1e-6)
    assert values[5] == pytest.approx(-0.9520048, rel=1e-6)
    assert values[4] > 0 > values[5]


class TestCriticalIndex:
    def test_small_hbar(self):
        report = critical_index(custom_params(0.1, 1, 0.8256453))
        assert report.x == pytest.approx(5.256221, rel=1e-6)
        assert report.n_star_paper == 5
        assert report.n_star_exact == 4
        assert report.agree is False

    def test_small_hbar_brute_force_scan(self):
        params = custom_params(0.1, 1, 0.8256453)
        signs = [eigenvalue(params, n) >= 0 for n in range(11)]
        exact = max(n for n in range(11) if signs[n])
        assert all(signs[: exact + 1]) and not any(signs[exact + 1 :])
        assert critical_index(params).n_star_exact == exact

    def test_canonical_has_no_nonnegative_mode(self):
        report = critical_index(CANON)
        assert report.x == pytest.approx(0.5256221, rel=1e-6)
        assert report.n_star_paper == 0
        assert report.n_star_exact is None
        assert report.agree is False

    def test_si_constants_off_by_one(self):
        report = critical_index(si_params())
        assert report.x > 1e50
        assert report.n_star_exact == report.n_star_paper - 1

    @pytest.mark.parametrize(
        "hbar,v_c,x,floor_candidate",
        [
            # x rounds just below 2: the floor candidate 0 is raised to 1
            (0.0033, 0.010367255756846315, 1.9999999999999996, 0),
            # x is exactly 19, where C_18 = 0 rounds negative: 18 is lowered to 17
            (0.001, 0.029845130209103034, 19.0, 18),
        ],
    )
    def test_sign_scan_corrects_the_floor_candidate(self, hbar, v_c, x, floor_candidate):
        params = custom_params(hbar, 1.0, v_c)
        report = critical_index(params)
        assert report.x == x and math.floor(x) - 1 == floor_candidate
        scanned = [n for n in range(int(x) + 2) if eigenvalue(params, n) >= 0.0]
        assert scanned == list(range(len(scanned)))
        assert report.n_star_exact == scanned[-1] != floor_candidate

    def test_floor_relation_for_non_integer_x(self):
        for hbar in (0.29, 0.11, 0.034):
            report = critical_index(custom_params(hbar, 1.0, 0.77))
            if report.x >= 1 and report.x != math.floor(report.x):
                assert report.n_star_exact == report.n_star_paper - 1


class TestZeroCounting:
    # past n = 124 the scan grid grows with n, so every mode stays resolved
    @pytest.mark.parametrize("n", [0, 3, 10, 124, 125, 150, 1000, 4001])
    def test_counts(self, n):
        assert count_interior_zeros(CANON, n) == n
        assert count_interior_zeros(custom_params(0.3, 3.0, 2.5), n) == n

    def test_counts_up_to_32(self):
        for n in range(33):
            assert count_interior_zeros(CANON, n) == n

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValidationError, match="mode index"):
            count_interior_zeros(CANON, 2.5)


def test_asymptotic_coefficient_value():
    assert asymptotic_coefficient(CANON) == pytest.approx(11.37110398547581, rel=1e-14)
    assert asymptotic_coefficient(CANON) == pytest.approx(11.371, abs=1e-3)


def test_asymptotic_coefficient_overflow_raises():
    with pytest.raises(NumericalError, match="overflows"):
        asymptotic_coefficient(custom_params(1, 1, 1e-300))


def test_asymptotic_eigenvalue_n0_is_pi():
    assert asymptotic_eigenvalue(CANON, 0) == math.pi


def test_remainder_identity_exact_polynomial():
    alpha = asymptotic_coefficient(CANON)
    ns = np.arange(1, 1_000_001)
    remainder = eigenvalue(CANON, ns) - asymptotic_eigenvalue(CANON, ns)
    expected = -alpha * (2 * ns.astype(float) + 1)
    scale = np.maximum(np.abs(eigenvalue(CANON, ns)), 1.0)
    assert np.max(np.abs(remainder - expected) / scale) < 1e-13


def test_remainder_ratio_near_100():
    alpha = asymptotic_coefficient(CANON)
    remainder = eigenvalue(CANON, 100) - asymptotic_eigenvalue(CANON, 100)
    assert abs(remainder) == pytest.approx(201 * alpha, rel=1e-12)


def reference_sinpi(x):
    """The earlier sinpi, kept as the oracle: +-1 sign from n % 2, allocating
    steps."""
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = x - n
    sign = 1.0 - 2.0 * (np.asarray(n, dtype=np.int64) % 2)
    out = sign * np.sin(np.pi * r)
    return float(out) if out.ndim == 0 else out


def reference_eigenfunction(params, n, v):
    """The earlier eigenfunction formula on reference_sinpi."""
    t = (np.asarray(v, dtype=float) + params.v_c) / (params.v_c + params.v_c)
    out = math.sqrt(1.0 / params.v_c) * reference_sinpi((np.asarray(n, dtype=float) + 1.0) * t)
    return float(out) if np.ndim(out) == 0 else out


def assert_bits_equal(got, want):
    assert type(got) is type(want)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# On [-1/2, 1/2] the phase t = v + 1/2 is exact, so mode n at v has phase (n+1)(v + 1/2).
HALF = custom_params(1.0, 1.0, 0.5)
SQRT2 = math.sqrt(2.0)


class TestSinpiAgainstReference:
    """eigenfunction, which reduces its phases through `_half_turns`, equals
    the earlier allocating formula on reference_sinpi bit for bit, sign bits
    included, and the basis built from sine tables stays within its rounding
    bound of that formula."""

    def test_random_arguments(self):
        rng = np.random.default_rng(11)
        n = rng.integers(0, 1_000_000, 200_000)
        v = rng.uniform(-CANON.v_c, CANON.v_c, 200_000)
        assert_bits_equal(eigenfunction(CANON, n, v), reference_eigenfunction(CANON, n, v))

    def test_integers_half_integers_and_signed_zeros(self):
        # phases 0, (n+1)/4, (n+1)/2, 3(n+1)/4 and n+1 for n up to 82; odd integer phases give -0.0
        n = np.arange(83)[:, None]
        v = np.array([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5])
        got = eigenfunction(HALF, n, v)
        assert np.any(np.signbit(got) & (got == 0.0))
        assert_bits_equal(got, reference_eigenfunction(HALF, n, v))

    @pytest.mark.parametrize("x", [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 3.0, -3.0, 0.1234, -7.75])
    def test_scalars(self, x):
        # mode 7 at v = x/16: phase 4 + x/2
        v = x / 16.0
        want = reference_eigenfunction(HALF, 7, v)
        assert_bits_equal(eigenfunction(HALF, 7, v), want)
        assert_bits_equal(eigenfunction(HALF, np.int64(7), np.float64(v)), want)
        assert_bits_equal(eigenfunction(HALF, np.array(7), np.array(v)), want)

    def test_input_is_not_written(self):
        n, v = np.arange(97), np.linspace(-0.5, 0.5, 97)
        before = n.copy(), v.copy()
        eigenfunction(HALF, n, v)
        assert np.array_equal(n, before[0]) and np.array_equal(v, before[1])

    @pytest.mark.parametrize("params", [CANON, si_params()], ids=["canonical", "si"])
    def test_basis_matrix_on_gauss_legendre_nodes(self, params):
        # The tables round the phase of mode n = qB + r as qB t and (r+1) t, the
        # per-entry formula as (n+1) t: each is within (N+1) eps/2 half-turns of
        # (n+1) t, so the two differ by at most pi (N+1) eps/sqrt(v_c) plus a few
        # eps/sqrt(v_c) from the angle-addition products, under the bound below
        # (1.97e-13 of 4.98e-13 measured on the canonical interval).
        n_max = 511
        nodes = gauss_legendre_rule(params, 4096).nodes
        want = reference_eigenfunction(params, np.arange(n_max + 1)[:, None], nodes[None, :])
        sin_high, cos_high, sin_low, cos_low = _sine_tables(params, n_max, nodes)
        rows = sin_high[:, None] * cos_low + cos_high[:, None] * sin_low
        got = rows.reshape(-1, len(nodes))[: n_max + 1] * math.sqrt(1.0 / params.v_c)
        bound = 4 * (n_max + 1) * np.finfo(float).eps / math.sqrt(params.v_c)
        assert np.max(np.abs(got - want)) <= bound

    def test_eigenfunction_scalars(self):
        for n, v in [(0, 0.0), (3, -CANON.v_c), (3, CANON.v_c), (7, 0.25 * CANON.v_c), (2, -0.0)]:
            assert_bits_equal(eigenfunction(CANON, n, v), reference_eigenfunction(CANON, n, v))


class TestSinpi:
    """The reduced sine sin(pi x) inside eigenfunction, at phases where its
    value is known exactly."""

    def test_integers_exact(self):
        assert eigenfunction(HALF, 5, 0.0) == 0.0
        assert eigenfunction(HALF, np.arange(20), 0.5).tolist() == [0.0] * 20

    def test_half_integers(self):
        assert eigenfunction(HALF, 0, 0.0) == SQRT2
        assert eigenfunction(HALF, 2, 0.0) == -SQRT2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2**62, 2**62 + 1, 2**63 - 1])
    def test_arguments_past_the_int64_range_are_exact_zeros_without_a_warning(self, n):
        # phases from 2^60 up to 2^63 at v = v_c, where (n+1.0) rounds to 2^63;
        # every float past 2^53 is an even integer
        v = np.array([-0.25, 0.0, 0.25, 0.5])
        assert eigenfunction(HALF, n, 0.5) == 0.0
        assert not np.any(eigenfunction(HALF, n, v))
        assert np.array_equal(eigenfunction(HALF, np.array([n, 0]), np.array([0.5, 0.0])), [0.0, SQRT2])

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(min_value=-0.5, max_value=0.5))
    def test_matches_library_sine(self, v):
        want = SQRT2 * math.sin(8.0 * math.pi * (v + 0.5))
        assert eigenfunction(HALF, 7, v) == pytest.approx(want, abs=1e-13)


class TestEigenrelation:
    """Residual of pi*(psi + (hbar/c)^2 psi'') - C_n psi under finite differences.

    The truncation error of the 5-point (4th-order) second difference is
    (h^4/90) k_n^6 per unit amplitude, which crosses the 1e-6 mark near n = 16
    on a 4097-point grid; the tolerance below tracks that bound.
    """

    @pytest.mark.parametrize("n", [0, 2, 5, 9, 15, 24, 32])
    def test_residual_within_theoretical_bound(self, n):
        grid = np.linspace(-CANON.v_c, CANON.v_c, 4097)
        h = grid[1] - grid[0]
        f = eigenfunction(CANON, n, grid)
        d2 = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * h**2)
        residual = math.pi * (f[2:-2] + d2) - eigenvalue(CANON, n) * f[2:-2]
        k = wavenumber(CANON, n)
        truncation = math.pi * (h**4 / 90) * k**6 / math.sqrt(CANON.v_c)
        roundoff = 64 * math.pi * np.finfo(float).eps / (h**2 * math.sqrt(CANON.v_c))
        assert np.max(np.abs(residual)) <= 1.05 * truncation + roundoff
        if n <= 15:
            l2 = math.sqrt(np.sum(residual**2) * h)
            assert l2 <= 1e-6  # one unit of ||psi_n||

    def test_strict_upper_bound_margin(self):
        # pi - C_n >= pi * gamma^2 * k_0^2 * v_c^2 > 0
        margin = math.pi * CANON.gamma**2 * wavenumber(CANON, 0) ** 2 * CANON.v_c**2
        ns = np.arange(200)
        assert np.all(math.pi - eigenvalue(CANON, ns) >= margin * 0.999999)
