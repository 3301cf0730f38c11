import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    CoefficientVector,
    QuadratureRule,
    ResolutionError,
    SampledFunction,
    ValidationError,
    apply_operator_spectral,
    canonical_params,
    composite_simpson_rule,
    default_projection_rule,
    deformation_profile,
    eigenfunction,
    eigenvalue,
    evaluate,
    fd_derivative,
    gauss_legendre_rule,
    gram_matrix,
    l2_norm,
    parseval_defect,
    project,
    reconstruct,
    uniform_grid,
)
from deformspec import transform
from deformspec.transform import _basis_matrix

CANON = canonical_params()
GL256 = gauss_legendre_rule(CANON, 256)


def profile(v):
    return deformation_profile(CANON, v)


def const_one(v):
    return np.ones_like(np.asarray(v, dtype=float))


def const_coefficient(n: int) -> float:
    """Closed form of <1, psi_n>: integral of the shifted sine."""
    if n % 2 == 1:
        return 0.0
    return 4.0 * math.sqrt(CANON.v_c) / ((n + 1) * math.pi)


def profile_coefficient(n: int) -> float:
    """Closed form of <C, psi_n> from the sine series of u(L-u) on [0, L]."""
    if n % 2 == 1:
        return 0.0
    v_c = CANON.v_c
    linear = 4.0 * math.sqrt(v_c) * (1.0 - v_c**2) / (n + 1)
    cubic = 32.0 * v_c**2.5 / ((n + 1) ** 3 * math.pi**2)
    return linear + cubic


def profile_norm_sq() -> float:
    v_c = CANON.v_c
    return 2.0 * math.pi**2 * (v_c - 2.0 * v_c**3 / 3.0 + v_c**5 / 5.0)


class TestProject:
    def test_orthonormality_unit_vector(self):
        coeffs = project(CANON, lambda v: eigenfunction(CANON, 2, v), 5, GL256)
        expected = np.zeros(6)
        expected[2] = 1.0
        np.testing.assert_allclose(coeffs.coefficients, expected, atol=1e-10)

    def test_constant_function_closed_form(self):
        coeffs = project(CANON, const_one, 3, GL256)
        expected = [const_coefficient(n) for n in range(4)]
        np.testing.assert_allclose(coeffs.coefficients, expected, atol=1e-12)
        assert coeffs.coefficients[0] == pytest.approx(1.1569294266760277, rel=1e-12)
        assert coeffs.coefficients[2] == pytest.approx(0.3856431422253426, rel=1e-12)

    def test_profile_closed_form_two_rules(self):
        for rule in (GL256, composite_simpson_rule(CANON, 4097)):
            coeffs = project(CANON, profile, 6, rule)
            expected = [profile_coefficient(n) for n in range(7)]
            np.testing.assert_allclose(coeffs.coefficients, expected, atol=1e-9)
        gl = project(CANON, profile, 0, GL256).coefficients[0]
        simpson = project(CANON, profile, 0, composite_simpson_rule(CANON, 4097)).coefficients[0]
        assert gl == pytest.approx(simpson, abs=1e-9)
        assert gl == pytest.approx(3.165254348487694, rel=1e-12)

    def test_under_resolved_rule_rejected(self):
        with pytest.raises(ResolutionError, match="needs at least 1048"):
            project(CANON, profile, 130, GL256)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-10, max_value=10),
        b=st.floats(min_value=-10, max_value=10),
    )
    def test_linearity(self, a, b):
        combined = project(CANON, lambda v: a * profile(v) + b * const_one(v), 3, GL256)
        separate = a * project(CANON, profile, 3, GL256).coefficients + b * project(
            CANON, const_one, 3, GL256
        ).coefficients
        np.testing.assert_allclose(
            combined.coefficients, separate, atol=1e-10 * (1 + abs(a) + abs(b))
        )


class TestReconstruct:
    def test_round_trip_single_mode(self):
        coeffs = project(CANON, lambda v: eigenfunction(CANON, 0, v), 0, GL256)
        grid = uniform_grid(CANON, 128)
        rec = reconstruct(coeffs, grid)
        np.testing.assert_allclose(rec.values, eigenfunction(CANON, 0, grid.points), atol=1e-10)

    def test_round_trip_in_span(self):
        rng = np.random.default_rng(7)
        target_coeffs = CoefficientVector(CANON, rng.uniform(-1, 1, 6))
        f = lambda v: evaluate(target_coeffs, v)
        recovered = project(CANON, f, 5, GL256)
        grid = uniform_grid(CANON, 200)
        np.testing.assert_allclose(
            reconstruct(recovered, grid).values, evaluate(target_coeffs, grid.points), atol=1e-9
        )

    def test_interior_error_shrinks_with_truncation(self):
        # measured with the closed-form coefficients: the sup error on
        # |v| <= 0.9 v_c drops from 0.1844 (N=8) to 0.0504 (N=64), a 3.66x
        # reduction; the endpoint mismatch C(+-v_c) = 1 != 0 keeps
        # convergence interior-only
        rule = default_projection_rule(CANON, 64)
        grid = uniform_grid(CANON, 512)
        mask = np.abs(grid.points) <= 0.9 * CANON.v_c
        errors = {}
        coeffs = project(CANON, profile, 64, rule)
        for n in (8, 64):
            partial = CoefficientVector(CANON, coeffs.coefficients[: n + 1])
            rec = reconstruct(partial, grid)
            errors[n] = np.max(np.abs(rec.values[mask] - profile(grid.points[mask])))
        assert errors[8] == pytest.approx(0.1844, abs=2e-3)
        assert errors[64] == pytest.approx(0.0504, abs=1e-3)
        assert errors[8] / errors[64] > 3.5

    def test_uniform_pi_coefficients_vanish_at_endpoints(self):
        for n_max in (0, 7, 64):
            coeffs = CoefficientVector(CANON, np.full(n_max + 1, math.pi))
            rec = reconstruct(coeffs, uniform_grid(CANON, 64))
            assert abs(rec.values[0]) < 1e-12
            assert abs(rec.values[-1]) < 1e-12

    def test_endpoint_annihilation_generic(self):
        coeffs = project(CANON, profile, 32, gauss_legendre_rule(CANON, 512))
        rec = reconstruct(coeffs, uniform_grid(CANON, 100))
        assert abs(rec.values[0]) < 1e-12 and abs(rec.values[-1]) < 1e-12


class TestNorm:
    def test_eigenfunction_normalized(self):
        assert l2_norm(CANON, lambda v: eigenfunction(CANON, 5, v), GL256) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_profile_norm_closed_form(self):
        assert profile_norm_sq() == pytest.approx(10.40568505390259, rel=1e-14)
        assert l2_norm(CANON, profile, GL256) == pytest.approx(math.sqrt(profile_norm_sq()), rel=1e-12)
        assert l2_norm(CANON, profile, GL256) == pytest.approx(3.2257844, rel=1e-6)

    def test_zero_function(self):
        assert l2_norm(CANON, lambda v: np.zeros_like(v), gauss_legendre_rule(CANON, 8)) == 0.0


class TestParseval:
    def test_in_span_defect_vanishes(self):
        defect = parseval_defect(CANON, lambda v: eigenfunction(CANON, 3, v), 5, GL256)
        assert abs(defect) < 1e-10

    def test_profile_defect_matches_tail(self):
        rule = default_projection_rule(CANON, 200)
        defect = parseval_defect(CANON, profile, 200, rule)
        tail = profile_norm_sq() - sum(profile_coefficient(n) ** 2 for n in range(201))
        assert defect == pytest.approx(tail, rel=1e-6)
        assert 0 < defect / profile_norm_sq() < 1e-3

    def test_defect_never_below_quadrature_slack(self):
        for n, f in ((5, lambda v: eigenfunction(CANON, 3, v)), (8, const_one)):
            assert parseval_defect(CANON, f, n, GL256) >= -1e-9

    def test_defect_strictly_decreasing_over_doublings(self):
        rule = default_projection_rule(CANON, 512)
        coeffs = project(CANON, profile, 512, rule)
        norm_sq = l2_norm(CANON, profile, rule) ** 2
        cumulative = np.cumsum(coeffs.coefficients**2)
        defects = [norm_sq - cumulative[n] for n in (64, 128, 256, 512)]
        assert all(b < a for a, b in zip(defects, defects[1:]))


class TestApplyOperator:
    def test_basis_vector(self):
        coeffs = CoefficientVector(CANON, np.array([1.0, 0.0, 0.0]))
        out = apply_operator_spectral(coeffs)
        np.testing.assert_allclose(
            out.coefficients, [eigenvalue(CANON, 0), 0.0, 0.0], rtol=1e-15
        )

    def test_zero_vector(self):
        out = apply_operator_spectral(CoefficientVector(CANON, np.zeros(4)))
        assert np.all(out.coefficients == 0.0)

    def test_matches_finite_differences_for_smooth_target(self):
        # sin^3(pi (v+v_c)/(2 v_c)) lies exactly in span{psi_0, psi_2}
        def f(v):
            return np.sin(math.pi * (np.asarray(v) + CANON.v_c) / (2 * CANON.v_c)) ** 3

        coeffs = project(CANON, f, 4, GL256)
        applied = apply_operator_spectral(coeffs)
        grid = uniform_grid(CANON, 4096)
        spectral = evaluate(applied, grid.points)
        second = fd_derivative(SampledFunction(grid, f(grid.points)), 2)
        direct = math.pi * (second.values + f(grid.points))
        interior = slice(1, -1)
        assert np.max(np.abs(spectral[interior] - direct[interior])) < 5e-5


class TestGram:
    def test_identity_gl512(self):
        gram = gram_matrix(CANON, 16, gauss_legendre_rule(CANON, 512))
        assert np.max(np.abs(gram - np.eye(17))) < 1e-10

    def test_single_mode(self):
        gram = gram_matrix(CANON, 0, gauss_legendre_rule(CANON, 64))
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_simpson(self):
        gram = gram_matrix(CANON, 32, composite_simpson_rule(CANON, 4097))
        assert np.max(np.abs(gram - np.eye(33))) < 1e-8


def dense_projection(rule, n_max, targets, block=8192):
    """Oracle for the FFT route: _basis_matrix(...) @ (w*f) per target, summed
    over node blocks so the basis never holds more than `block` columns."""
    weighted = np.stack([rule.weights * target(rule.nodes) for target in targets], axis=1)
    return sum(
        _basis_matrix(CANON, n_max, rule.nodes[i : i + block]) @ weighted[i : i + block]
        for i in range(0, len(rule.nodes), block)
    )


def dense_gram(rule, n_max):
    basis = _basis_matrix(CANON, n_max, rule.nodes)
    return (basis * rule.weights) @ basis.T


# (n_max, Simpson points): the golden corpus's Simpson cases, `gram --n-max 600
# --nodes 19233`, and the default Simpson rules 32(n_max+1)+1 past the GL cap.
SIMPSON_SIZES = [(8, 4097), (40, 5001), (600, 19233), (1000, 32033), (1023, 32769), (2000, 64033)]


class TestUniformRoute:
    """project and gram_matrix on uniform nodes (a DST-I and a DCT-I by real
    FFT) against the dense-basis quadrature sums."""

    @pytest.mark.parametrize("n_max, points", SIMPSON_SIZES)
    def test_project_matches_dense_basis(self, n_max, points):
        rule = composite_simpson_rule(CANON, points)
        k = 2 * n_max // 3
        targets = [profile, const_one, lambda v: eigenfunction(CANON, k, v)]
        expected = dense_projection(rule, n_max, targets)
        for target, column in zip(targets, expected.T):
            assert np.max(np.abs(project(CANON, target, n_max, rule).coefficients - column)) <= 1e-13

    @pytest.mark.parametrize("n_max, points", [size for size in SIMPSON_SIZES if size[0] <= 600])
    def test_gram_matches_dense_basis(self, n_max, points):
        rule = composite_simpson_rule(CANON, points)
        assert np.max(np.abs(gram_matrix(CANON, n_max, rule) - dense_gram(rule, n_max))) <= 1e-13

    def test_uniform_nodes_never_fill_the_basis(self, monkeypatch):
        def no_basis(*args):
            raise AssertionError("dense basis filled on uniform nodes")

        monkeypatch.setattr(transform, "_basis_matrix", no_basis)
        rule = composite_simpson_rule(CANON, 4097)
        coeffs = project(CANON, profile, 8, rule)
        gram_matrix(CANON, 8, rule)
        evaluate(coeffs, rule.nodes)
        reconstruct(coeffs, uniform_grid(CANON, 256))

    def test_non_uniform_simpson_nodes_take_the_dense_route(self):
        simpson = composite_simpson_rule(CANON, 4097)
        nodes = simpson.nodes.copy()
        nodes[1000] = np.nextafter(nodes[1000], 0.0)
        rule = QuadratureRule(nodes, simpson.weights)
        coeffs = project(CANON, profile, 8, rule).coefficients
        assert np.array_equal(coeffs, _basis_matrix(CANON, 8, nodes) @ (rule.weights * profile(nodes)))
        assert np.array_equal(gram_matrix(CANON, 8, rule), dense_gram(rule, 8))
        values = evaluate(CoefficientVector(CANON, coeffs), nodes)
        assert np.array_equal(values, coeffs @ _basis_matrix(CANON, 8, nodes))

    @pytest.mark.parametrize("endpoint", [-CANON.v_c, CANON.v_c])
    def test_non_finite_endpoint_value_rejected(self, endpoint):
        # psi_n vanishes at the endpoints, so the FFT drops these samples;
        # the target must still be finite there
        with pytest.raises(ValidationError, match="finite"):
            project(CANON, lambda v: np.where(v == endpoint, np.nan, 1.0), 8, composite_simpson_rule(CANON, 4097))


def long_double_partial_sum(coefficients, points, samples):
    """sum_n a_n psi_n(v_j) at the sampled j in np.longdouble, the phase
    (n+1) j reduced modulo 2P in integers before the sine."""
    pi = 4 * np.arctan(np.longdouble(1))
    a = coefficients.astype(np.longdouble)
    k = np.arange(1, len(a) + 1)
    sums = [np.sum(a * np.sin(pi * ((k * j) % (2 * points)) / points)) for j in samples]
    return np.array(sums) / np.sqrt(np.longdouble(CANON.v_c))


class TestUniformSynthesis:
    """evaluate on uniform points (a DST-I of the folded coefficients)."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is double")
    @pytest.mark.parametrize("n_max, points", [(64, 2048), (511, 4096), (1500, 20000), (2000, 64000)])
    def test_error_within_bound_and_below_dense_route(self, n_max, points):
        # a_n = pi is the rigidity partial sum, whose values reach pi (N+1)/sqrt(v_c)
        coeffs = CoefficientVector(CANON, np.full(n_max + 1, math.pi))
        v = np.linspace(-CANON.v_c, CANON.v_c, points + 1)
        samples = np.arange(0, points + 1, 97)
        reference = long_double_partial_sum(coeffs.coefficients, points, samples)
        fft_error = np.max(np.abs(evaluate(coeffs, v)[samples] - reference))
        # 97 divides no P here, so v[samples] misses v_c and takes the dense route
        dense_error = np.max(np.abs(evaluate(coeffs, v[samples]) - reference))
        eps = np.finfo(float).eps
        assert fft_error <= eps * math.log2(2 * points) * np.sum(np.abs(coeffs.coefficients)) / math.sqrt(CANON.v_c)
        assert fft_error <= dense_error

    def test_folded_modes_match_dense_route(self):
        # N + 1 > P: modes alias onto k = (n+1) mod 2P, with a sign flip past P
        coeffs = CoefficientVector(CANON, np.random.default_rng(5).uniform(-1, 1, 101))
        v = np.linspace(-CANON.v_c, CANON.v_c, 17)
        values = evaluate(coeffs, v)
        assert values[0] == 0.0 and values[-1] == 0.0
        assert np.max(np.abs(values - coeffs.coefficients @ _basis_matrix(CANON, 100, v))) <= 1e-13


class TestUniqueness:
    def test_matching_coefficients_imply_matching_functions(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-1, 1, 65)
        wiggle = rng.uniform(-1e-10, 1e-10, 65)
        f = CoefficientVector(CANON, base)
        g = CoefficientVector(CANON, base + wiggle)
        rule = gauss_legendre_rule(CANON, 1024)
        difference = evaluate(f, rule.nodes) - evaluate(g, rule.nodes)
        distance = math.sqrt(np.dot(rule.weights, difference**2))
        assert distance < 1e-8


def test_coefficient_vector_validation():
    with pytest.raises(ValidationError):
        CoefficientVector(CANON, np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        CoefficientVector(CANON, np.array([]))
