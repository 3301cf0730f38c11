import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from deformspec import (
    DomainError,
    EvaluationError,
    Grid,
    ResolutionError,
    SampledFunction,
    ValidationError,
    canonical_params,
    composite_simpson_rule,
    default_projection_rule,
    eigenfunction,
    fd_derivative,
    gauss_legendre_rule,
    integrate,
    sample,
    si_params,
    uniform_grid,
    wavenumber,
)

CANON = canonical_params()


class TestUniformGrid:
    def test_three_points(self):
        grid = uniform_grid(CANON, 2)
        np.testing.assert_allclose(grid.points, [-CANON.v_c, 0.0, CANON.v_c], atol=1e-15)
        assert grid.points[0] == -CANON.v_c and grid.points[-1] == CANON.v_c

    def test_spacing(self):
        grid = uniform_grid(CANON, 4)
        assert grid.spacing == pytest.approx(CANON.v_c / 2, rel=1e-14)
        assert np.max(np.abs(np.diff(grid.points) - grid.spacing)) < 1e-12

    @pytest.mark.parametrize("params", [CANON, si_params()])
    def test_spacing_is_derived_from_the_points(self, params):
        grid = uniform_grid(params, 1000)
        assert grid.spacing == 2.0 * params.v_c / 1000
        points = grid.points.copy()
        points[500] = np.nextafter(points[500], 1.0)
        assert Grid(points=points).spacing is None

    def test_too_few_intervals(self):
        with pytest.raises(ValidationError):
            uniform_grid(CANON, 1)

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            Grid(points=np.array([0.0, 0.0, 1.0]))


class TestGaussLegendre:
    def test_single_node(self):
        rule = gauss_legendre_rule(CANON, 1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(2 * CANON.v_c, rel=1e-15)

    def test_two_nodes(self):
        rule = gauss_legendre_rule(CANON, 2)
        np.testing.assert_allclose(rule.nodes, [-CANON.v_c / math.sqrt(3), CANON.v_c / math.sqrt(3)], rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [CANON.v_c, CANON.v_c], rtol=1e-14)

    @pytest.mark.parametrize("m", [3, 8, 64, 256])
    def test_matches_reference_nodes(self, m):
        rule = gauss_legendre_rule(CANON, m)
        x, w = leggauss(m)
        np.testing.assert_allclose(rule.nodes, CANON.v_c * x, atol=1e-13)
        np.testing.assert_allclose(rule.weights, CANON.v_c * w, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 8, 100, 513])
    def test_weight_sum_and_symmetry(self, m):
        rule = gauss_legendre_rule(CANON, m)
        assert np.sum(rule.weights) == pytest.approx(2 * CANON.v_c, rel=1e-12)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_polynomial_exactness(self, m):
        rule = gauss_legendre_rule(CANON, m)
        for degree in range(2 * m):
            exact = 0.0 if degree % 2 else 2 * CANON.v_c ** (degree + 1) / (degree + 1)
            got = integrate(rule, lambda v: v**degree)
            assert got == pytest.approx(exact, abs=1e-10)

    def test_monomial_degree_six(self):
        rule = gauss_legendre_rule(CANON, 8)
        exact = 2 * CANON.v_c**7 / 7
        assert integrate(rule, lambda v: v**6) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 4097])
    def test_out_of_range(self, m):
        with pytest.raises(ValidationError):
            gauss_legendre_rule(CANON, m)


class TestSimpson:
    def test_needs_odd_points(self):
        with pytest.raises(ValidationError):
            composite_simpson_rule(CANON, 8)

    def test_quartic(self):
        rule = composite_simpson_rule(CANON, 2001)
        exact = 2 * CANON.v_c**5 / 5
        assert integrate(rule, lambda v: v**4) == pytest.approx(exact, rel=1e-10)

    def test_weight_sum(self):
        rule = composite_simpson_rule(CANON, 4097)
        assert np.sum(rule.weights) == pytest.approx(2 * CANON.v_c, rel=1e-12)


class TestIntegrate:
    def test_constant(self):
        for rule in (gauss_legendre_rule(CANON, 16), composite_simpson_rule(CANON, 33)):
            assert integrate(rule, lambda v: np.ones_like(v)) == pytest.approx(2 * CANON.v_c, rel=1e-12)

    def test_normalization_of_mode_zero(self):
        rule = gauss_legendre_rule(CANON, 64)
        assert integrate(rule, lambda v: eigenfunction(CANON, 0, v) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_of_first_two_modes(self):
        rule = gauss_legendre_rule(CANON, 64)
        product = integrate(rule, lambda v: eigenfunction(CANON, 0, v) * eigenfunction(CANON, 1, v))
        assert abs(product) < 1e-10

    def test_odd_part_cancels(self):
        rule = gauss_legendre_rule(CANON, 32)
        assert abs(integrate(rule, lambda v: v * np.cos(v))) < 1e-12

    def test_scalar_only_callable(self):
        rule = gauss_legendre_rule(CANON, 8)
        assert integrate(rule, math.cos) == pytest.approx(2 * math.sin(CANON.v_c), rel=1e-10)

    def test_error_on_node_array_propagates_without_point_retries(self):
        calls = []

        def target(v):
            calls.append(v)
            if np.any(np.asarray(v) > 0.5 * CANON.v_c):
                raise DomainError("outside the target's domain")
            return np.ones_like(v)

        with pytest.raises(DomainError):
            integrate(composite_simpson_rule(CANON, 4097), target)
        assert len(calls) == 1

    def test_non_finite_value_reported(self):
        rule = gauss_legendre_rule(CANON, 8)
        with pytest.raises(EvaluationError, match="node"):
            integrate(rule, lambda v: np.where(v > 0, np.inf, 1.0))


def test_default_projection_rule_switches_family():
    assert default_projection_rule(CANON, 16).kind == "gauss_legendre"
    assert len(default_projection_rule(CANON, 16).nodes) == 256
    assert len(default_projection_rule(CANON, 100).nodes) == 808
    big = default_projection_rule(CANON, 1000)
    assert big.kind == "composite_simpson"
    assert len(big.nodes) >= 8 * 1001


class TestFiniteDifferences:
    def test_second_derivative_of_square(self):
        grid = uniform_grid(CANON, 64)
        sf = sample(CANON, lambda v: v**2, grid)
        d2 = fd_derivative(sf, 2)
        np.testing.assert_allclose(d2.values[1:-1], 2.0, atol=1e-8)

    def test_first_derivative_of_sine(self):
        grid = uniform_grid(CANON, 512)
        d1 = fd_derivative(sample(CANON, np.sin, grid), 1)
        assert np.max(np.abs(d1.values - np.cos(grid.points))) < 5e-6

    # coarser grids for the higher derivatives: the eps/h^order roundoff
    # floor must stay well below the h^2 truncation term being measured
    @pytest.mark.parametrize("order,exact,grids", [
        (1, lambda v: np.cos(v), (256, 512)),
        (2, lambda v: -np.sin(v), (256, 512)),
        (3, lambda v: -np.cos(v), (64, 128)),
        (4, lambda v: np.sin(v), (64, 128)),
    ])
    def test_orders_converge_at_rate_two(self, order, exact, grids):
        errors = []
        for m in grids:
            grid = uniform_grid(CANON, m)
            d = fd_derivative(sample(CANON, np.sin, grid), order)
            errors.append(np.max(np.abs(d.values - exact(grid.points))))
        measured = math.log2(errors[0] / errors[1])
        assert 1.9 <= measured <= 2.1

    def test_mode_zero_richardson_order(self):
        k0 = wavenumber(CANON, 0)
        errors = []
        for m in (256, 512):
            grid = uniform_grid(CANON, m)
            sf = sample(CANON, lambda v: eigenfunction(CANON, 0, v), grid)
            d2 = fd_derivative(sf, 2)
            errors.append(np.max(np.abs(d2.values + k0**2 * sf.values)))
        assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1

    def test_composed_first_derivatives_match_second(self):
        grid = uniform_grid(CANON, 1024)
        sf = sample(CANON, np.sin, grid)
        twice = fd_derivative(fd_derivative(sf, 1), 1)
        direct = fd_derivative(sf, 2)
        interior = slice(4, -4)
        h = grid.spacing
        assert np.max(np.abs(twice.values[interior] - direct.values[interior])) < 10 * h**2

    def test_requires_uniform_grid(self):
        points = np.concatenate([[-CANON.v_c], np.linspace(-0.5, 0.5, 30) * CANON.v_c, [CANON.v_c]])
        sf = SampledFunction(Grid(points=points), np.sin(points))
        with pytest.raises(ValidationError):
            fd_derivative(sf, 1)

    def test_order_range(self):
        grid = uniform_grid(CANON, 32)
        with pytest.raises(ValidationError):
            fd_derivative(sample(CANON, np.sin, grid), 5)

    def test_too_few_points(self):
        grid = uniform_grid(CANON, 6)
        with pytest.raises(ResolutionError):
            fd_derivative(sample(CANON, np.sin, grid), 4)
