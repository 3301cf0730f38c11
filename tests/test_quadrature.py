import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from deformspec import (
    DomainError,
    QuadratureRule,
    ResolutionError,
    ValidationError,
    canonical_params,
    composite_simpson_rule,
    custom_params,
    default_projection_rule,
    eigenfunction,
    fd_derivative,
    gauss_legendre_rule,
    interior_grid,
    si_params,
    uniform_grid,
    wavenumber,
)
from deformspec.quadrature import _BOUNDARY_ROOTS, _STENCILS, _theta_start, _unit_gauss_legendre
from deformspec.transform import _on_uniform_nodes, _sample as _evaluate

CANON = canonical_params()
PARAM_SETS = [CANON, si_params(), custom_params(0.8, 3.0, 1.7)]


class TestUniformGrid:
    def test_three_points(self):
        grid = uniform_grid(CANON, 2)
        np.testing.assert_allclose(grid, [-CANON.v_c, 0.0, CANON.v_c], atol=1e-15)
        assert grid[0] == -CANON.v_c and grid[-1] == CANON.v_c

    def test_spacing(self):
        grid = uniform_grid(CANON, 4)
        assert np.max(np.abs(np.diff(grid) - CANON.v_c / 2)) < 1e-12

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("m", [2, 3, 1000, 4097])
    def test_is_linspace_bit_for_bit(self, params, m):
        grid = uniform_grid(params, m)
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
        assert np.array_equal(grid, np.linspace(-params.v_c, params.v_c, m + 1))
        assert _on_uniform_nodes(params, grid)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_interior_and_simpson_points_are_its_slices(self, params):
        assert np.array_equal(interior_grid(params, 999), uniform_grid(params, 1000)[1:-1])
        assert np.array_equal(composite_simpson_rule(params, 1001).nodes, uniform_grid(params, 1000))

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_spacing_is_derived_from_the_points(self, params):
        # the finite-difference step 2 v_c / m is the spacing the points give;
        # a unit impulse reads it back, as the order-1 central weight 0.5 / h
        grid = uniform_grid(params, 1000)
        h = 2.0 * params.v_c / 1000
        assert (grid[-1] - grid[0]) / 1000 == h
        impulse = np.zeros(1001)
        impulse[500] = 1.0
        assert fd_derivative(params, impulse, 1)[499] == 0.5 / h

    def test_too_few_intervals(self):
        with pytest.raises(ValidationError):
            uniform_grid(CANON, 1)


class TestGaussLegendre:
    def test_single_node(self):
        rule = gauss_legendre_rule(CANON, 1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(2 * CANON.v_c, rel=1e-15)

    def test_two_nodes(self):
        rule = gauss_legendre_rule(CANON, 2)
        np.testing.assert_allclose(rule.nodes, [-CANON.v_c / math.sqrt(3), CANON.v_c / math.sqrt(3)], rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [CANON.v_c, CANON.v_c], rtol=1e-14)

    @pytest.mark.parametrize("m", [3, 8, 64, 256, 512])
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
            got = rule.weights @ _evaluate(lambda v: v**degree, rule.nodes)
            assert got == pytest.approx(exact, abs=1e-10)

    def test_monomial_degree_six(self):
        rule = gauss_legendre_rule(CANON, 8)
        exact = 2 * CANON.v_c**7 / 7
        assert rule.weights @ _evaluate(lambda v: v**6, rule.nodes) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 4097])
    def test_out_of_range(self, m):
        with pytest.raises(ValidationError):
            gauss_legendre_rule(CANON, m)


def reference_gauss_legendre_rule(params, m):
    """The earlier builder, kept as the oracle: Newton on all m roots from the
    plain cosine guess, an allocating recurrence, then symmetrization."""
    m = int(m)
    if m == 1:
        return QuadratureRule(np.zeros(1), np.array([2.0 * params.v_c]))
    i = np.arange(1, m + 1)
    x = np.cos(np.pi * (i - 0.25) / (m + 0.5))
    dp = np.ones_like(x)
    for _ in range(100):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = m * (x * p - p_prev) / (x**2 - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    w = 2.0 / ((1.0 - x**2) * dp**2)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return QuadratureRule(params.v_c * x[order], params.v_c * w[order])


# 2K-1, 2K and 2K+1 straddle the split between the K boundary roots of the
# theta start and its interior roots; 193-195 straddle the earlier builder's
# change from four sweeps to three
_SPLIT = [2 * _BOUNDARY_ROOTS - 1, 2 * _BOUNDARY_ROOTS, 2 * _BOUNDARY_ROOTS + 1]
ORACLE_SIZES = sorted(
    {*range(1, 131), *_SPLIT, 193, 194, 195, 255, 256, 257, 511, 512, 1023, 1032, 2048, 2056, 3208, 4095, 4096}
)
ORACLE_PARAMS = {"canonical": CANON, "si": si_params(), "custom": custom_params(0.8, 3.0, 1.7)}


@functools.lru_cache(maxsize=None)
def _unit_reference(m):
    return reference_gauss_legendre_rule(custom_params(1.0, 2.0, 1.0), m)


@functools.lru_cache(maxsize=None)
def _rule_and_reference(name, m):
    # the reference uses params only in its last line, v_c * (unit rule), so
    # scaling one unit-interval build is bit-identical to a build per params
    params, unit = ORACLE_PARAMS[name], _unit_reference(m)
    ref = QuadratureRule(params.v_c * unit.nodes, params.v_c * unit.weights)
    return gauss_legendre_rule(params, m), ref


def test_theta_start_lands_inside_the_newton_stop():
    """The theta start alone is within 1e-15 of the oracle's non-negative
    roots, so the builder's one recurrence sweep and Newton step suffice."""
    for m in ORACLE_SIZES:
        start = _theta_start(m)
        roots = _unit_reference(m).nodes[::-1][: (m + 1) // 2]
        assert start.shape == roots.shape and np.max(np.abs(start - roots)) < 1e-15, m


@pytest.mark.parametrize("name", sorted(ORACLE_PARAMS))
class TestAgainstReferenceBuilder:
    """The half-root builder against the earlier one at every m in ORACLE_SIZES.

    Weights get a relative bound, not ulps: near the ends they are
    ill-conditioned in the node, and both builders' end weights sit about
    7e-11 from a 40-digit reference at m = 2048."""

    def test_nodes_within_one_ulp_of_v_c(self, name):
        ulp = np.spacing(ORACLE_PARAMS[name].v_c)
        for m in ORACLE_SIZES:
            rule, ref = _rule_and_reference(name, m)
            assert np.max(np.abs(rule.nodes - ref.nodes)) <= ulp, m

    def test_weights_within_relative_bound(self, name):
        for m in ORACLE_SIZES:
            rule, ref = _rule_and_reference(name, m)
            assert np.max(np.abs(rule.weights / ref.weights - 1.0)) <= 2e-10, m

    def test_exactly_symmetric(self, name):
        for m in ORACLE_SIZES:
            rule, _ = _rule_and_reference(name, m)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1]), m
            assert np.array_equal(rule.weights, rule.weights[::-1]), m

    def test_even_moments(self, name):
        """sum(w x^(2j)) on the rule scaled to [-1, 1] is 2/(2j+1) to 64 eps;
        scaling keeps v_c^(2j+1) finite in SI units."""
        v_c = ORACLE_PARAMS[name].v_c
        for m in ORACLE_SIZES:
            rule, _ = _rule_and_reference(name, m)
            x, w = rule.nodes / v_c, rule.weights / v_c
            for j in range(min(m, 40)):
                assert abs(w @ x ** (2 * j) - 2.0 / (2 * j + 1)) <= 64 * np.finfo(float).eps, (m, j)


class TestUnitRuleMemo:
    """gauss_legendre_rule scales a cached unit-interval rule by v_c."""

    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    def test_cached_rule_equals_an_uncached_build_bit_for_bit(self, params):
        for m in [1, 2, 3, 255, 2048, 2056, 3208, 4096]:
            nodes, weights = _unit_gauss_legendre.__wrapped__(m)
            for _ in range(2):  # the second call is served from the cache
                rule = gauss_legendre_rule(params, m)
                assert np.array_equal(rule.nodes, params.v_c * nodes), m
                assert np.array_equal(rule.weights, params.v_c * weights), m

    def test_mutating_a_rule_leaves_the_next_one_intact(self):
        first = gauss_legendre_rule(CANON, 2056)
        expected = QuadratureRule(first.nodes.copy(), first.weights.copy())
        first.nodes[:] = 0.0
        first.weights[:] = 1.0
        again = gauss_legendre_rule(CANON, 2056)
        assert np.array_equal(again.nodes, expected.nodes)
        assert np.array_equal(again.weights, expected.weights)

    def test_cached_unit_arrays_are_read_only(self):
        nodes, weights = _unit_gauss_legendre(255)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights *= 2.0

    def test_cache_stays_within_its_bound(self):
        bound = _unit_gauss_legendre.cache_info().maxsize
        for m in range(100, 100 + 2 * bound):
            gauss_legendre_rule(CANON, m)
            assert _unit_gauss_legendre.cache_info().currsize <= bound

    def test_second_request_runs_no_newton_sweep(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return _theta_start(m)

        monkeypatch.setattr("deformspec.quadrature._theta_start", counting)
        _unit_gauss_legendre.cache_clear()
        gauss_legendre_rule(CANON, 3208)
        gauss_legendre_rule(custom_params(0.8, 3.0, 1.7), 3208)
        gauss_legendre_rule(CANON, 3208.0)
        assert calls == [3208]


class TestSimpson:
    def test_needs_odd_points(self):
        with pytest.raises(ValidationError):
            composite_simpson_rule(CANON, 8)

    def test_quartic(self):
        rule = composite_simpson_rule(CANON, 2001)
        exact = 2 * CANON.v_c**5 / 5
        assert rule.weights @ _evaluate(lambda v: v**4, rule.nodes) == pytest.approx(exact, rel=1e-10)

    def test_weight_sum(self):
        rule = composite_simpson_rule(CANON, 4097)
        assert np.sum(rule.weights) == pytest.approx(2 * CANON.v_c, rel=1e-12)


class TestIntegrate:
    def test_constant(self):
        for rule in (gauss_legendre_rule(CANON, 16), composite_simpson_rule(CANON, 33)):
            total = rule.weights @ _evaluate(lambda v: np.ones_like(v), rule.nodes)
            assert total == pytest.approx(2 * CANON.v_c, rel=1e-12)

    def test_normalization_of_mode_zero(self):
        rule = gauss_legendre_rule(CANON, 64)
        norm_sq = rule.weights @ _evaluate(lambda v: eigenfunction(CANON, 0, v) ** 2, rule.nodes)
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_of_first_two_modes(self):
        rule = gauss_legendre_rule(CANON, 64)
        product = rule.weights @ _evaluate(
            lambda v: eigenfunction(CANON, 0, v) * eigenfunction(CANON, 1, v), rule.nodes
        )
        assert abs(product) < 1e-10

    def test_odd_part_cancels(self):
        rule = gauss_legendre_rule(CANON, 32)
        assert abs(rule.weights @ _evaluate(lambda v: v * np.cos(v), rule.nodes)) < 1e-12

    def test_scalar_only_callable(self):
        rule = gauss_legendre_rule(CANON, 8)
        total = rule.weights @ _evaluate(math.cos, rule.nodes)
        assert total == pytest.approx(2 * math.sin(CANON.v_c), rel=1e-10)

    def test_error_on_node_array_propagates_without_point_retries(self):
        calls = []

        def target(v):
            calls.append(v)
            if np.any(np.asarray(v) > 0.5 * CANON.v_c):
                raise DomainError("outside the target's domain")
            return np.ones_like(v)

        with pytest.raises(DomainError):
            _evaluate(target, composite_simpson_rule(CANON, 4097).nodes)
        assert len(calls) == 1


def test_default_projection_rule_switches_family():
    assert not _on_uniform_nodes(CANON, default_projection_rule(CANON, 16).nodes)
    assert len(default_projection_rule(CANON, 16).nodes) == 256
    assert len(default_projection_rule(CANON, 100).nodes) == 808
    big = default_projection_rule(CANON, 1000)
    assert _on_uniform_nodes(CANON, big.nodes)
    assert len(big.nodes) >= 8 * 1001


class TestFiniteDifferences:
    def test_second_derivative_of_square(self):
        grid = uniform_grid(CANON, 64)
        d2 = fd_derivative(CANON, grid**2, 2)
        np.testing.assert_allclose(d2[1:-1], 2.0, atol=1e-8)

    def test_first_derivative_of_sine(self):
        grid = uniform_grid(CANON, 512)
        d1 = fd_derivative(CANON, np.sin(grid), 1)
        assert np.max(np.abs(d1 - np.cos(grid))) < 5e-6

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
            d = fd_derivative(CANON, np.sin(grid), order)
            errors.append(np.max(np.abs(d - exact(grid))))
        measured = math.log2(errors[0] / errors[1])
        assert 1.9 <= measured <= 2.1

    def test_mode_zero_richardson_order(self):
        k0 = wavenumber(CANON, 0)
        errors = []
        for m in (256, 512):
            grid = uniform_grid(CANON, m)
            values = eigenfunction(CANON, 0, grid)
            d2 = fd_derivative(CANON, values, 2)
            errors.append(np.max(np.abs(d2 + k0**2 * values)))
        assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1

    def test_composed_first_derivatives_match_second(self):
        grid = uniform_grid(CANON, 1024)
        values = np.sin(grid)
        twice = fd_derivative(CANON, fd_derivative(CANON, values, 1), 1)
        direct = fd_derivative(CANON, values, 2)
        interior = slice(4, -4)
        h = 2.0 * CANON.v_c / 1024
        assert np.max(np.abs(twice[interior] - direct[interior])) < 10 * h**2

    def test_order_range(self):
        grid = uniform_grid(CANON, 32)
        with pytest.raises(ValidationError):
            fd_derivative(CANON, np.sin(grid), 5)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_stencil_table_is_exact_on_low_monomials(self, order):
        # in exact rational arithmetic at h = 1, every row takes the order-th
        # derivative at 0 of x**j, j <= order + 1, without error
        central, fwd = _STENCILS[order]
        radius = 1 if order <= 2 else 2
        assert (len(central), len(fwd)) == (2 * radius + 1, order + 2)
        rows = [
            (central, range(-radius, radius + 1)),
            (fwd, range(order + 2)),
            ([(-1) ** order * w for w in fwd[::-1]], range(-order - 1, 1)),
        ]
        for weights, offsets in rows:
            for j in range(order + 2):
                got = sum(Fraction(w) * x**j for w, x in zip(weights, offsets))
                assert got == (math.factorial(order) if j == order else 0)

    def test_too_few_points(self):
        grid = uniform_grid(CANON, 6)
        with pytest.raises(ResolutionError):
            fd_derivative(CANON, np.sin(grid), 4)
