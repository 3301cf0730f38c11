import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    CoefficientVector,
    DomainError,
    QuadratureRule,
    ResolutionError,
    ValidationError,
    canonical_params,
    composite_simpson_rule,
    convergence_study,
    custom_params,
    default_projection_rule,
    deformation_profile,
    eigenfunction,
    evaluate,
    gauss_legendre_rule,
    gram_matrix,
    l2_norm,
    parseval_defect,
    project,
    si_params,
    uniform_grid,
)
from deformspec import transform

CANON = canonical_params()
GL256 = gauss_legendre_rule(CANON, 256)
EPS = np.finfo(float).eps
# one dense basis at the GL cap: 512 modes on 4096 nodes
DENSE_BASIS_BYTES = 512 * 4096 * 8


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
        np.testing.assert_allclose(evaluate(coeffs, grid), eigenfunction(CANON, 0, grid), atol=1e-10)

    def test_round_trip_in_span(self):
        rng = np.random.default_rng(7)
        target_coeffs = CoefficientVector(CANON, rng.uniform(-1, 1, 6))
        f = lambda v: evaluate(target_coeffs, v)
        recovered = project(CANON, f, 5, GL256)
        grid = uniform_grid(CANON, 200)
        np.testing.assert_allclose(evaluate(recovered, grid), evaluate(target_coeffs, grid), atol=1e-9)

    def test_interior_error_shrinks_with_truncation(self):
        # measured with the closed-form coefficients: the sup error on
        # |v| <= 0.9 v_c drops from 0.1844 (N=8) to 0.0504 (N=64), a 3.66x
        # reduction; the endpoint mismatch C(+-v_c) = 1 != 0 keeps
        # convergence interior-only
        rule = default_projection_rule(CANON, 64)
        grid = uniform_grid(CANON, 512)
        mask = np.abs(grid) <= 0.9 * CANON.v_c
        errors = {}
        coeffs = project(CANON, profile, 64, rule)
        for n in (8, 64):
            partial = CoefficientVector(CANON, coeffs.coefficients[: n + 1])
            errors[n] = np.max(np.abs(evaluate(partial, grid)[mask] - profile(grid[mask])))
        assert errors[8] == pytest.approx(0.1844, abs=2e-3)
        assert errors[64] == pytest.approx(0.0504, abs=1e-3)
        assert errors[8] / errors[64] > 3.5

    def test_uniform_pi_coefficients_vanish_at_endpoints(self):
        for n_max in (0, 7, 64):
            coeffs = CoefficientVector(CANON, np.full(n_max + 1, math.pi))
            rec = evaluate(coeffs, uniform_grid(CANON, 64))
            assert abs(rec[0]) < 1e-12
            assert abs(rec[-1]) < 1e-12

    def test_endpoint_annihilation_generic(self):
        coeffs = project(CANON, profile, 32, gauss_legendre_rule(CANON, 512))
        rec = evaluate(coeffs, uniform_grid(CANON, 100))
        assert abs(rec[0]) < 1e-12 and abs(rec[-1]) < 1e-12


class TestNorm:
    def test_eigenfunction_normalized(self):
        assert l2_norm(lambda v: eigenfunction(CANON, 5, v), GL256) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_profile_norm_closed_form(self):
        assert profile_norm_sq() == pytest.approx(10.40568505390259, rel=1e-14)
        assert l2_norm(profile, GL256) == pytest.approx(math.sqrt(profile_norm_sq()), rel=1e-12)
        assert l2_norm(profile, GL256) == pytest.approx(3.2257844, rel=1e-6)

    def test_zero_function(self):
        assert l2_norm(lambda v: np.zeros_like(v), gauss_legendre_rule(CANON, 8)) == 0.0


class TestParseval:
    def test_in_span_defect_vanishes(self):
        norm, defect = parseval_defect(CANON, lambda v: eigenfunction(CANON, 3, v), 5, GL256)
        assert abs(defect) < 1e-10 and norm == pytest.approx(1.0, abs=1e-12)

    def test_profile_defect_matches_tail(self):
        rule = default_projection_rule(CANON, 200)
        norm, defect = parseval_defect(CANON, profile, 200, rule)
        assert norm == l2_norm(profile, rule)
        tail = profile_norm_sq() - sum(profile_coefficient(n) ** 2 for n in range(201))
        assert defect == pytest.approx(tail, rel=1e-6)
        assert 0 < defect / profile_norm_sq() < 1e-3

    def test_defect_never_below_quadrature_slack(self):
        for n, f in ((5, lambda v: eigenfunction(CANON, 3, v)), (8, const_one)):
            assert parseval_defect(CANON, f, n, GL256)[1] >= -1e-9

    @pytest.mark.parametrize("route", ["project", "parseval_defect", "convergence_study"])
    @pytest.mark.parametrize("n_max", [32, 600], ids=["gauss-legendre", "simpson"])
    def test_samples_the_rule_nodes_once(self, route, n_max):
        """Each route projects through one sampling of the target on the rule's
        nodes; convergence_study samples its interior window once besides."""
        rule = default_projection_rule(CANON, n_max)
        calls = []

        def target(v):
            calls.append(np.asarray(v))
            return profile(v)

        if route == "project":
            project(CANON, target, n_max, rule)
        elif route == "parseval_defect":
            parseval_defect(CANON, target, n_max, rule)
        else:
            convergence_study(CANON, target, [n_max // 2, n_max])
        on_nodes = [v for v in calls if v.shape == rule.nodes.shape and np.array_equal(v, rule.nodes)]
        assert len(on_nodes) == 1 and len(calls) == (2 if route == "convergence_study" else 1)

    def test_defect_strictly_decreasing_over_doublings(self):
        rule = default_projection_rule(CANON, 512)
        coeffs = project(CANON, profile, 512, rule)
        norm_sq = l2_norm(profile, rule) ** 2
        cumulative = np.cumsum(coeffs.coefficients**2)
        defects = [norm_sq - cumulative[n] for n in (64, 128, 256, 512)]
        assert all(b < a for a, b in zip(defects, defects[1:]))


class TestGram:
    @pytest.mark.parametrize(
        "n_max, rule",
        [(n, default_projection_rule(CANON, n)) for n in (8, 64, 255, 511)] + [(8, gauss_legendre_rule(CANON, 4096))],
        ids=["default-8", "default-64", "default-255", "default-511", "nodes-4096-8"],
    )
    def test_exactly_symmetric(self, n_max, rule):
        gram = gram_matrix(CANON, n_max, rule)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize(
        "params", [CANON, si_params(), custom_params(0.8, 3.0, 1.7)], ids=["canonical", "si", "custom"]
    )
    def test_bitwise_symmetric_on_every_rule_kind(self, params):
        """The Gram CSV mirrors the upper triangle, so every entry must equal its
        transpose bit for bit: default GL rules (n_max 0-300, sampled), Simpson
        past 4096 nodes (odd and even counts) and small node counts."""
        sizes = [(n, None) for n in (*range(0, 301, 23), 255, 300)]
        sizes += [(8, 4097), (64, 4098), (600, 19233), (100, 20000)]
        sizes += [(0, 8), (1, 17), (2, 24), (11, 100)]
        for n_max, nodes in sizes:
            bits = gram_matrix(params, n_max, default_projection_rule(params, n_max, nodes)).view(np.int64)
            assert np.array_equal(bits, bits.T), (n_max, nodes)

    @pytest.mark.parametrize(
        "params", [CANON, si_params(), custom_params(0.8, 3.0, 1.7)], ids=["canonical", "si", "custom"]
    )
    def test_moment_windows_equal_the_index_form(self, params, monkeypatch):
        """The oracle gathers the Toeplitz and Hankel terms from the same
        moments c through the n x n index arrays |n-m| and n+m+2; the windows
        must give the same matrix bit for bit, on GL, Simpson and small rules."""
        windows = []

        def recording(x, size):
            windows.append(x)
            return sliding_window_view(x, size)

        monkeypatch.setattr(transform, "sliding_window_view", recording)
        for n_max, nodes in [(0, None), (3, None), (8, 4096), (64, 4097), (127, 2048), (255, None), (600, 19233)]:
            windows.clear()
            gram = gram_matrix(params, n_max, default_projection_rule(params, n_max, nodes))
            toeplitz, hankel = windows
            c = np.full(2 * n_max + 3, np.nan)
            c[: n_max + 1], c[2:] = toeplitz[n_max:], hankel
            n = np.arange(n_max + 1)
            want = (c[np.abs(n[:, None] - n)] - c[n[:, None] + n + 2]) / (2.0 * params.v_c)
            assert gram.tobytes() == want.tobytes(), (n_max, nodes)

    def test_peak_within_twice_the_result(self):
        # the index form's two n x n int64 index arrays and gather peaked at 3x the result
        rule = composite_simpson_rule(CANON, 19233)
        nbytes = 601 * 601 * 8
        assert peak_bytes(lambda: gram_matrix(CANON, 600, rule)) < 2 * nbytes

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


def basis_matrix(params, n_max, v):
    """Rows psi_0(v)..psi_{n_max}(v) from `_sine_tables`, B rows at a time with
    one B x len(v) temporary: the dense basis, the oracle for the routes that
    never form it.  The sqrt(1/v_c) scale is the last rounding of each entry,
    as in `eigenfunction`."""
    sin_high, cos_high, sin_low, cos_low = transform._sine_tables(params, n_max, v)
    scale = math.sqrt(1.0 / params.v_c)
    out = np.empty((n_max + 1, len(v)))
    b = len(sin_low)
    for q in range(len(sin_high)):
        rows = out[q * b : (q + 1) * b]
        np.multiply(sin_high[q], cos_low[: len(rows)], out=rows)
        rows += cos_high[q] * sin_low[: len(rows)]
        rows *= scale
    return out


def dense_projection(rule, n_max, targets, block=8192):
    """Oracle for the FFT route: basis_matrix(...) @ (w*f) per target, summed
    over node blocks so the basis never holds more than `block` columns."""
    weighted = np.stack([rule.weights * target(rule.nodes) for target in targets], axis=1)
    return sum(
        basis_matrix(CANON, n_max, rule.nodes[i : i + block]) @ weighted[i : i + block]
        for i in range(0, len(rule.nodes), block)
    )


def dense_gram(rule, n_max):
    basis = basis_matrix(CANON, n_max, rule.nodes)
    return (basis * rule.weights) @ basis.T


def peak_bytes(call) -> int:
    """Peak traced allocation of one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
            raise AssertionError("sine tables built on uniform nodes")

        monkeypatch.setattr(transform, "_sine_tables", no_basis)
        rule = composite_simpson_rule(CANON, 4097)
        coeffs = project(CANON, profile, 8, rule)
        gram_matrix(CANON, 8, rule)
        evaluate(coeffs, rule.nodes)
        evaluate(coeffs, uniform_grid(CANON, 256))

    def test_non_uniform_simpson_nodes_take_the_table_route(self, monkeypatch):
        simpson = composite_simpson_rule(CANON, 4097)
        nodes = simpson.nodes.copy()
        nodes[1000] = np.nextafter(nodes[1000], 0.0)
        rule = QuadratureRule(nodes, simpson.weights)
        tables = []
        sine_tables = transform._sine_tables

        def recorded(params, n_max, v):
            tables.append(n_max)
            return sine_tables(params, n_max, v)

        monkeypatch.setattr(transform, "_sine_tables", recorded)
        coeffs = project(CANON, profile, 8, rule).coefficients
        gram = gram_matrix(CANON, 8, rule)
        values = evaluate(CoefficientVector(CANON, coeffs), nodes)
        # the Gram matrix takes the cosine moments up to 2N+2 from the tables of mode 2N+1
        assert tables == [8, 17, 8]
        oracle = PerEntryOracle(rule, 8)
        oracle.check_project(coeffs, profile(nodes))
        oracle.check_gram(gram)
        oracle.check_evaluate(coeffs, values)

    @pytest.mark.parametrize("endpoint", [-CANON.v_c, CANON.v_c])
    def test_non_finite_endpoint_value_rejected(self, endpoint):
        # psi_n vanishes at the endpoints, so the FFT drops these samples;
        # the target must still be finite there
        with pytest.raises(ValidationError, match="finite"):
            project(CANON, lambda v: np.where(v == endpoint, np.nan, 1.0), 8, composite_simpson_rule(CANON, 4097))


class PerEntryOracle:
    """The per-entry basis (`eigenfunction`, one sinpi per mode and node) as
    the oracle for the sine-table routes on non-uniform nodes.

    Each table entry is within ENTRY = 4 (N+1) eps/sqrt(v_c) of the per-entry
    one (see tests/test_spectrum.py), and that bound is carried through each
    sum: a_n moves by at most ENTRY sum_j |w_j f_j|, and the expansion by at
    most ENTRY sum_n |a_n|.  G_nm = (c_|n-m| - c_(n+m+2))/(2 v_c) takes its
    cosine moments from the tables of mode 2N+1, each entry within
    2 ENTRY sqrt(v_c), so it moves by at most 2 ENTRY sum_j w_j/sqrt(v_c), the
    bound of a product of two modes (|psi| <= 1/sqrt(v_c)).  The summation
    rounding of either side stays below 0.3 of these bounds at the tested
    sizes.
    """

    def __init__(self, rule, n_max, params=CANON):
        self.rule = rule
        self.params = params
        self.basis = eigenfunction(params, np.arange(n_max + 1)[:, None], rule.nodes[None, :])
        self.entry = 4 * (n_max + 1) * EPS / math.sqrt(params.v_c)

    def check_project(self, coeffs, samples):
        weighted = self.rule.weights * samples
        assert np.max(np.abs(coeffs - self.basis @ weighted)) <= self.entry * np.sum(np.abs(weighted))

    def check_gram(self, gram):
        want = (self.basis * self.rule.weights) @ self.basis.T
        bound = 2 * self.entry * np.sum(self.rule.weights) / math.sqrt(self.params.v_c)
        assert np.max(np.abs(gram - want)) <= bound

    def check_evaluate(self, coeffs, values):
        assert np.max(np.abs(values - coeffs @ self.basis)) <= self.entry * np.sum(np.abs(coeffs))


def long_double_modes(params, n_max, v):
    """psi_0..psi_{n_max} at the double points v in np.longdouble, the phase
    (n+1) (v + v_c)/(2 v_c) formed and reduced by x - round(x) in extended
    precision before the sine."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    t = (v.astype(ld) + ld(params.v_c)) / (ld(params.v_c) + ld(params.v_c))
    x = np.arange(1, n_max + 2, dtype=ld)[:, None] * t
    k = np.round(x)
    sign = 1 - 2 * (k.astype(np.int64) & 1)
    return sign * np.sin(pi * (x - k)) / np.sqrt(ld(params.v_c))


class TestSineTables:
    """project, gram_matrix and evaluate on non-uniform points, which build the
    modes from sine and cosine tables by angle addition."""

    @pytest.mark.parametrize("n_max, nodes", [(0, 64), (3, 64), (32, 264), (100, 1000), (255, 2048), (511, 4096)])
    def test_match_per_entry_oracle_on_gauss_legendre_nodes(self, n_max, nodes):
        rule = gauss_legendre_rule(CANON, nodes)
        oracle = PerEntryOracle(rule, n_max)
        oracle.check_project(project(CANON, profile, n_max, rule).coefficients, profile(rule.nodes))
        oracle.check_gram(gram_matrix(CANON, n_max, rule))
        coeffs = np.random.default_rng(n_max).uniform(-1, 1, n_max + 1)
        oracle.check_evaluate(coeffs, evaluate(CoefficientVector(CANON, coeffs), rule.nodes))

    @pytest.mark.parametrize("params", [si_params(), custom_params(0.8, 3.0, 1.7)], ids=["si", "custom"])
    def test_match_per_entry_oracle_at_other_scales(self, params):
        rule = gauss_legendre_rule(params, 2048)
        oracle = PerEntryOracle(rule, 255, params)
        target = functools.partial(deformation_profile, params)
        oracle.check_project(project(params, target, 255, rule).coefficients, target(rule.nodes))
        oracle.check_gram(gram_matrix(params, 255, rule))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is double")
    @pytest.mark.parametrize("params", [CANON, si_params()], ids=["canonical", "si"])
    def test_error_against_long_double_within_per_entry_error(self, params):
        # 61 nodes of the 4096-node rule, all 512 modes; both routes start from
        # the same rounded t, whose error dominates, so their errors come out close
        nodes = gauss_legendre_rule(params, 4096).nodes[::68]
        reference = long_double_modes(params, 511, nodes)
        table_error = np.max(np.abs(basis_matrix(params, 511, nodes) - reference))
        entry_error = np.max(np.abs(eigenfunction(params, np.arange(512)[:, None], nodes[None, :]) - reference))
        assert table_error <= 1.5 * entry_error

    def test_project_never_fills_the_basis(self):
        rule = gauss_legendre_rule(CANON, 4096)
        assert len(project(CANON, profile, 511, rule).coefficients) == 512
        assert peak_bytes(lambda: project(CANON, profile, 511, rule)) < DENSE_BASIS_BYTES
        assert peak_bytes(lambda: parseval_defect(CANON, profile, 511, rule)) < DENSE_BASIS_BYTES

    def test_gram_and_evaluate_peak_below_one_dense_basis(self):
        rule = gauss_legendre_rule(CANON, 4096)
        coeffs = CoefficientVector(CANON, np.random.default_rng(9).uniform(-1, 1, 512))
        assert peak_bytes(lambda: gram_matrix(CANON, 511, rule)) < DENSE_BASIS_BYTES
        assert peak_bytes(lambda: evaluate(coeffs, rule.nodes)) < DENSE_BASIS_BYTES

    @pytest.mark.parametrize("v", [[2 * CANON.v_c, 0.1], [0.1, np.nextafter(-CANON.v_c, -1.0)], [0.1, np.nan]])
    def test_evaluate_rejects_points_off_the_interval(self, v):
        with pytest.raises(DomainError):
            evaluate(CoefficientVector(CANON, [1.0, 2.0]), v)

    def test_project_and_gram_reject_nodes_off_the_interval(self):
        rule = gauss_legendre_rule(CANON, 64)
        nodes = rule.nodes.copy()
        nodes[-1] = 1.5 * CANON.v_c
        outside = QuadratureRule(nodes, rule.weights)
        with pytest.raises(DomainError):
            project(CANON, const_one, 4, outside)
        with pytest.raises(DomainError):
            gram_matrix(CANON, 4, outside)

    def test_evaluate_at_the_endpoints_gives_exact_zeros(self):
        coeffs = CoefficientVector(CANON, np.random.default_rng(8).uniform(-1, 1, 512))
        values = evaluate(coeffs, [-CANON.v_c, 0.3, CANON.v_c])
        assert values[0] == 0.0 and values[2] == 0.0 and values[1] != 0.0


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
        dense_error = np.max(np.abs(coeffs.coefficients @ basis_matrix(CANON, n_max, v[samples]) - reference))
        eps = np.finfo(float).eps
        assert fft_error <= eps * math.log2(2 * points) * np.sum(np.abs(coeffs.coefficients)) / math.sqrt(CANON.v_c)
        assert fft_error <= dense_error

    def test_folded_modes_match_dense_route(self):
        # N + 1 > P: modes alias onto k = (n+1) mod 2P, with a sign flip past P
        coeffs = CoefficientVector(CANON, np.random.default_rng(5).uniform(-1, 1, 101))
        v = np.linspace(-CANON.v_c, CANON.v_c, 17)
        values = evaluate(coeffs, v)
        assert values[0] == 0.0 and values[-1] == 0.0
        assert np.max(np.abs(values - coeffs.coefficients @ basis_matrix(CANON, 100, v))) <= 1e-13


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
