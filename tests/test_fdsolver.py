import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    ConditioningWarning,
    NumericalError,
    TridiagonalSymmetricMatrix,
    ValidationError,
    canonical_params,
    custom_params,
    discretize,
    eigenfunction,
    eigenvalue,
    eigenvalues_tridiagonal,
    eigenvector_inverse_iteration,
    interior_grid,
    refinement_study,
    top_eigenvalues,
    validate_against_analytic,
)
from deformspec.fdsolver import _solve_shifted, _sturm_counts

CANON = canonical_params()


# Reference solver: one midpoint per Sturm sweep, whole-array numpy
# recurrences and numpy-scalar elimination.  The library's multisection,
# buffered recurrences and list-based elimination perform the same IEEE
# operations, so every result must equal these bit for bit.


def reference_sturm_counts(diag, off2, pivmin, xs):
    d = diag[0] - xs
    count = (d <= 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(diag)):
            d = np.where(d == 0.0, -pivmin, d)
            d = diag[i] - xs - off2[i - 1] / d
            count += d <= 0
    return count


def reference_eigenvalues_ascending(A, indices):
    off2 = A.offdiag**2
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    radius = np.zeros(A.dim)
    radius[:-1] += np.abs(A.offdiag)
    radius[1:] += np.abs(A.offdiag)
    lo = np.full(len(indices), float(np.min(A.diag - radius)))
    hi = np.full(len(indices), float(np.max(A.diag + radius)))
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = reference_sturm_counts(A.diag, off2, pivmin, mid) <= indices
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        tol = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
        if np.all(hi - lo <= tol):
            break
    return 0.5 * (lo + hi)


def reference_top_eigenvalues(A, count):
    return reference_eigenvalues_ascending(A, np.arange(A.dim - count, A.dim))[::-1]


def reference_solve_shifted(A, lam, b):
    n = A.dim
    main = A.diag - lam
    upper = np.zeros(n)
    upper[:-1] = A.offdiag
    fill = np.zeros(n)
    lower = np.zeros(n)
    lower[:-1] = A.offdiag
    scale = float(np.max(np.abs(main))) + 2.0 * (float(np.max(np.abs(A.offdiag))) if n > 1 else 0.0)
    floor = np.finfo(float).eps * max(scale, 1e-290)
    x = np.asarray(b, dtype=float).copy()
    for i in range(n - 1):
        if abs(lower[i]) > abs(main[i]):
            main[i], lower[i] = lower[i], main[i]
            upper[i], main[i + 1] = main[i + 1], upper[i]
            if i + 1 < n - 1:
                fill[i], upper[i + 1] = upper[i + 1], 0.0
            x[i], x[i + 1] = x[i + 1], x[i]
        if abs(main[i]) < floor:
            main[i] = floor if main[i] >= 0 else -floor
        mult = lower[i] / main[i]
        main[i + 1] -= mult * upper[i]
        if i + 1 < n - 1:
            upper[i + 1] -= mult * fill[i]
        x[i + 1] -= mult * x[i]
    if abs(main[-1]) < floor:
        main[-1] = floor if main[-1] >= 0 else -floor
    x[-1] /= main[-1]
    if n >= 2:
        x[-2] = (x[-2] - upper[-2] * x[-1]) / main[-2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1] - fill[i] * x[i + 2]) / main[i]
    return x


def toeplitz_eigenvalues(params, m):
    """Closed form for the discretized operator: classic tridiagonal Toeplitz."""
    h = 2 * params.v_c / (m + 1)
    j = np.arange(1, m + 1)
    mu = (4 / h**2) * np.sin(j * math.pi / (2 * (m + 1))) ** 2
    return np.sort(math.pi * (1 - (params.hbar / params.c) ** 2 * mu))[::-1]


class TestDiscretize:
    def test_m3_entries(self):
        A = discretize(CANON, 3)
        h = CANON.v_c / 2
        assert A.dim == 3
        np.testing.assert_allclose(A.diag, math.pi * (1 - 2 / h**2), rtol=1e-15)
        np.testing.assert_allclose(A.offdiag, math.pi / h**2, rtol=1e-15)

    def test_toeplitz(self):
        A = discretize(CANON, 50)
        assert np.all(A.diag == A.diag[0])
        assert np.all(A.offdiag == A.offdiag[0])

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            discretize(CANON, 2)

    def test_coefficient_overflow_raises(self):
        with pytest.raises(NumericalError, match="overflows"):
            discretize(custom_params(1, 1, 1e-300), 100)

    def test_consistency_on_mode_zero(self):
        # applying A to samples of psi_0 approximates C_0 psi_0 with O(h^2) residual
        residuals = []
        for m in (200, 400):
            A = discretize(CANON, m)
            samples = eigenfunction(CANON, 0, interior_grid(CANON, m))
            residuals.append(np.max(np.abs(A.matvec(samples) - eigenvalue(CANON, 0) * samples)))
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.1)

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            TridiagonalSymmetricMatrix(diag=np.array([1.0, 2.0]), offdiag=np.array([]))


class TestEigenvalues:
    @pytest.mark.parametrize("m", [3, 10, 100])
    def test_toeplitz_oracle(self, m):
        lam = eigenvalues_tridiagonal(discretize(CANON, m))
        exact = toeplitz_eigenvalues(CANON, m)
        assert np.max(np.abs(lam - exact) / np.abs(exact)) < 1e-10

    def test_diagonal_matrix(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([3.0, -1.0, 2.0]), offdiag=np.zeros(2))
        np.testing.assert_allclose(eigenvalues_tridiagonal(A), [3.0, 2.0, -1.0], atol=1e-14)

    def test_two_by_two_parity_split(self):
        a, b = 0.7, -0.3
        A = TridiagonalSymmetricMatrix(diag=np.array([a, a]), offdiag=np.array([b]))
        np.testing.assert_allclose(eigenvalues_tridiagonal(A), [a + abs(b), a - abs(b)], atol=1e-14)

    def test_sorted_decreasing_and_below_pi(self):
        lam = eigenvalues_tridiagonal(discretize(CANON, 500))
        assert np.all(np.diff(lam) < 0)
        assert np.all(lam < math.pi)

    def test_top_eigenvalues_consistent_with_full(self):
        A = discretize(CANON, 60)
        np.testing.assert_allclose(
            top_eigenvalues(A, 5), eigenvalues_tridiagonal(A)[:5], rtol=1e-12
        )

    def test_random_matrices_match_characteristic_recurrence_roots(self):
        """Independent oracle: bracket the sign changes of the characteristic
        recurrence directly and compare against the bisection eigenvalues."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(2, 13))
            diag = rng.uniform(-1, 1, dim)
            off = rng.uniform(-1, 1, dim - 1)
            A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
            lam = np.sort(eigenvalues_tridiagonal(A))

            def char_poly(x):
                p_prev, p = 1.0, diag[0] - x
                for i in range(1, dim):
                    p_prev, p = p, (diag[i] - x) * p - off[i - 1] ** 2 * p_prev
                return p

            radius = np.zeros(dim)
            radius[:-1] += np.abs(off)
            radius[1:] += np.abs(off)
            xs = np.linspace(np.min(diag - radius) - 0.1, np.max(diag + radius) + 0.1, 4001)
            values = np.array([char_poly(x) for x in xs])
            roots = []
            for i in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
                lo, hi = xs[i], xs[i + 1]
                flo = char_poly(lo)
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fmid = char_poly(mid)
                    if flo * fmid <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                roots.append(0.5 * (lo + hi))
            # pairs closer than the scan spacing leave no sign change, so the
            # bracketing oracle may find fewer than dim roots; every root it
            # does find must coincide with a bisection eigenvalue
            assert len(roots) >= dim - 2
            for root in roots:
                assert np.min(np.abs(lam - root)) < 1e-10
            # second, independent oracle for the complete set
            full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            np.testing.assert_allclose(lam, np.linalg.eigvalsh(full), atol=1e-10)

    @pytest.mark.parametrize(
        "diag, off",
        [(np.zeros(3), np.full(2, 1e155)), (np.full(2, -1e308), np.zeros(1))],
        ids=["off-diagonal-square", "bracket-sum"],
    )
    def test_overflow_raises(self, diag, off):
        A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
        with pytest.raises(NumericalError, match="overflows"):
            top_eigenvalues(A, 1)

    @pytest.mark.parametrize("d", [2.5, -0.0, 5e-324, -1e300, np.finfo(float).max / 2])
    def test_one_by_one_returns_the_diagonal(self, d):
        A = TridiagonalSymmetricMatrix(diag=np.array([d]), offdiag=np.array([]))
        # equal values: a diagonal of -0.0 comes back as 0.0, the midpoint of [-0.0, 0.0]
        for lam in (eigenvalues_tridiagonal(A), top_eigenvalues(A, 1)):
            assert np.array_equal(lam, A.diag)

    def test_one_by_one_overflow_raises(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([-np.finfo(float).max]), offdiag=np.array([]))
        with pytest.raises(NumericalError, match="overflows"):
            eigenvalues_tridiagonal(A)

    def test_interlacing_with_principal_submatrix(self):
        A = discretize(CANON, 30)
        B = TridiagonalSymmetricMatrix(diag=A.diag[:-1], offdiag=A.offdiag[:-1])
        a = np.sort(eigenvalues_tridiagonal(A))
        b = np.sort(eigenvalues_tridiagonal(B))
        for j in range(B.dim):
            assert a[j] - 1e-9 <= b[j] <= a[j + 1] + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-1, max_value=1), min_size=5, max_size=17),
    shift_a=st.floats(min_value=-3, max_value=3),
    shift_b=st.floats(min_value=-3, max_value=3),
)
def test_sturm_count_monotone_in_shift(data, shift_a, shift_b):
    dim = (len(data) + 1) // 2
    diag = np.array(data[:dim])
    off = np.array(data[dim : 2 * dim - 1])
    off2 = off**2
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    lo, hi = sorted((shift_a, shift_b))
    counts = _sturm_counts(diag, off2, pivmin, np.array([lo, hi]))
    assert 0 <= counts[0] <= counts[1] <= dim


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 7, 250, 2000])
    def test_all_and_top_eigenvalues(self, params, m):
        A = discretize(params, m)
        count = min(10, m)
        assert np.array_equal(top_eigenvalues(A, count), reference_top_eigenvalues(A, count))
        assert np.array_equal(eigenvalues_tridiagonal(A), reference_top_eigenvalues(A, m))

    def test_random_tridiagonals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 40))
            A = TridiagonalSymmetricMatrix(diag=rng.uniform(-1, 1, dim), offdiag=rng.uniform(-1, 1, dim - 1))
            count = int(rng.integers(1, dim + 1))
            assert np.array_equal(top_eigenvalues(A, count), reference_top_eigenvalues(A, count))
            assert np.array_equal(eigenvalues_tridiagonal(A), reference_top_eigenvalues(A, dim))

    def test_zero_pivot_shifts(self):
        # x = 1 zeroes the first pivot; x = 0 and x = 2 zero the second, an
        # eigenvalue of the leading 2x2 block (the pivmin path); the signed
        # zeros on the diagonal meet shifts of both signs of zero
        cases = [
            (np.ones(6), np.ones(5), [1.0, 0.0, 2.0, -0.0, 0.5, 3.0]),
            (np.array([0.0, -0.0, 0.0, -0.0, 1.0]), np.array([1.0, 0.0, 2.0, 1.0]), [0.0, -0.0, 1.0, -1.0]),
            (np.array([2.0, 2.0, -0.0, 0.0]), np.zeros(3), [2.0, 0.0, -0.0, -2.0]),
        ]
        for diag, off, xs in cases:
            off2 = off**2
            pivmin = max(float(np.max(off2)), 1.0) * 1e-290
            xs = np.array(xs)
            expected = reference_sturm_counts(diag, off2, pivmin, xs)
            assert np.array_equal(_sturm_counts(diag, off2, pivmin, xs), expected)
            A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
            assert np.array_equal(eigenvalues_tridiagonal(A), reference_top_eigenvalues(A, A.dim))

    def test_solve_shifted_on_benchmark_shifts(self):
        A = discretize(CANON, 2000)
        rhs = np.random.default_rng(0).standard_normal(A.dim)
        for lam in top_eigenvalues(A, 10):
            assert np.array_equal(_solve_shifted(A, lam, rhs), reference_solve_shifted(A, lam, rhs))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_shifted_on_small_dims(self, dim):
        # random bands pivot both ways; shifts at an eigenvalue hit the pivot floor
        rng = np.random.default_rng(dim)
        for _ in range(200):
            A = TridiagonalSymmetricMatrix(diag=rng.uniform(-1, 1, dim), offdiag=rng.uniform(-1, 1, dim - 1))
            rhs = rng.standard_normal(dim)
            for lam in (rng.uniform(-2, 2), *top_eigenvalues(A, dim)):
                got, expected = _solve_shifted(A, lam, rhs), reference_solve_shifted(A, lam, rhs)
                assert got.tobytes() == expected.tobytes()


def assert_within_sturm_brackets(A, eigenvalues):
    """The accuracy contract: each returned eigenvalue x (sorted decreasing,
    the top of the spectrum) with ascending index j satisfies
    count(x - t) <= j < count(x + t), where t covers a 1e-15 relative
    bracket or, where wider, a bracket after the 110-level cap."""
    off2 = A.offdiag**2
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    radius = np.zeros(A.dim)
    radius[:-1] += np.abs(A.offdiag)
    radius[1:] += np.abs(A.offdiag)
    capped_width = (np.max(A.diag + radius) - np.min(A.diag - radius)) / 2.0**110
    x = np.asarray(eigenvalues)[::-1]
    j = np.arange(A.dim - len(x), A.dim)
    t = np.maximum(2e-15 * np.maximum(np.abs(x), 1e-30), capped_width)
    assert np.all(_sturm_counts(A.diag, off2, pivmin, x - t) <= j)
    assert np.all(_sturm_counts(A.diag, off2, pivmin, x + t) >= j + 1)


class TestAccuracyContract:
    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 7, 250, 2000])
    def test_discretized_operator(self, params, m):
        A = discretize(params, m)
        assert_within_sturm_brackets(A, top_eigenvalues(A, min(10, m)))
        assert_within_sturm_brackets(A, eigenvalues_tridiagonal(A))

    def test_random_tridiagonals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 40))
            A = TridiagonalSymmetricMatrix(diag=rng.uniform(-1, 1, dim), offdiag=rng.uniform(-1, 1, dim - 1))
            assert_within_sturm_brackets(A, top_eigenvalues(A, int(rng.integers(1, dim + 1))))
            assert_within_sturm_brackets(A, eigenvalues_tridiagonal(A))

    @pytest.mark.parametrize(
        "diag, off",
        [
            (np.ones(6), np.ones(5)),
            (np.array([0.0, -0.0, 0.0, -0.0, 1.0]), np.array([1.0, 0.0, 2.0, 1.0])),
            (np.array([2.0, 2.0, -0.0, 0.0]), np.zeros(3)),
        ],
        ids=["ones", "signed-zeros", "decoupled"],
    )
    def test_zero_pivot_matrices(self, diag, off):
        A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
        assert_within_sturm_brackets(A, eigenvalues_tridiagonal(A))


class TestInverseIteration:
    def test_mode_zero_matches_samples(self):
        # the discrete eigenvector equals the eigenfunction samples exactly
        # for this Toeplitz family, so only solver error shows up here
        m = 500
        A = discretize(CANON, m)
        lam = top_eigenvalues(A, 1)[0]
        vec = eigenvector_inverse_iteration(A, lam)
        samples = eigenfunction(CANON, 0, interior_grid(CANON, m))
        samples /= np.linalg.norm(samples)
        assert np.max(np.abs(vec - samples)) < 1e-8
        assert np.linalg.norm(A.matvec(vec) - lam * vec) <= 1e-8

    def test_mode_three_sign_changes(self):
        A = discretize(CANON, 400)
        lam = top_eigenvalues(A, 4)[3]
        vec = eigenvector_inverse_iteration(A, lam)
        signs = np.sign(vec)
        signs = signs[signs != 0]
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 3

    def test_unit_norm_and_sign_gauge(self):
        A = discretize(CANON, 100)
        vec = eigenvector_inverse_iteration(A, top_eigenvalues(A, 1)[0])
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        significant = np.nonzero(np.abs(vec) > 1e-12 * np.max(np.abs(vec)))[0]
        assert vec[significant[0]] > 0

    def test_diagonal_matrix_basis_vector(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([1.0, 5.0, -2.0]), offdiag=np.zeros(2))
        vec = eigenvector_inverse_iteration(A, 5.0)
        np.testing.assert_allclose(vec, [0.0, 1.0, 0.0], atol=1e-8)

    def test_orthogonality_of_leading_eigenvectors(self):
        A = discretize(CANON, 500)
        lams = top_eigenvalues(A, 8)
        vecs = np.array([eigenvector_inverse_iteration(A, lam) for lam in lams])
        off_identity = vecs @ vecs.T - np.eye(8)
        assert np.max(np.abs(off_identity)) < 1e-8

    def test_clustered_eigenvalue_warns(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([1.0, 1.0]), offdiag=np.array([1e-9]))
        with pytest.warns(ConditioningWarning):
            eigenvector_inverse_iteration(A, 1.0 + 1e-9)

    def test_far_shift_does_not_converge(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([0.0, 10.0]), offdiag=np.array([0.1]))
        with pytest.raises(NumericalError):
            eigenvector_inverse_iteration(A, 5.0)


class TestValidation:
    def test_m2000_reproduces_leading_modes(self):
        report = validate_against_analytic(CANON, 2000, 10)
        assert np.all(np.diff(report.eigenvalues_fd) < 0)
        assert np.all(report.rel_errors[:6] < 1e-5)
        # second-difference truncation is (k_n h/2)^2/3 * k_n^2/(k_n^2 - 1)
        # relative, about 2.06e-5 at mode 9 on this grid
        assert np.all(report.rel_errors < 2.5e-5)
        k = np.arange(1, 11) * math.pi / (2 * CANON.v_c)
        expected = (k * report.h / 2) ** 2 / 3 * k**2 / (k**2 - 1)
        np.testing.assert_allclose(report.rel_errors, expected, rtol=2e-2)

    def test_precondition(self):
        with pytest.raises(ValidationError):
            validate_against_analytic(CANON, 20, 6)

    def test_refinement_study_order_two(self):
        reports = refinement_study(CANON, [250, 500, 1000, 2000], 1)
        assert all(1.9 <= r.convergence_order <= 2.1 for r in reports)
        errors = np.array([r.abs_errors[0] for r in reports])
        np.testing.assert_allclose(errors[:-1] / errors[1:], 4.0, rtol=0.05)

    def test_refinement_needs_increasing_sizes(self):
        with pytest.raises(ValidationError):
            refinement_study(CANON, [500, 250], 1)
