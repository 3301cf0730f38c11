import math
import warnings

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
)
from deformspec import fdsolver
from deformspec.fdsolver import _solve_shifted, _sturm_counts

CANON = canonical_params()


# Reference solver: one midpoint per Sturm sweep, whole-array numpy
# recurrences and numpy-scalar elimination.  The library's multisection,
# buffered recurrences and list-based elimination perform the same IEEE
# operations, so every result must equal these bit for bit: on the parity
# blocks, built here in full, for a persymmetric matrix with positive
# off-diagonals, and on the whole matrix for any other.


def reference_sturm_counts(diag, off2, pivmin, xs):
    d = diag[0] - xs
    count = (d <= 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(diag)):
            d = np.where(d == 0.0, -pivmin, d)
            d = diag[i] - xs - off2[i - 1] / d
            count += d <= 0
    return count


def reference_bisection(A, blocks, block, local):
    """Bisect the local-th eigenvalue (ascending) of the (diag, off2) matrix
    blocks[block] for each entry, every bracket from A's Gershgorin bounds
    and pivmin, all stopping together."""
    off2 = A.offdiag**2
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    radius = np.zeros(A.dim)
    radius[:-1] += np.abs(A.offdiag)
    radius[1:] += np.abs(A.offdiag)
    lo = np.full(len(local), float(np.min(A.diag - radius)))
    hi = np.full(len(local), float(np.max(A.diag + radius)))
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        counts = np.empty(len(local), dtype=np.int64)
        for b, (diag, block_off2) in enumerate(blocks):
            counts[block == b] = reference_sturm_counts(diag, block_off2, pivmin, mid[block == b])
        below = counts <= local
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        tol = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
        if np.all(hi - lo <= tol):
            break
    return 0.5 * (lo + hi)


def reference_eigenvalues_ascending(A, indices):
    """Bisection on the whole matrix."""
    indices = np.asarray(indices)
    return reference_bisection(A, [(A.diag, A.offdiag**2)], np.zeros_like(indices), indices)


def reference_top_eigenvalues(A, count):
    return reference_eigenvalues_ascending(A, np.arange(A.dim - count, A.dim))[::-1]


def parity_blocks(A):
    """The symmetric and antisymmetric blocks of a persymmetric A (dim >= 3),
    as (diag, off2): for even m = 2p the last diagonal is d + e or d - e,
    for odd m = 2p + 1 the symmetric block's extra row couples by 2 e^2."""
    m, p = A.dim, A.dim // 2
    d, e = A.diag, A.offdiag
    if m % 2:
        return [(d[: p + 1], np.r_[e[: p - 1] ** 2, 2 * e[p - 1] ** 2]), (d[:p], e[: p - 1] ** 2)]
    return [(np.r_[d[: p - 1], d[p - 1] + s * e[p - 1]], e[: p - 1] ** 2) for s in (1, -1)]


def block_ranks(blocks, count):
    """Block and ascending index in it of A's count largest eigenvalues: the
    j-th largest is the (j // 2)-th largest of block j % 2."""
    j = np.arange(count)
    sizes = np.array([len(diag) for diag, _ in blocks])
    block = j % len(blocks)
    return block, sizes[block] - 1 - j // len(blocks)


def reference_split_top_eigenvalues(A, count):
    blocks = parity_blocks(A)
    return reference_bisection(A, blocks, *block_ranks(blocks, count))


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


def reference_inverse_iteration(A, lam):
    """The full-matrix inverse iteration the parity-block path replaced: two
    solves on all m rows from a seeded normal start, the same gauge."""
    v = np.random.default_rng(0).standard_normal(A.dim)
    v /= np.linalg.norm(v)
    for _ in range(2):
        w = _solve_shifted(A, lam, v)
        w = np.ldexp(w, -math.frexp(np.max(np.abs(w)))[1])
        v = w / np.linalg.norm(w)
    significant = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    return -v if v[significant[0]] < 0 else v


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

    def test_diagonal_overflow_raises(self):
        # kappa = pi (hbar/c)^2/h^2 = 1.003e308 is finite, but the diagonal pi - 2 kappa is not
        with pytest.raises(NumericalError, match="3-point coefficient overflows"):
            discretize(custom_params(1.0, 2.0, 1.77e-154), 3)

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


def persymmetric_jacobi(half_diag, half_off, m):
    """The m x m matrix that reads the same backwards, from its leading
    ceil(m/2) diagonal and m//2 off-diagonal entries."""
    half_diag, half_off = np.array(half_diag), np.array(half_off)
    diag = np.r_[half_diag, half_diag[::-1][m % 2 :]]
    off = np.r_[half_off, half_off[::-1][(m - 1) % 2 :]]
    return TridiagonalSymmetricMatrix(diag=diag, offdiag=off)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=2, max_value=64), data=st.data())
def test_persymmetric_jacobi_top_eigenvalues(m, data):
    half_diag = data.draw(st.lists(st.floats(-1, 1), min_size=(m + 1) // 2, max_size=(m + 1) // 2))
    half_off = data.draw(st.lists(st.floats(1e-3, 1), min_size=m // 2, max_size=m // 2))
    A = persymmetric_jacobi(half_diag, half_off, m)
    assert np.array_equal(A.diag, A.diag[::-1]) and np.array_equal(A.offdiag, A.offdiag[::-1])
    full = np.diag(A.diag) + np.diag(A.offdiag, 1) + np.diag(A.offdiag, -1)
    dense, vectors = np.linalg.eigh(full)
    dense, vectors = dense[::-1], vectors[:, ::-1]
    eps = np.finfo(float).eps
    norm = np.max(np.abs(A.diag)) + 2 * np.max(A.offdiag)
    # the bisection is within eps * |A| of the exact values; the dense
    # solver's own error grows with m (up to 11 eps * |A| at m = 61 against
    # a 40-digit reference)
    for k in range(1, m + 1):
        np.testing.assert_allclose(top_eigenvalues(A, k), dense[:k], rtol=0, atol=(m + 8) * eps * norm)
    # the j-th largest eigenvector is symmetric for even j and antisymmetric
    # for odd j; checked where the gaps leave the vectors well determined
    gaps = np.abs(np.subtract.outer(dense, dense)) + np.diag(np.full(m, np.inf))
    parity = np.sum(vectors * vectors[::-1], axis=0)
    sign = (-1.0) ** np.arange(m)
    resolved = np.min(gaps, axis=1) > 1e-8 * norm
    assert np.all(parity[resolved] * sign[resolved] > 0.99)


def zero_pivot_kinds(diag, off2, pivmin, xs):
    """The divisions by a zero pivot that the counts at xs meet: 'divide'
    (x/0) under a nonzero squared off-diagonal, 'invalid' (0/0) under a zero
    one.  Follows reference_sturm_counts step for step."""
    kinds = set()
    d = diag[0] - xs
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(diag)):
            if np.any(d == 0.0):
                kinds.add("divide" if off2[i - 1] else "invalid")
            d = np.where(d == 0.0, -pivmin, d)
            d = diag[i] - xs - off2[i - 1] / d
    return kinds


# (diag, offdiag, the exception kind a shift at a diagonal entry or +-0.0 meets)
ZERO_PIVOT_CASES = [
    (np.array([2.0, 1.0, 2.0, 1.0, 2.0]), np.ones(4), "divide"),
    (np.array([1.0, 1.0, 3.0, -0.0, 1.0]), np.array([0.0, 1.0, 0.0, 0.0]), "invalid"),
    (np.array([0.0, -0.0, 2.0, 0.0, -0.0, 2.0]), np.array([0.0, 1.0, 0.0, 1.0, 0.0]), "invalid"),
    (np.array([0.0, 0.0, -1.0, 0.0]), np.array([2.0, 0.0, 1.0]), "divide"),
]
ZERO_PIVOT_IDS = ["integer-x/0", "zero-off-0/0", "signed-zeros", "mixed"]


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 7, 250, 251, 2000])
    def test_all_and_top_eigenvalues(self, params, m):
        A = discretize(params, m)
        count = min(10, m)
        assert np.array_equal(top_eigenvalues(A, count), reference_split_top_eigenvalues(A, count))
        assert np.array_equal(eigenvalues_tridiagonal(A), reference_split_top_eigenvalues(A, m))

    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 7, 250, 251, 2000])
    def test_all_eigenvalues_near_whole_matrix_bisection(self, params, m):
        # the blocks' last pivots round unlike the whole matrix's, which moves
        # a few interior eigenvalues by up to 1.8 eps * |A| (13 of 2000 at
        # m = 2000 canonical); the top ten, the shifts of the benchmark's
        # inverse-iteration vectors, are unchanged there
        A = discretize(params, m)
        norm = np.max(np.abs(A.diag)) + 2 * np.max(np.abs(A.offdiag))
        lam, whole = eigenvalues_tridiagonal(A), reference_top_eigenvalues(A, m)
        assert np.max(np.abs(lam - whole)) <= 4 * np.finfo(float).eps * norm
        if m == 2000:
            assert lam[:10].tobytes() == whole[:10].tobytes()

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

    @pytest.mark.parametrize("diag, off, kind", ZERO_PIVOT_CASES, ids=ZERO_PIVOT_IDS)
    def test_zero_pivots_of_each_exception_kind(self, diag, off, kind):
        off2 = off**2
        pivmin = max(float(np.max(off2)), 1.0) * 1e-290
        xs = np.concatenate([diag, [0.0, -0.0]])
        assert kind in zero_pivot_kinds(diag, off2, pivmin, xs)
        expected = reference_sturm_counts(diag, off2, pivmin, xs)
        assert np.array_equal(_sturm_counts(diag, off2, pivmin, xs), expected)
        A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
        for count in range(1, A.dim + 1):
            assert top_eigenvalues(A, count).tobytes() == reference_top_eigenvalues(A, count).tobytes()

    @pytest.mark.parametrize(
        "diag, off",
        [
            (np.ones(4), np.ones(3)),
            (np.ones(5), np.ones(4)),
            (np.array([2.0, 1.0, 2.0, 1.0, 2.0]), np.ones(4)),
            (np.array([0.0, 1.0, -0.0, -0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0, 2.0, 1.0])),
        ],
        ids=["even", "odd", "odd-alternating", "signed-zeros"],
    )
    def test_parity_split_counts_each_block(self, diag, off):
        # shifts at every diagonal entry, block end and +-0.0 zero the last
        # shared pivot (x = 1 on the ones) or a block's last pivot (x = 0
        # and x = 2 on the even ones)
        A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
        off2 = off**2
        pivmin = max(float(np.max(off2)), 1.0) * 1e-290
        count, sizes, _, _, matrices = fdsolver._sturm_view(A)
        blocks = parity_blocks(A)
        assert list(sizes) == [(A.dim + 1) // 2, A.dim // 2]
        for size, (block, mirror) in zip(sizes, matrices()):
            # A mirror(u) = mirror(B u): B's eigenvectors mirror to A's
            u = np.linspace(-1.0, 2.0, size)
            np.testing.assert_allclose(A.matvec(mirror(u)), mirror(block.matvec(u)), rtol=0, atol=1e-14)
        xs = np.unique(np.r_[diag, [d[-1] for d, _ in blocks], 0.0, -0.0, 1.0, 2.0])
        xs = np.r_[xs, -0.0]
        for b, (block_diag, block_off2) in enumerate(blocks):
            got = count(xs, np.full(len(xs), b))
            assert np.array_equal(got, reference_sturm_counts(block_diag, block_off2, pivmin, xs))
        # the blocks' counts add up to the whole matrix's where no pivot rounds
        both = count(np.r_[xs, xs], np.repeat([0, 1], len(xs)))
        assert np.array_equal(both[: len(xs)] + both[len(xs) :], reference_sturm_counts(diag, off2, pivmin, xs))

    def test_coupling_overflow_counts_the_whole_matrix(self):
        # e^2 is finite but the odd split's coupling 2 e^2 is not
        A = TridiagonalSymmetricMatrix(diag=np.zeros(3), offdiag=np.full(2, 1e154))
        assert list(fdsolver._sturm_view(A)[1]) == [3]
        with np.errstate(all="raise"):
            lam = eigenvalues_tridiagonal(A)
        assert lam.tobytes() == reference_top_eigenvalues(A, 3).tobytes()

    @pytest.mark.parametrize(
        "diag, off, distinct",
        [
            (np.tile([0.5, -1.0, 2.0], 4), np.tile([0.3, -0.7, 0.0], 4)[:-1], 3),
            (np.array([1.0, 2.0, 3.0, 1.0]), np.zeros(3), 3),
            (np.full(5, 2.0), np.zeros(4), 1),
            (np.array([-1.0, 4.0, -1.0, 0.0, -1.0]), np.zeros(4), 3),
        ],
        ids=["identical-blocks", "lower-bound-eigenvalue", "lower-equals-upper", "repeated-lower-bound"],
    )
    def test_shared_and_collapsed_brackets(self, diag, off, distinct):
        # exactly repeated eigenvalues keep one shared bracket to the end; a
        # diagonal matrix has an eigenvalue on its Gershgorin lower bound
        A = TridiagonalSymmetricMatrix(diag=diag, offdiag=off)
        lam = eigenvalues_tridiagonal(A)
        assert len(np.unique(lam)) == distinct
        for count in range(1, A.dim + 1):
            assert top_eigenvalues(A, count).tobytes() == reference_top_eigenvalues(A, count).tobytes()
        assert lam.tobytes() == reference_top_eigenvalues(A, A.dim).tobytes()

    @pytest.mark.parametrize(
        "outer", [{"all": "raise"}, {"all": "warn"}, {"under": "raise"}], ids=["raise", "warn", "under-raise"]
    )
    def test_same_bits_under_any_outer_error_state(self, outer):
        zero_pivot = [TridiagonalSymmetricMatrix(diag=diag, offdiag=off) for diag, off, _ in ZERO_PIVOT_CASES]
        matrices = [discretize(CANON, 250), *zero_pivot]
        expected = [reference_split_top_eigenvalues(matrices[0], 250)]
        expected += [reference_top_eigenvalues(A, A.dim) for A in zero_pivot]
        # a shift at every diagonal entry and at +-0.0, for each (diag, off2, pivmin, xs)
        count_args = [
            (A.diag, A.offdiag**2, max(float(np.max(A.offdiag**2)), 1.0) * 1e-290, np.r_[A.diag, 0.0, -0.0])
            for A in matrices
        ]
        expected_counts = [reference_sturm_counts(*args) for args in count_args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**outer):
                got = [eigenvalues_tridiagonal(A) for A in matrices]
                top = top_eigenvalues(matrices[0], 10)
                counts = [_sturm_counts(*args) for args in count_args]
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))
        assert top.tobytes() == reference_split_top_eigenvalues(matrices[0], 10).tobytes()
        assert all(np.array_equal(c, e) for c, e in zip(counts, expected_counts))


def test_all_eigenvalues_count_each_distinct_shift_once(monkeypatch):
    """Deterministic work guard: all 2000 eigenvalues of the canonical grid
    take 133252 shift evaluations in 32 sweeps, each walking 1000 rows, the
    parity blocks' 999 shared rows and one of their own.  Counting every
    index's nodes anew, shared and known ones included, took 216000 in 36;
    the whole matrix took 130220 in 32, each walking 2000 rows."""
    sizes, rows = [], []
    count = fdsolver._sturm_counts

    def counting(diag, off2, pivmin, xs, tails, block):
        sizes.append(len(xs))
        rows.append(len(diag) + any(tail is not None for tail in tails))
        return count(diag, off2, pivmin, xs, tails, block)

    monkeypatch.setattr(fdsolver, "_sturm_counts", counting)
    eigenvalues_tridiagonal(discretize(CANON, 2000))
    assert sum(sizes) <= 150_000, f"{sum(sizes)} shifts in {len(sizes)} sweeps"
    assert max(rows) <= math.ceil(2000 / 2) + 1, f"sweeps walk up to {max(rows)} rows"


def test_sturm_view_looks_up_the_count_at_each_call(monkeypatch):
    # the work guards above replace _sturm_counts; a view made earlier must see that too
    count, sizes, _, _, _ = fdsolver._sturm_view(discretize(CANON, 9))
    calls = []

    def counting(diag, off2, pivmin, xs, tails, block):
        calls.append(len(xs))
        return np.zeros(len(xs), dtype=np.int64)

    monkeypatch.setattr(fdsolver, "_sturm_counts", counting)
    count(np.zeros(3), np.zeros(3, dtype=np.intp))
    assert calls == [3] and list(sizes) == [5, 4]


def assert_within_sturm_brackets(A, eigenvalues, blocks=None):
    """The accuracy contract: each returned eigenvalue x (sorted decreasing,
    the top of the spectrum) with ascending index j on its block satisfies
    count(x - t) <= j < count(x + t) there, where t covers a 1e-15 relative
    bracket or, where wider, a bracket after the 110-level cap.  The block is
    the whole matrix unless parity blocks are given."""
    off2 = A.offdiag**2
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    radius = np.zeros(A.dim)
    radius[:-1] += np.abs(A.offdiag)
    radius[1:] += np.abs(A.offdiag)
    capped_width = (np.max(A.diag + radius) - np.min(A.diag - radius)) / 2.0**110
    blocks = blocks or [(A.diag, off2)]
    x = np.asarray(eigenvalues)
    t = np.maximum(2e-15 * np.maximum(np.abs(x), 1e-30), capped_width)
    block, local = block_ranks(blocks, len(x))
    for b, (diag, block_off2) in enumerate(blocks):
        at = block == b
        assert np.all(_sturm_counts(diag, block_off2, pivmin, x[at] - t[at]) <= local[at])
        assert np.all(_sturm_counts(diag, block_off2, pivmin, x[at] + t[at]) >= local[at] + 1)


class TestAccuracyContract:
    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 7, 250, 251, 2000])
    def test_discretized_operator(self, params, m):
        A = discretize(params, m)
        blocks = parity_blocks(A)
        assert_within_sturm_brackets(A, top_eigenvalues(A, min(10, m)), blocks)
        assert_within_sturm_brackets(A, eigenvalues_tridiagonal(A), blocks)

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

    @pytest.mark.parametrize("d", [2.0, -3.5, 0.0, 1e-300, 1e300])
    def test_one_by_one_returns_unit_vector(self, d):
        # the shifted pivot is exactly zero, so the solve returns its floor's
        # reciprocal, about 1e306: its square must not reach the norm
        A = TridiagonalSymmetricMatrix(diag=np.array([d]), offdiag=np.array([]))
        np.testing.assert_array_equal(eigenvector_inverse_iteration(A, d), [1.0])

    def test_triple_eigenvalue_of_a_diagonal_matrix(self):
        A = TridiagonalSymmetricMatrix(diag=np.full(3, -2.0), offdiag=np.zeros(2))
        with pytest.warns(ConditioningWarning):
            vec = eigenvector_inverse_iteration(A, -2.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-15)

    def test_orthogonality_of_leading_eigenvectors(self):
        A = discretize(CANON, 500)
        lams = top_eigenvalues(A, 8)
        vecs = np.array([eigenvector_inverse_iteration(A, lam) for lam in lams])
        off_identity = vecs @ vecs.T - np.eye(8)
        assert np.max(np.abs(off_identity)) < 1e-8

    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    def test_top_modes_past_m3000(self, params):
        # scale is about 5.5e7 (canonical): residuals of a few eps * scale exceed 1e-8
        A = discretize(params, 4000)
        scale = np.max(np.abs(A.diag)) + np.max(np.abs(A.offdiag))
        lams = top_eigenvalues(A, 10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vecs = np.array([eigenvector_inverse_iteration(A, lam) for lam in lams])
        # the top ten are at least 0.5 apart, far outside the clustering window
        assert not [w for w in caught if issubclass(w.category, ConditioningWarning)]
        residuals = [np.linalg.norm(A.matvec(vec) - lam * vec) for vec, lam in zip(vecs, lams)]
        assert max(residuals) <= 4 * A.dim * np.finfo(float).eps * scale
        assert np.max(np.abs(vecs @ vecs.T - np.eye(10))) < 1e-8
        for vec in vecs:
            significant = np.nonzero(np.abs(vec) > 1e-12 * np.max(np.abs(vec)))[0]
            assert vec[significant[0]] > 0

    def test_clustered_eigenvalue_warns(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([1.0, 1.0]), offdiag=np.array([1e-9]))
        with pytest.warns(ConditioningWarning):
            eigenvector_inverse_iteration(A, 1.0 + 1e-9)

    def test_cluster_across_parity_blocks_warns(self):
        # 1 is the antisymmetric block's eigenvalue and about 1 + 5e-11 the
        # symmetric block's top one: the warning adds the blocks' counts
        A = TridiagonalSymmetricMatrix(diag=np.array([1.0, -1.0, 1.0]), offdiag=np.full(2, 1e-5))
        lam = top_eigenvalues(A, 2)
        assert 0 < lam[0] - lam[1] < 1e-9
        with pytest.warns(ConditioningWarning):
            vec = eigenvector_inverse_iteration(A, lam[0])
        # both blocks are solved; the symmetric one leaves the smaller residual
        assert np.array_equal(vec, vec[::-1])

    def test_clustering_check_counts_on_parity_blocks(self, monkeypatch):
        # one count of lam +- gap on both blocks, over ceil(m/2) rows
        calls = []
        count = fdsolver._sturm_counts

        def counting(diag, off2, pivmin, xs, tails, block):
            calls.append((len(xs), len(diag) + any(tail is not None for tail in tails)))
            return count(diag, off2, pivmin, xs, tails, block)

        A = discretize(CANON, 2001)
        lam = top_eigenvalues(A, 1)[0]
        monkeypatch.setattr(fdsolver, "_sturm_counts", counting)
        eigenvector_inverse_iteration(A, lam)
        assert calls == [(4, 1001)]

    def test_solves_run_on_the_block_that_holds_the_shift(self, monkeypatch):
        dims = []
        solve = fdsolver._solve_shifted

        def recording(A, lam, b):
            dims.append(A.dim)
            return solve(A, lam, b)

        A = discretize(CANON, 2001)
        lams = top_eigenvalues(A, 2)
        monkeypatch.setattr(fdsolver, "_solve_shifted", recording)
        for lam in lams:
            eigenvector_inverse_iteration(A, lam)
        assert dims == [1001, 1001, 1000, 1000]

    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [3, 4, 5, 250, 251, 2000, 2001])
    def test_exact_parity(self, params, m):
        # the j-th largest eigenvalue lives on the symmetric block for even j;
        # equal nonzero floats have equal bits, so only a zero's sign may differ
        A = discretize(params, m)
        for j, lam in enumerate(top_eigenvalues(A, min(10, m))):
            vec = eigenvector_inverse_iteration(A, lam)
            assert np.array_equal(vec, (-1.0) ** j * vec[::-1])
            if m % 2 and j % 2:
                assert vec[m // 2] == 0.0

    @pytest.mark.parametrize("params", [CANON, custom_params(0.8, 3.0, 1.7)], ids=["canonical", "custom"])
    @pytest.mark.parametrize("m", [250, 251, 2000, 2001, 4000])
    def test_no_less_accurate_than_the_full_matrix_iteration(self, params, m):
        # sup error of the ten top vectors against the normalized sine samples
        A = discretize(params, m)
        lams, grid = top_eigenvalues(A, 10), interior_grid(params, m)
        samples = [eigenfunction(params, n, grid) for n in range(10)]
        samples = [s / np.linalg.norm(s) for s in samples]

        def sup_error(solve):
            vectors = [solve(A, lam) for lam in lams]
            return max(np.max(np.abs(v - np.sign(s @ v) * s)) for v, s in zip(vectors, samples))

        assert sup_error(eigenvector_inverse_iteration) <= sup_error(reference_inverse_iteration)

    def test_far_shift_does_not_converge(self):
        A = TridiagonalSymmetricMatrix(diag=np.array([0.0, 10.0]), offdiag=np.array([0.1]))
        with pytest.raises(NumericalError):
            eigenvector_inverse_iteration(A, 5.0)

    @pytest.mark.parametrize(
        "fill, message",
        [(math.inf, "non-finite iterate"), (math.nan, "non-finite iterate"), (0.0, "zero iterate")],
        ids=["inf", "nan", "zero"],
    )
    def test_an_iterate_that_is_not_finite_or_is_zero_is_a_numerical_error(self, monkeypatch, fill, message):
        A = discretize(CANON, 50)
        lam = top_eigenvalues(A, 1)[0]
        monkeypatch.setattr(fdsolver, "_solve_shifted", lambda A, lam, b: np.full(A.dim, fill))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                eigenvector_inverse_iteration(A, lam)


class TestValidation:
    def test_m2000_reproduces_leading_modes(self):
        (report,) = refinement_study(CANON, [2000], 10)
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
            refinement_study(CANON, [20], 6)

    def test_refinement_study_order_two(self):
        reports = refinement_study(CANON, [250, 500, 1000, 2000], 1)
        assert all(1.9 <= r.convergence_order <= 2.1 for r in reports)
        errors = np.array([r.abs_errors[0] for r in reports])
        np.testing.assert_allclose(errors[:-1] / errors[1:], 4.0, rtol=0.05)

    def test_refinement_needs_increasing_sizes(self):
        with pytest.raises(ValidationError):
            refinement_study(CANON, [500, 250], 1)

    def test_refinement_with_one_size_is_one_validation(self):
        """One size gives the first report of a longer study, with no order."""
        (report,) = refinement_study(CANON, [150], 2)
        expected = refinement_study(CANON, [150, 300], 2)[0]
        assert (report.m, report.h) == (expected.m, expected.h)
        for name in ("eigenvalues_fd", "eigenvalues_analytic", "abs_errors", "rel_errors"):
            np.testing.assert_array_equal(getattr(report, name), getattr(expected, name))
        assert math.isnan(report.convergence_order) and not math.isnan(expected.convergence_order)
        with pytest.raises(ValidationError):
            refinement_study(CANON, [], 2)
