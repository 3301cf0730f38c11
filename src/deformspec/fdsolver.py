"""Self-contained finite-difference eigensolver used to cross-check the
closed-form spectrum.

The operator is discretized with the 3-point second difference on interior
points (Dirichlet rows eliminated), giving a symmetric tridiagonal Toeplitz
matrix.  Eigenvalues come from Sturm-sequence multisection inside Gershgorin
bounds (each sweep counts at every midpoint of several bisection levels, once
per distinct bracket and never again at a shift whose count is known, so the
brackets are exactly those of one-midpoint bisection), returned as bracket
midpoints; eigenvectors from two shifted inverse-iteration solves (partially
pivoted tridiagonal LU) from a golden-ratio Weyl start, so no random numbers.
Importing only errors, params and quadrature, it never sees the closed form or
the sine basis, so agreement with the analytic spectrum
(experiments.refinement_study) is a genuine two-route check; the tests in
tests/test_routes.py hold it to that.

The matrix reads the same backwards (it commutes with v -> -v), so it splits
exactly into a symmetric and an antisymmetric block of about m/2 rows that
share all rows but their last (Cantoni & Butler, LAA 13, 1976), and with
positive off-diagonals its eigenvalues alternate between them, the largest
symmetric (Hald, LAA 14, 1976).  Each eigenvalue is bisected on its own block,
so every Sturm sweep walks ceil(m/2) rows, and each eigenvector is iterated on
the block that holds its shift and mirrored to all m rows, so it is exactly
symmetric or antisymmetric; a matrix without that structure is one block of m
rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, NumericalError, ValidationError, _finite
from .params import OperatorParams
from .quadrature import uniform_grid

# A Sturm sweep over s shifts costs about (1 + s/SWEEP_WIDTH) sweeps over one
# shift: below a few thousand shifts the per-row numpy call overhead dominates.
# Counts alone fit 2100-2300 at m = 2000 (2-core x86-64 box); with the node
# build and walk, whole solves tie from 2500 to 4000 and slow 15-20% at 2000.
SWEEP_WIDTH = 3000


@dataclass(frozen=True)
class TridiagonalSymmetricMatrix:
    """Symmetric tridiagonal matrix stored as its two bands."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        off = np.asarray(self.offdiag, dtype=float).reshape(-1)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)
        if len(off) != len(diag) - 1:
            raise ValidationError("offdiag must have length dim - 1")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValidationError("matrix entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


def discretize(params: OperatorParams, m: int) -> TridiagonalSymmetricMatrix:
    """3-point discretization of the operator on m interior points, h = 2 v_c/(m+1).

    Raises :class:`NumericalError` when the diagonal pi - 2 pi hbar^2/(c h)^2
    overflows a 64-bit float.
    """
    m = int(m)
    if m < 3:
        raise ValidationError("discretization needs m >= 3 interior points")
    h = 2.0 * params.v_c / (m + 1)
    message = f"3-point coefficient overflows for hbar/c = {params.hbar / params.c!r} and h = {h!r}"
    coeff = _finite(lambda: math.pi * params.hbar**2 / (params.c**2 * h**2), message)
    diag = np.full(m, _finite(lambda: math.pi - 2.0 * coeff, message))
    return TridiagonalSymmetricMatrix(diag=diag, offdiag=np.full(m - 1, coeff))


def interior_grid(params: OperatorParams, m: int) -> np.ndarray:
    """The m interior points the discretization acts on."""
    return uniform_grid(params, m + 1)[1:-1]


def _sturm_counts(
    diag: np.ndarray, off2: np.ndarray, pivmin: float, xs: np.ndarray, tails=(None,), block=None
) -> np.ndarray:
    """Number of eigenvalues <= x for each shift x (negative-pivot count).

    Shift xs[j] is counted on block block[j]: the leading rows diag/off2 that
    every block shares, then that block's own last row tails[block[j]], a
    (diagonal, squared coupling) pair, or none.  By default there is one
    block, the matrix with bands diag and off2.

    Zero pivots are treated as negative (replaced by -pivmin before the next
    division), which keeps the count monotone when a shift hits an eigenvalue
    of a leading submatrix exactly.  In the shared rows the divide finds them:
    with only divide-by-zero and invalid raising, off2/d raises exactly when
    some pivot is +-0.0 (x/0, or 0/0 under a zero off-diagonal), and only then
    is the row's pivot vector scanned, fixed up and divided again.
    """
    xs = np.asarray(xs, dtype=float)
    base, quotient = np.empty_like(xs), np.empty_like(xs)
    # with a leading off2 of 0 and d = 1, row 0 yields d = diag[0] - x exactly
    rows, off = diag.tolist(), [0.0, *off2.tolist()]
    d = np.ones_like(xs)
    mask = np.empty(xs.shape, dtype=bool)
    count = np.zeros(xs.shape, dtype=np.int64)
    # uint8 adds of the mask run without a cast; flushed before they wrap
    tally = np.zeros(xs.shape, dtype=np.uint8)
    previous = None
    with np.errstate(all="ignore", divide="raise", invalid="raise"):
        for i, row in enumerate(rows):
            # diag[i] - xs is reused while diag[i] repeats; +0.0 == -0.0, but
            # a signed zero there can only flip the sign of a zero pivot,
            # which is counted and replaced alike
            if row != previous:
                np.subtract(row, xs, out=base)
                previous = row
            try:
                np.divide(off[i], d, out=quotient)
            except FloatingPointError:
                d[d == 0.0] = -pivmin
                with np.errstate(all="ignore"):
                    np.divide(off[i], d, out=quotient)
            np.subtract(base, quotient, out=d)
            np.less_equal(d, 0.0, out=mask)
            tally += mask.view(np.uint8)
            if i % 255 == 254:
                count += tally
                tally[...] = 0
    count += tally
    for b, tail in enumerate(tails):
        if tail is not None:
            row, link = tail
            at = np.flatnonzero(block == b)
            last = d[at]
            last[last == 0.0] = -pivmin
            with np.errstate(all="ignore"):
                count[at] += (row - xs[at]) - link / last <= 0.0
    return count


def _multisection_depth(k: int) -> int:
    """Bisection levels per sweep for k brackets: the depth b that minimizes
    the sweep cost per level, (1 + k (2^b - 1)/SWEEP_WIDTH)/b."""
    return min(range(1, 20), key=lambda b: (1 + k * (2**b - 1) / SWEEP_WIDTH) / b)


def _sturm_view(A: TridiagonalSymmetricMatrix):
    """``(count, sizes, lower, upper, blocks)``: ``count(xs, block)`` is the
    number of eigenvalues <= xs[j] of block block[j], by :func:`_sturm_counts`
    looked up at each call, the blocks have ``sizes`` rows and A's Gershgorin
    bounds [lower, upper] hold them all.  ``blocks()[b]`` builds block b as a
    ``(B, mirror)`` pair, ``mirror`` taking a vector u of B to one of A with
    A mirror(u) = mirror(B u); only eigenvectors need it.  Raises
    :class:`NumericalError` if a squared off-diagonal, or a bound doubled
    (bisection adds two bracket ends), overflows.

    A persymmetric A (equal read backwards) with positive off-diagonals e
    commutes with the reversal, so from m = 3 on it splits into a symmetric
    block of ceil(m/2) rows and an antisymmetric one of floor(m/2) rows that
    share every leading row.  For even m = 2p both keep rows 0..p-2 and end on
    diagonal d_(p-1) + e_(p-1) and d_(p-1) - e_(p-1) respectively, and mirror
    u to (u, +-reversed u); for odd m = 2p + 1 the antisymmetric block is rows
    0..p-1, mirrored to (u, 0, -reversed u), and the symmetric one adds row p,
    coupled by 2 e_(p-1)^2 (the product of its two off-diagonals e and 2e in
    the block's unsymmetric form; sqrt(2) e once symmetrized, so its mirror
    multiplies the middle entry by sqrt(2)).  Any other matrix, or one whose
    coupling square overflows, is one block of all m rows, mirrored as itself.
    """
    diag, off, p, tails = A.diag, A.offdiag, A.dim // 2, (None,)
    message = "Sturm bisection overflows: off-diagonal or Gershgorin bound too large"

    def gershgorin():
        radius = np.zeros(A.dim)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        return float(np.min(diag - radius)), float(np.max(diag + radius))

    off2 = _finite(lambda: off**2, message)
    lower, upper = _finite(gershgorin, message)
    _finite(lambda: (2.0 * lower, 2.0 * upper), message)
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    persymmetric = np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])
    if A.dim >= 3 and persymmetric and np.all(off > 0.0):
        if A.dim % 2 == 0:
            tails = tuple((end, off2[p - 2]) for end in (diag[p - 1] + off[p - 1], diag[p - 1] - off[p - 1]))
            diag, off2 = diag[: p - 1], off2[: p - 2]
        elif math.isfinite(2.0 * float(off2[p - 1])):
            tails = ((diag[p], 2.0 * float(off2[p - 1])), None)
            diag, off2 = diag[:p], off2[: p - 1]
    sizes = len(diag) + np.array([tail is not None for tail in tails])

    def count(xs: np.ndarray, block: np.ndarray) -> np.ndarray:
        return _sturm_counts(diag, off2, pivmin, xs, tails, block)

    def blocks():
        if len(tails) == 1:
            return ((A, lambda u: u),)
        shared = off[: p - 1]
        if A.dim % 2 == 0:
            halves = [TridiagonalSymmetricMatrix(np.r_[diag, end], shared) for end, _ in tails]
            return tuple((half, lambda u, s=s: np.r_[u, s * u[::-1]]) for half, s in zip(halves, (1.0, -1.0)))
        root2 = math.sqrt(2.0)
        return (
            (
                TridiagonalSymmetricMatrix(A.diag[: p + 1], np.r_[shared, root2 * off[p - 1]]),
                lambda u: np.r_[u[:p], root2 * u[p], u[p - 1 :: -1]],
            ),
            (TridiagonalSymmetricMatrix(diag, shared), lambda u: np.r_[u, 0.0, -u[::-1]]),
        )

    return count, sizes, lower, upper, blocks


def _bisect_top(A: TridiagonalSymmetricMatrix, k: int) -> np.ndarray:
    """The k largest eigenvalues, sorted decreasing, by bisection on the
    Sturm count of :func:`_sturm_view` inside the Gershgorin bounds.  Each
    eigenvalue is the midpoint of its final bracket, at most 1e-15 relative
    wide, or 2^-110 of the Gershgorin interval where the 110-level cap stops
    the bisection first.

    Each eigenvalue is bisected on its own parity block:
    the eigenvalues of a persymmetric Jacobi matrix alternate between the
    blocks, the largest symmetric (Hald, LAA 14, 1976), so the j-th largest of
    A is the (j // 2)-th largest of block j % 2.  Every block starts from A's
    own Gershgorin bounds and pivmin, and all brackets stop together, so each
    follows the path one-midpoint bisection takes on its block.

    One sweep counts at all 2^b - 1 midpoints of the next b bisection levels
    of every bracket; the midpoints come from the same 0.5*(lo + hi)
    recursion and the levels are walked with the same stop test after each,
    so the brackets equal those of one-midpoint-per-sweep bisection bit for
    bit, whatever b is.  Reusing a count changes no bracket either, since a
    count depends only on its block and the value of its shift: eigenvalues
    that share a bracket (all of a block's at the start, many where eigenvalues
    cluster) share one row of nodes, each bracket carries the counts at its
    ends, and a sweep counts only the distinct nodes that differ from those
    ends, so none for a bracket collapsed to adjacent floats.
    """
    count, sizes, lower, upper, _ = _sturm_view(A)
    blocks = len(sizes)
    rank = np.arange(k)  # rank j: the j-th largest eigenvalue
    # brackets sorted by block, then ascending within it
    order = np.lexsort((-rank, rank % blocks))
    block = rank[order] % blocks
    local = sizes[block] - 1 - rank[order] // blocks
    lo, hi = np.full(k, lower), np.full(k, upper)
    # placeholders: the first sweep counts every node, the Gershgorin bounds
    # too, since an eigenvalue can lie on one
    count_lo = count_hi = np.zeros(k, dtype=np.int64)
    levels, converged = 0, False
    while levels < 110 and not converged:
        # a block's brackets ascend with the index, so equal ones are adjacent;
        # compared as bits, since [-0.0, -0.0] and [0.0, 0.0] have different
        # midpoints
        ends = np.stack((lo, hi), axis=1).view(np.int64)
        new = np.r_[True, np.any(ends[1:] != ends[:-1], axis=1) | (block[1:] != block[:-1])]
        first, bracket = np.flatnonzero(new), np.cumsum(new) - 1
        b = min(_multisection_depth(len(first)), 110 - levels)
        width = 2**b
        # row g holds distinct bracket g's 2^b + 1 tree nodes in order
        nodes = np.empty((len(first), width + 1))
        nodes[:, 0], nodes[:, width] = lo[first], hi[first]
        step = width
        while step > 1:
            nodes[:, step // 2 :: step] = 0.5 * (nodes[:, :-1:step] + nodes[:, step::step])
            step //= 2
        at_lo = nodes == nodes[:, :1]
        counts = np.where(at_lo, count_lo[first, None], count_hi[first, None])
        fresh = ~(at_lo | (nodes == nodes[:, -1:])) | (levels == 0)
        # the fresh nodes ascend row after row within a block, so repeats are adjacent
        xs = nodes[fresh]
        xb = np.broadcast_to(block[first, None], nodes.shape)[fresh]
        distinct = np.r_[True, (xs[1:] != xs[:-1]) | (xb[1:] != xb[:-1])]
        fresh_counts = count(xs[distinct], xb[distinct])
        counts[fresh] = fresh_counts[np.cumsum(distinct) - 1]
        left = np.zeros(k, dtype=np.intp)
        for _ in range(b):
            width //= 2
            below = counts[bracket, left + width] <= local
            left += width * below
            lo, hi = nodes[bracket, left], nodes[bracket, left + width]
            levels += 1
            tol = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
            converged = bool(np.all(hi - lo <= tol))
            if converged:
                break
        count_lo, count_hi = counts[bracket, left], counts[bracket, left + width]
    out = np.empty(k)
    out[order] = 0.5 * (lo + hi)
    return out


def eigenvalues_tridiagonal(A: TridiagonalSymmetricMatrix) -> np.ndarray:
    """All eigenvalues, sorted decreasing."""
    return top_eigenvalues(A, A.dim)


def top_eigenvalues(A: TridiagonalSymmetricMatrix, count: int) -> np.ndarray:
    """The `count` largest eigenvalues, sorted decreasing."""
    count = int(count)
    if not 1 <= count <= A.dim:
        raise ValidationError("count must be in [1, dim]")
    return _bisect_top(A, count)


def _solve_shifted(A: TridiagonalSymmetricMatrix, lam: float, b: np.ndarray) -> np.ndarray:
    """Solve (A - lam I) x = b by LU with partial pivoting (one fill-in band).

    Pivots are floored at eps * scale so an exactly singular shift produces a
    huge but finite solution whose direction is the wanted eigenvector.  The
    elimination runs on Python floats, the same IEEE operations as on numpy
    scalars at a fraction of the per-element cost.
    """
    n = A.dim
    shifted = A.diag - lam
    scale = float(np.max(np.abs(shifted))) + 2.0 * (float(np.max(np.abs(A.offdiag))) if n > 1 else 0.0)
    floor = np.finfo(float).eps * max(scale, 1e-290)
    main = shifted.tolist()
    upper = A.offdiag.tolist() + [0.0]
    lower = A.offdiag.tolist() + [0.0]
    fill = [0.0] * n
    # x[n], upper[n-1] and fill[n-2] stay exact zeros, so the last rows round as if cut short
    x = np.asarray(b, dtype=float).tolist() + [0.0]
    for i in range(n - 1):
        if abs(lower[i]) > abs(main[i]):
            main[i], lower[i] = lower[i], main[i]
            upper[i], main[i + 1] = main[i + 1], upper[i]
            fill[i], upper[i + 1] = upper[i + 1], 0.0
            x[i], x[i + 1] = x[i + 1], x[i]
        if abs(main[i]) < floor:
            main[i] = floor if main[i] >= 0 else -floor
        mult = lower[i] / main[i]
        main[i + 1] -= mult * upper[i]
        upper[i + 1] -= mult * fill[i]
        x[i + 1] -= mult * x[i]
    if abs(main[-1]) < floor:
        main[-1] = floor if main[-1] >= 0 else -floor
    x[n - 1] /= main[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1] - fill[i] * x[i + 2]) / main[i]
    return np.array(x[:n])


def _inverse_iterate(A: TridiagonalSymmetricMatrix, lam: float) -> np.ndarray:
    """Two shifted solves from a golden-ratio Weyl start (no random numbers,
    no trig), each from the last iterate at unit norm; the second iterate is
    returned scaled by a power of two to a peak in [0.5, 1)."""
    w = np.arange(A.dim) * 0.6180339887498949 % 1.0 - 0.5
    message = "inverse iteration produced a non-finite iterate"
    for _ in range(2):
        w = _finite(lambda: _solve_shifted(A, lam, w / np.linalg.norm(w)), message)
        peak = np.max(np.abs(w))
        if peak == 0.0:
            raise NumericalError("inverse iteration produced a zero iterate")
        # a floored zero pivot leaves entries near 1e306, whose squares overflow;
        # a power-of-two scale is exact, so w / |w| is unchanged to the bit
        w = np.ldexp(w, -math.frexp(peak)[1])
    return w


def eigenvector_inverse_iteration(A: TridiagonalSymmetricMatrix, lam: float) -> np.ndarray:
    """Unit eigenvector for a shift accurate to working precision, such as a
    :func:`top_eigenvalues` entry, by two shifted solves from a deterministic
    start on the parity block of :func:`_sturm_view` that holds the shift,
    mirrored back to all rows.

    The block whose count changes within the clustering window below holds
    the shift; where both do, or neither, each block is solved and the vector
    with the smaller residual on A kept.  On a split A the mirror makes each
    vector exactly symmetric or antisymmetric.  With scale = max|diag| +
    max|off|, the residual |A v - lam v| is then a few eps * scale (the 1e-15
    relative bisection bracket alone allows about 3 eps * scale), growing
    slowly with dim, and a third solve does not lower it.
    :class:`NumericalError` is raised when it exceeds 4 * dim * eps * scale:
    the shift is not that close to an eigenvalue.  Sign is gauged so the first
    component of noticeable size is positive.  The vector's error is about
    eps * scale / gap, gap being the distance to the next eigenvalue;
    :class:`ConditioningWarning` is emitted when another eigenvalue lies within
    1e-8 * max(1, scale) of the shift, where that error could exceed 2e-8.
    """
    lam = float(lam)
    count, sizes, _, _, blocks = _sturm_view(A)
    scale = float(np.max(np.abs(A.diag)) + (np.max(np.abs(A.offdiag)) if A.dim > 1 else 0.0))
    gap = 1e-8 * max(1.0, scale)
    # A's count at each end is the sum of its blocks' counts
    nearby = count(np.tile([lam + gap, lam - gap], len(sizes)), np.repeat(np.arange(len(sizes)), 2))
    held = nearby[0::2] - nearby[1::2]
    if int(np.sum(held)) > 1:
        warnings.warn("clustered eigenvalues near the shift", ConditioningWarning)
    candidates = []
    split = blocks()
    for matrix, mirror in [split[b] for b in np.flatnonzero(held)] or split:
        v = mirror(_inverse_iterate(matrix, lam))
        v = v / np.linalg.norm(v)
        candidates.append((np.linalg.norm(A.matvec(v) - lam * v), v))
    residual, v = min(candidates, key=lambda candidate: candidate[0])
    if not residual <= 4 * A.dim * np.finfo(float).eps * scale:
        raise NumericalError(f"shift {lam!r} leaves residual {residual:.3e}, above 4 * dim * eps * scale")
    significant = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if len(significant) and v[significant[0]] < 0:
        v = -v
    return v
