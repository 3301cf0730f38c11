"""Self-contained finite-difference eigensolver used to cross-check the
closed-form spectrum.

The operator is discretized with the 3-point second difference on interior
points (Dirichlet rows eliminated), giving a symmetric tridiagonal Toeplitz
matrix.  Eigenvalues come from Sturm-sequence multisection inside Gershgorin
bounds (each sweep counts at every midpoint of several bisection levels, so
the brackets are exactly those of one-midpoint bisection), returned as bracket
midpoints; eigenvectors from shifted inverse iteration with a partially
pivoted tridiagonal solve.  Nothing here touches the sine basis, so agreement
with the analytic spectrum is a genuine two-route check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConditioningWarning, NumericalError, ResolutionError, ValidationError
from .params import OperatorParams
from .spectrum import eigenvalue

# A Sturm sweep over s shifts costs about (1 + s/SWEEP_WIDTH) sweeps over one
# shift: below a few thousand shifts the per-row numpy call overhead dominates
# (fits gave 2100-3600 at m = 2000 on a 2-core x86-64 box).
SWEEP_WIDTH = 3000

# Largest grid an FD validation discretizes; each eigenvalue sweep is an
# m-step Python loop, so m = 100000 with 10 modes takes about 17 s on a
# 2-core x86-64 box.
FD_MAX_INTERIOR_POINTS = 100_000

# Inverse iteration: target residual |A v - lam v| and the solves allowed to reach it.
INVERSE_ITERATION_TOL = 1e-8
INVERSE_ITERATION_MAX_STEPS = 50


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


@dataclass(frozen=True)
class FDSpectrumReport:
    """Per-grid comparison of discrete and analytic eigenvalues."""

    m: int
    h: float
    eigenvalues_fd: np.ndarray
    eigenvalues_analytic: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    convergence_order: float = math.nan


def discretize(params: OperatorParams, m: int) -> TridiagonalSymmetricMatrix:
    """3-point discretization of the operator on m interior points, h = 2 v_c/(m+1).

    Raises :class:`NumericalError` when the diagonal pi - 2 pi hbar^2/(c h)^2
    overflows a 64-bit float.
    """
    m = int(m)
    if m < 3:
        raise ValidationError("discretization needs m >= 3 interior points")
    h = 2.0 * params.v_c / (m + 1)
    try:
        coeff = math.pi * params.hbar**2 / (params.c**2 * h**2)
    except (OverflowError, ZeroDivisionError):
        coeff = math.inf
    if not math.isfinite(2.0 * coeff):
        ratio = params.hbar / params.c
        raise NumericalError(f"3-point coefficient overflows for hbar/c = {ratio!r} and h = {h!r}")
    diag = np.full(m, math.pi - 2.0 * coeff)
    offdiag = np.full(m - 1, coeff)
    return TridiagonalSymmetricMatrix(diag=diag, offdiag=offdiag)


def interior_grid(params: OperatorParams, m: int) -> np.ndarray:
    """The m interior points the discretization acts on."""
    return np.linspace(-params.v_c, params.v_c, int(m) + 2)[1:-1]


def _sturm_counts(diag: np.ndarray, off2: np.ndarray, pivmin: float, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues <= x for each shift x (negative-pivot count).

    Zero pivots are treated as negative (replaced by -pivmin before the next
    division), which keeps the count monotone when a shift hits an eigenvalue
    of a leading submatrix exactly.
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
    with np.errstate(divide="ignore", over="ignore"):
        for i, row in enumerate(rows):
            # diag[i] - xs is reused while diag[i] repeats; +0.0 == -0.0, but
            # a signed zero there can only flip the sign of a zero pivot,
            # which is counted and replaced alike
            if row != previous:
                np.subtract(row, xs, out=base)
                previous = row
            np.equal(d, 0.0, out=mask)
            if np.count_nonzero(mask):
                d[mask] = -pivmin
            np.divide(off[i], d, out=quotient)
            np.subtract(base, quotient, out=d)
            np.less_equal(d, 0.0, out=mask)
            tally += mask.view(np.uint8)
            if i % 255 == 254:
                count += tally
                tally[...] = 0
    return count + tally


def _multisection_depth(k: int) -> int:
    """Bisection levels per sweep for k brackets: the depth b that minimizes
    the sweep cost per level, (1 + k (2^b - 1)/SWEEP_WIDTH)/b."""
    return min(range(1, 20), key=lambda b: (1 + k * (2**b - 1) / SWEEP_WIDTH) / b)


def _sturm_setup(A: TridiagonalSymmetricMatrix) -> tuple[np.ndarray, float, float, float]:
    """Squared off-diagonal, zero-pivot replacement and Gershgorin bounds; raises
    :class:`NumericalError` if a square, or a bound doubled (bisection adds two
    bracket ends), overflows."""
    with np.errstate(over="ignore"):
        off2 = A.offdiag**2
        radius = np.zeros(A.dim)
        radius[:-1] += np.abs(A.offdiag)
        radius[1:] += np.abs(A.offdiag)
        lo = float(np.min(A.diag - radius))
        hi = float(np.max(A.diag + radius))
    pivmin = max(float(np.max(off2)) if len(off2) else 0.0, 1.0) * 1e-290
    if not (math.isfinite(pivmin) and math.isfinite(2.0 * lo) and math.isfinite(2.0 * hi)):
        raise NumericalError("Sturm bisection overflows: off-diagonal or Gershgorin bound too large")
    return off2, pivmin, lo, hi


def _eigenvalues_ascending(A: TridiagonalSymmetricMatrix, indices: np.ndarray) -> np.ndarray:
    """Bisection on the Sturm count inside the Gershgorin bounds.  Each
    eigenvalue is the midpoint of its final bracket, at most 1e-15 relative
    wide, or 2^-110 of the Gershgorin interval where the 110-level cap stops
    the bisection first.

    One sweep counts at all 2^b - 1 midpoints of the next b bisection levels
    of every bracket; the midpoints come from the same 0.5*(lo + hi)
    recursion and the levels are walked with the same stop test after each,
    so the brackets equal those of one-midpoint-per-sweep bisection bit for
    bit, whatever b is.
    """
    off2, pivmin, lower, upper = _sturm_setup(A)
    k = len(indices)
    lo, hi = np.full(k, lower), np.full(k, upper)
    bracket = np.arange(k)
    depth = _multisection_depth(k)
    levels, converged = 0, False
    while levels < 110 and not converged:
        b = min(depth, 110 - levels)
        width = 2**b
        # row j holds bracket j's 2^b + 1 tree nodes in order
        nodes = np.empty((k, width + 1))
        nodes[:, 0], nodes[:, width] = lo, hi
        step = width
        while step > 1:
            nodes[:, step // 2 :: step] = 0.5 * (nodes[:, :-1:step] + nodes[:, step::step])
            step //= 2
        counts = _sturm_counts(A.diag, off2, pivmin, nodes[:, 1:-1].ravel()).reshape(k, width - 1)
        left = np.zeros(k, dtype=np.intp)
        for _ in range(b):
            width //= 2
            below = counts[bracket, left + width - 1] <= indices
            left += width * below
            lo, hi = nodes[bracket, left], nodes[bracket, left + width]
            levels += 1
            tol = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
            converged = bool(np.all(hi - lo <= tol))
            if converged:
                break
    return 0.5 * (lo + hi)


def eigenvalues_tridiagonal(A: TridiagonalSymmetricMatrix) -> np.ndarray:
    """All eigenvalues, sorted decreasing."""
    return top_eigenvalues(A, A.dim)


def top_eigenvalues(A: TridiagonalSymmetricMatrix, count: int) -> np.ndarray:
    """The `count` largest eigenvalues, sorted decreasing."""
    count = int(count)
    if not 1 <= count <= A.dim:
        raise ValidationError("count must be in [1, dim]")
    indices = np.arange(A.dim - count, A.dim)
    return _eigenvalues_ascending(A, indices)[::-1].copy()


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


def eigenvector_inverse_iteration(A: TridiagonalSymmetricMatrix, lam: float) -> np.ndarray:
    """Unit eigenvector for an eigenvalue estimate within 1e-6 of a simple eigenvalue.

    Sign is gauged so the first component of noticeable size is positive.
    Emits :class:`ConditioningWarning` when another eigenvalue lies within
    1e-6 of the shift (the result spans an ill-determined subspace then).
    """
    lam = float(lam)
    off2, pivmin, _, _ = _sturm_setup(A)
    scale = float(np.max(np.abs(A.diag)) + (np.max(np.abs(A.offdiag)) if A.dim > 1 else 0.0))
    gap = 1e-6 * max(1.0, scale)
    nearby = _sturm_counts(A.diag, off2, pivmin, np.array([lam + gap, lam - gap]))
    if int(nearby[0] - nearby[1]) > 1:
        warnings.warn("clustered eigenvalues near the shift", ConditioningWarning)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.dim)
    v /= np.linalg.norm(v)
    for _ in range(INVERSE_ITERATION_MAX_STEPS):
        w = _solve_shifted(A, lam, v)
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            raise NumericalError("inverse iteration produced a non-finite iterate")
        v = w / norm
        residual = np.linalg.norm(A.matvec(v) - lam * v)
        if residual <= INVERSE_ITERATION_TOL:
            break
    else:
        raise NumericalError(
            f"inverse iteration did not reach residual {INVERSE_ITERATION_TOL} "
            f"in {INVERSE_ITERATION_MAX_STEPS} iterations"
        )
    significant = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if len(significant) and v[significant[0]] < 0:
        v = -v
    return v


def _require_fd_grid(m: int) -> None:
    if m > FD_MAX_INTERIOR_POINTS:
        raise ResolutionError(f"grid of {m} interior points exceeds the FD limit of {FD_MAX_INTERIOR_POINTS}")


def validate_against_analytic(params: OperatorParams, m: int, n_modes: int) -> FDSpectrumReport:
    """Compare the top n_modes discrete eigenvalues with the closed form."""
    m = int(m)
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValidationError("n_modes must be >= 1")
    if n_modes > m / 4:
        raise ValidationError("only well-resolved modes are compared: need n_modes <= m/4")
    _require_fd_grid(m)
    A = discretize(params, m)
    lam_fd = top_eigenvalues(A, n_modes)
    lam_an = eigenvalue(params, np.arange(n_modes))
    abs_err = np.abs(lam_fd - lam_an)
    return FDSpectrumReport(
        m=m,
        h=2.0 * params.v_c / (m + 1),
        eigenvalues_fd=lam_fd,
        eigenvalues_analytic=lam_an,
        abs_errors=abs_err,
        rel_errors=abs_err / np.abs(lam_an),
    )


def refinement_study(params: OperatorParams, m_list, n_modes: int = 1) -> list[FDSpectrumReport]:
    """Validation at each grid size, with the mode-0 convergence order fitted
    across the refinements and stored on every report."""
    m_list = [int(m) for m in m_list]
    if len(m_list) < 2 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValidationError("m_list must contain at least two increasing grid sizes")
    _require_fd_grid(m_list[-1])
    reports = [validate_against_analytic(params, m, n_modes) for m in m_list]
    hs = np.array([r.h for r in reports])
    errs = np.array([r.abs_errors[0] for r in reports])
    if np.any(errs == 0.0):
        raise NumericalError("zero error in refinement study; cannot fit an order")
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return [replace(r, convergence_order=order) for r in reports]
