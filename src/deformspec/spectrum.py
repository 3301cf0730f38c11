"""Closed-form spectrum of the Dirichlet operator pi*(1 + (hbar/c)^2 d^2/dv^2).

With Dirichlet conditions on [-v_c, v_c] the eigenpairs are

    psi_n(v) = sqrt(1/v_c) * sin(k_n (v + v_c)),   k_n = (n+1) pi / (2 v_c),
    C_n      = pi * (1 - (hbar/c)^2 k_n^2),

so the spectrum is simple, strictly decreasing and bounded above by pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResolutionError, ValidationError, _finite
from .params import OperatorParams, _require_in_interval
from .quadrature import uniform_grid


def _half_turns(x):
    """pi (x - n) in the float ndarray x itself and the mask of odd n, with n = round(x).

    sin(pi x) = (-1)^n sin(pi (x - n)) and cos(pi x) = (-1)^n cos(pi (x - n));
    the reduction x - n is exact in binary floating point.
    """
    n = np.round(x, out=np.empty_like(x))
    x -= n
    x *= np.pi
    # every float past 2^53 is even, so clipping there keeps the parity and the int64 cast in range
    np.clip(n, -(2.0**53), 2.0**53, out=n)
    # parity from n cast to int64 in place: np.fmod(n, 2.0) is several times slower on the sine tables
    turns = n.view(np.int64)
    np.copyto(turns, n, casting="unsafe")
    return x, np.bitwise_and(turns, 1, out=turns).astype(bool)


def _phase(params: OperatorParams, v) -> np.ndarray:
    """t = (v + v_c)/(2 v_c), so every mode's phase (n+1) t is an integer at
    +-v_c; raises :class:`DomainError` for |v| > v_c or NaN v."""
    v = _require_in_interval(params, v)
    return (v + params.v_c) / (params.v_c + params.v_c)


@dataclass(frozen=True)
class CriticalIndexReport:
    """Floor-formula index versus the exact largest n with a non-negative eigenvalue."""

    x: float
    n_star_paper: int
    n_star_exact: int | None
    agree: bool


def _check_index(n) -> np.ndarray:
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
        raise ValidationError("mode index n must be a non-negative integer")
    return n


def wavenumber(params: OperatorParams, n):
    """Dirichlet wavenumber k_n = (n+1) pi / (2 v_c); scalar or ndarray n.

    Raises :class:`NumericalError` when k_n overflows a 64-bit float.
    """
    n = _check_index(n)
    out = _finite(lambda: (n + 1.0) * (math.pi / (2.0 * params.v_c)), f"wavenumber overflows for v_c = {params.v_c!r}")
    return float(out) if np.ndim(out) == 0 else out


def eigenvalue(params: OperatorParams, n):
    """Eigenvalue C_n = pi * (1 - (hbar/c)^2 k_n^2); strictly below pi.

    Raises :class:`NumericalError` when C_n overflows a 64-bit float, which
    happens only for a v_c tiny against hbar/c.
    """
    k = wavenumber(params, n)
    message = f"eigenvalue overflows for hbar/c = {params.hbar / params.c!r} and v_c = {params.v_c!r}"
    return _finite(lambda: math.pi * (1.0 - (params.hbar / params.c * k) ** 2), message)


def _deficit(params: OperatorParams, n):
    """d_n = pi - C_n = pi (hbar k_n / c)^2, free of the cancellation in pi - C_n."""
    return math.pi * (params.hbar / params.c * wavenumber(params, n)) ** 2


def asymptotic_coefficient(params: OperatorParams) -> float:
    """Quadratic decay rate alpha = (hbar/c)^2 pi^3 / (4 v_c^2).

    Raises :class:`NumericalError` when alpha overflows a 64-bit float or
    underflows to zero.
    """
    ratio = params.hbar / params.c
    where = f"for hbar/c = {ratio!r} and v_c = {params.v_c!r}"
    # one quotient, squared: where (hbar/c)^2 and v_c^2 both underflow, their ratio need not
    alpha = _finite(lambda: (ratio / params.v_c) ** 2 * math.pi**3 / 4.0, f"decay rate overflows {where}")
    if alpha == 0.0:
        raise NumericalError(f"decay rate underflows {where}")
    return alpha


def asymptotic_eigenvalue(params: OperatorParams, n):
    """Large-n approximant pi - alpha n^2; the remainder is exactly -alpha(2n+1)."""
    n = _check_index(n)
    out = math.pi - asymptotic_coefficient(params) * np.asarray(n, dtype=float) ** 2
    return float(out) if np.ndim(n) == 0 else out


def eigenfunction(params: OperatorParams, n, v):
    """Normalized eigenfunction sqrt(1/v_c) * sin(k_n (v + v_c)) at v.

    Either argument may be an ndarray (they broadcast).  Values at exactly
    +-v_c are exact zeros.  Raises :class:`DomainError` for |v| > v_c or NaN v.
    """
    n = _check_index(n)
    # the phase product is the one array: reduced, then sin, sign and scale in place
    out, odd = _half_turns(np.asarray((np.asarray(n, dtype=float) + 1.0) * _phase(params, v)))
    np.sin(out, out=out)
    np.negative(out, out=out, where=odd)
    out *= math.sqrt(1.0 / params.v_c)
    return float(out) if out.ndim == 0 else out


def critical_index(params: OperatorParams) -> CriticalIndexReport:
    """Compare the floor formula floor(2 v_c c / (pi hbar)) with the exact sign change.

    C_n >= 0 is equivalent to n + 1 <= x with x = 2 v_c / (pi hbar/c), so the
    exact largest non-negative index is floor(x) - 1 whenever x >= 1 and there
    is none otherwise.  Both indices are reported; ``agree`` records whether
    the floor formula matches the exact index.  For moderate x the candidate
    is confirmed by directly scanning eigenvalue signs.  Raises
    :class:`NumericalError` when x overflows a 64-bit float.
    """
    message = f"x = 2 v_c c/(pi hbar) overflows for hbar = {params.hbar!r}, c = {params.c!r}, v_c = {params.v_c!r}"
    x = _finite(lambda: 2.0 * params.v_c / (math.pi * (params.hbar / params.c)), message)
    n_star_paper = math.floor(x)
    n_star_exact: int | None = n_star_paper - 1 if x >= 1.0 else None
    if x < 2**52:
        # local sign scan; float eigenvalues are well conditioned at this scale
        cand = n_star_exact if n_star_exact is not None else -1
        while eigenvalue(params, cand + 1) >= 0.0:
            cand += 1
        while cand >= 0 and eigenvalue(params, cand) < 0.0:
            cand -= 1
        n_star_exact = cand if cand >= 0 else None
    agree = n_star_exact is not None and n_star_exact == n_star_paper
    return CriticalIndexReport(x=x, n_star_paper=n_star_paper, n_star_exact=n_star_exact, agree=agree)


def count_interior_zeros(params: OperatorParams, n: int, grid_points: int = 1000) -> int:
    """Count sign changes of psi_n strictly inside (-v_c, v_c) on a uniform scan grid.

    Samples within one band width 2 v_c / grid_points of each endpoint are
    excluded so the Dirichlet zeros at the boundary are never counted.
    Returns exactly n for the analytic eigenfunctions once resolved.
    """
    n = int(_check_index(n))
    grid_points = int(grid_points)
    if grid_points < 1000:
        raise ValidationError("grid_points must be >= 1000")
    if grid_points < 10 * (n + 1):
        raise ResolutionError(
            f"grid_points = {grid_points} too coarse for mode {n}; need >= {10 * (n + 1)}"
        )
    grid = uniform_grid(params, grid_points - 1)
    band = 2.0 * params.v_c / grid_points
    values = eigenfunction(params, n, grid[np.abs(grid) < params.v_c - band])
    signs = np.sign(values)
    signs = signs[signs != 0.0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))
