"""Uniform grids, quadrature rules and finite differences on [-v_c, v_c].

Two independent quadrature families are kept on purpose: Gauss-Legendre
(nodes by Newton iteration on the Legendre recurrence) and composite Simpson.
Agreement between them bounds the quadrature error of any projection without
reference to the sine basis they are used to validate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResolutionError, ValidationError, _finite
from .params import OperatorParams

GAUSS_LEGENDRE_MAX_NODES = 4096
#: Fewest quadrature nodes per mode a projection accepts (see transform).
NODES_PER_MODE = 8


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integrals over [-v_c, v_c]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValidationError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(weights > 0)):
            raise ValidationError("nodes must be finite and weights positive")


def uniform_grid(params: OperatorParams, m: int) -> np.ndarray:
    """m+1 equally spaced points from -v_c to v_c, spacing 2 v_c / m."""
    m = int(m)
    if m < 2:
        raise ValidationError("uniform grid needs m >= 2 intervals")
    return np.linspace(-params.v_c, params.v_c, m + 1)


#: Roots nearest +1 that take the exact cosine series of P_m.  Past them the
#: terms of Stieltjes' series shrink by a factor 0.15 or less from term to term.
_BOUNDARY_ROOTS = 20
_STIELTJES_TERMS = 20


def _cosine_series_ratio(m: int) -> Callable:
    """theta -> P_m(cos theta) / (dP_m/dtheta) from the exact series
    P_m(cos theta) = sum_k a_k a_(m-k) cos((m - 2k) theta), a_k = prod_(j<=k) (2j - 1)/(2j)."""
    j = np.arange(1, m + 1)
    a = np.cumprod(np.concatenate([[1.0], (2.0 * j - 1.0) / (2.0 * j)]))
    # the terms k and m - k are equal, so sum k <= m/2 with the others doubled
    c = (a * a[::-1])[: m // 2 + 1]
    c[: (m + 1) // 2] *= 2.0
    freq = m - 2.0 * np.arange(m // 2 + 1)
    c_freq = c * freq

    def ratio(theta):
        phase = np.multiply.outer(theta, freq)
        return -(np.cos(phase) @ c) / (np.sin(phase) @ c_freq)

    return ratio


def _stieltjes_ratio(m: int) -> Callable:
    """theta -> P_m(cos theta) / (dP_m/dtheta) from Stieltjes' series
    P_m(cos theta) = C_m sum_k h_k cos(alpha_k) / (2 sin theta)^(k + 1/2), with
    alpha_k = (m + k + 1/2) theta - (k + 1/2) pi/2, h_0 = 1 and
    h_k = h_(k-1) (k - 1/2)^2 / (k (m + k + 1/2)); the constant C_m cancels."""
    k = np.arange(_STIELTJES_TERMS)
    h = np.cumprod(np.concatenate([[1.0], (k[1:] - 0.5) ** 2 / (k[1:] * (m + k[1:] + 0.5))]))
    rate, shift = m + k + 0.5, (k + 0.5) * (np.pi / 2)

    def ratio(theta):
        scaled = h * np.power.outer(0.5 / np.sin(theta), k)
        alpha = np.multiply.outer(theta, rate) - shift
        cos_terms, sin_terms = scaled * np.cos(alpha), scaled * np.sin(alpha)
        return cos_terms.sum(axis=1) / (-(sin_terms @ rate) - (cos_terms @ (k + 0.5)) / np.tan(theta))

    return ratio


def _theta_start(m: int) -> np.ndarray:
    """cos(theta) at the ceil(m/2) non-negative roots of P_m, largest first,
    with theta converged by Newton in theta (until a step is below 1e-15, at
    most 20 steps).

    Newton starts from the angles of Tricomi's corrected guess.  The
    _BOUNDARY_ROOTS roots nearest +1, and every root of a small m, use the
    exact cosine series of P_m; the others use Stieltjes' asymptotic series
    (Hale & Townsend, SISC 35(2), 2013, section 3).  Newton needs only the
    ratio P/P'.  The tests check that the result is within 1e-15 of the
    roots, so the one recurrence sweep in _unit_gauss_legendre, a Newton step
    in x, is enough.
    """
    i = np.arange(1, (m + 1) // 2 + 1)
    guess = (1.0 - 1.0 / (8.0 * m**2) + 1.0 / (8.0 * m**3)) * np.cos(np.pi * (i - 0.25) / (m + 0.5))
    theta = np.arccos(guess)
    # views: Newton updates theta in place
    boundary, interior = theta[:_BOUNDARY_ROOTS], theta[_BOUNDARY_ROOTS:]
    for part, ratio in ((boundary, _cosine_series_ratio(m)), (interior, _stieltjes_ratio(m))):
        for _ in range(20):
            step = ratio(part)
            part -= step
            if np.max(np.abs(step), initial=0.0) < 1e-15:
                break
    return np.cos(theta)


def gauss_legendre_rule(params: OperatorParams, m: int) -> QuadratureRule:
    """m-node Gauss-Legendre rule mapped to [-v_c, v_c]; nodes symmetric about 0.

    Each node count is built once per process on [-1, 1] (the 8 counts used
    last are kept) and scaled by v_c on every call, so the rule is bit for
    bit the one a fresh build gives and its arrays are the caller's own.

    Nodes are Legendre roots: one Newton step on the three-term recurrence;
    no tables.  It runs on the ceil(m/2) non-negative roots only, from the
    start that `_theta_start` converges in theta, so the step is below 1e-15
    at every m (at most 4.2e-16 over m = 1..4096).  The weight
    2 / ((1 - x^2) P'_m(x)^2) is even in x, so the negative half mirrors
    nodes and weights exactly, and the middle node of an odd rule is exactly 0.

    Against the earlier builder kept in the tests (Newton on all m roots from
    the plain cosine guess), nodes agree to 1 ulp of v_c and weights to 2e-10
    relative: the end weights are that ill-conditioned (at m = 2048 both
    rules' end weight is 7e-11 from a 40-digit reference).  The even moments
    sum(w x^(2j)), j < min(m, 40), are within 64 eps of their exact values.
    """
    m = int(m)
    if not 1 <= m <= GAUSS_LEGENDRE_MAX_NODES:
        raise ValidationError(f"node count must be in [1, {GAUSS_LEGENDRE_MAX_NODES}]")
    nodes, weights = _unit_gauss_legendre(m)
    return QuadratureRule(params.v_c * nodes, params.v_c * weights)


@functools.lru_cache(maxsize=8)  # at most 64 KB a rule, at the 4096-node cap
def _unit_gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-node rule on [-1, 1]."""
    half = (m + 1) // 2
    x = _theta_start(m)
    p_prev, p, scratch = np.ones(half), x.copy(), np.empty(half)
    for k in range(2, m + 1):
        # in place, rounded as ((2k - 1) x p_{k-1} - (k - 1) p_{k-2}) / k
        np.multiply(x, 2 * k - 1, out=scratch)
        scratch *= p
        p_prev *= k - 1
        scratch -= p_prev
        scratch /= k
        p_prev, p, scratch = p, scratch, p_prev
    dp = m * (x * p - p_prev) / (x**2 - 1.0)
    x -= p / dp
    if m % 2:
        x[-1] = 0.0
    w = 2.0 / ((1.0 - x**2) * dp**2)
    nodes = np.concatenate([-x[: m // 2], x[::-1]])
    weights = np.concatenate([w[: m // 2], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def composite_simpson_rule(params: OperatorParams, points: int) -> QuadratureRule:
    """Composite Simpson rule with an odd number of equally spaced points."""
    points = int(points)
    if points < 3 or points % 2 == 0:
        raise ValidationError("composite Simpson needs an odd point count >= 3")
    h = 2.0 * params.v_c / (points - 1)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return QuadratureRule(uniform_grid(params, points - 1), weights * (h / 3.0))


def default_projection_rule(params: OperatorParams, n_max: int, nodes: int | None = None) -> QuadratureRule:
    """Rule resolving modes 0..n_max: Gauss-Legendre with max(256, 8(n_max+1))
    nodes, or composite Simpson with 32(n_max+1)+1 points past the GL cap.
    With `nodes`, Gauss-Legendre with that many nodes up to the cap, and past
    it composite Simpson with `nodes` rounded up to an odd point count."""
    simpson_points = nodes
    if nodes is None:
        nodes = max(256, NODES_PER_MODE * (int(n_max) + 1))
        simpson_points = 32 * (int(n_max) + 1)
    if nodes <= GAUSS_LEGENDRE_MAX_NODES:
        return gauss_legendre_rule(params, nodes)
    return composite_simpson_rule(params, simpson_points if simpson_points % 2 else simpson_points + 1)


# order -> (central, forward) weights at unit spacing, both 2nd-order accurate:
# central on offsets -r..r (r = 1 for orders 1-2, 2 for 3-4), forward on
# 0..order+1.  Every weight is dyadic, so dividing by h**order is exact.
_STENCILS = {
    1: ([-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5]),
    2: ([1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0]),
    3: ([-0.5, 1.0, 0.0, -1.0, 0.5], [-2.5, 9.0, -12.0, 7.0, -1.5]),
    4: ([1.0, -4.0, 6.0, -4.0, 1.0], [3.0, -14.0, 26.0, -24.0, 11.0, -2.0]),
}


def fd_derivative(params: OperatorParams, values, order: int) -> np.ndarray:
    """Finite-difference derivative of values on `uniform_grid(params, len(values) - 1)`.

    Central 2nd-order-accurate stencils in the interior; one-sided
    2nd-order-accurate stencils where the central window leaves the grid
    (the first/last point for orders 1-2, the first/last two for 3-4).
    Raises :class:`NumericalError` when the derivative overflows a 64-bit
    float, or when the spacing is so wide that the weights 1/h**order underflow.
    """
    order = int(order)
    if order not in (1, 2, 3, 4):
        raise ValidationError("derivative order must be in 1..4")
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or not np.all(np.isfinite(f)):
        raise ValidationError("sampled values must be finite, in a 1-d array")
    npts = len(f)
    if npts < order + 5:
        raise ResolutionError(f"need at least {order + 5} points for order {order}")
    h = 2.0 * params.v_c / (npts - 1)
    # the Python-float h**order raises exactly where the weights 1/h**order underflow
    power = _finite(lambda: h**order, f"order-{order} finite difference underflows a 64-bit float at h = {h!r}")

    def stencils():
        central, fwd = (np.array(w) / power for w in _STENCILS[order])
        bwd = (-1) ** order * fwd[::-1]
        radius, side = len(central) // 2, len(fwd)
        out = np.empty_like(f)
        stacked = np.stack([f[i : npts - 2 * radius + i] for i in range(2 * radius + 1)])
        out[radius:-radius] = central @ stacked
        for i in range(radius):
            out[i] = np.dot(fwd, f[i : i + side])
            out[npts - 1 - i] = np.dot(bwd, f[npts - i - side : npts - i])
        return out

    return _finite(stencils, f"order-{order} finite difference overflows a 64-bit float")
