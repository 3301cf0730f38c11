"""Projection onto the eigenbasis, reconstruction and Parseval bookkeeping.

Coefficients are always computed by quadrature so the transform stays generic
over the target function; the closed-form integrals known for special targets
are reserved for tests, which keeps the two routes independent.

With t = (v + v_c)/(2 v_c) the modes are psi_n = sin((n+1) pi t)/sqrt(v_c), and
psi_n psi_m = (cos((n-m) pi t) - cos((n+m+2) pi t))/(2 v_c), so `gram_matrix`
is (c_|n-m| - c_(n+m+2))/(2 v_c) from the cosine moments
c_k = sum_j w_j cos(k pi t_j), k = 0..2N+2, on every rule.

On the P+1 equally spaced nodes v_j = -v_c + 2 v_c j/P the sums of `project`
and `evaluate` are a DST-I of the weighted values and of the coefficients, and
the moments a DCT-I of the weights, each one real FFT of length 2P: the same
sums in O(P log P) time and O(P) memory.

On any other nodes the modes come from sine and cosine tables by angle
addition: with B = ceil(sqrt(N+1)) and n = qB + r,

    sin((n+1) pi t) = sin(qB pi t) cos((r+1) pi t) + cos(qB pi t) sin((r+1) pi t),

so each node takes about 4 sqrt(N+1) sines and cosines instead of N+1 sines.
`project`, `evaluate` and the moments contract the tables in two matrix
products each, and no (N+1) x M basis is formed.  The tests hold the tables
to the per-entry `eigenfunction` within the rounding of the phase, and every
route to a dense basis built from the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResolutionError, ValidationError, _finite
from .params import OperatorParams
from .quadrature import NODES_PER_MODE, QuadratureRule, uniform_grid
from .spectrum import _half_turns, _phase


@dataclass(frozen=True)
class CoefficientVector:
    """Truncated coefficients a_0..a_N of a function in the eigenbasis."""

    params: OperatorParams
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValidationError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1


def _require_resolved(rule: QuadratureRule, n_max) -> int:
    """n_max as an int, checked >= 0 and resolved by NODES_PER_MODE nodes per mode."""
    n_max = int(n_max)
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    needed = NODES_PER_MODE * (n_max + 1)
    if len(rule.nodes) < needed:
        raise ResolutionError(f"rule has {len(rule.nodes)} nodes; mode {n_max} needs at least {needed}")
    return n_max


def _sample(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the points x, or point by point when f rejects arrays (TypeError,
    ValueError) or returns the wrong shape; any other error propagates.  Raises
    :class:`ValidationError` unless every value is finite."""
    try:
        values = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != x.shape:
        values = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(values)):
        raise ValidationError("target function must be finite at every sample point")
    return values


def _sine_tables(params: OperatorParams, n_max: int, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tables (sin_high, cos_high, sin_low, cos_low) that give psi_{qB+r}(v) as
    sqrt(1/v_c) (sin_high[q] cos_low[r] + cos_high[q] sin_low[r]), where
    B = ceil(sqrt(n_max+1)).

    The high pair holds sin/cos(qB pi t) for q = 0..Q-1, Q = ceil((n_max+1)/B),
    and the low pair sin/cos((r+1) pi t) for r = 0..B-1, each of shape
    (rows, len(v)), from one argument reduction.  The phases are integers at
    v = +-v_c, so every mode is an exact zero there.  Raises
    :class:`DomainError` for |v| > v_c or NaN v.
    """
    t = _phase(params, v)
    b = math.isqrt(n_max) + 1
    q = -(-(n_max + 1) // b)
    turns = np.concatenate([np.arange(q) * b, np.arange(1, b + 1)]).astype(float)
    theta, odd = _half_turns(turns[:, None] * t)
    sin, cos = np.sin(theta), np.cos(theta)
    np.negative(sin, out=sin, where=odd)
    np.negative(cos, out=cos, where=odd)
    return sin[:q], cos[:q], sin[q:], cos[q:]


def _on_uniform_nodes(params: OperatorParams, nodes: np.ndarray) -> bool:
    """True when the nodes are exactly `uniform_grid(params, P)`, P >= 2."""
    return len(nodes) >= 3 and np.array_equal(nodes, uniform_grid(params, len(nodes) - 1))


def _sine_sums(g: np.ndarray, count: int) -> np.ndarray:
    """sum_j g_j sin(pi k j/P) for k = 1..count over P+1 samples (DST-I).

    One real FFT of the odd extension of length 2P; the endpoint samples drop
    out, as every mode of `eigenfunction` is exactly zero at +-v_c.
    """
    p = len(g) - 1
    x = np.zeros(2 * p)
    x[1:p] = g[1:p]
    x[p + 1 :] = -g[p - 1 : 0 : -1]
    return -0.5 * np.fft.rfft(x).imag[1 : count + 1]


def _projection(params: OperatorParams, f: Callable, n_max: int, rule: QuadratureRule):
    """(f on the rule's nodes, sampled once, and its :class:`CoefficientVector`
    a_0..a_n_max); raises :class:`ResolutionError` unless n_max is resolved
    and :class:`NumericalError` when a sum overflows a 64-bit float."""
    n_max = _require_resolved(rule, n_max)
    values = _sample(f, rule.nodes)

    def sums():
        weighted = rule.weights * values
        if _on_uniform_nodes(params, rule.nodes):
            return _sine_sums(weighted, n_max + 1)
        # entry (q, r) of the product is the sum for mode qB + r
        sin_high, cos_high, sin_low, cos_low = _sine_tables(params, n_max, rule.nodes)
        return ((sin_high * weighted) @ cos_low.T + (cos_high * weighted) @ sin_low.T).ravel()[: n_max + 1]
    message = f"projection onto {n_max + 1} modes overflows a 64-bit float"
    coefficients = _finite(lambda: math.sqrt(1.0 / params.v_c) * sums(), message)
    return values, CoefficientVector(params=params, coefficients=coefficients)


def project(params: OperatorParams, f: Callable, n_max: int, rule: QuadratureRule) -> CoefficientVector:
    """Coefficients a_n = integral of f * psi_n for n = 0..n_max."""
    return _projection(params, f, n_max, rule)[1]


def evaluate(coeffs: CoefficientVector, v) -> np.ndarray:
    """Pointwise value of the truncated expansion at v.

    Raises :class:`NumericalError` when the sum overflows a 64-bit float.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a = coeffs.coefficients
    scale = math.sqrt(1.0 / coeffs.params.v_c)
    message = f"expansion of {len(a)} coefficients overflows a 64-bit float"
    if _on_uniform_nodes(coeffs.params, v):
        # psi_n(v_j) = sin(pi k j/P)/sqrt(v_c) with k = n+1 is 2P-periodic and odd
        # in k: fold the coefficients onto k = 0..P with a sign flip past P, then
        # one DST-I, which ignores slots k = 0 and k = P as their sines vanish at
        # every node.
        p = len(v) - 1
        k = np.arange(1, len(a) + 1) % (2 * p)
        flip = k > p
        folded = np.bincount(np.where(flip, 2 * p - k, k), np.where(flip, -a, a), p + 1)
        return _finite(lambda: np.pad(scale * _sine_sums(folded, p - 1), 1), message)
    # the coefficients as a Q x B table, a_{qB+r} at (q, r) and zeros past n_max
    sin_high, cos_high, sin_low, cos_low = _sine_tables(coeffs.params, coeffs.n_max, v)
    table = np.pad(a, (0, len(sin_high) * len(sin_low) - len(a))).reshape(len(sin_high), -1)
    return _finite(lambda: scale * np.sum(sin_high * (table @ cos_low) + cos_high * (table @ sin_low), axis=0), message)


def _l2(rule: QuadratureRule, values: np.ndarray, minus=0.0) -> float:
    """sqrt of the rule's sum of w_j (values_j - minus)^2, checked by `_finite`."""
    message = "L^2 norm overflows a 64-bit float"
    return _finite(lambda: float(np.sqrt(np.dot(rule.weights, (values - minus) ** 2))), message)


def l2_norm(f: Callable, rule: QuadratureRule) -> float:
    """sqrt of the quadrature integral of f^2; :class:`NumericalError` when it overflows."""
    return _l2(rule, _sample(f, rule.nodes))


def parseval_defect(params: OperatorParams, f: Callable, n_max: int, rule: QuadratureRule) -> tuple[float, float]:
    """(||f||, ||f||^2 minus the truncated coefficient sum) from one sampling
    of f on the rule's nodes; the defect is raw, no clamping.

    Quadrature noise may push the defect slightly negative (no lower than
    about -1e-9 for a resolved rule); the raw value is reported so that an
    under-resolved rule shows up instead of being masked.
    """
    values, coeffs = _projection(params, f, n_max, rule)
    norm = _l2(rule, values)
    return norm, _finite(lambda: float(norm**2 - np.sum(coeffs.coefficients**2)), "Parseval defect overflows a float")


def gram_matrix(params: OperatorParams, n_max: int, rule: QuadratureRule) -> np.ndarray:
    """Quadrature inner products <psi_n, psi_m> for n, m <= n_max, exactly symmetric."""
    n_max = _require_resolved(rule, n_max)
    w = rule.weights
    if _on_uniform_nodes(params, rule.nodes):
        # The real FFT of the even extension of the weights (a DCT-I) gives
        # 2 c_k less the endpoint terms w_0 + (-1)^k w_P; those cancel in the
        # difference, as |n-m| and n+m+2 share a parity.
        c = 0.5 * np.fft.rfft(np.concatenate([w, w[-2:0:-1]])).real
    else:
        # entry (q, r) of the product is c_k for k = qB + r + 1, by angle addition
        sin_high, cos_high, sin_low, cos_low = _sine_tables(params, 2 * n_max + 1, rule.nodes)
        moments = ((cos_high * w) @ cos_low.T - (sin_high * w) @ sin_low.T).ravel()
        c = np.concatenate([[np.sum(w)], moments[: 2 * n_max + 2]])
    # windows of the moments: row n of the Toeplitz term is c_|n-m| and of the
    # Hankel term c_(n+m+2), for m = 0..n_max, with no index array
    size = n_max + 1
    toeplitz = sliding_window_view(np.concatenate([c[n_max:0:-1], c[:size]]), size)[::-1]
    out = toeplitz - sliding_window_view(c[2 : 2 * size + 1], size)
    out /= 2.0 * params.v_c
    return out
