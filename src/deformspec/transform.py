"""Projection onto the eigenbasis, reconstruction and Parseval bookkeeping.

Coefficients are always computed by quadrature so the transform stays generic
over the target function; the closed-form integrals known for special targets
are reserved for tests, which keeps the two routes independent.

On the P+1 equally spaced nodes v_j = -v_c + 2 v_c j/P the modes sample as
psi_n(v_j) = sin((n+1) pi j/P)/sqrt(v_c), so the sums of `project`, `evaluate`
and `gram_matrix` are a DST-I of the weighted values, a DST-I of the
coefficients and a DCT-I of the weights, each one real FFT of length 2P: the
same sums in O(P log P) time and O(P) memory.  On any other nodes the sums run
over the dense basis matrix, which the tests also use as the oracle for the
FFT route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ResolutionError, ValidationError
from .params import OperatorParams
from .quadrature import NODES_PER_MODE, Grid, QuadratureRule, SampledFunction, _evaluate
from .spectrum import eigenfunction, eigenvalue

_CHUNK = 128  # modes per block when filling eigenfunction matrices


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


def _sample(f: Callable, rule: QuadratureRule) -> np.ndarray:
    """f on the rule's nodes; raises :class:`ValidationError` unless every value is finite."""
    values = _evaluate(f, rule.nodes)
    if not np.all(np.isfinite(values)):
        raise ValidationError("target function must be finite on the quadrature nodes")
    return values


def _basis_matrix(params: OperatorParams, n_max: int, v: np.ndarray) -> np.ndarray:
    """Rows psi_0(v)..psi_{n_max}(v), filled in blocks to bound memory."""
    out = np.empty((n_max + 1, len(v)))
    for start in range(0, n_max + 1, _CHUNK):
        stop = min(start + _CHUNK, n_max + 1)
        ns = np.arange(start, stop)[:, None]
        out[start:stop] = eigenfunction(params, ns, v[None, :])
    return out


def _on_uniform_nodes(params: OperatorParams, nodes: np.ndarray) -> bool:
    """True when the nodes are exactly -v_c + 2 v_c j/P for j = 0..P, P >= 1."""
    return len(nodes) >= 2 and np.array_equal(nodes, np.linspace(-params.v_c, params.v_c, len(nodes)))


def _sine_sums(g: np.ndarray, count: int) -> np.ndarray:
    """sum_j g_j sin(pi k j/P) for k = 1..count over P+1 samples (DST-I).

    One real FFT of the odd extension of length 2P; the endpoint samples drop
    out, as they do under the exact zeros of `sinpi`.
    """
    p = len(g) - 1
    x = np.zeros(2 * p)
    x[1:p] = g[1:p]
    x[p + 1 :] = -g[p - 1 : 0 : -1]
    return -0.5 * np.fft.rfft(x).imag[1 : count + 1]


def project(params: OperatorParams, f: Callable, n_max: int, rule: QuadratureRule) -> CoefficientVector:
    """Coefficients a_n = integral of f * psi_n for n = 0..n_max."""
    n_max = _require_resolved(rule, n_max)
    weighted = rule.weights * _sample(f, rule)
    if _on_uniform_nodes(params, rule.nodes):
        coeffs = math.sqrt(1.0 / params.v_c) * _sine_sums(weighted, n_max + 1)
    else:
        coeffs = _basis_matrix(params, n_max, rule.nodes) @ weighted
    return CoefficientVector(params=params, coefficients=coeffs)


def evaluate(coeffs: CoefficientVector, v) -> np.ndarray:
    """Pointwise value of the truncated expansion at v.

    Raises :class:`NumericalError` when the sum overflows a 64-bit float.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a = coeffs.coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        if _on_uniform_nodes(coeffs.params, v):
            # psi_n(v_j) = sin(pi k j/P)/sqrt(v_c) with k = n+1 is 2P-periodic and odd
            # in k: fold the coefficients onto k = 0..P with a sign flip past P, then
            # one DST-I, which ignores slots k = 0 and k = P as their sines vanish at
            # every node.
            p = len(v) - 1
            k = np.arange(1, len(a) + 1) % (2 * p)
            flip = k > p
            folded = np.bincount(np.where(flip, 2 * p - k, k), np.where(flip, -a, a), p + 1)
            out = np.pad(math.sqrt(1.0 / coeffs.params.v_c) * _sine_sums(folded, p - 1), 1)
        else:
            out = a @ _basis_matrix(coeffs.params, coeffs.n_max, v)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"expansion of {len(a)} coefficients overflows a 64-bit float")
    return out


def reconstruct(coeffs: CoefficientVector, grid: Grid) -> SampledFunction:
    """Sampled partial sum  sum_n a_n psi_n  over the grid."""
    return SampledFunction(grid=grid, values=evaluate(coeffs, grid.points))


def l2_norm(params: OperatorParams, f: Callable, rule: QuadratureRule) -> float:
    """sqrt of the quadrature integral of f^2."""
    return float(np.sqrt(np.dot(rule.weights, _sample(f, rule) ** 2)))


def parseval_defect(params: OperatorParams, f: Callable, n_max: int, rule: QuadratureRule) -> float:
    """||f||^2 minus the truncated coefficient sum; raw value, no clamping.

    Quadrature noise may push the result slightly negative (no lower than
    about -1e-9 for a resolved rule); the raw value is reported so that an
    under-resolved rule shows up instead of being masked.
    """
    coeffs = project(params, f, n_max, rule)
    norm = l2_norm(params, f, rule)
    return float(norm**2 - np.sum(coeffs.coefficients**2))


def apply_operator_spectral(coeffs: CoefficientVector) -> CoefficientVector:
    """Action of the operator in its eigenbasis: a_n -> C_n a_n."""
    ns = np.arange(coeffs.n_max + 1)
    scaled = eigenvalue(coeffs.params, ns) * coeffs.coefficients
    return CoefficientVector(params=coeffs.params, coefficients=scaled)


def gram_matrix(params: OperatorParams, n_max: int, rule: QuadratureRule) -> np.ndarray:
    """Quadrature inner products <psi_n, psi_m> for n, m <= n_max."""
    n_max = _require_resolved(rule, n_max)
    if _on_uniform_nodes(params, rule.nodes):
        # sin(a) sin(b) = (cos(a - b) - cos(a + b))/2 at a, b = (n+1) pi j/P, (m+1) pi j/P.
        # The real FFT of the even extension of the weights (a DCT-I) gives
        # 2 sum_j w_j cos(pi k j/P) less the endpoint terms w_0 + (-1)^k w_P;
        # those cancel in the difference, as |n-m| and n+m+2 share a parity.
        w = rule.weights
        c = np.fft.rfft(np.concatenate([w, w[-2:0:-1]])).real
        n = np.arange(n_max + 1)
        return (c[np.abs(n[:, None] - n)] - c[n[:, None] + n + 2]) / (4.0 * params.v_c)
    basis = _basis_matrix(params, n_max, rule.nodes)
    return (basis * rule.weights) @ basis.T
