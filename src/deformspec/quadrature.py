"""Grids, quadrature rules and finite differences on [-v_c, v_c].

Two independent quadrature families are kept on purpose: Gauss-Legendre
(nodes by Newton iteration on the Legendre recurrence) and composite Simpson.
Agreement between them bounds the quadrature error of any projection without
reference to the sine basis they are used to validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, ResolutionError, ValidationError
from .params import OperatorParams

GAUSS_LEGENDRE_MAX_NODES = 4096
#: Fewest quadrature nodes per mode a projection accepts (see transform).
NODES_PER_MODE = 8


@dataclass(frozen=True)
class Grid:
    """Strictly increasing points spanning [-v_c, v_c]; `spacing` is the step when
    they equal `np.linspace` between their ends bit for bit, else None."""

    points: np.ndarray
    spacing: float | None = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValidationError("grid needs at least two points")
        if not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
            raise ValidationError("grid points must be finite and strictly increasing")
        spacing = float(pts[-1] - pts[0]) / (len(pts) - 1)
        uniform = np.array_equal(pts, np.linspace(pts[0], pts[-1], len(pts)))
        object.__setattr__(self, "spacing", spacing if uniform else None)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integrals over [-v_c, v_c]."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("gauss_legendre", "composite_simpson"):
            raise ValidationError("kind must be gauss_legendre or composite_simpson")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValidationError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(weights > 0)):
            raise ValidationError("nodes must be finite and weights positive")


@dataclass(frozen=True)
class SampledFunction:
    """Values of a real function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.points.shape:
            raise ValidationError("values length must match the grid")
        if not np.all(np.isfinite(values)):
            raise ValidationError("sampled values must be finite")


def uniform_grid(params: OperatorParams, m: int) -> Grid:
    """m+1 equally spaced points from -v_c to v_c, spacing 2 v_c / m."""
    m = int(m)
    if m < 2:
        raise ValidationError("uniform grid needs m >= 2 intervals")
    points = np.linspace(-params.v_c, params.v_c, m + 1)
    return Grid(points=points)


def sample(params: OperatorParams, f: Callable, grid: Grid) -> SampledFunction:
    """Evaluate f on a grid, accepting scalar-only callables."""
    return SampledFunction(grid=grid, values=_evaluate(f, grid.points))


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the array x, or point by point when f rejects arrays (TypeError,
    ValueError) or returns the wrong shape; any other error propagates."""
    try:
        values = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != x.shape:
        values = np.array([float(f(xi)) for xi in x])
    return values


def gauss_legendre_rule(params: OperatorParams, m: int) -> QuadratureRule:
    """m-node Gauss-Legendre rule mapped to [-v_c, v_c]; nodes symmetric about 0.

    Nodes are Legendre roots found by Newton iteration (tolerance 1e-15,
    at most 100 sweeps) from the Tricomi initial guess; no tables.
    """
    m = int(m)
    if not 1 <= m <= GAUSS_LEGENDRE_MAX_NODES:
        raise ValidationError(f"node count must be in [1, {GAUSS_LEGENDRE_MAX_NODES}]")
    if m == 1:
        return QuadratureRule("gauss_legendre", np.zeros(1), np.array([2.0 * params.v_c]))
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
    # symmetrize: average each root with its mirrored partner
    x = 0.5 * (x - x[::-1])
    w = 2.0 / ((1.0 - x**2) * dp**2)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return QuadratureRule("gauss_legendre", params.v_c * x[order], params.v_c * w[order])


def composite_simpson_rule(params: OperatorParams, points: int) -> QuadratureRule:
    """Composite Simpson rule with an odd number of equally spaced points."""
    points = int(points)
    if points < 3 or points % 2 == 0:
        raise ValidationError("composite Simpson needs an odd point count >= 3")
    nodes = np.linspace(-params.v_c, params.v_c, points)
    h = 2.0 * params.v_c / (points - 1)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return QuadratureRule("composite_simpson", nodes, weights * (h / 3.0))


def default_projection_rule(params: OperatorParams, n_max: int) -> QuadratureRule:
    """Rule resolving modes 0..n_max: Gauss-Legendre with max(256, 8(n_max+1))
    nodes, or composite Simpson with 32(n_max+1)+1 points past the GL cap."""
    return _rule_from_nodes(params, None, n_max)


def _rule_from_nodes(params: OperatorParams, nodes: int | None, n_max: int) -> QuadratureRule:
    """Gauss-Legendre with `nodes` nodes up to GAUSS_LEGENDRE_MAX_NODES, past it
    composite Simpson with `nodes` rounded up to an odd point count.  Without a
    node count, the default projection rule for modes 0..n_max."""
    simpson_points = nodes
    if nodes is None:
        nodes = max(256, NODES_PER_MODE * (int(n_max) + 1))
        simpson_points = 32 * (int(n_max) + 1)
    if nodes <= GAUSS_LEGENDRE_MAX_NODES:
        return gauss_legendre_rule(params, nodes)
    return composite_simpson_rule(params, simpson_points if simpson_points % 2 else simpson_points + 1)


def integrate(rule: QuadratureRule, f: Callable) -> float:
    """Weighted sum of f over the rule nodes."""
    values = _evaluate(f, rule.nodes)
    if not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        raise EvaluationError(f"integrand returned {values[i]!r} at node {rule.nodes[i]!r}")
    return float(np.dot(rule.weights, values))


def _fd_weights(order: int, offsets: np.ndarray, h: float) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0 from the
    given integer offsets (Fornberg's recursion, specialized to one point).

    Row i must be filled from row i-1 before row i-1 is updated in place,
    hence the update inside the j loop.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    w = np.zeros((n, order + 1))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = offsets[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, order] / h**order


def fd_derivative(sf: SampledFunction, order: int) -> SampledFunction:
    """Finite-difference derivative of a uniformly sampled function.

    Central 2nd-order-accurate stencils in the interior; one-sided
    2nd-order-accurate stencils where the central window leaves the grid
    (the first/last point for orders 1-2, the first/last two for 3-4).
    """
    order = int(order)
    if order not in (1, 2, 3, 4):
        raise ValidationError("derivative order must be in 1..4")
    if sf.grid.spacing is None:
        raise ValidationError("finite differences need a uniform grid")
    npts = len(sf.grid)
    if npts < order + 5:
        raise ResolutionError(f"need at least {order + 5} points for order {order}")
    h = sf.grid.spacing
    f = sf.values
    radius = 1 if order <= 2 else 2
    side = order + 2  # points in a 2nd-order one-sided stencil
    out = np.empty_like(f)
    central = _fd_weights(order, np.arange(-radius, radius + 1), h)
    stacked = np.stack([f[i : npts - 2 * radius + i] for i in range(2 * radius + 1)])
    out[radius:-radius] = central @ stacked
    fwd = _fd_weights(order, np.arange(side), h)
    bwd = _fd_weights(order, -np.arange(side)[::-1], h)
    for i in range(radius):
        out[i] = np.dot(fwd, f[i : i + side])
        out[npts - 1 - i] = np.dot(bwd, f[npts - i - side : npts - i])
    return SampledFunction(grid=sf.grid, values=out)
