"""Executable experiments: asymptotics, rigidity, inverse-limit decay and
reconstruction convergence.

Each driver returns an :class:`ExperimentReport` whose verdict is justified by
named series columns and explicit tolerances, so the same object serializes to
JSON/CSV and backs the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ResolutionError, ValidationError
from .params import OperatorParams
from .quadrature import (
    NODES_PER_MODE,
    Grid,
    QuadratureRule,
    SampledFunction,
    composite_simpson_rule,
    default_projection_rule,
    fd_derivative,
    gauss_legendre_rule,
    uniform_grid,
    _evaluate,
)
from .spectrum import _deficit, asymptotic_coefficient, asymptotic_eigenvalue, eigenvalue
from .transform import CoefficientVector, evaluate, project, reconstruct

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_DOCUMENTED = "documented_discrepancy"

#: Default tolerances, overridable per report (and from the CLI via --tol).
DEFAULT_TOLERANCES = {
    "asymptotics.identity_slack": 1e-12,
    "rigidity.parseval": 1e-8,
    "rigidity.boundary_gap_slack": 1e-9,
    "constant_projection.rule_agreement": 1e-10,
    "inverse_limit.slope_rel": 0.05,
    "converge.final_l2_rel": 0.0248,
    "converge.monotonic_slack": 1e-9,
}


@dataclass(frozen=True)
class ExperimentReport:
    """Named result columns plus the tolerances that justify the verdict."""

    name: str
    inputs: dict
    tolerances: dict
    series: dict
    verdict: str


@dataclass(frozen=True)
class DecayModel:
    """Coefficient trajectories C_n(tau) = pi + amplitude * exp(-decay_rate*tau) * g(n).

    The mode weights g(n) = exp(-mode_decay * n) in (0, 1] spread the
    perturbation over modes; the default mode_decay = 1 makes the infinite sum
    summable.  The amplitude may be zero: the uniform partial sum.
    """

    amplitude: float
    decay_rate: float
    n_max: int
    mode_decay: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValidationError("amplitude must be a finite non-negative real")
        if not (math.isfinite(self.decay_rate) and self.decay_rate > 0):
            raise ValidationError("decay_rate must be positive")
        if not (math.isfinite(self.mode_decay) and self.mode_decay >= 0):
            raise ValidationError("mode_decay must be a finite non-negative real")
        if int(self.n_max) < 0:
            raise ValidationError("n_max must be >= 0")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def weights(self) -> np.ndarray:
        return np.exp(-self.mode_decay * np.arange(self.n_max + 1, dtype=float))

    def coefficients(self, tau: float) -> np.ndarray:
        return math.pi + self.amplitude * math.exp(-self.decay_rate * tau) * self.weights


def _params_inputs(params: OperatorParams) -> dict:
    return {"hbar": params.hbar, "c": params.c, "v_c": params.v_c, "unit_mode": params.unit_mode}


def _increasing(n_list) -> list[int]:
    """n_list as ints; raises :class:`ValidationError` unless non-empty and increasing."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be non-empty and increasing")
    return n_list


def _tol(overrides: dict | None, key: str) -> float:
    if overrides and key in overrides:
        return float(overrides[key])
    return DEFAULT_TOLERANCES[key]


def asymptotics_report(
    params: OperatorParams, n_min: int, n_max: int, tolerances: dict | None = None
) -> ExperimentReport:
    """Remainder C_n - (pi - alpha n^2) = alpha n^2 - d_n of the quadratic approximant.

    The deficit d_n = pi - C_n has no cancellation at any scale; alpha comes
    from its own formula.  The remainder is exactly -alpha(2n+1), so
    |remainder|/n approaches 2 alpha from above.  The verdict needs d_n > 0,
    C_n = pi - d_n to rounding, and each remainder within the identity slack
    of -alpha(2n+1) plus the rounding bound 16 eps d_n.
    """
    n_min, n_max = int(n_min), int(n_max)
    if not 1 <= n_min < n_max:
        raise ValidationError("need 1 <= n_min < n_max")
    ns = np.arange(n_min, n_max + 1)
    cn = eigenvalue(params, ns)
    approx = asymptotic_eigenvalue(params, ns)
    deficit = _deficit(params, ns)
    alpha = asymptotic_coefficient(params)
    remainder = alpha * ns.astype(float) ** 2 - deficit
    ratio = np.abs(remainder) / ns
    slack = _tol(tolerances, "asymptotics.identity_slack")
    eps, linear = np.finfo(float).eps, alpha * (2.0 * ns + 1.0)
    rounding = 2.0 * eps * (math.pi + np.abs(cn))
    ok = np.all(deficit > 0.0) and np.all(np.abs(cn - (math.pi - deficit)) <= rounding)
    ok = ok and np.all(np.abs(remainder + linear) <= slack * linear + 16.0 * eps * deficit)
    return ExperimentReport(
        name="asymptotics",
        inputs={**_params_inputs(params), "n_min": n_min, "n_max": n_max, "alpha": alpha},
        tolerances={"asymptotics.identity_slack": slack},
        series={
            "n": ns.tolist(),
            "eigenvalue": cn.tolist(),
            "quadratic_approximant": approx.tolist(),
            "remainder": remainder.tolist(),
            "abs_remainder_over_n": ratio.tolist(),
        },
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def rigidity_report(
    params: OperatorParams, n_list, tolerances: dict | None = None
) -> ExperimentReport:
    """Why uniform coefficients are not realizable by an admissible function.

    Two mechanisms are measured: the squared norm of the uniform partial sum
    grows like pi^2 (N+1), and every partial sum vanishes at the endpoints
    while the target constant pi does not, so the sup distance never drops
    below pi.
    """
    n_list = _increasing(n_list)
    tol_parseval = _tol(tolerances, "rigidity.parseval")
    gap_slack = _tol(tolerances, "rigidity.boundary_gap_slack")
    rule = default_projection_rule(params, max(n_list))
    grid = uniform_grid(params, 2048)
    norm_sq, ratio_err, boundary_gap, sup_dev, dist = [], [], [], [], []
    for n in n_list:
        coeffs = CoefficientVector(params, np.full(n + 1, math.pi))
        partial = reconstruct(coeffs, grid)
        on_nodes = evaluate(coeffs, rule.nodes)
        nsq = float(np.dot(rule.weights, on_nodes**2))
        norm_sq.append(nsq)
        ratio_err.append(abs(nsq / (n + 1) - math.pi**2))
        deviation = np.abs(partial.values - math.pi)
        boundary_gap.append(float(min(deviation[0], deviation[-1])))
        sup_dev.append(float(np.max(deviation)))
        dist.append(float(np.sqrt(np.dot(rule.weights, (on_nodes - math.pi) ** 2))))
    ok_norm = all(err <= tol_parseval for err in ratio_err)
    ok_gap = all(g >= math.pi - gap_slack for g in boundary_gap)
    return ExperimentReport(
        name="rigidity",
        inputs={**_params_inputs(params), "n_list": n_list},
        tolerances={"rigidity.parseval": tol_parseval, "rigidity.boundary_gap_slack": gap_slack},
        series={
            "n": n_list,
            "norm_sq": norm_sq,
            "norm_sq_over_count_minus_pi_sq": ratio_err,
            "boundary_gap": boundary_gap,
            "sup_deviation_from_pi": sup_dev,
            "l2_distance_to_pi": dist,
        },
        verdict=VERDICT_PASS if (ok_norm and ok_gap) else VERDICT_FAIL,
    )


def constant_coefficient_report(
    params: OperatorParams, n_max: int = 32, tolerances: dict | None = None
) -> ExperimentReport:
    """Projections of the constant function 1 onto the eigenbasis.

    The closed form 4 sqrt(v_c)/((n+1) pi) for even n (zero for odd n) is
    confirmed by two independent quadrature rules.  Because the even-mode
    values are provably nonzero, the report's verdict is
    ``documented_discrepancy`` with respect to the frequently assumed
    orthogonality of constants to this basis; the discrepancy is the point.
    """
    n_max = int(n_max)
    tol = _tol(tolerances, "constant_projection.rule_agreement")
    one = lambda v: np.ones_like(np.asarray(v, dtype=float))
    nodes = NODES_PER_MODE * (n_max + 1)
    gauss = project(params, one, n_max, gauss_legendre_rule(params, max(512, nodes))).coefficients
    simpson_pts = max(16385, nodes + 1)
    simpson = project(
        params, one, n_max, composite_simpson_rule(params, simpson_pts + 1 - simpson_pts % 2)
    ).coefficients
    ns = np.arange(n_max + 1)
    closed = np.where(ns % 2 == 0, 4.0 * math.sqrt(params.v_c) / ((ns + 1) * math.pi), 0.0)
    ok = np.max(np.abs(gauss - closed)) <= tol and np.max(np.abs(simpson - closed)) <= tol
    nonzero = np.max(np.abs(closed)) > tol
    return ExperimentReport(
        name="constant_projection",
        inputs={**_params_inputs(params), "n_max": n_max},
        tolerances={"constant_projection.rule_agreement": tol},
        series={
            "n": ns.tolist(),
            "closed_form": closed.tolist(),
            "gauss_legendre": gauss.tolist(),
            "composite_simpson": simpson.tolist(),
        },
        verdict=VERDICT_DOCUMENTED if (ok and nonzero) else VERDICT_FAIL,
    )


def _required_points(n_max: int, k_max: int) -> int:
    return (64 if k_max <= 2 else 256) * (n_max + 1)


def inverse_limit_report(
    model: DecayModel,
    params: OperatorParams,
    tau_list,
    k_max: int,
    grid: Grid,
    tolerances: dict | None = None,
) -> ExperimentReport:
    """Decay of C^k seminorms of the deviation from the uniform partial sum.

    The deviation D(v, tau) = sum_n (C_n(tau) - pi) psi_n(v) factorizes as
    amplitude * exp(-decay_rate * tau) times a fixed profile, so each fitted
    log-seminorm slope should equal -decay_rate up to finite-difference noise.
    """
    taus = np.asarray(list(tau_list), dtype=float)
    if len(taus) < 3 or np.any(np.diff(taus) <= 0):
        raise ValidationError("degenerate fit: need at least 3 strictly increasing tau values")
    k_max = int(k_max)
    if not 0 <= k_max <= 4:
        raise ValidationError("k_max must be in 0..4")
    if grid.spacing is None:
        raise ValidationError("seminorms need a uniform grid")
    if len(grid) < _required_points(model.n_max, k_max):
        raise ResolutionError(
            f"grid has {len(grid)} points; k_max = {k_max} at n_max = {model.n_max} "
            f"needs >= {_required_points(model.n_max, k_max)}"
        )
    slope_rel = _tol(tolerances, "inverse_limit.slope_rel")
    profile = evaluate(CoefficientVector(params, model.amplitude * model.weights), grid.points)
    if np.max(np.abs(profile)) == 0.0:
        raise ValidationError("deviation vanishes identically; nothing to fit")
    deviations = []
    for tau in taus:
        try:
            scale = math.exp(-model.decay_rate * float(tau))
        except OverflowError:
            scale = math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            values = scale * profile
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"deviation at tau = {float(tau)!r} overflows a 64-bit float")
        deviations.append(SampledFunction(grid, values))
    series: dict = {"tau": taus.tolist()}
    slopes = []
    for k in range(k_max + 1):
        seminorms = [
            float(np.max(np.abs(d.values if k == 0 else fd_derivative(d, k).values))) for d in deviations
        ]
        if not all(0.0 < s < math.inf for s in seminorms):
            raise NumericalError(f"seminorm_k{k} = {seminorms!r}: a log-slope needs finite positive values")
        series[f"seminorm_k{k}"] = seminorms
        slopes.append(float(np.polyfit(taus, np.log(seminorms), 1)[0]))
    series["k"] = list(range(k_max + 1))
    series["fitted_slope"] = slopes
    ok = all(abs(s + model.decay_rate) <= slope_rel * model.decay_rate for s in slopes)
    return ExperimentReport(
        name="inverse_limit",
        inputs={
            **_params_inputs(params),
            "amplitude": model.amplitude,
            "decay_rate": model.decay_rate,
            "n_max": model.n_max,
            "k_max": k_max,
            "grid_points": len(grid),
        },
        tolerances={"inverse_limit.slope_rel": slope_rel},
        series=series,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def convergence_study(
    params: OperatorParams,
    target: Callable,
    n_list,
    rule: QuadratureRule,
    tolerances: dict | None = None,
) -> ExperimentReport:
    """Truncation error of reconstructions of the target over a range of cutoffs.

    Columns: L^2 error via the quadrature rule, and the sup error on the
    interior window |v| <= 0.9 v_c (away from the endpoint mismatch).  The
    final L^2 error is judged relative to the target's L^2 norm on the same
    rule, reported as the input `target_l2_norm`, so the verdict does not
    depend on the units of v.
    """
    n_list = _increasing(n_list)
    slack = _tol(tolerances, "converge.monotonic_slack")
    final_tol = _tol(tolerances, "converge.final_l2_rel")
    coeffs = project(params, target, max(n_list), rule)
    target_on_nodes = _evaluate(target, rule.nodes)
    target_norm = float(np.sqrt(np.dot(rule.weights, target_on_nodes**2)))
    window = uniform_grid(params, 4096)
    interior = np.abs(window.points) <= 0.9 * params.v_c
    target_interior = _evaluate(target, window.points[interior])
    l2_errors, sup_errors = [], []
    for n in n_list:
        partial = CoefficientVector(params, coeffs.coefficients[: n + 1])
        residual_nodes = target_on_nodes - evaluate(partial, rule.nodes)
        l2_errors.append(float(np.sqrt(np.dot(rule.weights, residual_nodes**2))))
        residual_interior = target_interior - evaluate(partial, window.points)[interior]
        sup_errors.append(float(np.max(np.abs(residual_interior))))
    ok = (
        all(b <= a + slack for a, b in zip(l2_errors, l2_errors[1:]))
        and all(b <= a + slack for a, b in zip(sup_errors, sup_errors[1:]))
        and l2_errors[-1] <= final_tol * target_norm
    )
    return ExperimentReport(
        name="convergence_study",
        inputs={
            **_params_inputs(params),
            "n_list": n_list,
            "rule_nodes": len(rule.nodes),
            "target_l2_norm": target_norm,
        },
        tolerances={"converge.monotonic_slack": slack, "converge.final_l2_rel": final_tol},
        series={"n": n_list, "l2_error": l2_errors, "interior_sup_error": sup_errors},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )
