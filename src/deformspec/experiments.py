"""Executable experiments: asymptotics, rigidity, inverse-limit decay,
reconstruction convergence and the finite-difference refinement study.

Each driver returns an :class:`ExperimentReport` whose verdict is justified by
named series columns and explicit tolerances, so the same object serializes to
JSON/CSV and backs the acceptance suite; the refinement study returns one
:class:`FDSpectrumReport` per grid.  Every comparison with the closed form
lives here: the finite-difference estimate comes from fdsolver, which never
imports the closed form (tests/test_routes.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResolutionError, ValidationError, _finite
from .fdsolver import discretize, top_eigenvalues
from .params import OperatorParams
from .quadrature import GAUSS_LEGENDRE_MAX_NODES, NODES_PER_MODE, default_projection_rule, fd_derivative, uniform_grid
from .spectrum import _deficit, asymptotic_coefficient, asymptotic_eigenvalue, eigenvalue
from .transform import CoefficientVector, _l2, _projection, _sample, evaluate, project

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_DOCUMENTED = "documented_discrepancy"

#: Default tolerances, overridable per report (and from the CLI via --tol); each
#: report stores its own keys in this order as its `tolerances`.
DEFAULT_TOLERANCES = {
    "asymptotics.identity_slack": 1e-12,
    "rigidity.parseval": 1e-8,
    "rigidity.boundary_gap_slack": 1e-9,
    "constant_projection.rule_agreement": 1e-10,
    "inverse_limit.slope_rel": 0.05,
    "converge.monotonic_slack": 1e-9,
    "converge.final_l2_rel": 0.0248,
}

# Largest grid an FD validation discretizes; each eigenvalue sweep is an
# m/2-step Python loop.  In process on a 2-core x86-64 box, `fd-validate
# --grid-sizes 100000 --modes 10` takes 2.4-3.9 s and `--grid-sizes
# 25000,50000,100000` 3.6-5.8 s.
FD_MAX_INTERIOR_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentReport:
    """Named result columns plus the tolerances that justify the verdict."""

    name: str
    inputs: dict
    tolerances: dict
    series: dict
    verdict: str


@dataclass(frozen=True)
class FDSpectrumReport:
    """Per-grid comparison of discrete and analytic eigenvalues."""

    m: int
    h: float
    eigenvalues_fd: np.ndarray
    eigenvalues_analytic: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    convergence_order: float | None = None


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


def _params_inputs(params: OperatorParams) -> dict:
    return {"hbar": params.hbar, "c": params.c, "v_c": params.v_c, "unit_mode": params.unit_mode}


def _increasing(n_list) -> list[int]:
    """n_list as ints; raises :class:`ValidationError` unless non-empty, non-negative and increasing."""
    n_list = [int(n) for n in n_list]
    if not n_list or n_list[0] < 0 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be non-empty, non-negative and increasing")
    return n_list


def _tolerances(prefix: str, overrides: dict | None) -> dict:
    """The defaults of the keys `prefix`.* with the overrides applied.  Raises
    :class:`ValidationError` for any other key and for a value that is not a
    finite positive real, so no override can make a verdict pass vacuously."""
    tolerances = {key: tol for key, tol in DEFAULT_TOLERANCES.items() if key.startswith(prefix + ".")}
    for key, value in (overrides or {}).items():
        if key not in tolerances:
            raise ValidationError(f"{prefix} reads no tolerance {key!r}; keys: {', '.join(sorted(tolerances))}")
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"tolerance value for {key!r} must be a finite positive real")
        tolerances[key] = value
    return tolerances


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
    tolerances = _tolerances("asymptotics", tolerances)
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
    slack = tolerances["asymptotics.identity_slack"]
    eps, linear = np.finfo(float).eps, alpha * (2.0 * ns + 1.0)
    rounding = 2.0 * eps * (math.pi + np.abs(cn))
    ok = np.all(deficit > 0.0) and np.all(np.abs(cn - (math.pi - deficit)) <= rounding)
    ok = ok and np.all(np.abs(remainder + linear) <= slack * linear + 16.0 * eps * deficit)
    return ExperimentReport(
        name="asymptotics",
        inputs={**_params_inputs(params), "n_min": n_min, "n_max": n_max, "alpha": alpha},
        tolerances=tolerances,
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
    below pi.  The boundary gap and the sup deviation are taken on a uniform
    grid of max(2048, NODES_PER_MODE * N) intervals, N the largest cutoff, so
    the top mode is resolved at every N.  Raises :class:`NumericalError` when
    a norm overflows a 64-bit float, which happens only for a tiny v_c.
    """
    tolerances = _tolerances("rigidity", tolerances)
    n_list = _increasing(n_list)
    rule = default_projection_rule(params, max(n_list))
    grid = uniform_grid(params, max(2048, NODES_PER_MODE * n_list[-1]))
    norm_sq, ratio_err, boundary_gap, sup_dev, dist = [], [], [], [], []
    for n in n_list:
        coeffs = CoefficientVector(params, np.full(n + 1, math.pi))
        on_nodes = evaluate(coeffs, rule.nodes)
        message = f"norm of the uniform partial sum of {n + 1} terms overflows a 64-bit float"
        nsq = _finite(lambda: float(np.dot(rule.weights, on_nodes**2)), message)
        norm_sq.append(nsq)
        dist.append(_l2(rule, on_nodes, math.pi))
        ratio_err.append(abs(nsq / (n + 1) - math.pi**2))
        deviation = np.abs(evaluate(coeffs, grid) - math.pi)
        boundary_gap.append(float(min(deviation[0], deviation[-1])))
        sup_dev.append(float(np.max(deviation)))
    ok_norm = all(err <= tolerances["rigidity.parseval"] for err in ratio_err)
    ok_gap = all(g >= math.pi - tolerances["rigidity.boundary_gap_slack"] for g in boundary_gap)
    return ExperimentReport(
        name="rigidity",
        inputs={**_params_inputs(params), "n_list": n_list},
        tolerances=tolerances,
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
    tolerances = _tolerances("constant_projection", tolerances)
    tol = tolerances["constant_projection.rule_agreement"]
    n_max = int(n_max)
    largest = GAUSS_LEGENDRE_MAX_NODES // NODES_PER_MODE - 1  # the Gauss-Legendre rule's mode limit
    if not 0 <= n_max <= largest:
        raise ValidationError(f"n_max must be in [0, {largest}], got {n_max}")
    one = lambda v: np.ones_like(np.asarray(v, dtype=float))
    nodes = NODES_PER_MODE * (n_max + 1)
    gauss = project(params, one, n_max, default_projection_rule(params, n_max, max(512, nodes))).coefficients
    # past the Gauss-Legendre cap: Simpson, on an odd count, where 128 points a
    # mode keep it within the tolerance up to n_max 511
    simpson_pts = max(16385, 128 * (n_max + 1) + 1)
    simpson = project(params, one, n_max, default_projection_rule(params, n_max, simpson_pts)).coefficients
    ns = np.arange(n_max + 1)
    closed = np.where(ns % 2 == 0, 4.0 * math.sqrt(params.v_c) / ((ns + 1) * math.pi), 0.0)
    ok = np.max(np.abs(gauss - closed)) <= tol and np.max(np.abs(simpson - closed)) <= tol
    nonzero = np.max(np.abs(closed)) > tol
    return ExperimentReport(
        name="constant_projection",
        inputs={**_params_inputs(params), "n_max": n_max},
        tolerances=tolerances,
        series={
            "n": ns.tolist(),
            "closed_form": closed.tolist(),
            "gauss_legendre": gauss.tolist(),
            "composite_simpson": simpson.tolist(),
        },
        verdict=VERDICT_DOCUMENTED if (ok and nonzero) else VERDICT_FAIL,
    )


def inverse_limit_report(
    model: DecayModel,
    params: OperatorParams,
    tau_list,
    k_max: int,
    tolerances: dict | None = None,
) -> ExperimentReport:
    """Decay of C^k seminorms of the deviation from the uniform partial sum.

    The deviation D(v, tau) = sum_n (C_n(tau) - pi) psi_n(v) factorizes as
    amplitude * exp(-decay_rate * tau) times a fixed profile, so each fitted
    log-seminorm slope should equal -decay_rate up to finite-difference noise.
    The seminorms are taken on a uniform grid of max(64 (n_max+1), 2048)
    intervals for k_max <= 2, max(256 (n_max+1), 2048) for k_max 3 and 4.
    """
    tolerances = _tolerances("inverse_limit", tolerances)
    taus = np.asarray(list(tau_list), dtype=float)
    if len(taus) < 3 or not np.all(np.isfinite(taus)) or np.any(np.diff(taus) <= 0):
        raise ValidationError("degenerate fit: need at least 3 finite, strictly increasing tau values")
    k_max = int(k_max)
    if not 0 <= k_max <= 4:
        raise ValidationError("k_max must be in 0..4")
    grid = uniform_grid(params, max((64 if k_max <= 2 else 256) * (model.n_max + 1), 2048))
    slope_rel = tolerances["inverse_limit.slope_rel"]
    profile = evaluate(CoefficientVector(params, model.amplitude * model.weights), grid)
    if np.max(np.abs(profile)) == 0.0:
        raise ValidationError("deviation vanishes identically; nothing to fit")
    deviations = []
    for tau in taus.tolist():
        message = f"deviation at tau = {tau!r} overflows a 64-bit float"
        deviations.append(_finite(lambda: math.exp(-model.decay_rate * tau) * profile, message))
    series: dict = {"tau": taus.tolist()}
    slopes = []
    for k in range(k_max + 1):
        seminorms = [float(np.max(np.abs(d if k == 0 else fd_derivative(params, d, k)))) for d in deviations]
        message = f"seminorm_k{k} = {seminorms!r}: a log-slope needs finite positive values"
        logs = _finite(lambda: np.log(seminorms), message)
        series[f"seminorm_k{k}"] = seminorms
        slopes.append(float(np.polyfit(taus, logs, 1)[0]))
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
            "mode_decay": model.mode_decay,
            "k_max": k_max,
            "grid_points": len(grid),
        },
        tolerances=tolerances,
        series=series,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def convergence_study(
    params: OperatorParams,
    target: Callable,
    n_list,
    tolerances: dict | None = None,
) -> ExperimentReport:
    """Truncation error of reconstructions of the target over a range of cutoffs.

    Columns: L^2 error via `default_projection_rule` for the largest cutoff,
    and the sup error on the interior window |v| <= 0.9 v_c (away from the
    endpoint mismatch) of a uniform grid of max(4096, NODES_PER_MODE * N)
    intervals, N the largest cutoff.  The target is sampled once on each
    point set.  The final L^2 error is judged relative to the target's L^2
    norm on the same rule, reported as the input `target_l2_norm`, so the
    verdict does not depend on the units of v.
    """
    tolerances = _tolerances("converge", tolerances)
    slack = tolerances["converge.monotonic_slack"]
    n_list = _increasing(n_list)
    rule = default_projection_rule(params, n_list[-1])
    target_on_nodes, coeffs = _projection(params, target, n_list[-1], rule)
    target_norm = _l2(rule, target_on_nodes)
    window = uniform_grid(params, max(4096, NODES_PER_MODE * n_list[-1]))
    interior = np.abs(window) <= 0.9 * params.v_c
    target_interior = _sample(target, window[interior])
    l2_errors, sup_errors = [], []
    for n in n_list:
        partial = CoefficientVector(params, coeffs.coefficients[: n + 1])
        l2_errors.append(_l2(rule, target_on_nodes, evaluate(partial, rule.nodes)))
        residual_interior = target_interior - evaluate(partial, window)[interior]
        sup_errors.append(float(np.max(np.abs(residual_interior))))
    ok = (
        all(b <= a + slack for a, b in zip(l2_errors, l2_errors[1:]))
        and all(b <= a + slack for a, b in zip(sup_errors, sup_errors[1:]))
        and l2_errors[-1] <= tolerances["converge.final_l2_rel"] * target_norm
    )
    return ExperimentReport(
        name="convergence_study",
        inputs={
            **_params_inputs(params),
            "n_list": n_list,
            "rule_nodes": len(rule.nodes),
            "target_l2_norm": target_norm,
        },
        tolerances=tolerances,
        series={"n": n_list, "l2_error": l2_errors, "interior_sup_error": sup_errors},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def refinement_study(params: OperatorParams, m_list, n_modes: int = 1) -> list[FDSpectrumReport]:
    """The top n_modes discrete eigenvalues against the closed form at each of
    one or more increasing grid sizes, only well-resolved modes (n_modes <= m/4
    at every size).  From two sizes on, the mode-0 convergence order fitted
    across them is stored on every report; with one size it stays None."""
    m_list = _increasing(m_list)
    n_modes = int(n_modes)
    if not 1 <= n_modes <= m_list[0] / 4:
        raise ValidationError("only well-resolved modes are compared: need 1 <= n_modes <= m/4")
    if m_list[-1] > FD_MAX_INTERIOR_POINTS:
        raise ResolutionError(f"grid of {m_list[-1]} interior points exceeds the FD limit of {FD_MAX_INTERIOR_POINTS}")
    lam_an = eigenvalue(params, np.arange(n_modes))
    hs = [2.0 * params.v_c / (m + 1) for m in m_list]
    lam_fd = [top_eigenvalues(discretize(params, m), n_modes) for m in m_list]
    abs_errs = [np.abs(lam - lam_an) for lam in lam_fd]
    message = "relative error overflows a 64-bit float: a closed-form eigenvalue is 0 or nearly 0"
    rel_errs = [_finite(lambda: err / np.abs(lam_an), message) for err in abs_errs]
    order = None
    if len(m_list) > 1:
        message = "zero error in refinement study; cannot fit an order"
        log_errs = _finite(lambda: np.log([err[0] for err in abs_errs]), message)
        order = float(np.polyfit(np.log(hs), log_errs, 1)[0])
    return [
        FDSpectrumReport(m, h, lam, lam_an, err, rel, order)
        for m, h, lam, err, rel in zip(m_list, hs, lam_fd, abs_errs, rel_errs)
    ]
