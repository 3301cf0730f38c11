"""Acceptance suite: thirteen numbered criteria, each a single test that
prints one PASS/FAIL line and asserts at its stated tolerance.

Criteria 3 and 4 estimate their finite-difference (FD) quantities by
Richardson extrapolation (Richardson 1911, Phil. Trans. R. Soc. A 210).  The
3-point second difference has a truncation error that grows with the mode
index as (k_n h)^2: on the pinned grids it alone is larger than the 1e-5
tolerances, by a factor up to 1.56 for the criterion-3 residual at n = 16
(4096 points) and up to 2.06 for the criterion-4 eigenvalue at mode 9
(m = 2000, relative error 2.06e-5).  Every correct eigenpair shows that same
error, so the raw 3-point values would measure the stencil, not the
spectrum.  Combining the h and 2h estimates cancels the h^2 term and leaves
an O(h^4) error far below the tolerance, while an eigenvalue off by 2e-5
relative still fails both criteria.  The tolerances, grids, mode ranges and
order windows are unchanged; the raw 3-point margins are still printed in
the detail lines, and the order halves still check the 3-point values.
See README "Numerical notes".
"""

import math
import time

import numpy as np
import pytest

from deformspec import (
    CoefficientVector,
    DecayModel,
    canonical_params,
    constant_coefficient_report,
    count_interior_zeros,
    critical_index,
    custom_params,
    deformation_profile,
    discretize,
    eigenfunction,
    eigenvalue,
    eigenvalues_tridiagonal,
    eigenvector_inverse_iteration,
    evaluate,
    gauss_legendre_rule,
    gram_matrix,
    inverse_limit_report,
    l2_norm,
    project,
    refinement_study,
    rigidity_report,
    top_eigenvalues,
    uniform_grid,
    asymptotic_coefficient,
    asymptotic_eigenvalue,
    default_projection_rule,
    wavenumber,
)

CANON = canonical_params()


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_orthonormality():
    start = time.monotonic()
    gram = gram_matrix(CANON, 32, gauss_legendre_rule(CANON, 512))
    deviation = float(np.max(np.abs(gram - np.eye(33))))
    elapsed = time.monotonic() - start
    ok = deviation < 1e-10 and elapsed < 5.0
    _report("01 orthonormality", ok, f"max|G-I| = {deviation:.3e}, {elapsed:.2f}s")


def test_criterion_02_quantization_boundary():
    worst = 0.0
    for n in range(65):
        worst = max(
            worst,
            abs(eigenfunction(CANON, n, CANON.v_c)),
            abs(eigenfunction(CANON, n, -CANON.v_c)),
        )
    _report("02 quantization/boundary", worst < 1e-12, f"max endpoint value = {worst:.3e}")


def test_criterion_03_eigenrelation_residual():
    """Eigenrelation residual on a 4096-point grid, n <= 16, tolerance
    1e-5 * max(1, |C_n|), plus order ~2 of the 3-point residual of mode 8
    between 2048 and 4096 points.

    The 3-point second difference of sin(k(v + v_c)) is exactly
    -(4/h^2) sin^2(kh/2) psi_n, so its residual is the truncation
    pi (h^2/12) k_n^4 psi_n of any correct eigenpair: 5.1e-2 against a
    tolerance of 3.3e-2 at n = 16.  The residual is therefore taken with the
    Richardson combination (4 D_h - D_2h)/3 of the h and 2h second
    differences on the same grid, i.e. the 5-point stencil
    (-f[i-2] + 16 f[i-1] - 30 f[i] + 16 f[i+1] - f[i+2]) / (12 h^2)."""

    def residual_sups(points, n):
        """Sup of the 3-point and of the extrapolated residual."""
        g = np.linspace(-CANON.v_c, CANON.v_c, points)
        step = g[1] - g[0]
        f = eigenfunction(CANON, n, g)
        c_n = eigenvalue(CANON, n)
        d_h = (f[2:] - 2 * f[1:-1] + f[:-2]) / step**2
        d_2h = (f[4:] - 2 * f[2:-2] + f[:-4]) / (2 * step) ** 2
        extrapolated = (4 * d_h[1:-1] - d_2h) / 3
        raw = np.max(np.abs(math.pi * (f[1:-1] + d_h) - c_n * f[1:-1]))
        richardson = np.max(np.abs(math.pi * (f[2:-2] + extrapolated) - c_n * f[2:-2]))
        return float(raw), float(richardson)

    failures = []
    worst_ratio = 0.0
    worst_raw_ratio = 0.0
    for n in range(17):
        raw, sup = residual_sups(4096, n)
        tol = 1e-5 * max(1.0, abs(eigenvalue(CANON, n)))
        worst_ratio = max(worst_ratio, sup / tol)
        worst_raw_ratio = max(worst_raw_ratio, raw / tol)
        if sup >= tol:
            failures.append(n)
    order = math.log2(residual_sups(2048, 8)[0] / residual_sups(4096, 8)[0])
    ok = not failures and 1.9 <= order <= 2.1
    _report(
        "03 eigenrelation residual",
        ok,
        f"order = {order:.3f}, worst residual/tolerance = {worst_ratio:.2e} "
        f"(3-point: {worst_raw_ratio:.2f})"
        + (f", failing n = {failures}" if failures else ""),
    )


def test_criterion_04_independent_spectrum_validation():
    """Modes 0..9 at rel error < 1e-5 with m = 2000 as the finest grid, the
    mode-0 order of the FD eigenvalues ~2 over m = 250..2000, under 30 s.

    The relative error of the 3-point FD eigenvalues is
    (k_n h/2)^2/3 * k_n^2/(k_n^2 - 1), 2.06e-5 at mode 9 for m = 2000, so the
    raw values measure the discretization.  The compared eigenvalues are the
    Richardson extrapolation lambda_R = (h1^2 lam2 - h2^2 lam1)/(h1^2 - h2^2)
    of the m = 1000 and m = 2000 FD eigenvalues, which come from the
    Sturm-bisection solver alone and never touch the sine basis."""
    start = time.monotonic()
    study = refinement_study(CANON, [250, 500, 1000, 2000], 10)
    elapsed = time.monotonic() - start
    coarse, fine = study[-2], study[-1]
    extrapolated = (
        coarse.h**2 * fine.eigenvalues_fd - fine.h**2 * coarse.eigenvalues_fd
    ) / (coarse.h**2 - fine.h**2)
    closed = eigenvalue(CANON, np.arange(10))
    rel_errors = np.abs(extrapolated - closed) / np.abs(closed)
    order = fine.convergence_order
    order_ok = 1.9 <= order <= 2.1
    failing = [int(n) for n in np.nonzero(rel_errors >= 1e-5)[0]]
    ok = not failing and order_ok and elapsed < 30.0
    _report(
        "04 independent spectrum validation",
        ok,
        f"order = {order:.3f}, max rel err = {np.max(rel_errors):.3e} "
        f"(3-point at m = {fine.m}: {np.max(fine.rel_errors):.3e}), {elapsed:.1f}s"
        + (f", failing modes = {failing}" if failing else ""),
    )


def test_criterion_05_upper_bound_and_monotonicity():
    ns = np.arange(1_000_001)
    closed = eigenvalue(CANON, ns)
    closed_ok = bool(np.all(closed < math.pi) and np.all(np.diff(closed) < 0))
    fd = eigenvalues_tridiagonal(discretize(CANON, 2000))
    fd_ok = bool(np.all(fd < math.pi) and np.all(np.diff(fd) < 0))
    _report(
        "05 strict upper bound and monotonicity",
        closed_ok and fd_ok,
        f"closed form n <= 1e6: {closed_ok}, all 2000 FD eigenvalues: {fd_ok}",
    )


def test_criterion_06_oscillation():
    analytic_ok = all(count_interior_zeros(CANON, n, 2000) == n for n in range(33))
    A = discretize(CANON, 500)
    lams = top_eigenvalues(A, 9)
    fd_ok = True
    for n in range(9):
        vec = eigenvector_inverse_iteration(A, lams[n])
        signs = np.sign(vec)
        signs = signs[signs != 0]
        fd_ok = fd_ok and int(np.sum(signs[1:] * signs[:-1] < 0)) == n
    _report(
        "06 oscillation",
        analytic_ok and fd_ok,
        f"analytic zero counts n<=32: {analytic_ok}, FD sign changes n<=8: {fd_ok}",
    )


def test_criterion_07_parseval():
    v_c = CANON.v_c
    analytic_norm_sq = 2 * math.pi**2 * (v_c - 2 * v_c**3 / 3 + v_c**5 / 5)
    rule = default_projection_rule(CANON, 1000)
    profile = lambda v: deformation_profile(CANON, v)
    norm_sq = l2_norm(profile, rule) ** 2
    norm_ok = abs(norm_sq - analytic_norm_sq) < 1e-9
    coeffs = project(CANON, profile, 1000, rule)
    cumulative = np.cumsum(coeffs.coefficients**2)
    defects = {n: norm_sq - cumulative[n] for n in (64, 128, 256, 512, 1000)}
    decreasing = all(
        defects[b] < defects[a] for a, b in zip((64, 128, 256, 512), (128, 256, 512, 1000))
    )
    rel = defects[1000] / norm_sq
    ok = norm_ok and decreasing and rel < 1e-3
    _report(
        "07 parseval",
        ok,
        f"|norm_sq - analytic| = {abs(norm_sq - analytic_norm_sq):.2e}, "
        f"rel defect @1000 = {rel:.2e}, decreasing over doublings: {decreasing}",
    )


def test_criterion_08_reconstruction():
    rule = gauss_legendre_rule(CANON, 2048)
    profile = lambda v: deformation_profile(CANON, v)
    coeffs = project(CANON, profile, 128, rule)
    target = np.asarray(profile(rule.nodes))
    errors = []
    for n in (8, 16, 32, 64, 128):
        partial = CoefficientVector(CANON, coeffs.coefficients[: n + 1])
        residual = target - evaluate(partial, rule.nodes)
        errors.append(float(np.sqrt(np.dot(rule.weights, residual**2))))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    rng = np.random.default_rng(5)
    in_span = CoefficientVector(CANON, rng.uniform(-1, 1, 9))
    recovered = project(CANON, lambda v: evaluate(in_span, v), 8, gauss_legendre_rule(CANON, 256))
    grid = uniform_grid(CANON, 300)
    round_trip = float(np.max(np.abs(evaluate(recovered, grid) - evaluate(in_span, grid))))
    ok = monotone and round_trip < 1e-9
    _report(
        "08 reconstruction",
        ok,
        f"L2 errors {['%.4f' % e for e in errors]} monotone: {monotone}, "
        f"round trip = {round_trip:.2e}",
    )


def test_criterion_09_rigidity():
    report = rigidity_report(CANON, [8, 16, 32, 64])
    ratios = np.array(report.series["norm_sq"]) / (np.array(report.series["n"]) + 1)
    parseval_ok = bool(np.all(np.abs(ratios - math.pi**2) < 1e-8))
    gap_ok = all(g >= math.pi - 1e-9 for g in report.series["sup_deviation_from_pi"])
    ok = parseval_ok and gap_ok and report.verdict == "pass"
    _report(
        "09 rigidity",
        ok,
        f"max|norm_sq/(N+1) - pi^2| = {np.max(np.abs(ratios - math.pi**2)):.2e}, "
        f"boundary obstruction: {gap_ok}, verdict = {report.verdict}",
    )


def test_criterion_10_rigidity_proof_discrepancy():
    report = constant_coefficient_report(CANON, 32)
    closed = np.array(report.series["closed_form"])
    gauss = np.array(report.series["gauss_legendre"])
    simpson = np.array(report.series["composite_simpson"])
    agreement = max(float(np.max(np.abs(gauss - closed))), float(np.max(np.abs(simpson - closed))))
    ns = np.arange(33)
    expected = np.where(ns % 2 == 0, 4 * np.sqrt(CANON.v_c) / ((ns + 1) * math.pi), 0.0)
    formula_ok = bool(np.allclose(closed, expected, rtol=0, atol=1e-15))
    ok = agreement < 1e-10 and formula_ok and report.verdict == "documented_discrepancy"
    _report(
        "10 rigidity-proof discrepancy",
        ok,
        f"two-rule agreement = {agreement:.2e}, verdict = {report.verdict}",
    )


def test_criterion_11_critical_index():
    params = custom_params(0.1, 1.0, 0.8256453)
    report = critical_index(params)
    brute = max(n for n in range(12) if eigenvalue(params, n) >= 0)
    ok = (
        report.n_star_paper == 5
        and report.n_star_exact == 4
        and brute == 4
        and report.agree is False
    )
    _report(
        "11 critical index",
        ok,
        f"x = {report.x:.5f}, floor formula = {report.n_star_paper}, exact = {report.n_star_exact}, "
        f"brute force = {brute}, flagged = {not report.agree}",
    )


def test_criterion_12_inverse_limit():
    start = time.monotonic()
    model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)
    report = inverse_limit_report(model, CANON, list(range(1, 9)), 2)
    slopes = report.series["fitted_slope"]
    slopes_ok = all(abs(s + 2.0) <= 0.05 * 2.0 for s in slopes)
    s0 = report.series["seminorm_k0"]
    ratios = np.array(s0[1:]) / np.array(s0[:-1])
    factor_ok = bool(np.all(np.abs(ratios / math.exp(-2.0) - 1.0) < 1e-9))
    elapsed = time.monotonic() - start
    ok = slopes_ok and factor_ok and report.verdict == "pass" and elapsed < 10.0
    _report(
        "12 inverse limit",
        ok,
        f"slopes = {['%.4f' % s for s in slopes]}, k=0 factorization exact: {factor_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_13_asymptotics():
    alpha = asymptotic_coefficient(CANON)
    ns = np.arange(1, 1_000_001)
    remainder = eigenvalue(CANON, ns) - asymptotic_eigenvalue(CANON, ns)
    expected = -alpha * (2 * ns.astype(float) + 1)
    scale = np.maximum(np.abs(eigenvalue(CANON, ns)), 1.0)
    identity_ok = bool(np.max(np.abs(remainder - expected) / scale) < 1e-13)
    band = np.arange(100, 1001)
    ratio = np.abs(eigenvalue(CANON, band) - asymptotic_eigenvalue(CANON, band)) / band
    band_ok = bool(np.all(np.abs(ratio - 2 * alpha) <= alpha / band + 1e-9 * alpha))
    ok = identity_ok and band_ok
    _report(
        "13 asymptotics",
        ok,
        f"identity to rounding n<=1e6: {identity_ok}, remainder/n within alpha/n of 2*alpha: {band_ok}",
    )
