import math
from unittest import mock

import numpy as np
import pytest

from deformspec import (
    DEFAULT_TOLERANCES,
    CoefficientVector,
    DecayModel,
    NumericalError,
    ValidationError,
    asymptotic_coefficient,
    asymptotics_report,
    canonical_params,
    constant_coefficient_report,
    convergence_study,
    custom_params,
    default_projection_rule,
    deformation_profile,
    eigenfunction,
    evaluate,
    gauss_legendre_rule,
    inverse_limit_report,
    project,
    rigidity_report,
    si_params,
    uniform_grid,
)

CANON = canonical_params()


class TestAsymptotics:
    def test_identity_band(self):
        report = asymptotics_report(CANON, 100, 1000)
        assert report.verdict == "pass"
        alpha = report.inputs["alpha"]
        ns = np.array(report.series["n"])
        ratio = np.array(report.series["abs_remainder_over_n"])
        assert np.all(np.abs(ratio - 2 * alpha) <= alpha / ns + 1e-9 * alpha)

    def test_ratio_convergence_low_range(self):
        report = asymptotics_report(CANON, 10, 20)
        alpha = asymptotic_coefficient(CANON)
        cn = np.array(report.series["eigenvalue"])
        ns = np.array(report.series["n"], dtype=float)
        # C_n / (-alpha n^2) -> 1; within 25% by n = 20
        assert abs(cn[-1] / (-alpha * ns[-1] ** 2) - 1.0) < 0.25

    def test_all_below_pi(self):
        report = asymptotics_report(CANON, 1, 50)
        assert np.all(np.array(report.series["eigenvalue"]) < math.pi)

    @pytest.mark.parametrize("n_max", [5000, 20000, 100000])
    def test_passes_at_large_n(self, n_max):
        # C_n - (pi - alpha n^2) cancels about log10(n) digits; the identity
        # slack alone fails 329 of the rows up to n = 5000.
        assert asymptotics_report(CANON, 100, n_max).verdict == "pass"

    @pytest.mark.parametrize("n_min", [100, 5000, 99999])
    def test_relative_eigenvalue_shift_fails(self, monkeypatch, n_min):
        import deformspec.experiments as experiments

        exact = experiments.eigenvalue
        monkeypatch.setattr(experiments, "eigenvalue", lambda params, n: exact(params, n) * (1 + 1e-12))
        assert asymptotics_report(CANON, n_min, n_min + 1).verdict == "fail"

    @pytest.mark.parametrize("params", [CANON, si_params()], ids=["canonical", "si"])
    @pytest.mark.parametrize("e, verdict", [(0.0, "pass"), (1e-6, "fail")])
    def test_scaled_coefficient_verdict(self, monkeypatch, params, e, verdict):
        # the parent's window [0, 2 alpha/n] on |remainder|/n still passed at e = 1e-6
        import deformspec.experiments as experiments

        exact = experiments.asymptotic_coefficient
        monkeypatch.setattr(experiments, "asymptotic_coefficient", lambda p: exact(p) * (1 + e))
        assert asymptotics_report(params, 100, 1000).verdict == verdict

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            asymptotics_report(CANON, 0, 10)
        with pytest.raises(ValidationError):
            asymptotics_report(CANON, 10, 10)


class TestRigidity:
    def test_partial_sum_endpoints_vanish(self):
        grid = uniform_grid(CANON, 256)
        for n in (0, 9, 64):
            partial = evaluate(CoefficientVector(CANON, np.full(n + 1, math.pi)), grid)
            assert partial[0] == 0.0
            assert partial[-1] == 0.0

    def test_partial_sum_norm_parseval(self):
        rule = gauss_legendre_rule(CANON, 512)
        # Parseval with ten coefficients equal to pi
        values = evaluate(CoefficientVector(CANON, np.full(10, math.pi)), rule.nodes)
        norm_sq = float(np.dot(rule.weights, values**2))
        assert norm_sq == pytest.approx(math.pi**2 * 10, abs=1e-8)

    def test_report_passes(self):
        report = rigidity_report(CANON, [8, 16, 32, 64])
        assert report.verdict == "pass"
        assert all(g >= math.pi - 1e-9 for g in report.series["boundary_gap"])
        ratios = np.array(report.series["norm_sq"]) / (np.array(report.series["n"]) + 1)
        np.testing.assert_allclose(ratios, math.pi**2, atol=1e-8)

    def test_single_entry(self):
        report = rigidity_report(CANON, [0])
        assert report.series["norm_sq"][0] == pytest.approx(math.pi**2, abs=1e-10)

    def test_distance_to_target_grows(self):
        report = rigidity_report(CANON, [8, 16, 32, 64])
        distance = report.series["l2_distance_to_pi"]
        assert all(b > a for a, b in zip(distance, distance[1:]))
        # closed form: pi^2 (N+1) - 8 pi sqrt(v_c) H_odd(N+1) + 2 pi^2 v_c
        for n, value in zip(report.series["n"], distance):
            h_odd = sum(1.0 / m for m in range(1, n + 2) if m % 2 == 1)
            closed = math.pi**2 * (n + 1) - 8 * math.pi * math.sqrt(CANON.v_c) * h_odd + 2 * math.pi**2 * CANON.v_c
            assert value**2 == pytest.approx(closed, rel=1e-9)

    def test_sup_deviation_resolved_at_large_cutoffs(self):
        # the sup grid must grow with the largest cutoff to catch the peaks of its top modes
        report = rigidity_report(CANON, [1000, 4000])
        fine = uniform_grid(CANON, 400000)
        for n, sup in zip(report.series["n"], report.series["sup_deviation_from_pi"]):
            partial = evaluate(CoefficientVector(CANON, np.full(n + 1, math.pi)), fine)
            assert sup == pytest.approx(np.max(np.abs(partial - math.pi)), rel=1e-3)
        sups = report.series["sup_deviation_from_pi"]
        assert sups[0] < sups[1]

    def test_needs_increasing_list(self):
        with pytest.raises(ValidationError):
            rigidity_report(CANON, [16, 8])

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            rigidity_report(CANON, [-5, -3])

    def test_overflowing_norm_is_a_numerical_error(self):
        # the partial sums are of size sqrt(1/v_c) ~ 3e153, their squares overflow
        with pytest.raises(NumericalError, match="overflows"):
            rigidity_report(custom_params(1, 2, 1e-307), [2])


class TestConstantCoefficients:
    def test_two_rules_agree_with_closed_form(self):
        report = constant_coefficient_report(CANON, 32)
        assert report.verdict == "documented_discrepancy"
        closed = np.array(report.series["closed_form"])
        for column in ("gauss_legendre", "composite_simpson"):
            assert np.max(np.abs(np.array(report.series[column]) - closed)) < 1e-10

    def test_even_modes_nonzero_odd_modes_zero(self):
        report = constant_coefficient_report(CANON, 8)
        closed = report.series["closed_form"]
        assert closed[0] == pytest.approx(4 * math.sqrt(CANON.v_c) / math.pi, rel=1e-14)
        assert all(closed[n] == 0.0 for n in (1, 3, 5, 7))
        assert all(closed[n] > 0.1 for n in (0, 2, 4))

    @pytest.mark.parametrize("n_max", [-1, 512, 600])
    def test_n_max_beyond_the_gauss_legendre_cap_is_rejected_by_name(self, n_max):
        with mock.patch("deformspec.experiments.default_projection_rule") as build:
            with pytest.raises(ValidationError, match=rf"n_max must be in \[0, 511\], got {n_max}"):
                constant_coefficient_report(CANON, n_max)
        build.assert_not_called()

    def test_largest_n_max_is_accepted(self):
        report = constant_coefficient_report(CANON, 511)
        assert report.verdict == "documented_discrepancy"
        tol = report.tolerances["constant_projection.rule_agreement"]
        gauss, simpson, closed = (
            np.array(report.series[column]) for column in ("gauss_legendre", "composite_simpson", "closed_form")
        )
        assert len(closed) == 512 and np.max(np.abs(gauss - closed)) < 1e-13
        # a Simpson rule fixed at 16385 points would be 1.2e-9 off here
        assert np.max(np.abs(simpson - closed)) <= tol


class TestInverseLimit:
    @staticmethod
    def deviation(model, tau, grid):
        """D(v, tau) = sum_n (C_n(tau) - pi) psi_n(v), the deviation the report
        evaluates: the trajectory's expansion less the uniform partial sum."""
        coeffs = model.amplitude * math.exp(-model.decay_rate * tau) * model.weights
        return evaluate(CoefficientVector(CANON, coeffs), grid)

    def test_trajectory_far_in_time_is_uniform_sum(self):
        model = DecayModel(amplitude=1.0, decay_rate=1.0, n_max=8)
        far = self.deviation(model, 50.0, uniform_grid(CANON, 600))
        assert np.max(np.abs(far)) < math.exp(-50) * 20 + 1e-12

    def test_trajectory_zero_amplitude_is_uniform_sum(self):
        model = DecayModel(amplitude=0.0, decay_rate=1.0, n_max=8)
        assert not np.any(self.deviation(model, 3.0, uniform_grid(CANON, 600)))

    def test_initial_deviation_bounded_by_geometric_sum(self):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)
        deviation = np.max(np.abs(self.deviation(model, 0.0, uniform_grid(CANON, 64 * 33))))
        bound = (1 - math.exp(-33)) / (1 - math.exp(-1)) / math.sqrt(CANON.v_c)
        assert deviation <= bound * (1 + 1e-12)
        assert bound == pytest.approx(1.741, abs=1e-3)

    def test_report_slopes_match_decay_rate(self):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)
        report = inverse_limit_report(model, CANON, list(range(1, 9)), 2)
        assert report.verdict == "pass"
        for slope in report.series["fitted_slope"]:
            assert abs(slope + 2.0) <= 0.05 * 2.0

    def test_k0_factorization_exact(self):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)
        report = inverse_limit_report(model, CANON, [1.0, 2.0, 3.0], 0)
        s = report.series["seminorm_k0"]
        assert s[1] / s[0] == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert s[2] / s[1] == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_constant_weights_factor_through_sup(self):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32, mode_decay=0.0)
        grid = uniform_grid(CANON, 64 * 33)
        report = inverse_limit_report(model, CANON, [0.0, 1.0, 2.0], 0)
        uniform = evaluate(CoefficientVector(CANON, np.full(33, math.pi)), grid)
        uniform_sup = np.max(np.abs(uniform / math.pi))
        assert report.series["seminorm_k0"][0] == pytest.approx(uniform_sup, rel=1e-12)
        assert report.series["fitted_slope"][0] == pytest.approx(-2.0, abs=1e-9)
        assert report.inputs["mode_decay"] == 0.0

    def test_degenerate_fit_rejected(self):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=4)
        with pytest.raises(ValidationError, match="degenerate fit"):
            inverse_limit_report(model, CANON, [2.0, 2.0, 2.0], 0)

    @pytest.mark.parametrize("taus", [[1.0, math.nan, 3.0], [1.0, 2.0, math.inf], [-math.inf, 1.0, 2.0]])
    def test_non_finite_tau_rejected(self, taus):
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=4)
        with pytest.raises(ValidationError, match="finite, strictly increasing"):
            inverse_limit_report(model, CANON, taus, 0)

    def test_grid_follows_k_max(self):
        # k_max 3 and 4 take 256 intervals per mode: 256 * 33 + 1 points at n_max = 32
        model = DecayModel(amplitude=1.0, decay_rate=2.0, n_max=32)
        report = inverse_limit_report(model, CANON, [1.0, 2.0, 3.0], 3)
        assert report.inputs["grid_points"] == 8449
        assert report.verdict == "pass"

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            DecayModel(amplitude=1.0, decay_rate=0.0, n_max=4)
        with pytest.raises(ValidationError):
            DecayModel(amplitude=1.0, decay_rate=1.0, n_max=4, mode_decay=-1.0)

    @pytest.mark.parametrize("tau", [-1000.0, -700.0])
    def test_deviations_that_overflow_are_a_numerical_error(self, tau):
        # exp(1000) raises OverflowError; exp(700) times a profile near 1e300 is inf
        model = DecayModel(amplitude=1e300 if tau == -700.0 else 1.0, decay_rate=1.0, n_max=4)
        with pytest.raises(NumericalError, match=f"deviation at tau = {tau!r} overflows"):
            inverse_limit_report(model, CANON, [tau, 1.0, 2.0], 0)

    @pytest.mark.parametrize("mode_decay", [-1.0, math.nan, math.inf])
    def test_mode_decay_must_be_finite_non_negative(self, mode_decay):
        with pytest.raises(ValidationError, match="mode_decay"):
            DecayModel(amplitude=1.0, decay_rate=1.0, n_max=4, mode_decay=mode_decay)


class TestConvergenceStudy:
    def test_profile_errors_decrease(self):
        report = convergence_study(CANON, lambda v: deformation_profile(CANON, v), [8, 16, 32, 64, 128])
        assert report.verdict == "pass"
        l2 = report.series["l2_error"]
        assert all(b < a for a, b in zip(l2, l2[1:]))
        # frozen from the closed-form tail: sqrt(||C||^2 - sum a_n^2)
        np.testing.assert_allclose(
            l2, [0.259745, 0.193065, 0.140348, 0.100707, 0.071751], atol=2e-5
        )
        sup = report.series["interior_sup_error"]
        assert all(b <= a + 1e-9 for a, b in zip(sup, sup[1:]))

    def test_interior_sup_error_resolved_at_large_cutoffs(self):
        # the window must grow with the largest cutoff to catch the peaks of its top modes
        profile = lambda v: deformation_profile(CANON, v)
        report = convergence_study(CANON, profile, [1000, 2000])
        coeffs = project(CANON, profile, 2000, default_projection_rule(CANON, 2000)).coefficients
        fine = uniform_grid(CANON, 400000)
        interior = np.abs(fine) <= 0.9 * CANON.v_c
        for n, sup in zip(report.series["n"], report.series["interior_sup_error"]):
            partial = evaluate(CoefficientVector(CANON, coeffs[: n + 1]), fine)
            assert sup == pytest.approx(np.max(np.abs(profile(fine) - partial)[interior]), rel=1e-2)

    def test_in_span_target_error_vanishes(self):
        report = convergence_study(CANON, lambda v: eigenfunction(CANON, 4, v), [4, 8])
        assert report.verdict == "pass"
        assert all(e < 1e-9 for e in report.series["l2_error"])

    def test_smooth_target_beats_profile(self):
        def cubed_sine(v):
            return np.sin(math.pi * (np.asarray(v) + CANON.v_c) / (2 * CANON.v_c)) ** 3

        smooth = convergence_study(CANON, cubed_sine, [8, 16, 32])
        rough = convergence_study(CANON, lambda v: deformation_profile(CANON, v), [8, 16, 32])
        for a, b in zip(smooth.series["l2_error"], rough.series["l2_error"]):
            assert a < b

    def test_needs_increasing_list(self):
        with pytest.raises(ValidationError):
            convergence_study(CANON, lambda v: np.ones_like(v), [8, 8])

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            convergence_study(CANON, lambda v: np.ones_like(v), [-3, 5])

    def test_target_sampled_once_per_point_set(self):
        sizes = []

        def target(v):
            sizes.append(np.size(v))
            return deformation_profile(CANON, v)

        convergence_study(CANON, target, [8, 16, 32, 64, 128])
        # 1032 Gauss-Legendre nodes, then the 3687 window points with |v| <= 0.9 v_c
        assert sizes == [1032, 3687]

    def test_non_finite_target_in_window_rejected(self):
        bad = uniform_grid(CANON, 4096)[1000]
        target = lambda v: np.where(np.asarray(v) == bad, np.nan, 1.0)
        assert np.all(np.isfinite(target(gauss_legendre_rule(CANON, 256).nodes)))
        with pytest.raises(ValidationError, match="finite"):
            convergence_study(CANON, target, [8, 16])


def test_report_shape():
    report = rigidity_report(CANON, [2, 4])
    assert set(("name", "inputs", "tolerances", "series", "verdict")) <= set(vars(report))
    assert report.tolerances  # every verdict is justified by a tolerance entry
    assert all(len(report.series["n"]) == len(col) for col in report.series.values())


# Each report on small inputs, called with the given tolerance overrides.
REPORTS = {
    "asymptotics": lambda tol: asymptotics_report(CANON, 10, 20, tol),
    "rigidity": lambda tol: rigidity_report(CANON, [2, 4], tol),
    "constant_projection": lambda tol: constant_coefficient_report(CANON, 4, tol),
    "inverse_limit": lambda tol: inverse_limit_report(DecayModel(1.0, 2.0, 4), CANON, [1.0, 2.0, 3.0], 1, tol),
    "converge": lambda tol: convergence_study(CANON, lambda v: deformation_profile(CANON, v), [2, 4], tol),
}


@pytest.mark.parametrize("prefix", sorted(REPORTS))
class TestTolerances:
    """Every report checks its overrides itself, so no library caller can make
    a verdict pass vacuously or have a misspelt key ignored."""

    @staticmethod
    def own_keys(prefix):
        return [key for key in DEFAULT_TOLERANCES if key.startswith(prefix + ".")]

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_value_must_be_finite_and_positive(self, prefix, value):
        for key in self.own_keys(prefix):
            with pytest.raises(ValidationError, match="finite positive"):
                REPORTS[prefix]({key: value})

    def test_foreign_and_misspelt_keys_rejected(self, prefix):
        foreign = [key for key in DEFAULT_TOLERANCES if key not in self.own_keys(prefix)]
        for key in [*foreign, f"{prefix}.bogus"]:
            with pytest.raises(ValidationError, match=f"{prefix} reads no tolerance"):
                REPORTS[prefix]({key: 1e-3})

    def test_report_stores_its_defaults_with_the_overrides(self, prefix):
        keys = self.own_keys(prefix)
        report = REPORTS[prefix]({keys[0]: 0.5})
        assert report.tolerances == {key: 0.5 if key == keys[0] else DEFAULT_TOLERANCES[key] for key in keys}
        assert list(report.tolerances) == keys
