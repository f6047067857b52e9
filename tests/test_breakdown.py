"""Breakdown calculus: divergence, increment supremum, breakdown points."""

import math

import numpy as np
import pytest
from scipy import integrate

from lacusum import (
    ConfigError,
    GrossErrorModel,
    LAlphaScheme,
    FusionRule,
    LocalParams,
    MixtureStreamSampler,
    ChangeScenario,
    NominalFamily,
    OutlierSpec,
    BreakdownReport,
    alpha_opt,
    breakdown_grid,
    breakdown_report,
    density_power_divergence,
    increment_sup,
    lalpha_increment,
    m_alpha,
    simulate_run_lengths,
)
from lacusum.calibration import calibrate_threshold
from lacusum.models import SQRT_2PI

from _oracles import divergence_closed_form, gaussian_pdf


def dpd_integrand(x, fam, alpha):
    """Integrand of the density power divergence's definition."""
    f1 = gaussian_pdf(x, fam.theta1, fam.sigma)
    f0 = gaussian_pdf(x, fam.theta0, fam.sigma)
    return f1 ** (1 + alpha) - (1 + 1 / alpha) * f0 * f1**alpha + (1 / alpha) * f0 ** (1 + alpha)


def m_alpha_upper_bound(fam, alpha):
    """Analytic bound 2 (2 pi sigma^2)^(-alpha/2) / alpha on the increment supremum."""
    return 2.0 * (SQRT_2PI * fam.sigma) ** (-alpha) / alpha


def increment_slope(x, fam, alpha):
    """A positive multiple of the increment's derivative at x."""
    a = alpha / (2.0 * fam.sigma**2)
    u0, u1 = x - fam.theta0, x - fam.theta1
    return u0 * np.exp(-a * u0 * u0) - u1 * np.exp(-a * u1 * u1)


SUP_FAMILIES = [(0.0, 1.0, 1.0), (0.0, 0.2, 1.0), (1.0, 2.5, 0.7), (0.0, 40.0, 1.0)]


def worst_case_drift(fam, alpha, epsilon):
    """Expected pre-change increment under the worst-case outlier distribution.

    Negative below the breakdown point, positive above it.
    """
    r = breakdown_report(fam, alpha)
    return -(1.0 - epsilon) / (1.0 + alpha) * r.d_alpha + epsilon * r.m_alpha


class TestDivergence:
    def test_kl_at_alpha_zero(self, fam):
        assert density_power_divergence(fam, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_vanishes_for_nearly_identical_densities(self):
        fam = NominalFamily(0.0, 1e-8, 1.0)
        for alpha in (0.0, 0.21, 0.51, 1.0):
            assert density_power_divergence(fam, alpha) < 1e-14

    @pytest.mark.parametrize("alpha", [0.1, 0.21, 0.51, 1.0])
    def test_closed_form_vs_quadrature(self, fam, alpha):
        oracle, err = integrate.quad(dpd_integrand, -15, 15, args=(fam, alpha), limit=200)
        assert err < 1e-8
        assert density_power_divergence(fam, alpha) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("fam_args", SUP_FAMILIES)
    def test_matches_gaussian_closed_form(self, fam_args):
        # -(1 + alpha) times the increment's mean under f_theta0
        fam = NominalFamily(*fam_args)
        for alpha in (0.0, 0.001, 0.01, 0.21, 0.51, 1.0, 2.0):
            assert density_power_divergence(fam, alpha) == pytest.approx(
                divergence_closed_form(fam, alpha), rel=1e-12, abs=0.0), alpha

    def test_scale_family(self):
        fam = NominalFamily(1.0, 2.5, sigma=0.7)
        oracle, _ = integrate.quad(dpd_integrand, -20, 20, args=(fam, 0.4), limit=200)
        assert density_power_divergence(fam, 0.4) == pytest.approx(oracle, abs=1e-8)


class TestIncrementSup:
    def test_infinite_at_alpha_zero(self, fam):
        assert m_alpha(fam, 0.0) == math.inf

    def test_dense_grid_oracle(self, fam):
        for alpha in (0.21, 0.51, 1.0):
            xs = np.arange(-10.0, 11.0, 1e-4)
            grid_max = float(np.max(lalpha_increment(xs, LocalParams(alpha, fam))))
            val = m_alpha(fam, alpha)
            assert grid_max - 1e-12 <= val <= m_alpha_upper_bound(fam, alpha)

    def test_alpha_one_below_gaussian_peak(self, fam):
        # sup of f1 - f0 is at most the density maximum
        assert m_alpha(fam, 1.0) <= 1.0 / math.sqrt(2 * math.pi)

    def test_argmax_between_modes_and_tail(self, fam):
        res = increment_sup(fam, 0.51)
        assert 1.0 < res.x < 4.0
        assert res.value == pytest.approx(0.50961, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.001, 0.002, 0.005, 0.21, 2.0])
    @pytest.mark.parametrize("fam_args", SUP_FAMILIES)
    def test_bounds_increment_far_into_the_tail(self, fam_args, alpha):
        # for small alpha the argmax lies tens of sigmas beyond theta1
        f = NominalFamily(*fam_args)
        xs = np.arange(f.theta0 - 20.0 * f.sigma, f.theta1 + 200.0 * f.sigma, 1e-3 * f.sigma)
        grid_max = float(np.max(lalpha_increment(xs, LocalParams(alpha, f))))
        val = m_alpha(f, alpha)
        # the grid may land within rounding of the argmax
        assert val >= grid_max * (1.0 - 1e-14)
        assert val <= m_alpha_upper_bound(f, alpha)

    @pytest.mark.parametrize("alpha", [0.001, 0.005, 0.21, 2.0])
    @pytest.mark.parametrize("fam_args", SUP_FAMILIES)
    def test_slope_changes_sign_at_argmax(self, fam_args, alpha):
        f = NominalFamily(*fam_args)
        res = increment_sup(f, alpha)
        step = 1e-6 * f.sigma / math.sqrt(alpha)
        assert res.x >= f.theta1  # equal when the modes are far apart
        assert increment_slope(res.x - step, f, alpha) > 0.0
        assert increment_slope(res.x + step, f, alpha) < 0.0
        assert res.value == lalpha_increment(res.x, LocalParams(alpha, f))

    @pytest.mark.parametrize("alpha", [0.21, 0.51, 1.0, 2.0])
    def test_modes_forty_sigmas_apart(self, alpha):
        # f0's bump is negligible at theta1: the supremum is f1's peak, c / alpha
        f = NominalFamily(0.0, 40.0, 1.0)
        res = increment_sup(f, alpha)
        assert res.x == pytest.approx(40.0, abs=1e-9)
        assert res.value == pytest.approx(SQRT_2PI ** (-alpha) / alpha, rel=1e-12)


class TestBreakdownPoint:
    def test_classical_scheme_breaks_immediately(self, fam):
        assert breakdown_report(fam, 0.0).eps_star == 0.0

    def test_reference_values(self, fam):
        assert breakdown_report(fam, 0.51).eps_star == pytest.approx(0.2334, abs=5e-4)
        assert breakdown_report(fam, 0.21).eps_star == pytest.approx(0.2167, abs=5e-4)

    def test_range(self, fam):
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            eps = breakdown_report(fam, alpha).eps_star
            assert 0.0 <= eps < 1.0
            assert (eps == 0.0) == (alpha == 0.0)

    def test_report_exposes_components(self, fam):
        rep = breakdown_report(fam, 0.51)
        assert rep.eps_star == pytest.approx(
            rep.d_alpha / (rep.d_alpha + 1.51 * rep.m_alpha), abs=1e-12)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -0.1])
    def test_bad_alpha_raises(self, fam, alpha):
        # an infinite alpha once ended in scipy's bare ValueError
        with pytest.raises(ConfigError, match=f"alpha must be finite and >= 0, got {alpha}"):
            breakdown_report(fam, alpha)

    def test_drift_sign_flips_at_breakdown(self, fam):
        for alpha in (0.21, 0.51):
            eps = breakdown_report(fam, alpha).eps_star
            assert worst_case_drift(fam, alpha, eps + 1e-3) > 0
            assert worst_case_drift(fam, alpha, eps - 1e-3) < 0


class TestAlphaOpt:
    def test_curve_rises_then_falls(self, fam):
        reports = breakdown_grid(fam, alpha_max=2.0, step=0.05)
        eps = np.array([r.eps_star for r in reports])
        peak = int(np.argmax(eps))
        assert 0 < peak < len(eps) - 1
        assert np.all(np.diff(eps[1:peak + 1]) > 0)
        assert np.all(np.diff(eps[peak:]) < 0)

    def test_argmax_near_half(self, fam):
        # exact curve is flat to ~1e-4 over [0.44, 0.56]; its argmax is 0.48
        reports = breakdown_grid(fam, 2.0, 0.01)
        assert alpha_opt(reports).alpha == pytest.approx(0.48, abs=1e-12)
        eps = {r.alpha: r.eps_star for r in reports}
        assert eps[0.0] == 0.0 and eps[0.5] > 0.23

    def test_location_scale_equivariance(self, fam):
        scaled = NominalFamily(0.0, 2.0, sigma=2.0)
        a1 = alpha_opt(breakdown_grid(fam, 1.5, 0.05)).alpha
        a2 = alpha_opt(breakdown_grid(scaled, 1.5, 0.05)).alpha
        assert a1 == a2

    def test_ties_go_to_smaller_alpha(self):
        reports = [BreakdownReport(a, 1.0, 1.0, e)
                   for a, e in ((0.0, 0.0), (0.1, 0.2), (0.2, 0.2), (0.3, 0.1))]
        assert alpha_opt(reports) is reports[1]

    @pytest.mark.parametrize("alpha_max,step", [(-0.5, 0.01), (math.nan, 0.01),
                                                (math.inf, 0.01), (2.0, math.nan),
                                                (2.0, math.inf)])
    def test_bad_grid_raises(self, fam, alpha_max, step):
        with pytest.raises(ConfigError, match="alpha grid"):
            breakdown_grid(fam, alpha_max, step)


class TestEmpiricalCorroboration:
    """A point mass at the increment argmax with contamination just above the
    breakdown point collapses the calibrated scheme's log run length; just
    below, it does not."""

    @pytest.mark.slow
    def test_collapse_above_not_below(self, fam):
        alpha, gamma, K = 0.21, 500.0, 1
        sup = increment_sup(fam, alpha)
        eps_star = breakdown_report(fam, alpha).eps_star
        scheme = LAlphaScheme(LocalParams(alpha, fam), FusionRule.soft(1.0, 0.0))
        clean = GrossErrorModel(0.0, fam, OutlierSpec.point_mass_outlier(sup.x))
        cal = calibrate_threshold(scheme, clean, gamma, seed=11, K=K,
                                  reps_schedule=(150, 400))
        half_log = math.log(cal.arl.mean) / 2.0

        def contaminated_arl(eps):
            model = GrossErrorModel(eps, fam, OutlierSpec.point_mass_outlier(sup.x))
            sampler = MixtureStreamSampler(model, ChangeScenario.no_change(K))
            lengths, _ = simulate_run_lengths(scheme.with_threshold(cal.b), sampler,
                                              reps=400, cap=20_000, seed=13)
            return float(lengths.mean())

        above = contaminated_arl(eps_star + 0.05)
        below = contaminated_arl(eps_star - 0.05)
        assert math.log(above) < half_log
        assert math.log(below) >= half_log
