"""Model layer: densities, mixtures, sampling."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from lacusum import (
    ChangeScenario,
    ConfigError,
    GrossErrorModel,
    MixtureStreamSampler,
    NoDensityError,
    NominalFamily,
    OutlierSpec,
    mixture_pdf,
    sample_matrix,
)

from _oracles import gaussian_pdf, mixture_pdf_two_term


class TestNominalFamily:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NominalFamily(0.0, 1.0, sigma=0.0)
        with pytest.raises(ConfigError):
            NominalFamily(1.0, 1.0)
        with pytest.raises(ConfigError):
            NominalFamily(2.0, 1.0)
        for nan_at in range(3):
            args = [0.0, 1.0, 1.0]
            args[nan_at] = math.nan
            with pytest.raises(ConfigError):
                NominalFamily(*args)

    @pytest.mark.parametrize("theta0,theta1", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_infinite_location_rejected(self, theta0, theta1):
        # an infinite theta1 once built a monitor whose global statistic stayed 0
        with pytest.raises(ConfigError, match="must be finite"):
            NominalFamily(theta0, theta1)

    # the nominal density is the mixture density at epsilon = 0
    def test_pdf_standard_normal_peak(self, model0):
        assert mixture_pdf(0.0, 0.0, model0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert mixture_pdf(0.0, 0.0, model0) == pytest.approx(0.3989422804, abs=1e-9)

    def test_pdf_location_shift(self, model0):
        assert mixture_pdf(1.0, 1.0, model0) == pytest.approx(mixture_pdf(0.0, 0.0, model0),
                                                              abs=1e-15)

    def test_pdf_symmetry_about_midpoint(self, model0):
        assert mixture_pdf(0.5, 0.0, model0) == pytest.approx(mixture_pdf(0.5, 1.0, model0),
                                                              abs=1e-15)

    def test_pdf_vectorized(self, model0):
        x = np.linspace(-3, 3, 7)
        vals = mixture_pdf(x, 0.0, model0)
        assert vals.shape == (7,)
        assert np.all(vals > 0)


class TestOutlierSpec:
    def test_gaussian_validation(self):
        with pytest.raises(ConfigError):
            OutlierSpec.gaussian_outlier(0.0, sd=-1.0)
        for spec in (dict(mean=math.nan), dict(sd=math.nan)):
            with pytest.raises(ConfigError):
                OutlierSpec.gaussian_outlier(**spec)
        with pytest.raises(ConfigError):
            OutlierSpec.point_mass_outlier(math.nan)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_parameters_rejected(self, value):
        # an infinite outlier made info_number return inf at alpha = 0
        for make in (lambda: OutlierSpec.point_mass_outlier(value),
                     lambda: OutlierSpec.gaussian_outlier(mean=value),
                     lambda: OutlierSpec.gaussian_outlier(0.0, sd=value),
                     lambda: OutlierSpec("gaussian", location=value)):
            with pytest.raises(ConfigError, match="is not finite"):
                make()

    def test_point_mass_has_no_density(self, fam):
        pm = OutlierSpec.point_mass_outlier(2.0)
        with pytest.raises(NoDensityError):
            mixture_pdf(0.0, 0.0, GrossErrorModel(0.1, fam, pm))
        rng = np.random.default_rng(0)
        assert np.all(pm.sample(rng, (3, 4)) == 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown outlier kind 'custom_table'"):
            OutlierSpec(kind="custom_table")


class TestComponents:
    def test_no_outlier_component_at_zero_epsilon(self, fam, model0):
        assert model0.components(0.3) == [(1.0, 0.3, fam.sigma)]

    @pytest.mark.parametrize("outlier", [OutlierSpec.gaussian_outlier(0.5, 3.0),
                                         OutlierSpec.point_mass_outlier(2.0)])
    def test_weights_sum_to_one_nominal_first(self, fam, outlier):
        parts = GrossErrorModel(0.1, fam, outlier).components(0.3)
        assert [w for w, _, _ in parts] == [0.9, 0.1] and sum(w for w, _, _ in parts) == 1.0
        assert parts[0] == (0.9, 0.3, fam.sigma)
        assert parts[1] == ((0.1, 0.5, 3.0) if outlier.kind == "gaussian" else (0.1, 2.0, 0.0))


class TestMixturePdf:
    def test_no_contamination_equals_nominal(self, fam, model0):
        x = np.linspace(-4, 4, 17)
        np.testing.assert_array_equal(mixture_pdf(x, 0.3, model0),
                                      gaussian_pdf(x, 0.3, fam.sigma))

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_matches_two_term_form(self, model01, eps):
        model = model01.with_epsilon(eps)
        x = np.linspace(-6, 6, 101)
        for theta in (0.0, 1.0):
            np.testing.assert_array_equal(mixture_pdf(x, theta, model),
                                          mixture_pdf_two_term(x, theta, model))

    def test_known_value(self, model01):
        # 0.9 * phi(0) + 0.1 * phi(0; sd 3): 0.9/sqrt(2pi) + 0.1/(3 sqrt(2pi))
        want = 0.9 / math.sqrt(2 * math.pi) + 0.1 / (3 * math.sqrt(2 * math.pi))
        assert mixture_pdf(0.0, 0.0, model01) == pytest.approx(want, abs=1e-14)
        assert mixture_pdf(0.0, 0.0, model01) == pytest.approx(0.37235, abs=5e-6)

    def test_heavy_contamination_approaches_outlier(self, fam):
        outlier = OutlierSpec.gaussian_outlier(0.0, 3.0)
        model = GrossErrorModel(1.0 - 1e-9, fam, outlier)
        assert mixture_pdf(0.0, 0.0, model) == pytest.approx(gaussian_pdf(0.0, 0.0, 3.0), rel=1e-6)

    def test_point_mass_mixture_rejected(self, fam):
        model = GrossErrorModel(0.1, fam, OutlierSpec.point_mass_outlier(1.0))
        with pytest.raises(NoDensityError):
            mixture_pdf(0.0, 0.0, model)

    @pytest.mark.parametrize("eps,theta", [(0.0, 0.0), (0.1, 0.0), (0.3, 1.5)])
    def test_integrates_to_one(self, fam, eps, theta, model01):
        model = model01.with_epsilon(eps)
        span = 12 * (fam.sigma + model.outlier.sd)
        total, _ = integrate.quad(lambda x: mixture_pdf(x, theta, model),
                                  theta - span, theta + span, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestChangeScenario:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ChangeScenario(K=0, m=1, nu=1, theta_post=1.0)
        with pytest.raises(ConfigError):
            ChangeScenario(K=10, m=11, nu=1, theta_post=1.0)
        with pytest.raises(ConfigError):
            ChangeScenario(K=10, m=1, nu=0, theta_post=1.0)

    @pytest.mark.parametrize("nu,theta_post", [
        (1, math.nan), (math.inf, math.nan), (1, math.inf), (5, -math.inf)])
    def test_non_finite_theta_post_rejected(self, nu, theta_post):
        with pytest.raises(ConfigError, match="theta_post"):
            ChangeScenario(K=3, m=1, nu=nu, theta_post=theta_post)

    def test_theta_post_below_theta1_rejected(self, fam, model01):
        scenario = ChangeScenario(K=2, m=1, nu=1, theta_post=0.5)
        with pytest.raises(ConfigError):
            sample_matrix(model01, scenario, 10, seed=0)


class TestSampleMatrix:
    def test_deterministic(self, model01):
        scenario = ChangeScenario(K=5, m=2, nu=3, theta_post=1.0)
        a = sample_matrix(model01, scenario, 20, seed=123)
        b = sample_matrix(model01, scenario, 20, seed=123)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5, 20)

    def test_law_of_large_numbers_no_change(self, model01):
        scenario = ChangeScenario.no_change(K=1)
        horizon = 200_000
        x = sample_matrix(model01, scenario, horizon, seed=5)
        # mean = (1 - eps) * theta0 + eps * E_g[X] = 0; sd of mixture = sqrt(1.8)
        tol = 3 * math.sqrt(1.8) / math.sqrt(horizon)
        assert abs(x.mean()) < tol

    def test_mixture_variance(self, model01):
        # Var = 0.9 * 1 + 0.1 * 9 = 1.8 for centered components
        x = sample_matrix(model01, ChangeScenario.no_change(K=1), 1_000_000, seed=11)
        assert x.var() == pytest.approx(1.8, abs=0.01)

    def test_post_change_distribution_ks(self, model0):
        # nu=1, m=K, eps=0: every entry is N(theta_post, 1)
        scenario = ChangeScenario(K=10, m=10, nu=1, theta_post=2.0)
        x = sample_matrix(model0, scenario, 1000, seed=9).ravel()
        ks = stats.kstest(x, stats.norm(loc=2.0, scale=1.0).cdf).statistic
        assert ks < 1.63 / math.sqrt(x.size)  # 1% critical value

    def test_change_time_respected(self, model0):
        scenario = ChangeScenario(K=3, m=2, nu=50, theta_post=25.0)
        x = sample_matrix(model0, scenario, 80, seed=3)
        assert np.all(x[:, :49] < 15)           # pre-change block
        assert np.all(x[:2, 49:] > 15)          # affected streams after nu
        assert np.all(x[2, :] < 15)             # unaffected stream throughout

    def test_point_mass_outlier_sampling_allowed(self, fam):
        model = GrossErrorModel(0.5, fam, OutlierSpec.point_mass_outlier(40.0))
        x = sample_matrix(model, ChangeScenario.no_change(K=1), 10_000, seed=2)
        frac = np.mean(x == 40.0)
        assert frac == pytest.approx(0.5, abs=0.02)


class TestMixtureStreamSampler:
    def test_blocks_agree_with_full_draw(self, model01):
        # drawing in two blocks from one generator must continue the stream
        scenario = ChangeScenario(K=4, m=1, nu=30, theta_post=1.0)
        sampler = MixtureStreamSampler(model01, scenario)
        rng = np.random.default_rng(17)
        first = sampler.draw(rng, 0, 25)
        second = sampler.draw(rng, 25, 25)
        assert first.shape == second.shape == (4, 25)

    def test_change_offset_in_blocks(self, model0):
        scenario = ChangeScenario(K=2, m=2, nu=11, theta_post=30.0)
        sampler = MixtureStreamSampler(model0, scenario)
        block = sampler.draw(np.random.default_rng(1), 5, 10)  # times 6..15
        assert np.all(block[:, :5] < 15)   # times 6..10 pre-change
        assert np.all(block[:, 5:] > 15)   # times 11..15 post-change

    @pytest.mark.parametrize("scenario", [ChangeScenario.immediate(2, 1, 2.5),
                                          ChangeScenario(K=2, m=1, nu=4, theta_post=2.5)])
    def test_integer_family_draws_like_float(self, scenario):
        # an integer theta0 once made the theta array integer, truncating theta_post
        out = OutlierSpec.gaussian_outlier(0.0, 3.0)
        draws = [MixtureStreamSampler(GrossErrorModel(0.1, fam, out), scenario)
                 .draw(np.random.default_rng(8), 0, 8)
                 for fam in (NominalFamily(0, 1), NominalFamily(0.0, 1.0))]
        assert draws[0].tobytes() == draws[1].tobytes()


def block_theta(model, scenario, t0, n):
    theta = np.full((scenario.K, n), model.nominal.theta0)
    if scenario.nu != math.inf:
        post = np.arange(t0 + 1, t0 + n + 1) >= scenario.nu
        theta[:scenario.m, post] = scenario.theta_post
    return theta


def reference_draw(model, scenario, rng, t0, n):
    """The composition sampler one cell at a time: the theta array broadcast
    through rng.normal and a uniform per cell, then one outlier draw of as many
    values as cells picked, handed out in C order."""
    values = rng.normal(block_theta(model, scenario, t0, n), model.nominal.sigma,
                        (scenario.K, n))
    if model.epsilon > 0.0:
        mask = rng.random((scenario.K, n)) < model.epsilon
        outliers = iter(model.outlier.sample(rng, int(mask.sum())))
        for cell in np.ndindex(mask.shape):
            if mask[cell]:
                values[cell] = next(outliers)
    return values


def full_outlier_draw(model, scenario, rng, t0, n):
    """The earlier sampler: an outlier drawn for every cell, merged with
    np.where.  Point-mass and clean models draw no outlier values from the
    generator, so their paths must not have moved."""
    values = rng.normal(block_theta(model, scenario, t0, n), model.nominal.sigma,
                        (scenario.K, n))
    if model.epsilon > 0.0:
        mask = rng.random((scenario.K, n)) < model.epsilon
        values = np.where(mask, model.outlier.sample(rng, (scenario.K, n)), values)
    return values


SCENARIOS = pytest.mark.parametrize("scenario", [
    ChangeScenario.no_change(6),
    ChangeScenario(K=6, m=2, nu=13, theta_post=2.5),  # inside the block at t0 = 8
    ChangeScenario.immediate(6, 3, 2.0),
], ids=["no_change", "change_in_block", "immediate"])


class TestLeanDraw:
    """The draw that scales and shifts standard normals in place and writes
    the outliers into the picked cells equals the reference form bit for bit.

    A platform whose numpy fuses theta + sigma * z into one rounding step
    fails here rather than shifting every sample path quietly.
    """

    OUTLIERS = {
        "gaussian": OutlierSpec.gaussian_outlier(1.0, 3.0),
        "point_mass": OutlierSpec.point_mass_outlier(4.0),
    }
    BLOCKS = ((0, 8), (8, 8), (16, 16), (32, 3))

    def draws(self, epsilon, outlier, scenario, form):
        model = GrossErrorModel(epsilon, NominalFamily(0.5, 1.5, 1.7), self.OUTLIERS[outlier])
        sampler = MixtureStreamSampler(model, scenario)
        lean, ref = np.random.default_rng(5), np.random.default_rng(5)
        for t0, n in self.BLOCKS:
            yield sampler.draw(lean, t0, n), form(model, scenario, ref, t0, n)

    @pytest.mark.parametrize("epsilon,outlier", [
        (0.0, "gaussian"), (0.1, "gaussian"), (0.2, "point_mass")])
    @SCENARIOS
    def test_draw_matches_reference(self, epsilon, outlier, scenario):
        for got, want in self.draws(epsilon, outlier, scenario, reference_draw):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("epsilon,outlier", [(0.0, "gaussian"), (0.2, "point_mass")])
    @SCENARIOS
    def test_paths_without_outlier_draws_unchanged(self, epsilon, outlier, scenario):
        for got, want in self.draws(epsilon, outlier, scenario, full_outlier_draw):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", [math.inf, 501], ids=["no_change", "straddles"])
    def test_law_is_the_mixture(self, nu):
        # 10^6 draws mapped through the mixture CDF of their own cell are uniform
        fam, out = NominalFamily(0.0, 1.0, 1.0), OutlierSpec.gaussian_outlier(1.0, 3.0)
        model = GrossErrorModel(0.1, fam, out)
        scenario = ChangeScenario(K=1000, m=500, nu=nu, theta_post=2.0)
        x = MixtureStreamSampler(model, scenario).draw(np.random.default_rng(2024), 0, 1000)
        theta = block_theta(model, scenario, 0, 1000)
        cdf = (0.9 * stats.norm.cdf(x, theta, fam.sigma)
               + 0.1 * stats.norm.cdf(x, out.mean, out.sd))
        assert stats.kstest(cdf.ravel(), "uniform").pvalue > 1e-3
