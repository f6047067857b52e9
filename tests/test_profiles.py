"""Haar features, standardization, synthetic pools, case-study pipeline."""

import copy
import math
import re

import numpy as np
import pytest

from lacusum import (
    ConfigError,
    DegenerateCoefficientError,
    FusionRule,
    LAlphaScheme,
    LocalParams,
    ProfileGeneratorConfig,
    ProfilePool,
    case_study_run,
    haar_transform,
    synth_pool,
)
from lacusum.profiles import (
    OUTLIER_SHARE,
    _PoolMixtureSampler,
    baseline_curve,
    fault_deviations,
    standardized_pools,
)

from _oracles import inverse_haar_transform


class TestHaar:
    def test_length_two(self):
        c = haar_transform([3.0, 1.0])
        assert c[0] == pytest.approx(4.0 / math.sqrt(2), abs=1e-15)
        assert c[1] == pytest.approx(2.0 / math.sqrt(2), abs=1e-15)

    def test_constant_signal_concentrates_in_scaling(self):
        c = haar_transform(np.full(64, 5.0))
        assert c[0] == pytest.approx(5.0 * 8.0, abs=1e-12)  # 5 * sqrt(64)
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_parseval(self, rng):
        x = rng.normal(0, 2, 8)
        c = haar_transform(x)
        assert np.sum(c**2) == pytest.approx(np.sum(x**2), abs=1e-10)

    def test_round_trip(self, rng):
        x = rng.normal(0, 1, 256)
        assert np.max(np.abs(inverse_haar_transform(haar_transform(x)) - x)) < 1e-10

    def test_linearity(self, rng):
        x, y = rng.normal(0, 1, 32), rng.normal(0, 1, 32)
        lhs = haar_transform(2.5 * x - 1.5 * y)
        rhs = 2.5 * haar_transform(x) - 1.5 * haar_transform(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_coarse_to_fine_ordering(self):
        # a single fine-scale feature lands in the trailing coefficients
        x = np.zeros(16)
        x[0], x[1] = 1.0, -1.0
        c = haar_transform(x)
        assert abs(c[8]) > 0.5          # finest detail block starts at n/2
        assert np.max(np.abs(c[1:8])) < abs(c[8])

    def test_non_dyadic_rejected(self):
        with pytest.raises(ConfigError):
            haar_transform(np.zeros(12))
        with pytest.raises(ConfigError):
            inverse_haar_transform(np.zeros(3))


def baseline_only(normal):
    """A pool whose fault pools are the first normal signal."""
    return ProfilePool(normal, normal[:1], normal[:1])


class TestBaseline:
    def test_hand_computed_two_signal_pool(self):
        # scaling coefficients: (0+0)/sqrt2 = 0 and (2+0)/sqrt2 = sqrt2, so the
        # baseline is mean sqrt2/2 and sd 1
        zn, z1, _ = standardized_pools(baseline_only(np.array([[0.0, 0.0], [2.0, 0.0]])), p=1)
        np.testing.assert_allclose(zn[:, 0], [-math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-12)
        assert z1[0, 0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)

    def test_identical_signals_degenerate(self):
        pool = np.tile(np.arange(8.0), (5, 1))
        with pytest.raises(DegenerateCoefficientError) as err:
            standardized_pools(baseline_only(pool), p=4)
        assert "coefficient 0" in str(err.value)

    def test_one_training_signal_rejected(self, rng):
        with pytest.raises(ConfigError, match="at least 2 training signals"):
            standardized_pools(baseline_only(rng.normal(0.0, 1.0, (1, 8))), p=4)

    def test_training_pool_standardizes_to_unit_moments(self, rng):
        pool = rng.normal(3.0, 2.0, (40, 64))
        z = standardized_pools(baseline_only(pool), 16)[0]
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("p", [0, -5, 65])
    def test_p_outside_signal_rejected(self, rng, p):
        # a negative p once sliced from the end; p = 0 fitted empty stats
        pool = rng.normal(0.0, 1.0, (10, 64))
        with pytest.raises(ConfigError, match=f"p={p} must lie in 1..64"):
            standardized_pools(baseline_only(pool), p)


class TestSynthPool:
    def test_deterministic(self):
        cfg = ProfileGeneratorConfig(length=256)
        a = synth_pool(cfg, (10, 4, 4), seed=5)
        b = synth_pool(cfg, (10, 4, 4), seed=5)
        np.testing.assert_array_equal(a.normal, b.normal)
        np.testing.assert_array_equal(a.fault2, b.fault2)

    def test_normal_pool_mean_matches_baseline(self):
        cfg = ProfileGeneratorConfig(length=512, noise_sd=1.0)
        pool = synth_pool(cfg, (400, 2, 2), seed=1)
        base = baseline_curve(cfg)
        err = np.abs(pool.normal.mean(axis=0) - base)
        assert np.max(err) < 5 * 1.0 / math.sqrt(400)

    def test_fault1_differs_only_on_support(self):
        cfg = ProfileGeneratorConfig(length=512)
        dev1, dev2 = fault_deviations(cfg)
        support = dev1 != 0.0
        assert 0 < support.sum() < cfg.length  # sparse
        pool = synth_pool(cfg, (50, 200, 2), seed=3)
        base = baseline_curve(cfg)
        shift = pool.fault1.mean(axis=0) - base
        assert np.max(np.abs(shift[~support])) < 0.5   # noise only
        assert np.max(np.abs(shift[support])) > 2.0    # the deviation

    @pytest.mark.parametrize("field", ["noise_sd", "fault1_magnitude", "fault2_magnitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_setting_named(self, field, value):
        # these once built, and failed later in synth_pool naming a pool cell
        with pytest.raises(ConfigError, match=f"{field} must be finite, got {value}"):
            ProfileGeneratorConfig(length=64, **{field: value})

    def test_magnitude_ratio_default(self):
        cfg = ProfileGeneratorConfig()
        assert cfg.fault2_magnitude / cfg.fault1_magnitude == 5.0

    def test_counts_validated(self):
        for counts in [(0, 1, 1), (60, 20), (3, 2.5, 2)]:
            with pytest.raises(ConfigError):
                synth_pool(ProfileGeneratorConfig(length=64), counts, seed=0)


class TestPoolCsv:
    def test_round_trip(self, tmp_path):
        cfg = ProfileGeneratorConfig(length=64)
        pool = synth_pool(cfg, (5, 3, 3), seed=1)
        from lacusum import load_pool, save_pool
        save_pool(pool, tmp_path / "pools")
        loaded = load_pool(tmp_path / "pools")
        np.testing.assert_allclose(loaded.normal, pool.normal, rtol=1e-12)
        np.testing.assert_allclose(loaded.fault2, pool.fault2, rtol=1e-12)

    def test_missing_file(self, tmp_path):
        from lacusum import load_pool
        with pytest.raises(ConfigError):
            load_pool(tmp_path)


class TestPoolChecks:
    def test_non_finite_value_named(self, rng):
        normal = rng.normal(0.0, 1.0, (4, 8))
        normal[2, 5] = math.inf
        with pytest.raises(ConfigError, match="normal pool: non-finite value inf at row 3, column 6"):
            ProfilePool(normal, normal[:1], normal[:1])

    @pytest.mark.parametrize("cell, error", [
        ("nan", "non-finite value nan at row 2, column 1"),
        ("abc", "could not convert string 'abc'"),
    ], ids=["nan", "text"])
    def test_bad_cell_names_file(self, tmp_path, cell, error):
        from lacusum import load_pool, save_pool
        save_pool(synth_pool(ProfileGeneratorConfig(length=16), (4, 2, 2), seed=1), tmp_path)
        lines = (tmp_path / "fault2.csv").read_text().splitlines()
        lines[1] = cell + "," + lines[1].split(",", 1)[1]
        (tmp_path / "fault2.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"fault2\.csv: " + re.escape(error)):
            load_pool(tmp_path)

    def test_one_signal_length(self, rng):
        with pytest.raises(ConfigError, match="one signal length, got normal 64, fault1 32, fault2 64"):
            ProfilePool(rng.normal(0.0, 1.0, (4, 64)), rng.normal(0.0, 1.0, (2, 32)),
                        rng.normal(0.0, 1.0, (2, 64)))


class TestPoolSampler:
    def test_deterministic(self):
        s = _PoolMixtureSampler(np.zeros((5, 3)), np.ones((4, 3)))
        a = s.draw(np.random.default_rng(1), 0, 50)
        b = s.draw(np.random.default_rng(1), 0, 50)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 50) and set(np.unique(a)) == {0.0, 1.0}

    def test_composition_order(self):
        # the draw is a regular row index and a uniform per step, then one
        # outlier row index per step whose uniform fell below OUTLIER_SHARE
        regular = np.arange(15.0).reshape(5, 3)
        outlier = -np.arange(1.0, 13.0).reshape(4, 3)
        rng = np.random.default_rng(1)
        hand = copy.deepcopy(rng)
        got = _PoolMixtureSampler(regular, outlier).draw(rng, 0, 200)

        idx = hand.integers(0, 5, 200)
        u = hand.random(200)
        picked = np.flatnonzero(u < OUTLIER_SHARE)
        out_idx = hand.integers(0, 4, picked.size)
        expected = np.array([regular[i] for i in idx])
        for t, i in zip(picked, out_idx):
            expected[t] = outlier[i]
        assert 0 < picked.size < 200
        np.testing.assert_array_equal(got, expected.T)
        # no index is drawn for a row that is never used
        assert rng.random() == hand.random()

    def test_outlier_share(self):
        steps = 100_000
        s = _PoolMixtureSampler(np.zeros((5, 1)), np.ones((3, 1)))
        share = s.draw(np.random.default_rng(2), 0, steps).mean()
        se = math.sqrt(OUTLIER_SHARE * (1.0 - OUTLIER_SHARE) / steps)
        assert abs(share - OUTLIER_SHARE) < 4 * se


@pytest.fixture(scope="module")
def small_pool():
    cfg = ProfileGeneratorConfig(length=512)
    return synth_pool(cfg, (120, 40, 40), seed=9)


class TestCaseStudy:

    def test_standardized_pools_shapes(self, small_pool):
        zn, z1, z2 = standardized_pools(small_pool, p=128)
        assert zn.shape == (120, 128) and z1.shape == (40, 128)
        np.testing.assert_allclose(zn.mean(axis=0), 0.0, atol=1e-10)

    @pytest.mark.slow
    def test_calibrated_run_and_outlier_slowdown(self, small_pool, fam):
        robust = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5), "r21")
        target = 80.0
        mixed = case_study_run(small_pool, [robust], target, p=128, reps=80, seed=4)[0]
        assert abs(mixed.arl.mean - target) <= max(0.1 * target,
                                                   2 * mixed.arl.std_error)
        # fault1 rows in place of the fault2 outliers: a faulty stream with none
        no_outliers = ProfilePool(small_pool.normal, small_pool.fault1, small_pool.fault1)
        pure = case_study_run(no_outliers, [robust], target, p=128, reps=80, seed=4)[0]
        # transient outliers in the faulty stream can only slow the robust scheme
        assert pure.delay.mean <= mixed.delay.mean + 2 * (
            pure.delay.std_error + mixed.delay.std_error)

    @pytest.mark.parametrize("p", [0, -5])
    def test_p_outside_signal_rejected(self, small_pool, fam, p):
        with pytest.raises(ConfigError, match=f"p={p} must lie in 1..512"):
            standardized_pools(small_pool, p)
        robust = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5))
        with pytest.raises(ConfigError, match=f"p={p} must lie in 1..512"):
            case_study_run(small_pool, [robust], 50.0, p=p, reps=20)

    def test_pre_outlier_validation(self, small_pool, fam):
        robust = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5))
        with pytest.raises(ConfigError):
            case_study_run(small_pool, [robust], 50.0, pre_outlier="fault3")
        with pytest.raises(ConfigError):
            case_study_run(small_pool, [robust], math.nan)

    def test_rows_independent_of_threads(self, small_pool, fam):
        # the samplers are pickled to the worker processes at threads > 1
        robust = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5), "r")
        kw = dict(target_arl=40.0, p=64, reps=40, seed=12)
        assert case_study_run(small_pool, [robust], threads=1, **kw) == \
            case_study_run(small_pool, [robust], threads=2, **kw)

    def test_end_to_end_determinism(self, small_pool, fam):
        robust = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5), "r")
        kw = dict(target_arl=40.0, p=64, reps=40, seed=12)
        assert case_study_run(small_pool, [robust], **kw) == \
            case_study_run(small_pool, [robust], **kw)
