"""Run-length estimation and threshold calibration."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lacusum import (
    CalibrationError,
    ChangeScenario,
    ConfigError,
    FusionRule,
    GlrParams,
    GlrScheme,
    LAlphaScheme,
    LocalParams,
    MixtureStreamSampler,
    arl_lower_bound,
    calibrate_threshold,
    estimate_arl,
    simulate_run_lengths,
    QuadratureConfig,
)
from lacusum import calibration
from lacusum.calibration import RunEstimate

from _oracles import solve_lambda


def soft_scheme(fam, alpha, b, d):
    return LAlphaScheme(LocalParams(alpha, fam), FusionRule.soft(b, d))


class TestRunEstimate:
    def test_from_lengths(self):
        est = RunEstimate.from_lengths(np.array([2.0, 4.0, 6.0]), np.zeros(3, bool))
        assert est.mean == 4.0
        assert est.std_error == pytest.approx(2.0 / math.sqrt(3), abs=1e-12)
        assert est.reps == 3 and est.censored == 0


class TestEstimateArl:
    def test_zero_threshold_alarms_at_one(self, fam, model01):
        est = estimate_arl(soft_scheme(fam, 0.21, 0.0, 0.0), model01,
                           reps=50, cap=100, seed=0, K=3)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_unreachable_threshold_fully_censored(self, fam, model0):
        est = estimate_arl(soft_scheme(fam, 0.0, 1e12, 0.0), model0,
                           reps=20, cap=50, seed=0, K=2)
        assert est.mean == 50.0
        assert est.censored == 20

    def test_requires_K_with_bare_model(self, fam, model0):
        with pytest.raises(ConfigError):
            estimate_arl(soft_scheme(fam, 0.0, 1.0, 0.0), model0,
                         reps=10, cap=50, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, fam, model01, threads):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            estimate_arl(soft_scheme(fam, 0.21, 2.0, 0.3), model01,
                         reps=20, cap=100, seed=0, K=3, threads=threads)

    def test_threads_do_not_change_results(self, fam, model01):
        scheme = soft_scheme(fam, 0.21, 2.0, 0.3)
        kw = dict(reps=300, cap=2000, seed=9, K=4)
        serial = estimate_arl(scheme, model01, threads=1, **kw)
        parallel = estimate_arl(scheme, model01, threads=2, **kw)
        assert serial == parallel

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_one_engine_call(self, fam, model01, threads):
        # 600 replicates: chunks of 250, 250 and a partial 100
        scheme = soft_scheme(fam, 0.21, 2.0, 0.3)
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(4))
        est = estimate_arl(scheme, sampler, 600, 2000, 9, threads=threads)
        assert est == RunEstimate.from_lengths(
            *simulate_run_lengths(scheme, sampler, 600, 2000, 9))


class TestCalibrate:
    def test_gamma_one_gives_zero_threshold(self, fam, model01):
        res = calibrate_threshold(soft_scheme(fam, 0.21, 1.0, 0.0), model01,
                                  gamma=1.0, seed=0, K=3)
        assert res.b == 0.0
        assert res.arl.mean == 1.0

    def test_small_calibration_meets_invariant(self, fam, model01):
        res = calibrate_threshold(soft_scheme(fam, 0.21, 1.0, 0.5), model01,
                                  gamma=100.0, seed=5, K=5,
                                  reps_schedule=(100, 300))
        assert abs(res.arl.mean - 100.0) <= max(0.05 * 100.0, 2 * res.arl.std_error)
        assert res.iterations >= 2

    def test_reproducible(self, fam, model01):
        kw = dict(gamma=60.0, seed=3, K=4, reps_schedule=(100, 200))
        scheme = soft_scheme(fam, 0.21, 1.0, 0.3)
        a = calibrate_threshold(scheme, model01, **kw)
        b = calibrate_threshold(scheme, model01, **kw)
        assert a == b

    def test_calibrated_threshold_is_pathwise_consistent(self, fam, model01):
        # same seeds at the calibrated b and a higher b: no path stops earlier
        scheme = soft_scheme(fam, 0.21, 1.0, 0.3)
        res = calibrate_threshold(scheme, model01, gamma=50.0, seed=2, K=3,
                                  reps_schedule=(100, 200))
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(3))
        at_b, _ = simulate_run_lengths(scheme.with_threshold(res.b), sampler, 100, 2000, 7)
        above, _ = simulate_run_lengths(scheme.with_threshold(res.b * 1.3), sampler,
                                        100, 2000, 7)
        assert np.all(above >= at_b)

    def test_gamma_below_one_rejected(self, fam, model01):
        for gamma in (0.5, math.nan, math.inf):
            with pytest.raises(ConfigError):
                calibrate_threshold(soft_scheme(fam, 0.21, 1.0, 0.0), model01,
                                    gamma=gamma, seed=0, K=2)

    def test_cap_below_gamma_rejected_before_simulating(self, fam, model01):
        # a mean censored at cap can never reach gamma
        sampler = CountingSampler(MixtureStreamSampler(model01, ChangeScenario.no_change(2)))
        with pytest.raises(ConfigError, match="cap"):
            calibrate_threshold(soft_scheme(fam, 0.21, 1.0, 0.0), sampler,
                                gamma=100.0, seed=0, cap=99)
        assert sampler.obs == 0


class CountingSampler:
    """A stream sampler that counts the observations it draws."""

    def __init__(self, inner):
        self.inner, self.obs = inner, 0

    @property
    def K(self):
        return self.inner.K

    def draw(self, rng, t0, n):
        block = self.inner.draw(rng, t0, n)
        self.obs += block.size
        return block


class TestExactRoot:
    """b is the first jump of the step function ARL(b) on fixed paths."""

    KW = dict(gamma=100.0, seed=5, K=5)

    def test_same_result_for_any_worker_count(self, fam, model01):
        scheme = soft_scheme(fam, 0.21, 1.0, 0.5)
        serial = calibrate_threshold(scheme, model01, reps_schedule=(100, 600), **self.KW)
        parallel = calibrate_threshold(scheme, model01, reps_schedule=(100, 600),
                                       threads=2, **self.KW)
        assert serial == parallel

    def test_b_does_not_depend_on_the_pilot(self, fam, model01):
        scheme = soft_scheme(fam, 0.21, 1.0, 0.5)
        results = [calibrate_threshold(scheme, model01, reps_schedule=(pilot, 300), **self.KW)
                   for pilot in (50, 100, 300)]
        assert len({r.b for r in results}) == 1
        assert len({r.arl for r in results}) == 1

    # each scheme at K = 5 with a gamma it reaches; many of the soft scheme's
    # records tie at 0.0, the statistic's value until a stream exceeds d
    ROOT_SCHEMES = {
        "soft": (lambda fam: soft_scheme(fam, 0.21, 1.0, 0.5), 100.0),
        "max": (lambda fam: LAlphaScheme(LocalParams(0.21, fam), FusionRule.max_rule(1.0)),
                100.0),
        "sum": (lambda fam: LAlphaScheme(LocalParams(0.0, fam), FusionRule.sum_rule(1.0)),
                100.0),
        "chan1": (lambda fam: GlrScheme(GlrParams(0.1, variant="chan1"), 1.0, fam=fam), 100.0),
        "xie_siegmund": (lambda fam: GlrScheme(GlrParams(0.1, 30, "xie_siegmund"), 1.0), 60.0),
    }

    @pytest.mark.parametrize("name", sorted(ROOT_SCHEMES))
    def test_b_is_the_first_jump_reaching_gamma(self, fam, model01, name):
        make, gamma = self.ROOT_SCHEMES[name]
        scheme = make(fam)
        res = calibrate_threshold(scheme, model01, gamma, reps_schedule=(100, 300), seed=5,
                                  K=5)
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(5))
        cap = int(50 * gamma)  # calibrate_threshold's default
        at_b, _ = simulate_run_lengths(scheme.with_threshold(res.b), sampler, 300, cap, 5)
        below, _ = simulate_run_lengths(scheme.with_threshold(np.nextafter(res.b, 0.0)),
                                        sampler, 300, cap, 5)
        assert at_b.mean() == res.arl.mean >= gamma > below.mean()

    def test_draws_at_most_half_of_the_bisection(self, fam, model01):
        # the benchmark's calibration: bracket-and-bisect drew 923,652 steps of
        # K = 100 observations at this seed
        sampler = CountingSampler(MixtureStreamSampler(model01, ChangeScenario.no_change(100)))
        res = calibrate_threshold(soft_scheme(fam, 0.21, 1.0, 1.6831), sampler, 150.0,
                                  reps_schedule=(200, 1000), seed=11)
        assert abs(res.arl.mean - 150.0) <= max(0.05 * 150.0, 2 * res.arl.std_error)
        assert sampler.obs <= 0.5 * 923_652 * 100


class TestArlBoundConsistency:
    def test_bound_holds_for_calibrated_scheme(self, fam, model01):
        # K = 10 desk-scale configuration with a comfortably applicable bound
        alpha, d, K, gamma = 0.21, 1.6831, 10, 200.0
        scheme = soft_scheme(fam, alpha, 1.0, d)
        res = calibrate_threshold(scheme, model01, gamma=gamma, seed=21, K=K,
                                  reps_schedule=(100, 300))
        lam = solve_lambda(0.1, alpha, model01, QuadratureConfig.quadrature())
        bound = arl_lower_bound(lam, res.b, d, K)
        assert bound is not None
        assert res.arl.mean >= bound - 2 * res.arl.std_error


def test_import_and_one_thread_leave_the_pool_modules_unloaded():
    # concurrent.futures and multiprocessing cost import time and memory that a
    # one-process run, such as the live monitor's, never uses
    src = str(Path(calibration.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import lacusum, lacusum.cli\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "print(sorted(m for m in pool if m in sys.modules))\n"
        "from lacusum import (ChangeScenario, FusionRule, GrossErrorModel, LAlphaScheme,\n"
        "                     LocalParams, NominalFamily, OutlierSpec, estimate_arl)\n"
        "fam = NominalFamily(0.0, 1.0)\n"
        "model = GrossErrorModel(0.1, fam, OutlierSpec.gaussian_outlier())\n"
        "scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(2.0, 0.5))\n"
        "estimate_arl(scheme, model, reps=20, cap=500, seed=1, K=3)\n"
        "print(sorted(m for m in pool if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout
