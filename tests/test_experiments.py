"""Delay tables and contamination curves."""

import numpy as np
import pytest

from lacusum import (
    ChangeScenario,
    ConfigError,
    ExperimentSpec,
    FusionRule,
    GrossErrorModel,
    LAlphaScheme,
    LocalParams,
    OutlierSpec,
    arl_vs_epsilon_curve,
    run_delay_table,
    simulate_delay,
)

# thresholds from the reference simulation study (gamma = 5000, eps = 0.1)
SOFT21 = dict(alpha=0.21, b=16.40, d=1.6831)
MAX21_B = 8.16
SUM21_B = 70.25


def soft(fam, alpha, b, d, name=""):
    return LAlphaScheme(LocalParams(alpha, fam), FusionRule.soft(b, d), name)


class TestSimulateDelay:
    def test_requires_change_at_time_one(self, fam, model01):
        scheme = soft(fam, **SOFT21)
        with pytest.raises(Exception):
            simulate_delay(scheme, model01, ChangeScenario(100, 10, 5, 1.0),
                           reps=10, seed=0)

    def test_min_delay_is_one(self, fam, model01):
        scheme = soft(fam, 0.21, 0.0, 0.0)
        est = simulate_delay(scheme, model01, ChangeScenario.immediate(5, 5, 1.0),
                             reps=20, seed=0)
        assert est.mean == 1.0

    def test_reference_cell(self, fam, model01):
        # m = 10 cell of the contaminated delay study: 10.1 at 1000 reps
        est = simulate_delay(soft(fam, **SOFT21), model01,
                             ChangeScenario.immediate(100, 10, 1.0), reps=200, seed=43)
        assert est.mean == pytest.approx(10.1, abs=0.5)


class TestDelayTable:
    def test_single_cell_equals_simulate_delay(self, fam, model01):
        scheme = soft(fam, **SOFT21, name="s21")
        scenario = ChangeScenario.immediate(100, 10, 1.0)
        spec = ExperimentSpec(schemes=(scheme,), model_pre=model01.with_epsilon(0.0),
                              model_post=model01, scenarios=(scenario,),
                              gamma=5000.0, reps=50, seed=7)
        rows = run_delay_table(spec)
        assert len(rows) == 1
        direct = simulate_delay(scheme, model01, scenario, reps=50,
                                seed=_expected_cell_seed(7, 0, 0), cap=100_000)
        assert rows[0].delay == direct
        assert rows[0].scheme == "s21"
        assert rows[0].delay_bound_ratio is not None and rows[0].delay_bound_ratio > 0

    @pytest.mark.parametrize("bad", [ChangeScenario(100, 10, 5, 1.0),
                                     ChangeScenario.immediate(100, 10, 0.5)],
                             ids=["nu-5", "theta_post-below-theta1"])
    def test_bad_scenario_raises_before_any_cell(self, fam, model01, monkeypatch, bad):
        import lacusum.experiments as experiments

        calls = []
        monkeypatch.setattr(experiments, "estimate_arl", lambda *a, **k: calls.append(a))
        good = ChangeScenario.immediate(100, 10, 1.0)
        spec = ExperimentSpec(schemes=(soft(fam, **SOFT21),), model_post=model01,
                              scenarios=(good, bad), reps=20, seed=1)
        with pytest.raises(ConfigError, match="nu = 1|must be >= theta1"):
            run_delay_table(spec)
        assert calls == []

    def test_unexpected_errors_propagate(self, fam, model01, monkeypatch):
        import lacusum.experiments as experiments

        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug in the delay simulation")

        monkeypatch.setattr(experiments, "estimate_arl", broken)
        spec = ExperimentSpec(schemes=(soft(fam, **SOFT21),), model_pre=model01,
                              model_post=model01,
                              scenarios=(ChangeScenario.immediate(100, 10, 1.0),),
                              gamma=5000.0, reps=20, seed=1)
        with pytest.raises(ZeroDivisionError):
            run_delay_table(spec)

    def test_delay_nonincreasing_in_m(self, fam, model01):
        scheme = soft(fam, **SOFT21)
        scenarios = tuple(ChangeScenario.immediate(100, m, 1.0) for m in (1, 10, 100))
        spec = ExperimentSpec(schemes=(scheme,), model_pre=model01,
                              model_post=model01, scenarios=scenarios,
                              gamma=5000.0, reps=200, seed=3)
        rows = run_delay_table(spec)
        means = [r.delay.mean for r in rows]
        ses = [r.delay.std_error for r in rows]
        assert means[0] > means[1] - 2 * (ses[0] + ses[1])
        assert means[1] > means[2] - 2 * (ses[1] + ses[2])
        # and strictly decreasing in this configuration by a wide margin
        assert means[0] > means[1] > means[2]

    def test_soft_beats_max_and_sum_in_sparse_middle(self, fam, model01):
        """The qualitative ordering of the main comparison study at eps = 0.1:
        soft fusion beats MAX at m = 10 and beats SUM at m = 5."""
        soft_s = soft(fam, **SOFT21)
        max_s = LAlphaScheme(LocalParams(0.21, fam), FusionRule.max_rule(MAX21_B))
        sum_s = LAlphaScheme(LocalParams(0.21, fam), FusionRule.sum_rule(SUM21_B))

        def delay(scheme, m, seed):
            return simulate_delay(scheme, model01, ChangeScenario.immediate(100, m, 1.0),
                                  reps=200, seed=seed)

        s10, x10 = delay(soft_s, 10, 11), delay(max_s, 10, 12)
        assert s10.mean + 2 * (s10.std_error + x10.std_error) < x10.mean
        s5, u5 = delay(soft_s, 5, 13), delay(sum_s, 5, 14)
        assert s5.mean + 2 * (s5.std_error + u5.std_error) < u5.mean


class TestArlVsEpsilon:
    def test_curve_nonincreasing(self, fam, model01):
        scheme = soft(fam, 0.21, 8.77, 1.6831)  # roughly gamma = 500 at eps = 0
        pts = arl_vs_epsilon_curve([scheme], model01, [0.05, 0.15], reps=150,
                                   seed=5, K=100, cap=5000)
        assert pts[0].epsilon == 0.05 and pts[1].epsilon == 0.15
        assert pts[0].log_arl - pts[1].log_arl > -2 * (pts[0].se_log + pts[1].se_log)
        assert pts[0].log_arl > pts[1].log_arl


def _expected_cell_seed(seed, i, j):
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])
