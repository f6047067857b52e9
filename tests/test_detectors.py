"""Local statistics, fusion, comparison schemes, and the run-length engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacusum import (
    ChangeScenario,
    ConfigError,
    DetectorBank,
    FusionRule,
    GlrParams,
    GlrScheme,
    GrossErrorModel,
    LAlphaScheme,
    LocalParams,
    MixtureStreamSampler,
    NominalFamily,
    OutlierSpec,
    StreamMonitor,
    bank_update,
    fuse,
    glr_step,
    lalpha_increment,
    run_to_alarm,
    simulate_run_lengths,
    u_plus,
)
from lacusum.detectors import (
    CHAN2_COEF,
    _mix_log_term,
    glr_recursive_stat,
    glr_scan_stat,
    increment_lower_bound,
)


def brute_force_cusum(llr_increments):
    """Explicit max over candidate change times; independent of the recursion."""
    n = len(llr_increments)
    best = 0.0
    for nu in range(n):
        best = max(best, sum(llr_increments[nu:]))
    return best


class TestIncrement:
    def test_zero_at_symmetric_point(self, fam):
        for alpha in (0.0, 0.21, 0.51, 1.0):
            p = LocalParams(alpha, fam)
            assert lalpha_increment(0.5, p) == pytest.approx(0.0, abs=1e-15)

    def test_log_likelihood_ratio_branch(self, fam):
        p = LocalParams(0.0, fam)
        assert lalpha_increment(1.0, p) == pytest.approx(0.5, abs=1e-12)
        assert lalpha_increment(-10.0, p) == pytest.approx(-10.5, abs=1e-12)

    def test_outlier_influence_is_bounded(self, fam):
        # at x = -10 the robust increment is vanishingly small, the LLR is -10.5
        p = LocalParams(0.21, fam)
        val = float(lalpha_increment(-10.0, p))
        assert val == pytest.approx(-9.62e-5, rel=0.01)

    def test_alpha_to_zero_continuity(self, fam):
        x = np.linspace(-5, 5, 101)
        small = lalpha_increment(x, LocalParams(1e-6, fam))
        zero = lalpha_increment(x, LocalParams(0.0, fam))
        assert np.max(np.abs(small - zero)) < 1e-4

    @given(st.floats(-1e6, 1e6), st.sampled_from([0.1, 0.21, 0.51, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_lower_bound(self, x, alpha):
        fam = NominalFamily(0.0, 1.0, 1.0)
        p = LocalParams(alpha, fam)
        assert lalpha_increment(x, p) >= increment_lower_bound(p) - 1e-12

    def test_alpha_validation(self, fam):
        with pytest.raises(ConfigError):
            LocalParams(-0.1, fam)


class TestBank:
    def test_reflection_at_zero(self, fam):
        bank = DetectorBank.fresh(LocalParams(0.0, fam), 1)
        updated = bank_update(bank, np.array([-3.0]))  # increment -3.5
        assert updated.w[0] == 0.0
        assert updated.n == 1

    def test_no_move_at_symmetric_point(self, fam):
        bank = DetectorBank(LocalParams(0.0, fam), w=np.array([2.0]), n=5)
        updated = bank_update(bank, np.array([0.5]))
        assert updated.w[0] == pytest.approx(2.0, abs=1e-15)

    def test_length_mismatch(self, fam):
        bank = DetectorBank.fresh(LocalParams(0.0, fam), 3)
        with pytest.raises(ConfigError):
            bank_update(bank, np.zeros(4))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_recursion_equals_brute_force(self, xs):
        fam = NominalFamily(0.0, 1.0, 1.0)
        p = LocalParams(0.0, fam)
        bank = DetectorBank.fresh(p, 1)
        for x in xs:
            bank = bank_update(bank, np.array([x]))
        increments = [float(lalpha_increment(x, p)) for x in xs]
        assert bank.w[0] == pytest.approx(brute_force_cusum(increments), abs=1e-10)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
           st.sampled_from([0.0, 0.21, 0.51]))
    @settings(max_examples=200, deadline=None)
    def test_nonnegativity(self, xs, alpha):
        fam = NominalFamily(0.0, 1.0, 1.0)
        bank = DetectorBank.fresh(LocalParams(alpha, fam), 1)
        for x in xs:
            bank = bank_update(bank, np.array([x]))
            assert bank.w[0] >= 0.0


class TestFusion:
    def test_all_zero(self):
        rule = FusionRule.soft(b=5.0, d=1.0)
        bank = DetectorBank(LocalParams(0.0, NominalFamily(0, 1)), w=np.zeros(10), n=0)
        decision = fuse(bank, rule)
        assert decision.global_stat == 0.0
        assert not decision.alarmed

    def test_soft_with_zero_d_equals_sum(self, fam, rng):
        w = rng.exponential(1.0, 20)
        bank = DetectorBank(LocalParams(0.0, fam), w=w, n=3)
        soft = fuse(bank, FusionRule.soft(b=1.0, d=0.0))
        total = fuse(bank, FusionRule.sum_rule(b=1.0))
        assert soft.global_stat == pytest.approx(total.global_stat, abs=1e-15)

    def test_only_exceeding_streams_contribute(self, fam):
        w = np.zeros(10)
        w[0], w[1] = 3.0, 0.5
        bank = DetectorBank(LocalParams(0.0, fam), w=w, n=1)
        decision = fuse(bank, FusionRule.soft(b=5.0, d=1.0))
        assert decision.global_stat == pytest.approx(2.0, abs=1e-15)

    def test_max_rule(self, fam):
        bank = DetectorBank(LocalParams(0.0, fam), w=np.array([0.2, 4.0, 1.0]), n=1)
        decision = fuse(bank, FusionRule.max_rule(b=3.0))
        assert decision.global_stat == 4.0
        assert decision.alarmed

    def test_alarm_iff_stat_at_threshold(self, fam):
        bank = DetectorBank(LocalParams(0.0, fam), w=np.array([2.0]), n=1)
        assert fuse(bank, FusionRule.sum_rule(b=2.0)).alarmed
        assert not fuse(bank, FusionRule.sum_rule(b=2.0 + 1e-12)).alarmed

    def test_validation(self):
        with pytest.raises(ConfigError):
            FusionRule.soft(b=-1.0, d=0.0)
        with pytest.raises(ConfigError):
            FusionRule.soft(b=1.0, d=-0.5)
        with pytest.raises(ConfigError):
            FusionRule(kind="median", b=1.0)


class TestScaling:
    """Scaling the increments by c > 0 scales the bank by c and preserves
    stopping times once b and d are scaled along."""

    @pytest.mark.parametrize("c", [0.25, 3.7])
    def test_scaled_recursion(self, fam, rng, c):
        p = LocalParams(0.21, fam)
        xs = rng.normal(0, 1.5, 200)
        inc = lalpha_increment(xs, p)
        w = w_scaled = 0.0
        for y in inc:
            w = max(w + y, 0.0)
            w_scaled = max(w_scaled + c * y, 0.0)
            assert w_scaled == pytest.approx(c * w, rel=1e-10, abs=1e-295)

    def test_stopping_times_match(self, fam):
        p = LocalParams(0.21, fam)
        b, d, c = 2.0, 0.3, 1.9
        rng = np.random.default_rng(33)
        for _ in range(100):
            xs = rng.normal(0.7, 1.0, 400)
            inc = np.asarray(lalpha_increment(xs, p))
            stop = stop_scaled = None
            w = w2 = np.zeros(1)
            for n, y in enumerate(inc, start=1):
                w = np.maximum(w + y, 0.0)
                w2 = np.maximum(w2 + c * y, 0.0)
                if stop is None and np.maximum(w - d, 0.0).sum() >= b:
                    stop = n
                if stop_scaled is None and np.maximum(w2 - c * d, 0.0).sum() >= c * b:
                    stop_scaled = n
            assert stop == stop_scaled


class TestUPlus:
    def test_zero_observations(self):
        pref = np.zeros((1, 6))
        assert u_plus(pref, 0, 5, 2) == 0.0

    def test_single_observation(self):
        pref = np.array([[0.0, 2.0]])
        assert u_plus(pref, 0, 1, 0) == 2.0

    def test_four_ones(self):
        pref = np.concatenate([[0.0], np.cumsum(np.ones(4))])[None, :]
        assert u_plus(pref, 0, 4, 0) == pytest.approx(2.0, abs=1e-15)

    def test_negative_sum_clipped(self):
        pref = np.array([[0.0, -3.0]])
        assert u_plus(pref, 0, 1, 0) == 0.0

    def test_contract_violation(self):
        pref = np.zeros((1, 4))
        with pytest.raises(ConfigError):
            u_plus(pref, 0, 2, 2)


class TestGlr:
    def test_all_zero_history(self):
        gp = GlrParams(p0=0.1, window=50)
        decision = glr_step(gp, b=1.0, history=np.zeros((5, 10)))
        # U+ = 0 everywhere: every term is log(1 - p0 + p0) = 0
        assert decision.global_stat == pytest.approx(0.0, abs=1e-12)

    def test_small_p0_limit(self):
        hist = np.array([[1.0, 2.0], [0.5, -0.3]])
        stats = [glr_step(GlrParams(p0=p), b=1.0, history=hist).global_stat
                 for p in (1e-3, 1e-6, 1e-9)]
        assert abs(stats[2]) < abs(stats[1]) < abs(stats[0])
        assert stats[2] == pytest.approx(0.0, abs=1e-6)

    def test_single_observation_formula(self):
        p0, x = 0.1, 1.7
        decision = glr_step(GlrParams(p0=p0), b=10.0, history=np.array([[x]]))
        want = math.log(1 - p0 + p0 * math.exp(max(0.0, x) ** 2 / 2))
        assert decision.global_stat == pytest.approx(want, abs=1e-12)

    def test_chan1_needs_bank(self):
        gp = GlrParams(p0=0.1, variant="chan1")
        with pytest.raises(ConfigError):
            glr_step(gp, b=1.0, history=np.zeros((2, 2)))
        decision = glr_step(gp, b=1.0, w_star=np.zeros(10))
        assert decision.global_stat == pytest.approx(10 * math.log(0.964), abs=1e-12)

    @pytest.mark.parametrize("coef", [1.0, CHAN2_COEF])
    def test_scan_matches_direct_formula(self, rng, coef):
        p0 = 0.1
        for _ in range(20):
            K, n = rng.integers(1, 5), rng.integers(1, 13)
            X = rng.normal(0, 1, (K, n))
            best = -np.inf
            for i in range(n):
                tot = 0.0
                for k in range(K):
                    u = max(0.0, X[k, i:].sum() / math.sqrt(n - i))
                    tot += math.log(1 - p0 + coef * p0 * math.exp(u * u / 2))
                best = max(best, tot)
            assert glr_scan_stat(X, p0, coef) == pytest.approx(best, rel=1e-12)

    def test_window_limiting(self, rng):
        # with a window of w, only the last w observations can matter
        X = rng.normal(0, 1, (3, 30))
        full = glr_scan_stat(X, 0.1, 1.0)
        windowed = glr_scan_stat(X[:, -5:], 0.1, 1.0)
        assert windowed <= full + 1e-12

    def test_overflow_safety(self):
        for x in (50.0, -50.0):
            stat = glr_scan_stat(np.full((4, 6), x), 0.1, 1.0)
            assert np.isfinite(stat)
        assert np.isfinite(glr_recursive_stat(np.full(3, 5000.0), 0.1))

    def test_mix_log_term_monotone(self):
        u = np.linspace(0.0, 200.0, 500)
        vals = _mix_log_term(u, 0.1, 1.0)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.isfinite(vals))


class TestRunToAlarm:
    def test_zero_threshold_alarms_immediately(self, fam, rng):
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(0.0, 0.0))
        data = rng.normal(0, 1, (3, 50))
        assert run_to_alarm(scheme, data) == 1

    def test_constant_feed(self, fam):
        # increment is exactly 0.5 per step, so N = ceil(b / 0.5)
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(3.2, 0.0))
        data = np.ones((1, 100))
        assert run_to_alarm(scheme, data) == math.ceil(2 * 3.2)

    def test_censored_returns_none(self, fam):
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1e9, 0.0))
        data = np.ones((1, 20))
        assert run_to_alarm(scheme, data) is None

    def test_sampler_mode(self, fam, model01):
        scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 0.0))
        sampler = MixtureStreamSampler(model01, ChangeScenario.immediate(4, 4, 1.0))
        n1 = run_to_alarm(scheme, sampler=sampler, cap=1000, seed=3)
        n2 = run_to_alarm(scheme, sampler=sampler, cap=1000, seed=3)
        assert n1 == n2 and n1 is not None

    def test_argument_validation(self, fam):
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1.0, 0.0))
        with pytest.raises(ConfigError):
            run_to_alarm(scheme)


class TestEngine:
    def test_reproducible(self, fam, model01):
        scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(3.0, 0.5))
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(5))
        a = simulate_run_lengths(scheme, sampler, reps=20, cap=2000, seed=1)
        b = simulate_run_lengths(scheme, sampler, reps=20, cap=2000, seed=1)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_pathwise_monotone_in_b(self, fam, model01):
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(5))
        low = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(2.0, 0.5))
        high = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(3.0, 0.5))
        n_low, _ = simulate_run_lengths(low, sampler, reps=50, cap=5000, seed=2)
        n_high, _ = simulate_run_lengths(high, sampler, reps=50, cap=5000, seed=2)
        assert np.all(n_high >= n_low)

    def test_pathwise_monotone_in_d(self, fam, model01):
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(5))
        small_d = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(2.0, 0.2))
        large_d = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(2.0, 0.8))
        n_small, _ = simulate_run_lengths(small_d, sampler, reps=50, cap=5000, seed=2)
        n_large, _ = simulate_run_lengths(large_d, sampler, reps=50, cap=5000, seed=2)
        assert np.all(n_large >= n_small)

    def test_soft_dominates_sum(self, fam, model01):
        # max(0, w - d) <= w per stream, so the soft rule alarms no earlier
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(8))
        soft = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(4.0, 0.7))
        total = LAlphaScheme(LocalParams(0.21, fam),
                             FusionRule.sum_rule(4.0))
        n_soft, _ = simulate_run_lengths(soft, sampler, reps=60, cap=5000, seed=4)
        n_sum, _ = simulate_run_lengths(total, sampler, reps=60, cap=5000, seed=4)
        assert np.all(n_soft >= n_sum)

    def test_censoring(self, fam, model0):
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1e9, 0.0))
        sampler = MixtureStreamSampler(model0, ChangeScenario.no_change(2))
        lengths, censored = simulate_run_lengths(scheme, sampler, reps=10, cap=100, seed=0)
        assert np.all(lengths == 100)
        assert np.all(censored)

    def test_finite_runs_under_no_change(self, fam, model0):
        # renewal property: moderate threshold still alarms eventually
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(3.0, 0.0))
        sampler = MixtureStreamSampler(model0, ChangeScenario.no_change(1))
        lengths, censored = simulate_run_lengths(scheme, sampler, reps=100,
                                                 cap=100_000, seed=6)
        assert censored.sum() == 0

    def test_glr_scheme_runs(self, fam, model01):
        scheme = GlrScheme(GlrParams(p0=0.1, window=20), b=2.0, fam=fam)
        sampler = MixtureStreamSampler(model01, ChangeScenario.immediate(3, 3, 1.0))
        lengths, censored = simulate_run_lengths(scheme, sampler, reps=10, cap=500, seed=5)
        assert np.all(lengths >= 1)
        assert censored.sum() == 0

    def test_chan1_scheme_runs(self, fam, model01):
        scheme = GlrScheme(GlrParams(p0=0.1, variant="chan1"), b=2.0, fam=fam)
        sampler = MixtureStreamSampler(model01, ChangeScenario.immediate(3, 3, 1.0))
        lengths, censored = simulate_run_lengths(scheme, sampler, reps=10, cap=500, seed=5)
        assert censored.sum() == 0


class TestStreamMonitor:
    def test_matches_run_to_alarm(self, fam, rng):
        scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.5, 0.2))
        data = rng.normal(0.8, 1.0, (4, 200))
        expected = run_to_alarm(scheme, data)
        mon = StreamMonitor(scheme, K=4)
        hit = None
        for t in range(data.shape[1]):
            if mon.step(data[:, t]).alarmed:
                hit = t + 1
                break
        assert hit == expected

    @pytest.mark.parametrize("kind", ["soft", "chan1", "xie_siegmund"])
    def test_alarmed_is_python_bool(self, fam, rng, kind):
        if kind == "soft":
            scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.5, 0.2))
        else:
            scheme = GlrScheme(GlrParams(p0=0.1, window=10, variant=kind), b=3.0, fam=fam)
        mon = StreamMonitor(scheme, K=3)
        rows = np.vstack([rng.normal(0.0, 1.0, (5, 3)), rng.normal(2.0, 1.0, (40, 3))])
        flags = [mon.step(row).alarmed for row in rows]
        assert all(type(flag) is bool for flag in flags)
        assert not flags[0] and any(flags)

    def test_glr_monitor(self, fam, rng):
        scheme = GlrScheme(GlrParams(p0=0.1, window=10), b=3.0, fam=fam)
        mon = StreamMonitor(scheme, K=2)
        decisions = [mon.step(row) for row in rng.normal(1.0, 1.0, (30, 2))]
        stats = np.array([d.global_stat for d in decisions])
        assert np.all(np.isfinite(stats))
