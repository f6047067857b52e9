"""Local statistics, fusion, comparison schemes, and the run-length engine."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacusum import (
    ChangeScenario,
    ConfigError,
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
    lalpha_increment,
    run_to_alarm,
    simulate_run_lengths,
)
from lacusum import detectors
from lacusum.detectors import (
    CHAN1_COEF,
    CHAN2_COEF,
    _mix_log_term,
    glr_recursive_stat,
    glr_scan_stat,
)
from lacusum.models import SQRT_2PI

from _oracles import (glr_recursive_stat_whole, glr_scan_stat_whole, glr_tail_scan_whole,
                      lalpha_increment_whole)


def brute_force_cusum(llr_increments):
    """Explicit max over candidate change times; independent of the recursion."""
    n = len(llr_increments)
    best = 0.0
    for nu in range(n):
        best = max(best, sum(llr_increments[nu:]))
    return best


def u_plus(prefix_sums, k, n, i):
    """Positive part of the normalized partial sum of stream k over observations i+1..n.

    prefix_sums has shape (K, T+1) with prefix_sums[:, 0] = 0.
    """
    if not 0 <= i < n:
        raise ValueError(f"need 0 <= i < n, got i={i}, n={n}")
    return max(0.0, float((prefix_sums[k, n] - prefix_sums[k, i]) / math.sqrt(n - i)))


def increment_lower_bound(p):
    """Analytic lower bound of the increment for alpha > 0, approached as f1 -> 0."""
    return -((SQRT_2PI * p.fam.sigma) ** (-p.alpha)) / p.alpha


def prefix_sums(X):
    return np.concatenate([np.zeros((X.shape[0], 1)), np.cumsum(X, axis=1)], axis=1)


def tail_sums(X):
    """glr_scan_stat's input for the observations X, oldest first along the last
    axis: the sums of the last 1, 2, ... of them."""
    return np.cumsum(X[..., ::-1], axis=-1)


def mix_term(u, p0, coef=1.0):
    """Scalar log(1 - p0 + coef * p0 * exp(u^2 / 2)), the GLR per-stream term."""
    return math.log(1 - p0 + coef * p0 * math.exp(u * u / 2))


def lalpha(alpha, fam, kind="sum", b=1e9, d=0.0):
    return LAlphaScheme(LocalParams(alpha, fam), FusionRule(kind=kind, b=b, d=d))


def xie_siegmund(p0=0.1, window=200, b=1e9):
    return GlrScheme(GlrParams(p0=p0, window=window), b=b)


def feed(scheme, rows):
    """Per-step decisions of a live monitor fed the rows of a (T, K) array."""
    rows = np.asarray(rows, dtype=float)
    mon = StreamMonitor(scheme, K=rows.shape[1])
    return [mon.step(row) for row in rows]


def final_stat(scheme, rows):
    return feed(scheme, rows)[-1].global_stat


ALL_SCHEMES = {
    "soft": lambda fam: lalpha(0.21, fam, "soft_threshold", b=6.0, d=1.0),
    "max": lambda fam: lalpha(0.21, fam, "max", b=4.0),
    "sum": lambda fam: lalpha(0.0, fam, "sum", b=12.0),
    "chan1": lambda fam: GlrScheme(GlrParams(0.1, variant="chan1"), 8.0, fam=fam),
    "xie_siegmund": lambda fam: xie_siegmund(window=30, b=8.0),
    "chan2": lambda fam: GlrScheme(GlrParams(0.1, 30, "chan2"), 8.0),
}


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
        # a NaN parameter would blind a live monitor: no scheme, so no monitor
        with pytest.raises(ConfigError):
            StreamMonitor(LAlphaScheme(LocalParams(math.nan, fam), FusionRule.soft(1.0, 0.5)),
                          K=2)

    def test_infinite_alpha_rejected(self, fam):
        # a soft monitor on alpha = inf once reported nan at every step
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0, got inf"):
            LocalParams(math.inf, fam)


class TestBank:
    """The CUSUM bank, read through a one-stream sum-fused monitor (stat = W)."""

    def test_reflection_at_zero(self, fam):
        mon = StreamMonitor(lalpha(0.0, fam), K=1)
        assert mon.step(np.array([-3.0])).global_stat == 0.0  # increment -3.5
        assert mon.n == 1

    def test_no_move_at_symmetric_point(self, fam):
        stats = [d.global_stat for d in feed(lalpha(0.0, fam), [[1.0]] * 4 + [[0.5]])]
        assert stats[3] == 2.0
        assert stats[4] == pytest.approx(2.0, abs=1e-15)

    def test_length_mismatch(self, fam):
        mon = StreamMonitor(lalpha(0.0, fam), K=3)
        with pytest.raises(ConfigError):
            mon.step(np.zeros(4))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_recursion_equals_brute_force(self, xs):
        fam = NominalFamily(0.0, 1.0, 1.0)
        p = LocalParams(0.0, fam)
        decisions = feed(LAlphaScheme(p, FusionRule.sum_rule(1e9)), np.array(xs)[:, None])
        for n, decision in enumerate(decisions, start=1):
            increments = [float(lalpha_increment(x, p)) for x in xs[:n]]
            assert decision.global_stat == pytest.approx(brute_force_cusum(increments),
                                                         abs=1e-10)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
           st.sampled_from([0.0, 0.21, 0.51]))
    @settings(max_examples=200, deadline=None)
    def test_nonnegativity(self, xs, alpha):
        fam = NominalFamily(0.0, 1.0, 1.0)
        for decision in feed(lalpha(alpha, fam), np.array(xs)[:, None]):
            assert decision.global_stat >= 0.0


class TestFusion:
    """Fusion rules applied to banks built from alpha = 0 increments x - 0.5."""

    def test_all_zero(self, fam):
        decision = feed(lalpha(0.0, fam, "soft_threshold", b=5.0, d=1.0), [[0.5] * 10])[0]
        assert decision.global_stat == 0.0
        assert not decision.alarmed

    def test_soft_with_zero_d_equals_sum(self, fam, rng):
        rows = rng.normal(1.0, 1.0, (30, 20))
        soft = feed(lalpha(0.0, fam, "soft_threshold", b=1.0, d=0.0), rows)
        total = feed(lalpha(0.0, fam, "sum", b=1.0), rows)
        assert [d.global_stat for d in soft] == [d.global_stat for d in total]

    def test_only_exceeding_streams_contribute(self, fam):
        rows = np.full((6, 10), 0.5)
        rows[:, 0] = 1.0   # W = 3.0
        rows[0, 1] = 1.0   # W = 0.5
        decision = feed(lalpha(0.0, fam, "soft_threshold", b=5.0, d=1.0), rows)[-1]
        assert decision.global_stat == pytest.approx(2.0, abs=1e-15)

    def test_max_rule(self, fam):
        decision = feed(lalpha(0.0, fam, "max", b=3.0), [[0.75, 4.5, 1.5]])[0]
        assert decision.global_stat == 4.0
        assert decision.alarmed

    def test_alarm_iff_stat_at_threshold(self, fam):
        assert feed(lalpha(0.0, fam, "sum", b=2.0), [[2.5]])[0].alarmed
        assert not feed(lalpha(0.0, fam, "sum", b=2.0 + 1e-12), [[2.5]])[0].alarmed

    def test_validation(self):
        with pytest.raises(ConfigError):
            FusionRule.soft(b=-1.0, d=0.0)
        with pytest.raises(ConfigError):
            FusionRule.soft(b=1.0, d=-0.5)
        with pytest.raises(ConfigError):
            FusionRule.soft(b=math.nan, d=0.0)
        with pytest.raises(ConfigError):
            FusionRule.soft(b=1.0, d=math.nan)
        with pytest.raises(ConfigError):
            FusionRule(kind="median", b=1.0)

    @pytest.mark.parametrize("b,d,name", [(1.0, math.inf, "d"), (math.inf, 0.5, "b")])
    def test_infinite_setting_rejected(self, b, d, name):
        # soft(1.0, inf) once gave a global statistic of 0.0 forever
        with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0, got inf"):
            FusionRule.soft(b, d)


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
    """U+ through a one-stream Xie-Siegmund monitor, whose statistic is
    log(1 - p0 + p0 exp(U^2 / 2)) at the largest U+ over change times."""

    P0 = 0.1

    def test_zero_observations(self):
        pref = np.zeros((1, 6))
        assert u_plus(pref, 0, 5, 2) == 0.0
        assert final_stat(xie_siegmund(self.P0), np.zeros((5, 1))) == 0.0

    def test_single_observation(self):
        pref = np.array([[0.0, 2.0]])
        assert u_plus(pref, 0, 1, 0) == 2.0
        assert final_stat(xie_siegmund(self.P0), [[2.0]]) == \
            pytest.approx(mix_term(2.0, self.P0), rel=1e-14)

    def test_four_ones(self):
        X = np.ones((1, 4))
        best = max(u_plus(prefix_sums(X), 0, 4, i) for i in range(4))
        assert best == pytest.approx(2.0, abs=1e-15)
        assert final_stat(xie_siegmund(self.P0), X.T) == \
            pytest.approx(mix_term(best, self.P0), rel=1e-14)

    def test_negative_sum_clipped(self):
        pref = np.array([[0.0, -3.0]])
        assert u_plus(pref, 0, 1, 0) == 0.0
        assert final_stat(xie_siegmund(self.P0), [[-3.0]]) == 0.0

    def test_contract_violation(self):
        with pytest.raises(ValueError):
            u_plus(np.zeros((1, 4)), 0, 2, 2)
        # the scheme's counterpart: a scan needs at least one candidate change time
        with pytest.raises(ConfigError):
            GlrParams(p0=self.P0, window=0)

    def test_window_scan_matches_partial_sums(self, rng):
        # the monitor's statistic at every step, window-limited, from the formula
        window, p0 = 4, self.P0
        X = rng.normal(0.5, 1.0, (3, 12))
        pref = prefix_sums(X)
        for n, decision in enumerate(feed(xie_siegmund(p0, window), X.T), start=1):
            want = max(sum(mix_term(u_plus(pref, k, n, i), p0) for k in range(3))
                       for i in range(max(0, n - window), n))
            assert decision.global_stat == pytest.approx(want, rel=1e-12)


class TestGlr:
    def test_all_zero_history(self):
        # U+ = 0 everywhere: every term is log(1 - p0 + p0) = 0
        assert final_stat(xie_siegmund(0.1, 50), np.zeros((10, 5))) == \
            pytest.approx(0.0, abs=1e-12)

    def test_small_p0_limit(self):
        hist = np.array([[1.0, 2.0], [0.5, -0.3]])
        stats = [final_stat(xie_siegmund(p), hist.T) for p in (1e-3, 1e-6, 1e-9)]
        assert abs(stats[2]) < abs(stats[1]) < abs(stats[0])
        assert stats[2] == pytest.approx(0.0, abs=1e-6)

    def test_single_observation_formula(self):
        p0, x = 0.1, 1.7
        decision = feed(xie_siegmund(p0, b=10.0), [[x]])[0]
        assert decision.global_stat == pytest.approx(mix_term(max(0.0, x), p0), abs=1e-12)
        assert not decision.alarmed

    @pytest.mark.parametrize("b", [math.nan, -5.0, math.inf])
    def test_bad_threshold_rejected(self, b):
        # b = nan once built a scheme that never alarmed, even at 9 sigma
        with pytest.raises(ConfigError, match=f"threshold b must be finite.*got {b}"):
            GlrScheme(GlrParams(0.1), b=b)
        if b < 0:  # chan1's statistic starts below 0, so a negative bar is in its range
            GlrScheme(GlrParams(0.1, variant="chan1"), b=b)

    def test_chan1_needs_bank(self, fam):
        gp = GlrParams(p0=0.1, variant="chan1")
        with pytest.raises(ConfigError):
            StreamMonitor(GlrScheme(gp, b=1.0), K=2)
        # x = 0.5 leaves the alpha = 0 bank at zero
        decision = feed(GlrScheme(gp, b=1.0, fam=fam), [[0.5] * 10])[0]
        assert decision.global_stat == pytest.approx(10 * math.log(0.964), abs=1e-12)
        assert 1 - 0.1 + CHAN1_COEF * 0.1 == pytest.approx(0.964, abs=1e-15)

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
            assert glr_scan_stat(tail_sums(X), p0, coef) == pytest.approx(best, rel=1e-12)

    def test_window_limiting(self, rng):
        # with a window of w, only the last w observations can matter
        X = rng.normal(0, 1, (3, 30))
        full = glr_scan_stat(tail_sums(X), 0.1, 1.0)
        windowed = glr_scan_stat(tail_sums(X[:, -5:]), 0.1, 1.0)
        assert windowed <= full + 1e-12

    def test_overflow_safety(self):
        for x in (50.0, -50.0):
            stat = glr_scan_stat(tail_sums(np.full((4, 6), x)), 0.1, 1.0)
            assert np.isfinite(stat)
        assert np.isfinite(glr_recursive_stat(np.full(3, 5000.0), 0.1))

    def test_mix_log_term_monotone(self):
        u = np.linspace(0.0, 200.0, 500)
        vals = _mix_log_term(u, 0.1, 1.0)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.isfinite(vals))


class TestWindowScan:
    """One scan per step over the longest-filled row gives each row the path
    a kernel of its own gives it, bit for bit."""

    @pytest.mark.parametrize("window", [5, 17, 200])
    @pytest.mark.parametrize("variant", ["xie_siegmund", "chan2"])
    def test_mixed_fills_match_single_rows(self, rng, variant, window):
        params, K = GlrParams(0.1, window, variant), 40
        # every row has seen at least one observation, as in the engine, where
        # only the first block starts from an empty window (and for all rows):
        # a lone first observation sums its K terms in another order
        lead = [1, 3, 8, 40, 250]
        history = [rng.normal(0.5, 3.0, (K, n)) for n in lead]
        block = rng.normal(0.5, 3.0, (len(lead), K, 12))
        block[2, :, 4] = 40.0  # the mixture term's large-u branch
        batch = detectors.WindowGlr(params, len(lead), K)
        for i, h in enumerate(history):
            batch.path(h[None], rows=np.array([i]))
        got = batch.path(block)
        for i, h in enumerate(history):
            single = detectors.WindowGlr(params, 1, K)
            single.path(h[None])
            assert got[i].tobytes() == single.path(block[i:i + 1])[0].tobytes()

    def test_shorter_row_scanned_past_its_fill_reads_its_current_total(self):
        # row 1 runs beside a longer row (its total, 40, reaches every offset the
        # scan reads), then alone (its total falls to 0; only its own offsets
        # are scanned), then beside the longer row again: every window ending
        # now sums to at most 0, so its statistic is 0, and an offset still
        # holding the old total of 40 would raise it
        K, p0 = 3, 0.1
        kernel = GlrScheme(GlrParams(p0, 60), 1e9).kernel(2, K)
        kernel.path(np.zeros((1, K, 40)), rows=np.array([0]))
        kernel.path(np.stack([np.zeros((K, 4)), np.full((K, 4), 10.0)]))
        kernel.path(np.full((1, K, 4), -10.0), rows=np.array([1]))
        got = kernel.path(np.zeros((2, K, 2)))[1]
        history = np.concatenate([np.full((K, 4), 10.0), np.full((K, 4), -10.0),
                                  np.zeros((K, 2))], axis=1)
        want = [glr_scan_stat_whole(history[:, :n], p0, 1.0) for n in (9, 10)]
        assert want == [0.0, 0.0]
        assert got.tolist() == want

    @pytest.mark.parametrize("variant", ["xie_siegmund", "chan2"])
    def test_every_step_matches_the_history_scan(self, rng, variant):
        # the running tail sums add a window oldest first, the history scan's
        # cumsum newest first: the two agree to rounding, not bit for bit
        window, K, p0 = 20, 30, 0.1
        scheme = GlrScheme(GlrParams(p0, window, variant), 1e9)
        coef = 1.0 if variant == "xie_siegmund" else CHAN2_COEF
        T = 3 * window + 17
        lead = [0, 1, 7, 20, 45]  # observations each batch row sees on its own first
        obs = rng.normal(0.5, 2.0, (len(lead), K, max(lead) + T))
        obs[:, :5, 30:34] += 8.0  # the mixture term's large-u branch

        def want(i, n):  # statistic of row i after its n-th observation
            return glr_scan_stat_whole(obs[i, :, max(0, n - window):n], p0, coef)

        batch = scheme.kernel(len(lead), K)
        for i, n in enumerate(lead):
            if n:
                got = batch.path(obs[i:i + 1, :, :n], rows=np.array([i]))[0]
                assert got == pytest.approx([want(i, s) for s in range(1, n + 1)], rel=1e-12)
        t = 0
        while t < T:
            B = min(int(detectors.block_size(t)), T - t)
            X = np.stack([obs[i, :, n + t:n + t + B] for i, n in enumerate(lead)])
            got = batch.path(X)
            for i, n in enumerate(lead):
                assert got[i] == pytest.approx([want(i, n + t + s) for s in range(1, B + 1)],
                                               rel=1e-12)
            t += B
        live = [d.global_stat for d in feed(scheme, obs[0, :, :T].T)]
        assert live == pytest.approx([want(0, n) for n in range(1, T + 1)], rel=1e-12)


CHUNK = detectors.INCREMENT_CHUNK


def increment_input(kind, rng):
    if kind == "0-d":
        return np.float64(rng.normal())
    if kind == "block":
        return rng.normal(0.5, 3.0, (250, 100, 64))
    if kind == "view":  # strided in every axis
        return rng.normal(0.5, 3.0, (60, 40, 50))[::2, 1::3, ::-2]
    return rng.normal(0.5, 3.0, kind)


class TestKernelsMatchWholeArrayForms:
    """The chunked increment and the buffered scan give the bits of the
    whole-array forms they replace."""

    @pytest.mark.parametrize("alpha", [0.01, 0.21, 1.37, 2.0])
    @pytest.mark.parametrize("kind", ["0-d", 1, CHUNK - 1, CHUNK, CHUNK + 1, 10**6,
                                      "block", "view"])
    def test_increment(self, fam, rng, alpha, kind):
        x = increment_input(kind, rng)
        p = LocalParams(alpha, fam)
        got, want = lalpha_increment(x, p), lalpha_increment_whole(x, p)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.21, 2.0])
    @pytest.mark.parametrize("kind", [CHUNK + 1, "block"])
    def test_increment_into_out(self, rng, alpha, kind):
        x = increment_input(kind, rng)
        p = LocalParams(alpha, NominalFamily(0.3, 1.7, 1.3))
        out = np.empty(x.shape)
        assert lalpha_increment(x, p, out=out) is out
        assert np.array_equal(out, lalpha_increment(x, p))
        if alpha == 0.0:  # the log-likelihood ratio, rounded as written
            assert np.array_equal(out, (1.7 - 0.3) * (x - 0.5 * (0.3 + 1.7)) / 1.3**2)

    @pytest.mark.parametrize("out", [np.empty(5), np.empty((4, 2))[:, 0]],
                             ids=["shape", "strided"])
    def test_increment_out_checked(self, fam, out):
        with pytest.raises(ValueError, match="C-contiguous"):
            lalpha_increment(np.zeros(4), LocalParams(0.21, fam), out)

    @pytest.mark.parametrize("coef", [1.0, CHAN2_COEF], ids=["xs", "chan2"])
    @pytest.mark.parametrize("case", ["one_row", "rows", "mixed_fills", "large_u"])
    def test_scan(self, rng, coef, case):
        rows = 1 if case == "one_row" else 50
        history = rng.normal(1.0 if case == "large_u" else 0.2, 1.0, (rows, 100, 200))
        if case == "mixed_fills":  # rows that have seen fewer steps hold zeros first
            for i, n in enumerate(rng.integers(1, 200, rows)):
                history[i, :, :-n] = 0.0
        tail = tail_sums(history)
        u = tail / np.sqrt(np.arange(1, 201))
        assert (0.5 * u.max() ** 2 > 30.0) == (case == "large_u")
        want = glr_tail_scan_whole(tail, 0.1, coef)
        assert np.array_equal(glr_scan_stat(tail, 0.1, coef), want)
        # the window kernel hands the scan the filled offsets of its buffer and
        # a work buffer sized to the whole buffer
        buf = np.zeros((rows, 100, 260))
        buf[:, :, :200] = tail
        work = np.empty(buf.size)
        assert np.array_equal(glr_scan_stat(buf[:, :, :200], 0.1, coef, work), want)

    @pytest.mark.parametrize("rows", [1, 250])
    @pytest.mark.parametrize("case", ["small_u", "large_u"])
    def test_recursive(self, rng, rows, case):
        # chan1's bank, with half of some values above 30 in the large_u case
        w = np.abs(rng.normal(0.0, 4.0, (rows, 100)))
        if case == "large_u":
            w[:, ::7] += 70.0
        assert (0.5 * w.max() > 30.0) == (case == "large_u")
        before = w.copy()
        got = glr_recursive_stat(w, 0.1)
        assert np.array_equal(got, glr_recursive_stat_whole(w, 0.1))
        assert np.array_equal(w, before)  # the bank itself is left alone


class TestAllocation:
    """Peak traced allocation of the two kernels: numpy reports its buffers to
    tracemalloc, so the bounds do not depend on the host."""

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_increment_takes_its_output_and_one_chunk(self, fam, rng):
        x = rng.normal(0.0, 3.0, 10**6)
        peak = self.peak(lalpha_increment, x, LocalParams(0.21, fam))
        assert peak < x.nbytes + 2 * CHUNK * x.itemsize

    @pytest.mark.parametrize("alpha", [0.0, 0.21])
    def test_increment_into_out_takes_under_two_chunks(self, fam, rng, alpha):
        x = rng.normal(0.0, 3.0, 10**6)
        peak = self.peak(lalpha_increment, x, LocalParams(alpha, fam), np.empty_like(x))
        assert peak < 2 * CHUNK * x.itemsize

    def test_window_path_takes_one_buffer_of_scratch(self, rng):
        # the scan forms its terms in one work buffer the size of the window state
        kernel = detectors.WindowGlr(GlrParams(0.1, 200), 20, 100)
        X = rng.normal(0.0, 1.0, (20, 100, 264))
        kernel.path(X[:, :, :200])
        peak = self.peak(kernel.path, X[:, :, 200:])
        assert peak < 1.2 * kernel.buf.nbytes

    def test_window_monitor_step(self, rng):
        K, window = 100, 200
        mon = StreamMonitor(xie_siegmund(window=window), K=K)
        for row in rng.normal(0.0, 1.0, (window + 10, K)):
            mon.step(row)
        peak = self.peak(mon.step, rng.normal(0.0, 1.0, K))
        assert peak < 3 * K * window * 8


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
        # a single delay run from a sampler is the engine with one replicate
        scheme = LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 0.0))
        sampler = MixtureStreamSampler(model01, ChangeScenario.immediate(4, 4, 1.0))
        n1, censored1 = simulate_run_lengths(scheme, sampler, reps=1, cap=1000, seed=3)
        n2, censored2 = simulate_run_lengths(scheme, sampler, reps=1, cap=1000, seed=3)
        assert n1[0] == n2[0] and not censored1[0] and not censored2[0]

    def test_argument_validation(self, fam):
        scheme = LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1.0, 0.0))
        with pytest.raises(ConfigError):
            run_to_alarm(scheme, np.ones(20))

    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_first_hit_of_the_whole_path(self, fam, name):
        # a drift that grows keeps setting records in every block; each record
        # value, as the threshold, is first reached at that record's step
        scheme = ALL_SCHEMES[name](fam)
        T = 3 * detectors.BLOCK + 7
        data = np.random.default_rng(5).normal(np.linspace(0.0, 1.5, T), 1.0, (4, T))
        path = scheme.kernel(1, 4).path(data[None])[0]
        records = np.flatnonzero(path > np.maximum.accumulate(np.r_[-np.inf, path[:-1]]))
        assert records.max() >= 2 * detectors.BLOCK
        for i in records:
            assert run_to_alarm(scheme.with_threshold(path[i]), data) == i + 1
        assert run_to_alarm(scheme.with_threshold(path.max() + 1.0), data) is None

    @pytest.mark.parametrize("name", ["soft", "chan1"])
    def test_stops_at_the_block_of_the_first_alarm(self, fam, monkeypatch, name):
        columns = []
        inner = detectors.lalpha_increment

        def counted(x, p):
            columns.append(np.shape(x)[-1])
            return inner(x, p)

        monkeypatch.setattr(detectors, "lalpha_increment", counted)
        data = np.full((100, 20_000), 5.0)
        assert run_to_alarm(ALL_SCHEMES[name](fam).with_threshold(0.0), data) == 1
        assert sum(columns) <= detectors.BLOCK


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

    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_steps_equal_block_path(self, fam, name):
        # the live monitor is the batch kernel with one row, bit for bit
        scheme = ALL_SCHEMES[name](fam)
        data = np.random.default_rng(8).normal(0.6, 1.5, (6, 90))
        block = scheme.kernel(1, 6).path(data[None])[0]
        live = [d.global_stat for d in feed(scheme, data.T)]
        np.testing.assert_array_equal(live, block)
        hit = run_to_alarm(scheme, data)
        assert hit is not None
        assert [d.alarmed for d in feed(scheme, data.T)].index(True) + 1 == hit

    @pytest.mark.parametrize("name,stat_fn", [("chan1", "glr_recursive_stat"),
                                              ("xie_siegmund", "glr_scan_stat"),
                                              ("chan2", "glr_scan_stat")])
    def test_statistic_computed_once_per_step(self, fam, monkeypatch, name, stat_fn):
        calls = []
        inner = getattr(detectors, stat_fn)

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(detectors, stat_fn, counted)
        feed(ALL_SCHEMES[name](fam).with_threshold(1e9), np.zeros((25, 4)))
        assert len(calls) == 25

    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_pickled_kernel_continues_the_path(self, fam, name):
        scheme = ALL_SCHEMES[name](fam)
        X = np.random.default_rng(9).normal(0.5, 1.2, (3, 5, 70))
        kernel = scheme.kernel(3, 5)
        whole = np.hstack([kernel.path(X[:, :, :40]), kernel.path(X[:, :, 40:])])
        resumed = scheme.kernel(3, 5)
        first = resumed.path(X[:, :, :40])
        restored = pickle.loads(pickle.dumps(resumed))
        np.testing.assert_array_equal(np.hstack([first, restored.path(X[:, :, 40:])]), whole)


class TestNonFiniteInput:
    """A NaN or infinity would poison the statistic for every later step."""

    @pytest.mark.parametrize("alpha", [0.21, 0.0])
    def test_nan_names_step_and_column(self, fam, alpha):
        scheme = lalpha(alpha, fam, "soft_threshold", b=16.4, d=1.6831)
        mon = StreamMonitor(scheme, K=4)
        mon.step(np.zeros(4))
        mon.step(np.zeros(4))
        with pytest.raises(ConfigError, match=r"step 3, column 2"):
            mon.step(np.array([0.0, np.nan, 0.0, 0.0]))
        # the rejected row left the monitor as it was: later shifts still alarm
        decisions = [mon.step(np.full(4, 5.0)) for _ in range(200)]
        assert any(d.alarmed for d in decisions)
        assert all(math.isfinite(d.global_stat) for d in decisions)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinities_rejected_at_alpha_zero(self, fam, value):
        mon = StreamMonitor(lalpha(0.0, fam, "soft_threshold", b=16.4, d=1.6831), K=3)
        with pytest.raises(ConfigError, match=r"step 1, column 3"):
            mon.step(np.array([0.0, 0.0, value]))

    @pytest.mark.parametrize("name", ["soft", "chan1", "xie_siegmund"])
    def test_run_to_alarm_rejects_non_finite_data(self, fam, name):
        data = np.zeros((4, 30))
        data[2, 17] = np.nan
        with pytest.raises(ConfigError, match=r"step 18, column 3"):
            run_to_alarm(ALL_SCHEMES[name](fam), data)


def lockstep_run_lengths(scheme, sampler, reps, cap, seed, b):
    """Reference engine: every replicate runs its whole path to cap in lock step,
    in the engine's block schedule, and its length is the first step at or above b."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i))) for i in range(reps)]
    kernel = scheme.kernel(reps, sampler.K)
    starts = [0]
    while starts[-1] < cap:
        starts.append(min(starts[-1] + int(detectors.block_size(starts[-1])), cap))
    path = np.hstack([kernel.path(np.stack([sampler.draw(r, t, end - t) for r in rngs]))
                      for t, end in zip(starts, starts[1:])])
    hit = path >= b
    alarmed = hit.any(axis=1)
    return np.where(alarmed, hit.argmax(axis=1) + 1, cap), ~alarmed


def test_block_schedule():
    sizes, t = [], 0
    for _ in range(7):
        sizes.append(int(detectors.block_size(t)))
        t += sizes[-1]
    assert sizes == [8, 8, 16, 32, 64, 64, 64]
    np.testing.assert_array_equal(detectors.block_size(np.array([0, 8, 16, 32, 64, 128])),
                                  [8, 8, 16, 32, 64, 64])


class TestReplicates:
    """Run lengths read off resumable paths equal the engine's at every fixed b."""

    CAP = 2 * detectors.BLOCK + 37  # the last block is cut short
    # three thresholds each: most rows alarm in the first block at the lowest,
    # some rows are censored at the highest
    THRESHOLDS = {"soft": (1.0, 2.5, 4.0), "max": (2.0, 3.0, 4.5), "sum": (6.0, 12.0, 20.0),
                  "chan1": (1.0, 2.0, 4.0), "xie_siegmund": (10.0, 20.0, 25.0),
                  "chan2": (10.0, 20.0, 25.0)}

    @staticmethod
    def scheme(fam, name):
        scheme = ALL_SCHEMES[name](fam)
        if name in ("xie_siegmund", "chan2"):
            # a window longer than a block: rows resumed from different t
            # have filled different parts of it
            scheme = GlrScheme(GlrParams(0.1, 100, name), scheme.b)
        return scheme

    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_lengths_from_resumed_paths(self, fam, model01, name):
        scheme = self.scheme(fam, name)
        sampler = MixtureStreamSampler(model01, ChangeScenario.no_change(5))
        paths = detectors.Replicates(scheme, sampler, 30, self.CAP, seed=3)
        low, mid, high = self.THRESHOLDS[name]
        paths.advance(low)
        paths.advance(mid)
        # the last bar resumes, side by side, rows that stopped at different blocks
        assert len(set(paths.t[paths.top < high].tolist())) > 1
        paths.advance(high)
        for b in (low, mid, high):
            lengths, censored = paths.run_lengths(b)
            engine = simulate_run_lengths(scheme.with_threshold(b), sampler, 30, self.CAP, 3)
            oracle = lockstep_run_lengths(scheme, sampler, 30, self.CAP, 3, b)
            for got in (engine, (lengths, censored)):
                np.testing.assert_array_equal(got[0], oracle[0])
                np.testing.assert_array_equal(got[1], oracle[1])
        assert 0 < censored.sum() < 30

    def test_no_record_past_cap(self):
        # under this family an observation of 0 pushes the statistic up, so a
        # last block drawn short and run full width would leave records past cap
        fam = NominalFamily(-1.0, 0.0, 1.0)
        model = GrossErrorModel(0.1, fam, OutlierSpec.gaussian_outlier(-1.0, 3.0))
        scheme = lalpha(0.21, fam, "soft_threshold", d=1.0)
        sampler = MixtureStreamSampler(model, ChangeScenario.no_change(5))
        paths = detectors.Replicates(scheme, sampler, 30, self.CAP, seed=3)
        for bar in (1.0, 2.5, 4.0):
            paths.advance(bar)
        for b in (1.0, 2.5, 4.0):
            oracle = lockstep_run_lengths(scheme, sampler, 30, self.CAP, 3, b)
            np.testing.assert_array_equal(paths.run_lengths(b)[0], oracle[0])
            np.testing.assert_array_equal(paths.run_lengths(b)[1], oracle[1])
        assert paths.t.max() == self.CAP and paths.records[-1][1].max() <= self.CAP
