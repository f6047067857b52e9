"""Tuning quantities: info numbers, MGF roots, design formulas.

Reference values used below were cross-checked three ways before freezing:
deterministic Gauss-Hermite quadrature, adaptive quadrature of the explicit
mixture integrand, and 1e7-sample Monte Carlo.  All three agree to the
digits asserted.
"""

import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lacusum import (
    ConfigError,
    GridRow,
    MgfDivergenceError,
    NoPositiveRootError,
    NumericError,
    QuadratureConfig,
    arl_lower_bound,
    b_gamma,
    d_opt,
    info_number,
    solve_mgf_root,
    tuning_grid,
)
from lacusum import tuning
from lacusum.tuning import alpha_oracle

from _oracles import (
    increment_values,
    info_number_closed_form,
    info_number_quadrature,
    mixture_nodes_two_term,
    solve_lambda,
    solve_mgf_root_whole,
)

QUAD = QuadratureConfig.quadrature()
CHUNK = tuning.INCREMENT_CHUNK

# exact roots of the mixture MGF equation for eps=0.1, g = N(0, 3^2)
LAMBDA_EXACT = {0.0: 0.4589, 0.21: 1.3792, 0.51: 2.4258}


def delay_budget(lambda_, K, m, gamma, d):
    """The convex objective b_gamma(d)/m + d minimized by the exact d_opt."""
    return b_gamma(lambda_, K, d, gamma) / m + d


class TestInfoNumber:
    def test_llr_closed_form(self, model0):
        assert info_number(1.0, 0.0, model0) == pytest.approx(0.5, abs=1e-12)
        assert info_number(2.0, 0.0, model0) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51, 1.0])
    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0])
    def test_closed_form_vs_monte_carlo(self, model01, alpha, theta):
        # the mean increment over 1e6 draws from the mixture, within 3 standard errors
        from lacusum import LocalParams, lalpha_increment
        rng = np.random.default_rng(17)
        for eps in (0.0, 0.1):
            model = model01.with_epsilon(eps)
            y = lalpha_increment(model.sample(rng, theta, 1_000_000),
                                 LocalParams(alpha, model.nominal))
            se = y.std(ddof=1) / math.sqrt(y.size)
            assert abs(y.mean() - info_number(theta, alpha, model)) < 3 * se, eps

    def test_quadrature_matches_closed_form_when_contaminated_family_standard(self, model01):
        # at eps = 0 the mixture's info number is the contamination-free closed form
        for alpha in (0.21, 0.51):
            exact = info_number(1.5, alpha, model01.with_epsilon(0.0))
            assert exact == pytest.approx(info_number_closed_form(1.5, alpha), abs=1e-10)

    @pytest.mark.parametrize("fam_args", [(0.0, 1.0, 1.0), (0.0, 0.2, 1.0), (1.0, 2.5, 0.7)])
    def test_matches_gauss_hermite_quadrature(self, fam_args):
        from lacusum import GrossErrorModel, NominalFamily, OutlierSpec
        fam = NominalFamily(*fam_args)
        outliers = (OutlierSpec.gaussian_outlier(0.0, 3.0),
                    OutlierSpec.gaussian_outlier(fam.theta1 + 1.0, 0.5),
                    OutlierSpec.point_mass_outlier(fam.theta1 + 0.7))
        for outlier in outliers:
            for eps in (0.0, 0.1, 0.3):
                model = GrossErrorModel(eps, fam, outlier)
                for alpha in (0.0, 0.01, 0.21, 0.51, 1.0, 2.0):
                    for shift in (0.0, 0.5, 2.0):
                        theta = fam.theta1 + shift * fam.sigma
                        quad = info_number_quadrature(theta, eps, alpha, model)
                        assert info_number(theta, alpha, model) == pytest.approx(
                            quad, rel=1e-10, abs=1e-10), (outlier, eps, alpha, theta)

    def test_large_shift_hurts_robust_statistic(self, model0):
        # the robust info number rises then falls in theta
        assert info_number_closed_form(10.0, 0.51) < info_number_closed_form(2.0, 0.51)

    def test_rise_then_fall_shape(self, model0):
        thetas = np.arange(0.8, 8.0, 0.2)
        vals = [info_number_closed_form(t, 0.21) for t in thetas]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        assert all(np.diff(vals[:peak + 1]) > 0)
        assert all(np.diff(vals[peak:]) < 0)

    def test_rises_then_falls_over_theta(self, model0):
        thetas = np.round(np.arange(0.6, 4.001, 0.05), 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # theta below theta1
            vals = [info_number(float(t), 0.21, model0) for t in thetas]
        assert 0 < int(np.argmax(vals)) < len(vals) - 1

    def test_point_mass_outlier_expectation(self, fam):
        from lacusum import GrossErrorModel, OutlierSpec
        model = GrossErrorModel(0.2, fam, OutlierSpec.point_mass_outlier(0.5))
        # increment at the symmetric point is zero, so only the nominal term remains
        val = info_number(1.0, 0.0, model)
        assert val == pytest.approx(0.8 * 0.5, abs=1e-9)

    def test_warns_below_design_shift(self, model0):
        with pytest.warns(UserWarning, match="theta1"):
            info_number(0.5, 0.21, model0)


class TestSolveLambda:
    def test_idealized_model_is_exactly_one(self, model0):
        assert solve_lambda(0.0, 0.0, model0, QUAD) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51])
    def test_contaminated_roots_quadrature(self, model01, alpha):
        lam = solve_lambda(0.1, alpha, model01, QUAD)
        assert lam == pytest.approx(LAMBDA_EXACT[alpha], abs=2e-3)

    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51])
    def test_monte_carlo_agrees_with_quadrature(self, model01, alpha):
        qc = QuadratureConfig.monte_carlo(1_000_000, seed=0)
        lam = solve_lambda(0.1, alpha, model01, qc)
        assert lam == pytest.approx(LAMBDA_EXACT[alpha], abs=0.02)

    def test_residual_on_validation_sample(self, model01):
        # the root found on one evaluation method closes the equation on another
        from lacusum import LocalParams, lalpha_increment
        lam = solve_lambda(0.1, 0.21, model01, QUAD)
        rng = np.random.default_rng(99)
        n = 2_000_000
        mask = rng.random(n) < 0.1
        x = np.where(mask, rng.normal(0, 3, n), rng.normal(0, 1, n))
        y = lalpha_increment(x, LocalParams(0.21, model01.nominal))
        resid = np.mean(np.exp(lam * y)) - 1.0
        se = np.std(np.exp(lam * y), ddof=1) / math.sqrt(n)
        assert abs(resid) < 4 * se


class TestMgfRootContract:
    """Existence contract: a positive root exists iff E[Y] < 0."""

    def brute_force_root(self, values, probs):
        lams = np.linspace(1e-4, 60.0, 600_001)
        phi = np.exp(np.outer(lams, values)) @ probs
        sign_change = np.nonzero(np.diff(np.sign(phi - 1.0)))[0]
        assert sign_change.size, "oracle found no root"
        return lams[sign_change[0]]

    def test_positive_mean_raises(self):
        with pytest.raises(NoPositiveRootError):
            solve_mgf_root(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))

    def test_matches_brute_force_scan(self, rng):
        checked = 0
        while checked < 20:
            size = rng.integers(2, 6)
            values = np.sort(rng.uniform(-3, 3, size))
            if values.max() < 0.5 or values.min() >= 0:
                continue
            probs = rng.dirichlet(np.ones(size)) + 0.05
            probs /= probs.sum()
            if values @ probs >= -1e-2:
                continue
            root = solve_mgf_root(values, probs, tolerance=1e-10)
            oracle = self.brute_force_root(values, probs)
            assert root == pytest.approx(oracle, abs=2e-4)
            checked += 1

    def test_negative_only_values_have_no_root(self):
        # MGF strictly decreasing: never returns to 1
        with pytest.raises(NoPositiveRootError):
            solve_mgf_root(np.array([-2.0, -1.0]), np.array([0.5, 0.5]))

    def test_overflow_at_start_walks_down(self):
        # exp(800) overflows at the starting lambda = 1; the root is near 5.36e-4
        values, probs = np.array([-1.0, 800.0]), np.array([0.999, 0.001])
        root = solve_mgf_root(values, probs)
        assert abs(probs @ np.exp(root * values) - 1.0) < 1e-6
        lams = np.linspace(1e-6, 1e-2, 100_001)
        phi = np.exp(np.outer(lams, values)) @ probs
        oracle = lams[np.nonzero(np.diff(np.sign(phi - 1.0)))[0][0]]
        assert solve_mgf_root(values, probs, tolerance=1e-12) == pytest.approx(oracle, abs=2e-7)

    def test_overflowing_hint_walks_down(self):
        values, probs = np.array([-1.0, 2.0]), np.array([0.8, 0.2])
        plain = solve_mgf_root(values, probs)
        assert plain == pytest.approx(0.4457, abs=1e-4)
        assert solve_mgf_root(values, probs, hint=400.0) == pytest.approx(plain, abs=1e-5)

    def test_overflow_before_any_finite_bracket(self):
        # exp(lambda * 1e300) overflows at every lambda the solver may try
        with pytest.raises(MgfDivergenceError) as info:
            solve_mgf_root(np.array([-1.0, 1e300]), np.array([1.0, 1e-305]))
        assert info.value.last_finite_lambda == 0.0


def bisection_mgf_root(values, weights, tolerance=1e-6):
    """Reference oracle: bracket by halving and doubling from 1, then bisect."""
    w = weights / weights.sum()

    def phi(lam):
        return float(np.dot(w, np.exp(lam * values)))

    lo = 1.0
    while phi(lo) >= 1.0:
        lo /= 2.0
    hi = max(2.0 * lo, 1.0)
    while phi(hi) < 1.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = phi(mid)
        if abs(v - 1.0) < tolerance:
            return mid
        if v < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class CountingNumpy:
    """numpy stand-in for the tuning module that counts exp passes."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)


class TestNewtonSolver:
    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51])
    @pytest.mark.parametrize("qc", [QUAD, QuadratureConfig.monte_carlo(1_000_000, seed=0)],
                             ids=["quadrature", "monte_carlo"])
    def test_root_closes_the_equation(self, model01, alpha, qc):
        y, w = increment_values(model01, 0.0, alpha, qc)
        lam = solve_mgf_root(y, w)
        phi = np.mean(np.exp(lam * y)) if w is None else np.dot(w / w.sum(), np.exp(lam * y))
        assert lam > 0
        assert abs(phi - 1.0) < tuning.QUAD_TOLERANCE

    def test_grid_agrees_with_bisection_oracle(self, model01):
        rows = tuning_grid(0.1, model01, alpha_max=2.0, step=0.01, qc=QUAD)
        assert len(rows) == 201
        for r in rows:
            # the oracle runs far below the solver's tolerance: bisection at
            # the same tolerance may itself sit up to tolerance / phi' away
            y, w = increment_values(model01, 0.0, r.alpha, QUAD)
            oracle = bisection_mgf_root(y, w, 1e-12)
            slope = np.dot(w / w.sum(), y * np.exp(oracle * y))
            assert abs(r.lambda_ - oracle) < tuning.QUAD_TOLERANCE / slope, r.alpha

    def test_grid_evaluation_budget(self, model01, monkeypatch):
        self.check_evaluation_budget(model01, monkeypatch, QUAD, chunks=1)

    def test_grid_evaluation_budget_monte_carlo(self, model01, monkeypatch):
        qc = QuadratureConfig.monte_carlo(100_000, seed=0)
        self.check_evaluation_budget(model01, monkeypatch, qc, chunks=7)

    @staticmethod
    def check_evaluation_budget(model01, monkeypatch, qc, chunks):
        counter, sizes = CountingNumpy(), []
        solver = tuning.solve_mgf_root

        def counted(values, *args, **kwargs):
            sizes.append(np.size(values))
            return solver(values, *args, **kwargs)

        monkeypatch.setattr(tuning, "np", counter)
        monkeypatch.setattr(tuning, "solve_mgf_root", counted)
        tuning_grid(0.1, model01, alpha_max=2.0, step=0.01, qc=qc)
        assert len(sizes) == 201
        # an MGF evaluation makes one exp call per chunk of the support
        assert {math.ceil(size / CHUNK) for size in sizes} == {chunks}
        passes, rest = divmod(counter.exp_calls, chunks)
        assert rest == 0
        # each root starts from the line through the two before it
        assert passes / len(sizes) <= 2.5


class TestChunkedSolver:
    """solve_mgf_root sums phi and phi' chunk by chunk; the whole-array form
    in _oracles differs from it only in summation order."""

    @staticmethod
    def assert_same_root(values, weights=None):
        want = solve_mgf_root_whole(values, weights)
        assert solve_mgf_root(values, weights) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51, 2.0])
    def test_matches_whole_array_form_on_monte_carlo_sample(self, model01, alpha):
        qc = QuadratureConfig.monte_carlo(1_000_000, seed=5)
        y, _ = increment_values(model01, 0.0, alpha, qc)
        self.assert_same_root(y)

    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_matches_whole_array_form_at_chunk_edges(self, model01, size):
        qc = QuadratureConfig.monte_carlo(tuning.MC_MIN_SAMPLES, seed=9)
        y, _ = increment_values(model01, 0.0, 0.21, qc)
        self.assert_same_root(y[:size])
        self.assert_same_root(y[:size], np.linspace(1.0, 2.0, size))

    def test_single_value_fails_alike(self):
        # one negative value: phi falls for every lambda and never returns to 1
        with pytest.raises(NoPositiveRootError) as whole:
            solve_mgf_root_whole(np.array([-0.5]))
        with pytest.raises(NoPositiveRootError) as chunked:
            solve_mgf_root(np.array([-0.5]))
        assert str(chunked.value) == str(whole.value)

    @pytest.mark.parametrize("alpha", [0.0, 0.21, 0.51, 2.0])
    def test_matches_whole_array_form_on_quadrature_nodes(self, model01, alpha):
        y, w = increment_values(model01, 0.0, alpha, QUAD)
        assert y.size < CHUNK
        # one chunk: the same operations in the same order
        assert solve_mgf_root(y, w) == solve_mgf_root_whole(y, w)
        # the nodes tiled past several chunks, the weights scaled unevenly
        reps = 3 * CHUNK // y.size
        tiled_w = np.concatenate([w * (1.0 + k % 3) for k in range(reps)])
        self.assert_same_root(np.tile(y, reps), tiled_w)

    def test_unweighted_solve_takes_one_chunk(self, model01):
        qc = QuadratureConfig.monte_carlo(1_000_000, seed=5)
        y, _ = increment_values(model01, 0.0, 0.21, qc)
        tracemalloc.start()
        try:
            solve_mgf_root(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-array form took one sample-sized buffer, 8 MB here
        assert peak < 512 * 1024


class TestGridInfo:
    """The grid's info column is the exact info number under either method."""

    @pytest.mark.parametrize("model_kind", ["gaussian", "point_mass"])
    def test_info_is_exact_and_method_free(self, fam, model01, model_kind):
        from lacusum import GrossErrorModel, OutlierSpec
        model = model01 if model_kind == "gaussian" else GrossErrorModel(
            0.1, fam, OutlierSpec.point_mass_outlier(2.0))
        columns = []
        for qc in (QUAD, QuadratureConfig.monte_carlo(100_000, seed=4)):
            rows = tuning_grid(0.1, model, alpha_max=2.0, step=0.05, qc=qc)
            assert all(r.lambda_ is not None for r in rows)
            for r in rows:
                assert r.info == info_number(fam.theta1, r.alpha, model), r.alpha
            columns.append([r.info for r in rows])
        assert columns[0] == columns[1]


class TestEfficiency:
    def test_baseline_is_zero(self, model01):
        rows = tuning_grid(0.1, model01, alpha_max=0.2, step=0.1, qc=QUAD)
        assert rows[0].alpha == 0.0 and rows[0].efficiency == 0.0

    def test_idealized_small_alpha_loss(self, model0):
        # about a 5% efficiency price at eps = 0
        rows = tuning_grid(0.0, model0, alpha_max=0.21, step=0.21, qc=QUAD)
        assert rows[1].alpha == 0.21
        assert rows[1].efficiency == pytest.approx(-0.057, abs=0.01)

    def test_idealized_decreasing_in_alpha(self, model0):
        rows = tuning_grid(0.0, model0, alpha_max=0.5, step=0.1, qc=QUAD)
        assert rows[0].alpha == 0.0 and rows[0].efficiency == 0.0
        es = [r.efficiency for r in rows[1:]]
        assert es[1] < 0.0 and all(np.diff(es) < 0)

    def test_contaminated_gain_positive(self, model01):
        rows = tuning_grid(0.1, model01, alpha_max=0.21, step=0.21, qc=QUAD)
        assert rows[1].alpha == 0.21 and rows[1].efficiency > 0.5
        rows = tuning_grid(0.05, model01, alpha_max=0.21, step=0.21, qc=QUAD)
        assert rows[1].alpha == 0.21 and rows[1].efficiency > 0.2


class TestAlphaOracle:
    def test_idealized_oracle_is_zero(self, model0):
        # exact objective is strictly decreasing in alpha at eps = 0
        assert alpha_oracle(tuning_grid(0.0, model0, 1.0, 0.05, QUAD)).alpha == 0.0
        # Monte Carlo: the decrease dominates sampling noise at this step size
        qc = QuadratureConfig.monte_carlo(200_000, seed=1)
        assert alpha_oracle(tuning_grid(0.0, model0, 1.0, 0.25, qc)).alpha == 0.0

    def test_contaminated_oracle_location(self, model01):
        # deterministic quadrature: exact argmax of lambda*I is at 0.24
        a = alpha_oracle(tuning_grid(0.1, model01, 1.0, 0.01, QUAD)).alpha
        assert a == pytest.approx(0.24, abs=1e-12)

    def test_ties_go_to_smaller_alpha(self):
        rows = [GridRow(0.0, None, None, None, None), GridRow(0.1, 1.0, 0.5, 0.5, None),
                GridRow(0.2, 1.0, 0.5, 0.5, None), GridRow(0.3, 1.0, 0.4, 0.4, None)]
        assert alpha_oracle(rows) is rows[1]

    def test_objective_unimodal(self, model01):
        rows = tuning_grid(0.1, model01, alpha_max=1.0, step=0.02, qc=QUAD)
        obj = np.array([r.objective for r in rows if r.objective is not None])
        peak = int(np.argmax(obj))
        assert 0 < peak < len(obj) - 1
        assert np.all(np.diff(obj[:peak + 1]) > 0)
        assert np.all(np.diff(obj[peak:]) < 0)

    def test_grid_rows_skip_rootless_points(self, fam):
        from lacusum import GrossErrorModel, OutlierSpec
        # point mass above the breakdown level: positive drift, no root anywhere
        model = GrossErrorModel(0.45, fam, OutlierSpec.point_mass_outlier(2.7))
        rows = tuning_grid(0.45, model, alpha_max=0.4, step=0.1, qc=QUAD)
        assert all(r.lambda_ is None for r in rows)
        with pytest.raises(NumericError, match="no grid point admits a positive MGF root"):
            alpha_oracle(rows)


class TestGridArguments:
    @pytest.mark.parametrize("alpha_max,step", [(-1.0, 0.01), (math.nan, 0.01),
                                                (math.inf, 0.01), (2.0, math.nan),
                                                (2.0, math.inf)])
    def test_bad_grid_raises(self, model01, alpha_max, step):
        with pytest.raises(ConfigError, match="alpha grid"):
            tuning_grid(0.1, model01, alpha_max=alpha_max, step=step, qc=QUAD)


class TestDesignFormulas:
    @pytest.mark.parametrize("lam,want", [(1.0, 2.3026), (1.3681, 1.6831),
                                          (2.3777, 0.9684), (0.4572, 5.0363)])
    def test_simplified_d_reproduces_reference(self, lam, want):
        assert d_opt(lam, 100, 10, 5000.0) == pytest.approx(want, abs=5e-5)

    def test_all_streams_affected_gives_zero(self):
        assert d_opt(1.3, 100, 100, 5000.0) == 0.0

    def test_exact_mode_minimizes_delay_budget(self):
        # log(5000) = 8.5 > K = 5: the exact form
        lam, K, m, gamma = 1.3681, 5, 2, 5000.0
        d = d_opt(lam, K, m, gamma)
        assert d > 0.0
        here = delay_budget(lam, K, m, gamma, d)
        assert here <= delay_budget(lam, K, m, gamma, d + 0.01)
        assert here <= delay_budget(lam, K, m, gamma, max(d - 0.01, 0.0))

    def test_delay_budget_convex_on_grid(self):
        lam, K, m, gamma = 1.0, 100, 10, 5000.0
        ds = np.linspace(0.0, 8.0, 81)
        ell = np.array([delay_budget(lam, K, m, gamma, d) for d in ds])
        second_diff = ell[2:] - 2 * ell[1:-1] + ell[:-2]
        assert np.all(second_diff > -1e-9)

    def test_auto_mode_rule(self):
        # log(5000) = 8.5 <= K = 100: simplified; K = 5 < 8.5: exact
        assert d_opt(1.0, 100, 10, 5000.0) == math.log(100 / 10)
        lg = math.log(4.0 * 5000.0)
        root = math.sqrt(2 + lg / 4.0) - 0.5 * math.sqrt(lg)
        assert d_opt(1.0, 5, 2, 5000.0) == pytest.approx(math.log(5 / root**2), rel=1e-12)
        assert d_opt(1.0, 5, 2, 5000.0) != pytest.approx(math.log(5 / 2))

    def test_b_gamma_reference_value(self):
        assert b_gamma(1.0, 100, 2.3026, 5000.0) == pytest.approx(39.8, abs=0.1)

    def test_b_gamma_limit_without_tail(self):
        # K e^{-lambda d} -> 0 leaves log(4 gamma) / lambda
        val = b_gamma(2.0, 100, 60.0, 5000.0)
        assert val == pytest.approx(math.log(4 * 5000.0) / 2.0, rel=1e-6)

    def test_b_gamma_monotonicity(self):
        assert b_gamma(1.0, 200, 1.0, 5000.0) > b_gamma(1.0, 100, 1.0, 5000.0)
        assert b_gamma(1.0, 100, 1.0, 9000.0) > b_gamma(1.0, 100, 1.0, 5000.0)
        assert b_gamma(1.0, 100, 2.0, 5000.0) < b_gamma(1.0, 100, 1.0, 5000.0)

    def test_arl_bound_inverse_consistency(self):
        b = b_gamma(1.0, 100, 2.3026, 5000.0)
        assert arl_lower_bound(1.0, b, 2.3026, 100) == pytest.approx(5000.0, rel=1e-6)

    def test_arl_bound_degenerate_tail(self):
        # huge d: bound approaches exp(lambda b) / 4
        val = arl_lower_bound(1.0, 10.0, 80.0, 100)
        assert val == pytest.approx(0.25 * math.exp(10.0), rel=1e-4)

    def test_arl_bound_inapplicable(self):
        # lambda b = K e^{-lambda d} exactly on the boundary
        assert arl_lower_bound(1.0, 100.0, 0.0, 100) is None
        assert arl_lower_bound(1.0, 50.0, 0.0, 100) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            d_opt(1.0, 10, 11, 5000.0)
        with pytest.raises(ConfigError):
            d_opt(1.0, 10, 5, 0.5)
        with pytest.raises(ConfigError):
            b_gamma(-1.0, 10, 1.0, 100.0)


class TestQuadratureConfig:
    def test_monte_carlo_minimum_samples(self):
        with pytest.raises(ConfigError):
            QuadratureConfig.monte_carlo(n_samples=10_000)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(method="simpson")



class TestMixtureNodes:
    @pytest.mark.parametrize("eps,outlier", [
        (0.1, ("gaussian", 0.5, 3.0)), (0.1, ("point_mass", 2.0)), (0.0, ("gaussian", 0.0, 3.0))],
        ids=["gaussian", "point_mass", "eps0"])
    def test_match_two_term_form(self, fam, eps, outlier):
        from lacusum import GrossErrorModel, OutlierSpec
        spec = (OutlierSpec.gaussian_outlier(*outlier[1:]) if outlier[0] == "gaussian"
                else OutlierSpec.point_mass_outlier(outlier[1]))
        model = GrossErrorModel(eps, fam, spec)
        for theta in (fam.theta0, fam.theta1):
            got, want = tuning.mixture_nodes(model, theta), mixture_nodes_two_term(model, theta)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_import_and_monte_carlo_grid_leave_scipy_unloaded():
    # scipy.special and scipy.optimize each add a large share of the import time
    # and memory; only the quadrature nodes and the breakdown root need them
    src = str(Path(tuning.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import lacusum, lacusum.cli\n"
        "heavy = ('scipy.special', 'scipy.optimize')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from lacusum import GrossErrorModel, NominalFamily, OutlierSpec, QuadratureConfig\n"
        "model = GrossErrorModel(0.1, NominalFamily(0.0, 1.0), OutlierSpec.gaussian_outlier())\n"
        "lacusum.tuning_grid(0.1, model, 0.2, 0.1, QuadratureConfig.monte_carlo(100_000))\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout
