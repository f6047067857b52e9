"""The four benchmark workloads: inputs, one unit of work, checks and digests.

All four use one model: contamination epsilon = 0.1 with N(0, 3) outliers,
nominal family (theta0, theta1, sigma) = (0, 1, 1) and K = 100 streams.
`setup(seed)` builds a workload's inputs; `unit(inputs, i)` is the timed
work, seeded from (run seed, unit index); `check(result)` returns the
number of operations attempted and one message per failed operation;
`digest(result)` fingerprints the outputs so a later change can show they
are unchanged.
"""

import hashlib
import math
import time
from contextlib import nullcontext

import numpy as np

from lacusum import (
    ChangeScenario,
    ExperimentSpec,
    FusionRule,
    GlrParams,
    GlrScheme,
    GrossErrorModel,
    LAlphaScheme,
    LocalParams,
    MixtureStreamSampler,
    NominalFamily,
    OutlierSpec,
    QuadratureConfig,
    StreamMonitor,
    b_gamma,
    calibrate_threshold,
    d_opt,
    run_delay_table,
    run_to_alarm,
    sample_matrix,
    tuning_grid,
)
from lacusum.errors import CalibrationError

from spans import TimedSampler

K = 100
FAM = NominalFamily(0.0, 1.0, 1.0)
MODEL = GrossErrorModel(0.1, FAM, OutlierSpec.gaussian_outlier(0.0, 3.0))
ALPHA, D = 0.21, 1.6831


def soft(b):
    return LAlphaScheme(LocalParams(ALPHA, FAM), FusionRule.soft(b, D))


def chan1(b):
    return GlrScheme(GlrParams(0.1, variant="chan1"), b, fam=FAM)


def xs(b):
    return GlrScheme(GlrParams(0.1, 200, "xie_siegmund"), b)


def unit_seed(seed, i):
    return seed + 7919 * i


def one_failure(messages):
    """All of one operation's failed checks as a single failure."""
    return ["; ".join(messages)] if messages else []


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class Calibrate:
    """calibrate_threshold for the soft scheme at gamma = 150, reps (200, 1000)."""

    name = "calibrate"
    gamma = 150.0
    schedule = (200, 1000)
    rel_tol = 0.05
    b_reference = 10.26  # library seed 7, recorded when the benchmark was added
    b_rel = 0.10

    def setup(self, seed):
        return {"seed": seed,
                "sampler": MixtureStreamSampler(MODEL, ChangeScenario.no_change(K))}

    def unit(self, inputs, i, tracer=None):
        sampler = inputs["sampler"]
        if tracer is not None:
            sampler = TimedSampler(sampler, tracer)
        try:
            return calibrate_threshold(soft(1.0), sampler, self.gamma,
                                       rel_tol=self.rel_tol, reps_schedule=self.schedule,
                                       seed=unit_seed(inputs["seed"], i))
        except CalibrationError as exc:
            return exc

    def check(self, result):
        if isinstance(result, Exception):
            return 1, [f"calibration raised: {result}"]
        failures = []
        est = result.arl
        if abs(est.mean - self.gamma) > max(self.rel_tol * self.gamma, 2.0 * est.std_error):
            failures.append(f"ARL {est.mean:.1f} +- {est.std_error:.1f} misses gamma")
        if abs(result.b - self.b_reference) > self.b_rel * self.b_reference:
            failures.append(f"b = {result.b:.4f} is not within 10% of {self.b_reference}")
        return 1, one_failure(failures)

    def digest(self, result):
        if isinstance(result, Exception):
            return "error"
        est = result.arl
        return digest([result.b, est.mean, est.std_error, est.reps, est.censored])


class Tune:
    """tuning_grid by Monte Carlo at 1e6 samples over alpha = 0:0.01:2, then d_opt and b_gamma."""

    name = "tune"
    samples = 1_000_000
    # criterion-1 references for lambda(0.1, alpha) and their tolerance
    lambda_reference = {0.0: 0.4572, 0.21: 1.3681}
    lambda_tol = 0.02

    def setup(self, seed):
        return {"seed": seed}

    def unit(self, inputs, i, tracer=None):
        qc = QuadratureConfig.monte_carlo(n_samples=self.samples,
                                          seed=unit_seed(inputs["seed"], i))
        with tracer.span("tuning.tuning_grid") if tracer else nullcontext():
            rows = tuning_grid(MODEL.epsilon, MODEL, alpha_max=2.0, step=0.01, qc=qc)
        best = max((r for r in rows if r.objective is not None), key=lambda r: r.objective)
        d = d_opt(best.lambda_, K, 10, 5000.0)
        return {"rows": rows, "alpha": best.alpha, "d": d,
                "b": b_gamma(best.lambda_, K, d, 5000.0)}

    def check(self, result):
        lam = {round(r.alpha, 10): r.lambda_ for r in result["rows"]}
        failures = [f"lambda({a}) = {lam.get(a)} is not within {self.lambda_tol} of {want}"
                    for a, want in self.lambda_reference.items()
                    if lam.get(a) is None or abs(lam[a] - want) > self.lambda_tol]
        return 1, one_failure(failures)

    def digest(self, result):
        return digest([math.nan if r.lambda_ is None else r.lambda_ for r in result["rows"]])


class Delay:
    """run_delay_table for the soft scheme at b = 16.40 over m x theta, 1000 reps a cell."""

    name = "delay"
    b = 16.40
    m_grid = (1, 3, 5, 8, 10, 15, 20, 30, 50, 100)
    thetas = (1.0, 2.0)
    reps = 1000
    # criterion-6 reference cells (m = 10): index in the table, mean, and the
    # reference table's standard error at 1000 replicates
    reference = {4: (10.1, 0.22), 14: (5.2, 0.15)}

    def setup(self, seed):
        scenarios = tuple(ChangeScenario.immediate(K, m, th)
                          for th in self.thetas for m in self.m_grid)
        return {"seed": seed, "scenarios": scenarios}

    def unit(self, inputs, i, tracer=None):
        spec = ExperimentSpec(schemes=(soft(self.b),), model_pre=MODEL, model_post=MODEL,
                              scenarios=inputs["scenarios"], gamma=5000.0, reps=self.reps,
                              seed=unit_seed(inputs["seed"], i))
        return run_delay_table(spec)

    def check(self, rows):
        failures = [f"cell {j} recorded an error: {r.error}"
                    for j, r in enumerate(rows) if r.error is not None]
        for j, (want, se) in self.reference.items():
            row = rows[j]
            tol = 3.0 * se * math.sqrt(1000 / self.reps)
            if row.delay is not None and abs(row.delay.mean - want) > tol:
                failures.append(f"cell {j} delay {row.delay.mean:.3f} is not within "
                                f"{tol:.3f} of {want}")
        return len(rows), failures

    def digest(self, rows):
        return digest([v for r in rows for v in
                       ((r.delay.mean, r.delay.std_error, r.delay.reps, r.delay.censored)
                        if r.delay is not None else (math.nan,) * 4)])


class Monitor:
    """StreamMonitor.step, closed loop with one caller, for soft, chan1 and xs.

    The thresholds are out of reach, so every step runs and no alarm fires.
    """

    name = "monitor"
    steps = {"soft": 5000, "chan1": 5000, "xs": 1000}
    chunks = 10
    unreachable = 1e9
    change_at, check_horizon = 201, 300
    check_thresholds = {"soft": 16.40, "chan1": 60.0, "xs": 250.0}
    makers = {"soft": soft, "chan1": chan1, "xs": xs}

    def setup(self, seed):
        stream = sample_matrix(MODEL, ChangeScenario.no_change(K), max(self.steps.values()),
                               seed)
        changed = sample_matrix(MODEL, ChangeScenario(K, 10, self.change_at, 2.0),
                                self.check_horizon, seed + 1)
        return {"rows": np.ascontiguousarray(stream.T), "changed": changed}

    def unit(self, inputs, i, tracer=None):
        """Latencies (ns) and statistics per scheme for one pass over the stream.

        The schemes take turns in `chunks` slices, so each one's samples are
        spread over the whole pass rather than bunched in one stretch of it.
        """
        mons = {name: StreamMonitor(self.makers[name](self.unreachable), K)
                for name in self.steps}
        out = {name: {"latency_ns": np.empty(n, dtype=np.int64), "stat": np.empty(n),
                      "alarms": 0} for name, n in self.steps.items()}
        rows = inputs["rows"]
        for c in range(self.chunks):
            for name, n in self.steps.items():
                mon, rec = mons[name], out[name]
                lat, stat = rec["latency_ns"], rec["stat"]
                lo, hi = c * n // self.chunks, (c + 1) * n // self.chunks
                with tracer.span(f"monitor.{name}", steps=hi - lo) if tracer else nullcontext():
                    for t in range(lo, hi):
                        start = time.perf_counter_ns()
                        decision = mon.step(rows[t])
                        lat[t] = time.perf_counter_ns() - start
                        stat[t] = decision.global_stat
                        rec["alarms"] += bool(decision.alarmed)
        return out

    def check(self, result):
        failures = [f"{name} alarmed {r['alarms']} times at an unreachable threshold"
                    for name, r in result.items() if r["alarms"]]
        return 1, one_failure(failures)

    def check_alarms(self, inputs):
        """Live alarm step equals the batch engine's on a stream with a change."""
        data = inputs["changed"]
        failures = []
        for name, b in self.check_thresholds.items():
            scheme = self.makers[name](b)
            mon = StreamMonitor(scheme, K)
            live = None
            for t in range(data.shape[1]):
                if mon.step(data[:, t]).alarmed:
                    live = mon.n
                    break
            batch = run_to_alarm(scheme, data)
            if live is None or live != batch:
                failures.append(f"{name}: live alarm at {live}, batch engine at {batch}")
        return len(self.check_thresholds), failures

    def digest(self, result):
        return digest(*(r["stat"] for r in result.values()))


WORKLOADS = {w.name: w for w in (Calibrate(), Tune(), Delay(), Monitor())}
