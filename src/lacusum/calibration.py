"""Monte Carlo run-length estimation and threshold calibration.

A run estimate is the mean stopping time over independent replicates under
the no-change regime, censored at a cap.  Calibration searches the global
threshold b so that the estimated average run length meets a target gamma:
stopping times are pathwise nondecreasing in b (identical sample paths,
higher bar), so a bracket-and-bisect on log b converges cleanly.  Coarse
replicate counts and a reduced cap steer the early iterations; the final
iterations run at full strength.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detectors import Scheme, simulate_run_lengths
from .errors import CalibrationError, ConfigError
from .models import ChangeScenario, GrossErrorModel, MixtureStreamSampler

# replicates are simulated in fixed blocks so results do not depend on the
# worker count
REP_BLOCK = 250

# calibrate_threshold's bracket search gives up after this many doublings
# (or halvings) of b
MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class RunEstimate:
    """Mean run length (or delay) with its standard error and censoring count."""

    mean: float
    std_error: float
    reps: int
    censored: int

    @property
    def flagged(self) -> bool:
        """True when more than 20% of replicates were censored; the mean is
        then only a lower bound."""
        return self.censored > 0.2 * self.reps

    @classmethod
    def from_lengths(cls, lengths: np.ndarray, censored: np.ndarray) -> "RunEstimate":
        n = len(lengths)
        sd = float(np.std(lengths, ddof=1)) if n > 1 else 0.0
        return cls(mean=float(np.mean(lengths)), std_error=sd / math.sqrt(n),
                   reps=n, censored=int(np.count_nonzero(censored)))


@dataclass(frozen=True)
class CalibrationResult:
    b: float
    arl: RunEstimate
    iterations: int


def _as_sampler(source, K: int | None = None):
    if isinstance(source, GrossErrorModel):
        if K is None:
            raise ConfigError("K is required when passing a bare model")
        return MixtureStreamSampler(source, ChangeScenario.no_change(K))
    return source


def _run_block(args):
    scheme, sampler, n, cap, seed, offset = args
    return simulate_run_lengths(scheme, sampler, reps=n, cap=cap, seed=seed,
                                rep_offset=offset)


def run_lengths(scheme: Scheme, source, reps: int, cap: int, seed: int,
                K: int | None = None, threads: int = 1):
    """Run lengths over `reps` replicates, optionally on a process pool.

    Replicate seeds derive from (seed, replicate index), so the result is
    identical for every worker count.
    """
    if reps < 2:
        raise ConfigError("need at least 2 replicates")
    sampler = _as_sampler(source, K)
    blocks = [(scheme, sampler, min(REP_BLOCK, reps - s), cap, seed, s)
              for s in range(0, reps, REP_BLOCK)]
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_block, blocks))
    else:
        parts = [_run_block(b) for b in blocks]
    lengths = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    return lengths, censored


def estimate_arl(scheme: Scheme, source, reps: int, cap: int, seed: int,
                 K: int | None = None, threads: int = 1) -> RunEstimate:
    """Average run length to false alarm under the no-change regime.

    Censored replicates contribute the cap, so a heavily censored estimate
    (flagged) is a lower bound on the true ARL.
    """
    lengths, censored = run_lengths(scheme, source, reps, cap, seed, K, threads)
    return RunEstimate.from_lengths(lengths, censored)


def calibrate_threshold(scheme: Scheme, source, gamma: float, *,
                        rel_tol: float = 0.05, reps_schedule: tuple[int, int] = (200, 1000),
                        seed: int = 0, cap: int | None = None, K: int | None = None,
                        threads: int = 1) -> CalibrationResult:
    """Find the threshold b whose ARL matches gamma within tolerance.

    The scheme's own threshold is ignored.  The search brackets b by
    doubling or halving from b = 1, at most MAX_DOUBLINGS times, then
    bisects on log b.  The returned CalibrationResult carries the calibrated
    b and the final full-strength ARL estimate, which satisfies
    |mean - gamma| <= max(rel_tol * gamma, 2 * std_error).  CalibrationError
    is raised when no bracket is found or the tolerance is not met.
    """
    if gamma < 1:
        raise ConfigError("gamma must be >= 1")
    sampler = _as_sampler(source, K)
    coarse_reps, full_reps = reps_schedule
    full_cap = cap if cap is not None else max(int(50 * gamma), 100)
    coarse_cap = min(full_cap, max(int(6 * gamma), 100))
    evals = 0

    def arl_at(b: float, reps: int, run_cap: int) -> RunEstimate:
        nonlocal evals
        evals += 1
        return estimate_arl(scheme.with_threshold(b), sampler, reps=reps,
                            cap=run_cap, seed=seed, threads=threads)

    if gamma == 1.0:
        return CalibrationResult(b=0.0, arl=arl_at(0.0, coarse_reps, 10), iterations=evals)

    # bracket on log b by doubling / halving
    lo = hi = 1.0
    est = arl_at(hi, coarse_reps, coarse_cap)
    steps = 0
    if est.mean < gamma:
        while est.mean < gamma:
            lo = hi
            hi *= 2.0
            steps += 1
            if steps > MAX_DOUBLINGS:
                raise CalibrationError(f"no bracket within {MAX_DOUBLINGS} doublings")
            est = arl_at(hi, coarse_reps, coarse_cap)
    else:
        while est.mean >= gamma:
            hi = lo
            lo /= 2.0
            steps += 1
            if steps > MAX_DOUBLINGS:
                raise CalibrationError(f"no bracket within {MAX_DOUBLINGS} halvings")
            est = arl_at(lo, coarse_reps, coarse_cap)

    # bisect on log b, switching to full replicates once the bracket is tight
    final = None
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        wide = math.log(hi / lo) > 0.10
        reps = coarse_reps if wide else full_reps
        run_cap = coarse_cap if wide else full_cap
        est = arl_at(mid, reps, run_cap)
        if not wide and abs(est.mean - gamma) <= max(rel_tol * gamma, 2.0 * est.std_error):
            final = CalibrationResult(b=mid, arl=est, iterations=evals)
            break
        if est.mean < gamma:
            lo = mid
        else:
            hi = mid
        if math.log(hi / lo) < 1e-4:
            final = CalibrationResult(b=mid, arl=est, iterations=evals)
            break
    if final is None:
        raise CalibrationError("bisection did not meet the calibration tolerance")
    if abs(final.arl.mean - gamma) > max(rel_tol * gamma, 2.0 * final.arl.std_error):
        raise CalibrationError(
            f"calibrated ARL {final.arl.mean:.1f} misses gamma {gamma:.1f} "
            f"beyond tolerance (se {final.arl.std_error:.2f})")
    return final
