"""Monte Carlo run-length estimation and threshold calibration.

A run estimate is the mean stopping time over independent replicates,
censored at a cap.  One estimator serves the false-alarm ARL (a sampler with
no change) and the detection delay (a sampler with the change at time 1).
Calibration finds the global threshold b at which the estimated average run
length first reaches a target gamma.  A replicate's path does not depend on
b, so its stopping time T(b) is the first step at which the path's running
maximum reaches b, and the empirical ARL(b) = mean(min(T(b), cap)) is a
nondecreasing step function of b.  Replicates are advanced until their
running maximum reaches a rising bar, so one pass prices every b below the
bar, and b is read off the final paths exactly: no trial threshold is
simulated twice.
"""

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .detectors import Replicates, Scheme, simulate_run_lengths
from .errors import CalibrationError, ConfigError
from .models import ChangeScenario, GrossErrorModel, MixtureStreamSampler

# replicates are simulated in fixed blocks so results do not depend on the
# worker count
REP_BLOCK = 250

# one raise of the bar aims at no more than this many times the ARL reached
BAR_GROWTH = 4.0


@dataclass(frozen=True)
class RunEstimate:
    """Mean run length (or delay) with its standard error and censoring count."""

    mean: float
    std_error: float
    reps: int
    censored: int

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


def _pooled(parts) -> RunEstimate:
    """The estimate over chunks' (lengths, censored) pairs, in chunk order."""
    return RunEstimate.from_lengths(*(np.concatenate(p) for p in zip(*parts)))


@contextmanager
def _chunk_map(threads: int):
    """`map` over chunks of replicates, on a pool of `threads` processes when
    threads > 1; the caller consumes the results inside the block."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        yield map
        return
    # imported here: concurrent.futures and multiprocessing add about 15 ms and
    # 2 MB to importing lacusum (2-core VM), and only a pool needs them
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(threads) as pool:
        yield pool.map


def estimate_arl(scheme: Scheme, source, reps: int, cap: int, seed: int,
                 K: int | None = None, threads: int = 1) -> RunEstimate:
    """Mean run length over `reps` replicates, optionally on a process pool.

    Serves both the ARL to false alarm (a source with no change, or a bare
    model with K streams) and the detection delay (a sampler with the change
    at time 1).  Replicates run in chunks of REP_BLOCK with seeds derived
    from (seed, replicate index), so the result is identical for every
    worker count.  Censored replicates contribute the cap, so a censored
    estimate is a lower bound on the true mean.
    """
    if reps < 2:
        raise ConfigError("need at least 2 replicates")
    sampler = _as_sampler(source, K)
    starts = range(0, reps, REP_BLOCK)
    sizes = [min(REP_BLOCK, reps - s) for s in starts]
    with _chunk_map(min(threads, len(starts))) as chunk_map:
        parts = list(chunk_map(simulate_run_lengths, repeat(scheme), repeat(sampler), sizes,
                               repeat(cap), repeat(seed), starts))
    return _pooled(parts)


def _advance(paths, bar: float):
    paths.advance(bar)
    return paths


def _arl(chunks, b: float) -> float:
    return float(np.mean(np.concatenate([c.run_lengths(b)[0] for c in chunks])))


def _next_bar(chunks, bar: float, arl: float, gamma: float) -> float:
    """Extrapolate log ARL linearly from the window below bar to gamma.

    The window is the top quarter of the scale max(|bar|, 1) below bar.  The
    aim is capped at BAR_GROWTH times the ARL at bar, and the raise at the
    scale, so an underestimated slope cannot overshoot far.
    """
    scale = max(abs(bar), 1.0)
    lo = bar - 0.25 * scale
    slope = math.log(arl / _arl(chunks, lo)) / (bar - lo)
    step = math.log(min(gamma, BAR_GROWTH * arl) / arl) / slope if slope > 0 else scale
    return bar + min(max(step, 1e-3 * scale), scale)


def _root(chunks, bar: float, gamma: float) -> float:
    """Smallest b whose ARL on the chunks' paths reaches gamma, as it does at bar.

    ARL(b) is nondecreasing and rises only just past a record value, so b is
    just above the first record value below bar whose ARL just above it
    reaches gamma: the values are bisected for it.
    """
    values = np.unique(np.concatenate([v for c in chunks for _, _, v in c.records]))
    values = values[values < bar]
    k = bisect_left(values, True, key=lambda v: _arl(chunks, np.nextafter(v, np.inf)) >= gamma)
    return float(np.nextafter(values[k], np.inf))


def _raise_bars(chunks: list, bar: float, gamma: float, chunk_map) -> tuple[float, int]:
    """Advance the chunks, replaced in place, to rising bars from bar until
    their ARL at the bar reaches gamma; the root on their paths and the bars."""
    bars = 0
    while True:
        chunks[:] = chunk_map(_advance, chunks, repeat(bar))
        bars += 1
        arl = _arl(chunks, bar)
        if arl >= gamma:
            return _root(chunks, bar, gamma), bars
        bar = _next_bar(chunks, bar, arl, gamma)


def _root_on_paths(scheme: Scheme, sampler, gamma: float, pilot: int, reps: int, cap: int,
                   seed: int, threads: int) -> tuple[float, int, RunEstimate]:
    """The root b on paths advanced to rising bars, the number of bars, and
    the estimate at b read off the paths.

    The first `pilot` replicates are advanced alone from bar 1 until their
    ARL at the bar reaches gamma; their root is the first bar of the whole
    set.  The paths are freed on return, before the final estimate draws
    its own.
    """
    # the pilot alone runs first, so it is split across the workers
    pilot_block = min(REP_BLOCK, -(-pilot // max(threads, 1)))
    starts = [*range(0, pilot, pilot_block), *range(pilot, reps, REP_BLOCK)]
    chunks = [Replicates(scheme, sampler, end - start, cap, seed, start)
              for start, end in zip(starts, starts[1:] + [reps])]
    n = len(range(0, pilot, pilot_block))
    pilot_chunks = chunks[:n]
    with _chunk_map(min(threads, len(chunks))) as chunk_map:
        b, bars = _raise_bars(pilot_chunks, 1.0, gamma, chunk_map)
        chunks[:n] = pilot_chunks
        if n < len(chunks):
            b, more = _raise_bars(chunks, b, gamma, chunk_map)
            bars += more
    return b, bars, _pooled([c.run_lengths(b) for c in chunks])


def calibrate_threshold(scheme: Scheme, source, gamma: float, *,
                        rel_tol: float = 0.05, reps_schedule: tuple[int, int] = (200, 1000),
                        seed: int = 0, cap: int | None = None, K: int | None = None,
                        threads: int = 1) -> CalibrationResult:
    """Smallest threshold b whose empirical ARL over reps_schedule[1] replicates
    reaches gamma.

    The scheme's own threshold is ignored.  Replicates are advanced until
    their running maximum reaches a bar, and the bar is raised, resuming only
    the replicates still below it, until mean(min(T_bar, cap)) reaches gamma.
    The first reps_schedule[0] replicates (the pilot) go first; their root is
    the first bar of the whole set.  On the final paths ARL(b) is a step
    function of b, and b is returned just above the record value at which it
    first reaches gamma, so b depends only on the paths: never on the pilot
    size, the bars or the worker count.

    The result carries b, the number of bars the replicates were advanced
    to (iterations), and a fresh full-strength estimate at b.  That estimate
    must equal the one read off the paths and satisfy
    |mean - gamma| <= max(rel_tol * gamma, 2 * std_error), or
    CalibrationError is raised.  A cap below gamma is a ConfigError: a mean
    censored at cap never reaches gamma.
    """
    if not 1 <= gamma < math.inf:
        raise ConfigError(f"gamma must be a finite number >= 1, got {gamma}")
    if min(reps_schedule) < 2:
        raise ConfigError("need at least 2 replicates")
    sampler = _as_sampler(source, K)
    pilot, reps = min(reps_schedule), reps_schedule[1]
    cap = cap if cap is not None else max(int(50 * gamma), 100)
    if cap < gamma:
        raise ConfigError(f"cap {cap} is below gamma {gamma:g}: "
                          "a mean censored at cap never reaches gamma")
    b, bars, from_paths = 0.0, 0, None
    if gamma > 1.0:
        b, bars, from_paths = _root_on_paths(scheme, sampler, gamma, pilot, reps, cap, seed,
                                             threads)
    final = estimate_arl(scheme.with_threshold(b), sampler, reps=reps, cap=cap,
                         seed=seed, threads=threads)
    if from_paths is not None and final != from_paths:
        raise CalibrationError(f"the estimate at b = {b!r} differs from its paths: "
                               f"{final} against {from_paths}")
    if abs(final.mean - gamma) > max(rel_tol * gamma, 2.0 * final.std_error):
        raise CalibrationError(
            f"calibrated ARL {final.mean:.1f} misses gamma {gamma:.1f} "
            f"beyond tolerance (se {final.std_error:.2f})")
    return CalibrationResult(b=b, arl=final, iterations=bars)
