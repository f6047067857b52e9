"""In-memory spans and the wrappers that time each lacusum layer from outside.

Nothing under src/ is edited.  While a `patched(tracer)` block is open, the
public functions that one layer calls in another are replaced by timing
wrappers through module attributes, and the samplers handed to the engine
are wrapped in `TimedSampler`.  Every original is restored when the block
closes, so untraced runs call the library exactly as a user does.

Two kinds of records are kept:

* spans: name, start, end and parent span, one per call at a layer
  boundary that is rare enough to list (an engine run, a calibration
  evaluation, an MGF root solve, one slice of a monitor pass);
* leaves: calls and seconds per (parent span, name), for calls made
  thousands of times per second (a sampler draw, an increment, a GLR
  statistic).  A leaf is attributed to the span that was open when it ran.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

ENGINE = "detectors.simulate_run_lengths"
EVALUATION = "calibration.estimate_arl"
ROOT = "tuning.solve_mgf_root"
INFO = "experiments.info_number"
DRAW = "models.draw"
INCREMENT = "detectors.lalpha_increment"
TUNING_INCREMENT = "tuning.lalpha_increment"
RECURSIVE_STAT = "detectors.glr_recursive_stat"
SCAN_STAT = "detectors.glr_scan_stat"


class Tracer:
    """Spans, leaf aggregates and counters, all kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.counters = {}
        self.lengths = {}
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def leaf(self, name, seconds):
        key = (self._open[-1]["id"] if self._open else None, name)
        entry = self.leaves.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- queries ---------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def children(self, rec, name):
        return [s for s in self.spans[rec["id"] + 1:]
                if s["parent"] == rec["id"] and s["name"] == name]

    def span_seconds(self, name):
        return sum(s["end"] - s["start"] for s in self.named(name))

    def leaf_totals(self, name, parent_name=None):
        """(calls, seconds) of a leaf, optionally only under spans of one name."""
        calls, seconds = 0, 0.0
        for (parent, leaf_name), (n, s) in self.leaves.items():
            if leaf_name != name:
                continue
            if parent_name is not None and (
                    parent is None or self.spans[parent]["name"] != parent_name):
                continue
            calls += n
            seconds += s
        return calls, seconds

    def write(self, path):
        """One JSON line per span, then one per leaf aggregate."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
            for (parent, name), (calls, seconds) in self.leaves.items():
                out.write(json.dumps({"leaf": name, "parent": parent,
                                      "calls": calls, "seconds": seconds}) + "\n")


class TimedSampler:
    """A stream sampler that times and counts every block it draws."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def K(self):
        return self.inner.K

    def draw(self, rng, t0, n):
        start = time.perf_counter()
        block = self.inner.draw(rng, t0, n)
        self.tracer.leaf(DRAW, time.perf_counter() - start)
        self.tracer.count("models.steps_drawn", n)
        self.tracer.count("models.obs_drawn", block.size)
        return block


def _leaf_wrapper(tracer, name, fn):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - start)
    return timed


@contextmanager
def patched(tracer):
    """Swap timing wrappers into the lacusum modules for the block's duration.

    The run lengths of every engine call are kept in `tracer.lengths`, keyed
    by the engine span's id, for the output digests.
    """
    from lacusum import calibration, detectors, experiments, tuning

    engine, evaluate = calibration.simulate_run_lengths, calibration.estimate_arl
    root, info = tuning.solve_mgf_root, experiments.info_number
    sampler_cls = experiments.MixtureStreamSampler

    def simulate_run_lengths(scheme, sampler, reps, cap, seed, rep_offset=0):
        with tracer.span(ENGINE, reps=reps, cap=cap) as rec:
            lengths, censored = engine(scheme, sampler, reps, cap, seed, rep_offset)
        rec.update(replicate_steps=int(lengths.sum()),
                   censored=int(np.count_nonzero(censored)),
                   censored_steps=int(lengths[censored].sum()))
        tracer.lengths[rec["id"]] = lengths
        return lengths, censored

    def estimate_arl(scheme, source, reps, cap, seed, K=None, threads=1):
        with tracer.span(EVALUATION, b=scheme.threshold, reps=reps, cap=cap) as rec:
            est = evaluate(scheme, source, reps, cap, seed, K, threads)
        children = tracer.children(rec, ENGINE)
        rec.update(mean=est.mean, se=est.std_error, censored=est.censored,
                   replicate_steps=sum(s["replicate_steps"] for s in children),
                   censored_steps=sum(s["censored_steps"] for s in children),
                   seconds=rec["end"] - rec["start"])
        return est

    def solve_mgf_root(values, weights=None, tolerance=1e-6, hint=None):
        with tracer.span(ROOT):
            return root(values, weights, tolerance, hint)

    def info_number(*args, **kwargs):
        with tracer.span(INFO):
            return info(*args, **kwargs)

    def timed_sampler(model, scenario):
        return TimedSampler(sampler_cls(model, scenario), tracer)

    swaps = [
        (calibration, "simulate_run_lengths", simulate_run_lengths),
        (calibration, "estimate_arl", estimate_arl),
        (tuning, "solve_mgf_root", solve_mgf_root),
        (experiments, "info_number", info_number),
        (experiments, "MixtureStreamSampler", timed_sampler),
        (detectors, "lalpha_increment",
         _leaf_wrapper(tracer, INCREMENT, detectors.lalpha_increment)),
        (detectors, "glr_recursive_stat",
         _leaf_wrapper(tracer, RECURSIVE_STAT, detectors.glr_recursive_stat)),
        (detectors, "glr_scan_stat",
         _leaf_wrapper(tracer, SCAN_STAT, detectors.glr_scan_stat)),
        (tuning, "lalpha_increment",
         _leaf_wrapper(tracer, TUNING_INCREMENT, tuning.lalpha_increment)),
    ]
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    try:
        for mod, name, wrapper in swaps:
            setattr(mod, name, wrapper)
        yield
    finally:
        for mod, name, original in originals:
            setattr(mod, name, original)
