"""Run one workload in a fresh process and print its measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`run.py` starts this once per run, plus a few `--setup-only` copies that
time set-up alone.  Units of the workload are repeated, each with its own
seed derived from --seed, while at least half of the next one would fit in
--seconds (at least one runs), so a run ends as near --seconds as whole
units allow.

With --trace 1 each unit runs twice with the same seed, first untraced and
then inside `spans.patched`; the per-layer numbers come from the traced
copy, the overhead is the difference in wall time, and the two copies must
give identical digests.  Spans and the per-evaluation calibration record
are written to perfbench/out/ at the end.

The last stdout line is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MONITOR = workloads.WORKLOADS["monitor"]


def run_units(wl, inputs, seconds, traced):
    """Units while half of the next fits in `seconds`.

    Returns the untraced wall times and results, the traced copies with
    their wall times, the tracer, and the kernel time and minor page faults
    of the untraced units.
    """
    start = time.perf_counter()
    walls, results, copies = [], [], []
    tracer = spans.Tracer() if traced else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    system_s = minflt = 0
    i = 0
    while True:
        t = time.perf_counter()
        results.append(wl.unit(inputs, i))
        walls.append(time.perf_counter() - t)
        after = resource.getrusage(resource.RUSAGE_SELF)
        system_s += after.ru_stime - before.ru_stime
        minflt += after.ru_minflt - before.ru_minflt
        if traced:
            with spans.patched(tracer):
                with tracer.span("unit", workload=wl.name, index=i):
                    t = time.perf_counter()
                    copies.append((wl.unit(inputs, i, tracer), time.perf_counter() - t))
        before = resource.getrusage(resource.RUSAGE_SELF)
        i += 1
        per_unit = (time.perf_counter() - start) / i
        if time.perf_counter() - start + per_unit / 2 > seconds:
            return walls, results, copies, tracer, {"process.system_s": (system_s / i, "s"),
                                                    "process.minor_faults": (minflt / i, "count")}


def step_latencies(monitor_passes):
    """p50 and p99 step latency (us) per scheme, and the sample counts.

    Each percentile is taken within one pass (at least 1000 samples, so at
    least 10 lie beyond the p99) and the median over passes is kept, so one
    pass that caught a stall does not set the figure.
    """
    out, counts = {}, {}
    for name in MONITOR.steps:
        per_pass = [r[name]["latency_ns"] / 1000.0 for r in monitor_passes]
        counts[name] = f"{len(per_pass)}x{per_pass[0].size}"
        for q in (50, 99):
            out[f"detectors.step_p{q}_us.{name}"] = statistics.median(
                float(np.percentile(lat, q)) for lat in per_pass)
    return out, counts


def ratio(num, den):
    """num / den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0


def layer_metrics(wl, tracer, copies, walls, latencies):
    """Per-layer numbers, per traced unit of the workload.

    The step latencies come from the untraced monitor passes, since tracing
    adds to every step.
    """
    units = len(copies)
    t = tracer
    engine_s = t.span_seconds(spans.ENGINE)
    draw_calls, draw_s = t.leaf_totals(spans.DRAW)
    _, draw_engine_s = t.leaf_totals(spans.DRAW, spans.ENGINE)
    _, inc_engine_s = t.leaf_totals(spans.INCREMENT, spans.ENGINE)
    engines = t.named(spans.ENGINE)
    rep_steps = sum(s["replicate_steps"] for s in engines)
    evals = t.named(spans.EVALUATION)
    eval_steps = sum(s["replicate_steps"] for s in evals)
    final_steps = 0
    for unit in t.named("unit"):
        mine = t.children(unit, spans.EVALUATION)
        if mine:
            final_steps += mine[-1]["replicate_steps"]
    root_s = t.span_seconds(spans.ROOT)
    _, tinc_s = t.leaf_totals(spans.TUNING_INCREMENT)
    _, tinc_grid_s = t.leaf_totals(spans.TUNING_INCREMENT, "tuning.tuning_grid")
    grid_s = t.span_seconds("tuning.tuning_grid")
    grid_self_s = grid_s - root_s - tinc_grid_s if grid_s else 0.0
    traced_walls = [w for _, w in copies]
    overheads = [tw - w for tw, w in zip(traced_walls, walls)]

    steps = {name: sum(s["steps"] for s in t.named(f"monitor.{name}")) for name in MONITOR.steps}
    chan1_calls, chan1_s = t.leaf_totals(spans.RECURSIVE_STAT, "monitor.chan1")
    xs_calls, xs_s = t.leaf_totals(spans.SCAN_STAT, "monitor.xs")
    _, soft_inc_s = t.leaf_totals(spans.INCREMENT, "monitor.soft")
    cells = [len(r) for r, _ in copies] if wl.name == "delay" else [0]
    errors = [sum(row.error is not None for row in r) for r, _ in copies] \
        if wl.name == "delay" else [0]

    latency_metrics = {k: (latencies.get(k, 0.0), "us") for k in
                       (f"detectors.step_p{q}_us.{n}" for q in (50, 99) for n in MONITOR.steps)}
    return {
        **latency_metrics,
        "models.draw_calls": (draw_calls / units, "count"),
        "models.draw_s": (draw_s / units, "s"),
        "models.obs_drawn": (t.counters.get("models.obs_drawn", 0) / units, "count"),
        "models.steps_drawn": (t.counters.get("models.steps_drawn", 0) / units, "count"),
        "models.draw_share_of_engine": (ratio(draw_engine_s, engine_s), "ratio"),
        "detectors.engine_s": (engine_s / units, "s"),
        "detectors.increment_s": (inc_engine_s / units, "s"),
        "detectors.kernel_self_s": ((engine_s - draw_engine_s - inc_engine_s) / units, "s"),
        "detectors.replicate_steps": (rep_steps / units, "count"),
        "detectors.censored": (sum(s["censored"] for s in engines) / units, "count"),
        "detectors.steps_used_per_drawn":
            (ratio(rep_steps, t.counters.get("models.steps_drawn", 0)), "ratio"),
        "detectors.stat_calls_per_step.chan1": (ratio(chan1_calls, steps["chan1"]), "count"),
        "detectors.stat_calls_per_step.xs": (ratio(xs_calls, steps["xs"]), "count"),
        "detectors.stat_us_per_step.chan1": (ratio(chan1_s * 1e6, steps["chan1"]), "us"),
        "detectors.stat_us_per_step.xs": (ratio(xs_s * 1e6, steps["xs"]), "us"),
        "detectors.increment_us_per_step.soft": (ratio(soft_inc_s * 1e6, steps["soft"]), "us"),
        "calibration.evaluations": (len(evals) / units, "count"),
        "calibration.replicate_steps": (eval_steps / units, "count"),
        "calibration.censored_steps":
            (sum(s["censored_steps"] for s in evals) / units, "count"),
        "calibration.final_step_share": (ratio(final_steps, eval_steps), "ratio"),
        "calibration.eval_s": (t.span_seconds(spans.EVALUATION) / units, "s"),
        "tuning.root_calls": (len(t.named(spans.ROOT)) / units, "count"),
        "tuning.root_s": (root_s / units, "s"),
        "tuning.root_share_of_wall": (ratio(root_s, sum(traced_walls)), "ratio"),
        "tuning.increment_s": (tinc_s / units, "s"),
        "tuning.grid_self_s": (grid_self_s / units, "s"),
        "experiments.cells": (statistics.mean(cells), "count"),
        "experiments.error_cells": (statistics.mean(errors), "count"),
        "experiments.bound_ratio_s": (t.span_seconds(spans.INFO) / units, "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.overhead_share": (statistics.median(overheads) / statistics.median(walls),
                                 "ratio"),
    }


def length_digests(wl, tracer):
    """Digests of the captured run lengths, one per traced unit.

    calibrate: the final evaluation's replicates; delay: every cell in order.
    """
    out = []
    for unit in tracer.named("unit"):
        parent = unit
        if wl.name == "calibrate":
            parent = tracer.children(unit, spans.EVALUATION)[-1]
        engines = tracer.children(parent, spans.ENGINE)
        out.append(workloads.digest(*(tracer.lengths[s["id"]] for s in engines)))
    return out


def write_trace(wl, seed, tracer):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{seed}")
    tracer.write(stem + "-spans.jsonl")
    evals = tracer.named(spans.EVALUATION)
    if evals:
        with open(stem + "-evaluations.jsonl", "w") as f:
            for s in evals:
                f.write(json.dumps({
                    "b": s["b"], "replicates": s["reps"], "cap": s["cap"],
                    "mean": s["mean"], "se": s["se"], "censored": s["censored"],
                    "replicate_steps": s["replicate_steps"], "seconds": s["seconds"],
                }) + "\n")
    return stem


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import scipy
    print(f"env python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} threads=1")
    traced = bool(args.trace)
    walls, results, copies, tracer, kernel = run_units(wl, inputs, args.seconds, traced)

    attempted, failures = 0, []
    checks = [wl.check(r) for r in results]
    if wl is MONITOR:
        checks.append(MONITOR.check_alarms(inputs))
    for n, f in checks:
        attempted += n
        failures += f

    digests = [wl.digest(r) for r in results]
    print(f"digest {wl.name} outputs: {' '.join(digests)}")
    if traced:
        traced_digests = [wl.digest(r) for r, _ in copies]
        attempted += 1
        if traced_digests != digests:
            failures.append(f"traced digests {traced_digests} differ from untraced")
        if wl.name in ("calibrate", "delay"):
            print(f"digest {wl.name} run lengths: {' '.join(length_digests(wl, tracer))}")
        stem = os.path.relpath(write_trace(wl, args.seed, tracer), ROOT)
        print(f"trace written to {stem}-*.jsonl")
    for f in failures:
        print(f"FAILED {f}")

    print(f"units {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))
    latencies = {}
    if wl is MONITOR:
        latencies, counts = step_latencies(results)
        print("step samples (passes x steps) "
              + " ".join(f"{k}={v}" for k, v in counts.items()))
        print("step latency us " + " ".join(f"{k.split('.', 1)[1]}={v:.2f}"
                                            for k, v in latencies.items()))
    if traced:
        metrics = {**layer_metrics(wl, tracer, copies, walls, latencies), **kernel}
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "setup_s": setup_s, "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
