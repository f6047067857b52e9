"""lacusum benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload calibrate --seed 7 --seconds 22 --trace 0

Run from the root of a lacusum checkout; the library is imported from
./src.  The workload runs in a fresh worker process (see worker.py), so
its peak resident memory is its own; set-up is timed in that worker and in
four more processes that only set up, and the median is reported.  Every
line but the last is for people; the last is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics declared in BENCHMARK.json, --trace 1 the per-layer ones.  See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("calibrate", "tune", "delay", "monitor")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return lines, json.loads(lines[-1]) if lines else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "lacusum", "__init__.py")):
        return fail(f"no lacusum sources under {os.path.join(ROOT, 'src')}; "
                    "run from a lacusum checkout")

    started = time.monotonic()
    env = child_env()
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            done = subprocess.run(base + ["--setup-only"], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=60, check=True)
            setups.append(last_json(done.stdout)[1]["setup_s"])
        remaining = DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(base + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=True)
    except subprocess.TimeoutExpired as exc:
        return fail(f"worker did not finish within its deadline: {exc}")
    except subprocess.CalledProcessError as exc:
        if exc.stderr:
            sys.stderr.write(exc.stderr)
        return fail(f"worker exited with status {exc.returncode}")

    lines, result = last_json(done.stdout)
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    missing = declared_metrics(args.trace) ^ set(metrics)
    if missing:
        return fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for line in lines[:-1]:
        print(line)
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
