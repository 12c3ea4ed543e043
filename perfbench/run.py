"""Seeded benchmark of entwine's CLI jobs.

    python3 perfbench/run.py --workload cohom-ladder --seed 1 --seconds 52 --trace 0

Run from the root of a checkout; entwine is imported from ./src.  Workloads
(see workloads.py): cohom-ladder, cochain-algebra.

One run:
  1. set-up, SETUP_REPEATS times: a fresh interpreter imports entwine and
     writes the workload's seeded input files (gen.py); setup_s is the median
     wall time of those processes;
  2. one worker process (single-threaded: OMP/OPENBLAS threads = 1) runs the
     workload's jobs in passes for --seconds and gates every report (gate.py);
  3. prints one line of run information, then the result as the last line:
     {"correct", "attempted", "failed", "metrics"}, with the end_to_end
     metrics of BENCHMARK.json for --trace 0 and its per_layer metrics for
     --trace 1 (a traced run, tracing.py).

Everything the run writes goes under .perfbench/ in the checkout.  Exits 1
without a result line when entwine's sources are missing or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from gate import WORK_DIR
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 20
MEASURE_GRACE_S = 60   # past --seconds: the last pass, trace analysis, writing spans


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def worker(args, mode, extra=(), timeout=None) -> float:
    """Run worker.py in a fresh interpreter; returns its wall time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    # run() kills the child on timeout and waits for it
    subprocess.run(cmd, env=worker_env(), cwd=ROOT, check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="the tiny job slice of the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "entwine", "cli.py")):
        print("error: entwine sources not found under src/", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(os.path.join(WORK_DIR, "out"), exist_ok=True)
    out = os.path.join(WORK_DIR, "out", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    try:
        setups = [worker(args, "setup", timeout=SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
        worker(args, "measure", ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
               timeout=args.seconds + MEASURE_GRACE_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(out) as fh:
        result = json.load(fh)
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"failed: {failure['job']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(result["passes"]), "traced_passes": len(result["traced_passes"]),
        "jobs_per_pass": len(result["jobs"]), "env": result["env"], "result_file": os.path.relpath(out, ROOT),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
