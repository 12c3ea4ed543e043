"""Benchmark worker: one single-threaded process that calls entwine.cli.main.

    worker.py setup   --workload W --seed N
    worker.py measure --workload W --seed N --seconds S --trace 0|1 --out PATH [--smoke]

``setup`` imports entwine and writes the workload's seeded inputs; run.py
times the whole process (interpreter start included).  ``measure`` runs the
workload's jobs in passes, in a closed loop, until the next pass would
overrun --seconds (at least two passes, so every report is compared byte for
byte with a second run of the same job), checks every report with the gate,
and writes the result as JSON to --out.  With --trace 1, the first half of the
time runs untraced passes and the second half traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import time
import traceback

import numpy
import scipy

from entwine import cli

import gen
from gate import WORK_DIR, Gate, load_expected
from tracing import Tracer
from workloads import COMMANDS, jobs_for, stems_for

INPUT_DIR = os.path.join(WORK_DIR, "inputs")
REPORT_DIR = os.path.join(WORK_DIR, "reports")


def setup(args):
    gen.write_inputs(args.seed, INPUT_DIR, names=stems_for(jobs_for(args.workload, args.smoke)))


class Runner:
    """Runs passes over one job list and gates every job."""

    def __init__(self, jobs, seed):
        self.jobs = jobs
        self.seed = seed
        self.gate = Gate(load_expected())
        self.attempted = 0
        self.failures = []
        os.makedirs(REPORT_DIR, exist_ok=True)

    def run_pass(self, tracer=None) -> dict:
        """One pass; returns its wall time and per-command and per-job times."""
        per_job = []
        for k, job in enumerate(self.jobs):
            out = os.path.join(REPORT_DIR, f"{k}.json")
            if os.path.exists(out):
                os.remove(out)
            argv = [job.command, os.path.join(INPUT_DIR, f"{job.stem}.json"), *job.args,
                    "--seed", str(self.seed), "--json", out]
            if tracer is not None:
                tracer.current_job = self.attempted
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed job, not a failed benchmark
                    traceback.print_exc()
                    code = -1
                elapsed = time.perf_counter() - t0
            report = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    report = fh.read()
            self.attempted += 1
            problems = self.gate.check(job, code, report)
            if problems:
                self.failures.append({"job": job.id, "problems": problems})
            per_job.append(elapsed)
        by_command = {c: 0.0 for c in COMMANDS}
        for job, elapsed in zip(self.jobs, per_job):
            by_command[job.command] += elapsed
        return {"wall_s": sum(per_job), "by_command": by_command, "per_job": per_job}

    def run_for(self, seconds, min_passes, tracer=None) -> list:
        """Passes until the next one would end past `seconds`, at least min_passes."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            elapsed = time.perf_counter() - start
            longest = max(p["wall_s"] for p in passes)
            if len(passes) >= min_passes and elapsed + longest > seconds:
                return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(args):
    runner = Runner(jobs_for(args.workload, args.smoke), args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = runner.run_for(budget, 1 if args.trace else 2)
    metrics = {
        "wall_s": median_of(plain, "wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for command in COMMANDS:
        metrics[f"{command}_s"] = statistics.median(p["by_command"][command] for p in plain)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_for(budget, 1, tracer)
        finally:
            tracer.uninstall()
        metrics.update(tracer.metrics(len(traced)))
        metrics["tracing.overhead_s"] = median_of(traced, "wall_s") - metrics["wall_s"]
        tracer.dump(os.path.splitext(args.out)[0] + "-spans.npz")
    metrics["failed_frac"] = len(runner.failures) / runner.attempted

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        },
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "jobs": [job.id for job in runner.jobs],
        "digests": runner.gate.digests,
        "passes": plain,
        "traced_passes": traced,
        "metrics": metrics,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
