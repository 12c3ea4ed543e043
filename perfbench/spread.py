"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload cohom-ladder --seeds 1-10 [--log PATH]
    python3 perfbench/spread.py --compare OLD.jsonl NEW.jsonl

The first form runs run.py once per seed (sequentially, --trace 0, the
benchmark's run_seconds), appends each result line to the log (default
.perfbench/spread-<workload>.jsonl) and prints, per metric, the median and
the quartile spread (Q3 - Q1) / median, from statistics.quantiles(n=4).  A
spread should stay below a third of the metric's bound.  --compare prints,
per workload and metric, how far NEW's median moved from OLD's as a share of
OLD's median, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def read_log(path) -> dict:
    """workload -> metric -> values"""
    out = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            for name, m in row["result"]["metrics"].items():
                out.setdefault(row["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run_seeds(args):
    bench = spec()
    log = args.log or os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, "correct" if result["correct"] else "INCORRECT")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, values in read_log(log)[args.workload].items():
        med, iqr = spread(values)
        flag = "ok" if iqr < bounds[name] / 3 else "WIDE"
        print(f"{name:14s} n={len(values):2d} median={med:.4f} spread={iqr:.3f} bound={bounds[name]} {flag}")


def compare(old_path, new_path):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    old, new = read_log(old_path), read_log(new_path)
    for workload in sorted(old.keys() & new.keys()):
        for name in sorted(old[workload].keys() & new[workload].keys()):
            a, b = statistics.median(old[workload][name]), statistics.median(new[workload][name])
            drift = (b - a) / a
            flag = "ok" if drift <= bounds[name] else "WORSE"
            print(f"{workload:17s} {name:14s} {a:.4f} -> {b:.4f} ({drift:+.3f}, bound {bounds[name]}) {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--log")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        run_seeds(args)


if __name__ == "__main__":
    main()
