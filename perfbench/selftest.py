"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A seeded basis change of kZ3 (self-entwined) and of graded-z2 loads with
   validation and keeps its betti tables on both sides; corrupted-psi stays
   broken under the change.
2. Each workload runs on its smoke slice (run.py --smoke, traced) and reports
   failed_frac == 0.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from entwine import zoo  # noqa: E402
from entwine.complexes import build_ApsiCV, build_CpsiAM, cohomology  # noqa: E402
from entwine.errors import BowTieError  # noqa: E402
from entwine.structures import regular_bicomodule, regular_bimodule  # noqa: E402

import gen  # noqa: E402
from gate import WORK_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def betti_table(e, n_max=3):
    cx_a = build_CpsiAM(e, regular_bimodule(e.algebra), n_max)
    cx_c = build_ApsiCV(e, regular_bicomodule(e.coalgebra), n_max)
    return [[cohomology(cx, n).betti for n in range(n_max)] for cx in (cx_a, cx_c)]


def changed(e, seed, path):
    zoo.save(e, path)
    with open(path) as fh:
        doc = json.load(fh)
    new = gen.change_basis(doc, random.Random(seed))
    with open(path, "w") as fh:
        json.dump(new, fh)
    return doc, new


def check_basis_change():
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, "selftest.json")
    cases = {
        "kz3": zoo.bialgebra_self_entwining(zoo.group_algebra_hopf(3)),
        "graded-z2": zoo.named_example("graded-z2"),
    }
    for name, e in cases.items():
        want = betti_table(e)
        for seed in range(3):
            doc, new = changed(e, seed, path)
            if new == doc:
                raise SystemExit(f"{name} seed {seed}: basis change left the file unchanged")
            got = betti_table(zoo.load(path, validate=True))
            if got != want:
                raise SystemExit(f"{name} seed {seed}: betti {got} != {want}")
        print(f"ok: {name} keeps betti {want} under 3 seeded basis changes")
    for seed in range(3):
        changed(zoo.named_example("corrupted-psi"), seed, path)
        try:
            zoo.load(path, validate=True)
        except BowTieError:
            continue
        raise SystemExit(f"corrupted-psi seed {seed}: loads after the basis change")
    print("ok: corrupted-psi stays broken under 3 seeded basis changes")
    os.remove(path)


def check_smoke_runs():
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise SystemExit(f"{workload}: run.py exited {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        frac = result["metrics"]["failed_frac"]["value"]
        if result["failed"] or frac != 0:
            raise SystemExit(f"{workload}: failed_frac {frac}\n{out.stderr}")
        print(f"ok: {workload} smoke slice, {result['attempted']} jobs, failed_frac 0")


if __name__ == "__main__":
    check_basis_change()
    check_smoke_runs()
