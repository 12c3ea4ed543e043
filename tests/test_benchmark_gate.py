"""Every benchmark job passes the benchmark's output gate.

The seed-1 inputs are written into a temporary directory and every job of
both workloads runs twice through cli.main, so the gate compares each report
with perfbench/expected.json and with its own second run.  Nothing under
perfbench/ is written.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from entwine import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


gate, gen, workloads = (_load(name) for name in ("gate", "gen", "workloads"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_passes_the_gate(tmp_path, workload):
    jobs = workloads.WORKLOADS[workload]
    gen.write_inputs(1, str(tmp_path), workloads.stems_for(jobs))
    checker = gate.Gate(gate.load_expected())
    problems = []
    for _ in range(2):
        for job in jobs:
            out = tmp_path / "report.json"
            out.unlink(missing_ok=True)
            argv = [job.command, str(tmp_path / f"{job.stem}.json"), *job.args, "--seed", "1", "--json", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            report = out.read_bytes() if out.exists() else b""
            problems += [f"{job.id}: {p}" for p in checker.check(job, code, report)]
    assert problems == []
