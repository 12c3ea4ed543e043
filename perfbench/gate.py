"""Output gate: a job fails unless its report matches the expected table.

A job fails when
  - its exit code differs from the expected one (0, or 1 for corrupted-psi verify);
  - a basis-invariant report field differs from expected.json: the structure
    summary, every table except the class coordinates of cup products (space
    and subcomplex dimensions, betti numbers, class counts, the degree-2
    classification), the residual flag of each product row, and the name and
    pass flag of each check;
  - its entwine-report/1 bytes differ from the same job's bytes in an earlier
    pass of the same run.

expected.json is computed once in the standard basis; the seeded basis change
leaves every field above unchanged, so it covers every seed.  Regenerate it with

    PYTHONPATH=src python3 perfbench/gate.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# scratch space of the benchmark, at the checkout root (ignored by git)
WORK_DIR = os.path.join(os.path.dirname(HERE), ".perfbench")


def invariant_fields(report: dict) -> dict:
    tables = {}
    for name, rows in report["tables"].items():
        if name == "products on classes":
            # class coordinates depend on the basis; the row count and residuals do not
            tables[name] = [row["residual_vanishes"] for row in rows]
        else:
            tables[name] = rows
    return {
        "command": report["command"],
        "structure": report["structure"],
        "tables": tables,
        "checks": [[c["name"], c["passed"]] for c in report["checks"]],
    }


class Gate:
    """Checks each job run against expected.json and its own earlier passes."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.digests: dict[str, str] = {}

    def check(self, job, exit_code: int, report_bytes: bytes) -> list[str]:
        problems = []
        if exit_code != job.exit_code:
            problems.append(f"exit code {exit_code}, expected {job.exit_code}")
        digest = hashlib.sha256(report_bytes).hexdigest()
        first = self.digests.setdefault(job.id, digest)
        if digest != first:
            problems.append("report bytes differ from an earlier pass")
        try:
            fields = invariant_fields(json.loads(report_bytes))
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable report: {exc!r}"]
        want = self.expected.get(job.id)
        if want is None:
            problems.append("no expected entry")
        elif fields != want:
            for key in want:
                if fields.get(key) != want[key]:
                    problems.append(f"{key} differs: {fields.get(key)!r} != {want[key]!r}")
        return problems


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def write_expected():
    """Run every job once in the standard basis and store its invariant fields."""
    from entwine import cli, zoo

    from gen import STRUCTURES
    from workloads import WORKLOADS

    table = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for jobs in WORKLOADS.values():
            for job in jobs:
                path = os.path.join(tmp, f"{job.stem}.json")
                if not os.path.exists(path):
                    zoo.save(STRUCTURES[job.stem](), path)
                out = os.path.join(tmp, "report.json")
                argv = [job.command, path, *job.args, "--json", out]
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
                if code != job.exit_code:
                    raise SystemExit(f"{job.id}: exit code {code}, expected {job.exit_code}")
                with open(out) as fh:
                    table[job.id] = invariant_fields(json.load(fh))
                print(f"{job.id}: ok", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    write_expected()
