"""Rendering and writing of a command's CheckReport (subject: the command).

The JSON form, schema tag "entwine-report/1", adds the structure summary and
the seed to the report's checks and tables.  It is byte-deterministic for a
fixed input and seed: key order is fixed here, and wall-clock timing is only
ever printed to the human stream, never stored in the report.
"""

from __future__ import annotations

import json

from .structures import CheckReport

SCHEMA = "entwine-report/1"


def write_json(report: CheckReport, structure: dict, seed: int, path):
    checks = [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in report.items]
    document = {"format": SCHEMA, "command": report.subject, "structure": structure, "seed": seed,
                "checks": checks, "tables": report.tables}
    text = json.dumps(document, indent=1, sort_keys=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)  # one write: json.dump with indent writes chunk by chunk


def render_text(report: CheckReport, structure: dict, elapsed: float):
    print(f"== {report.subject} ==")
    if structure:
        summary = ", ".join(f"{k}={v}" for k, v in structure.items())
        print(f"structure: {summary}")
    for name, rows in report.tables.items():
        print(f"-- {name} --")
        if isinstance(rows, dict):
            for k, v in rows.items():
                print(f"  {k}: {v}")
        else:
            for row in rows:
                print(f"  {row}")
    for name, ok, detail in report.items:
        print(f"[{'pass' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    print("all checks passed" if report.ok else "CHECKS FAILED")
    print(f"(elapsed {elapsed:.2f}s)")
