"""Structured reports for the command-line front end.

A report is a plain dict with schema tag "entwine-report/1".  The JSON form
is byte-deterministic for a fixed input and seed: key order is fixed at
construction, and wall-clock timing is only ever printed to the human stream,
never stored in the report.
"""

from __future__ import annotations

import json


SCHEMA = "entwine-report/1"


def new_report(command: str, structure_summary: dict | None, seed: int) -> dict:
    return {
        "format": SCHEMA,
        "command": command,
        "structure": structure_summary or {},
        "seed": seed,
        "checks": [],
        "tables": {},
    }


def add_check(report: dict, name: str, passed: bool, detail: str = ""):
    report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})


def add_table(report: dict, name: str, rows):
    report["tables"][name] = rows


def all_passed(report: dict) -> bool:
    return all(c["passed"] for c in report["checks"])


def write_json(report: dict, path):
    text = json.dumps(report, indent=1, sort_keys=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)  # one write: json.dump with indent writes chunk by chunk


def render_text(report: dict, elapsed: float):
    print(f"== {report['command']} ==")
    if report["structure"]:
        summary = ", ".join(f"{k}={v}" for k, v in report["structure"].items())
        print(f"structure: {summary}")
    for name, rows in report["tables"].items():
        print(f"-- {name} --")
        if isinstance(rows, dict):
            for k, v in rows.items():
                print(f"  {k}: {v}")
        else:
            for row in rows:
                print(f"  {row}")
    for check in report["checks"]:
        mark = "pass" if check["passed"] else "FAIL"
        detail = f"  ({check['detail']})" if check["detail"] else ""
        print(f"[{mark}] {check['name']}{detail}")
    verdict = "all checks passed" if all_passed(report) else "CHECKS FAILED"
    print(verdict)
    print(f"(elapsed {elapsed:.2f}s)")
