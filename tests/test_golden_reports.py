"""CLI reports compared byte for byte with stored copies in tests/golden/.

The stored reports are the refactoring gate: a change that is meant to keep
every answer must keep these bytes.  Regenerate them only for an intended
report change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import sys
from pathlib import Path

import pytest

from entwine.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {f"verify-{p.stem}": ["verify", p.name] for p in sorted(FIXTURES.glob("*.json"))}
CASES.update(
    {
        f"cohom-{side}-{name}": ["cohom", f"{name}.json", "--side", side]
        for name in ("z2", "graded-z2")
        for side in ("A", "C")
    }
)
CASES.update(
    {
        f"cohom-{side}-{name}": ["cohom", f"{name}.json", "--side", side, "--max-degree", "4"]
        for name in ("sweedler", "z3", "trivial-z2")
        for side in ("A", "C")
    }
)
CASES.update(
    {
        f"cup-{m}-{n}-{name}": ["cup", f"{name}.json", "--deg", m, n]
        for name, m, n in (
            ("z2", "0", "1"), ("z2", "1", "1"), ("z3", "0", "1"), ("z3", "1", "1"), ("sweedler", "0", "1"),
            # these four have class pairs, so they pin cup_class and sqcup_class coordinates
            ("graded-z2", "0", "1"), ("graded-z2", "1", "1"), ("graded-z2", "1", "2"), ("trivial-z2", "0", "0"),
        )
    }
)
CASES["equivariant-2-z2"] = ["equivariant", "z2.json", "--max-degree", "2"]
CASES.update({f"deform-{name}": ["deform", f"{name}.json"] for name in ("z2", "trivial-z2")})


def write_report(name, out):
    command, path, *rest = CASES[name]
    main([command, str(FIXTURES / path), *rest, "--json", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / "report.json"
    write_report(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        write_report(case, GOLDEN / f"{case}.json")
