"""CLI reports compared byte for byte with stored copies in tests/golden/.

The stored reports are the refactoring gate: a change that is meant to keep
every answer must keep these bytes.  Regenerate them only for an intended
report change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from entwine.cli import main
from entwine.entwining import bicomodule_on_C_An
from entwine.zoo import load, save_coefficients

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

# fixture copies with one entry edited, as (fixture, edit of the parsed file)
EDITED = {
    # Delta(x) = g (x) x + 2 x (x) 1: coassociativity and the right counit fail at x
    "verify-sweedler-broken-comult": (
        "sweedler.json",
        lambda doc: doc["coalgebra"]["comult"].__setitem__(3, [2, 2, 0, "2"]),
    ),
}
CASES.update({name: ["verify", fixture] for name, (fixture, _) in EDITED.items()})

# side-C coefficients that are not the regular bicomodule: C (x) A, saved to a temporary
# coefficients file and passed as --values file:PATH
TOWER = {f"cohom-C-{name}-tower-1": name for name in ("graded-z2", "sweedler", "trivial-z2")}
CASES.update(
    {case: ["cohom", f"{name}.json", "--side", "C", "--max-degree", "3"] for case, name in TOWER.items()}
)


def write_report(name, out):
    command, path, *rest = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = FIXTURES / path
        if name in EDITED:
            doc = json.loads(path.read_text())
            EDITED[name][1](doc)
            path = Path(tmp) / path.name
            path.write_text(json.dumps(doc))
        if name in TOWER:
            values = Path(tmp) / "tower.json"
            save_coefficients(bicomodule_on_C_An(load(path), 1), values, "C")
            rest = [*rest, "--values", f"file:{values}"]
        main([command, str(path), *rest, "--json", str(out)])


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
