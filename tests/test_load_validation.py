"""A validating load checks each axiom family once, and names the first failure."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from entwine.errors import BowTieError, ValidationError
from entwine.zoo import load, named_example

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (module to resolve it from, function): each axiom family's validator
VALIDATORS = [
    ("structures", "validate_algebra"),
    ("structures", "validate_coalgebra"),
    ("zoo", "validate_bialgebra"),
    ("zoo", "validate_antipode"),
    ("entwining", "check_bowtie"),
]


@pytest.fixture
def validator_calls(monkeypatch):
    """Count calls of each validator through every entwine module that binds it."""
    counts = {}
    for modname, attr in VALIDATORS:
        original = getattr(importlib.import_module(f"entwine.{modname}"), attr)
        counts[attr] = 0

        def wrapper(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "entwine":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    return counts


def test_hopf_file_validates_each_family_once(validator_calls):
    load(FIXTURES / "sweedler.json")
    assert validator_calls == dict.fromkeys(validator_calls, 1)


def test_named_hopf_example_validates_each_family_once(validator_calls):
    named_example("sweedler")
    assert validator_calls == dict.fromkeys(validator_calls, 1)


def test_plain_file_validates_each_family_once(validator_calls):
    load(FIXTURES / "graded-z2.json")
    assert validator_calls == {
        "validate_algebra": 1,
        "validate_coalgebra": 1,
        "validate_bialgebra": 0,
        "validate_antipode": 0,
        "check_bowtie": 1,
    }


def test_unchecked_load_validates_nothing(validator_calls):
    load(FIXTURES / "sweedler.json", validate=False)
    assert validator_calls == dict.fromkeys(validator_calls, 0)


def _set_mult(doc, i, j, k, coeff):
    mult = [t for t in doc["algebra"]["mult"] if t[:2] != [i, j]]
    doc["algebra"]["mult"] = mult + [[i, j, k, coeff]]


# (fixture, edit, error class, message); the messages name the first failing
# family in the order algebra, coalgebra, bialgebra, antipode, bow-tie
INVALID = {
    "associativity": (
        "z3.json",
        lambda d: _set_mult(d, 1, 1, 0, "1"),
        ValidationError,
        "algebra(dim=3): FAILED associativity at ('g', 'g', 'g2')",
    ),
    "coassociativity": (
        "trivial-z2.json",
        lambda d: d["coalgebra"]["comult"].append([1, 0, 1, "1"]),
        ValidationError,
        "coalgebra(dim=2): FAILED coassociativity at ('g',); left counit at ('g',); "
        "right counit at ('g',)",
    ),
    "counit": (
        "trivial-z2.json",
        lambda d: d["coalgebra"].__setitem__("counit", ["1", "0"]),
        ValidationError,
        "coalgebra(dim=2): FAILED left counit at ('g',); right counit at ('g',)",
    ),
    "bialgebra compatibility": (
        "z2.json",
        lambda d: _set_mult(d, 1, 1, 0, "-1"),
        ValidationError,
        "bialgebra: FAILED comultiplication is an algebra map; counit is an algebra map",
    ),
    "antipode": (
        "z2.json",
        lambda d: d["hopf"].__setitem__("antipode", [[0, 0, "1"], [1, 1, "2"]]),
        ValidationError,
        "antipode: FAILED left antipode axiom; right antipode axiom",
    ),
    "bow-tie": (
        "graded-z2.json",
        lambda d: d["psi"].__setitem__(0, [0, 0, "2"]),
        BowTieError,
        "bow-tie: FAILED left pentagon at ('1', '1', '1'); left triangle at ('1',); "
        "right pentagon at ('1', '1'); right triangle at ('1', '1')",
    ),
    "bow-tie, Hopf file": (
        "z2.json",
        lambda d: d["psi"].__setitem__(1, [1, 2, "-1"]),
        BowTieError,
        "bow-tie: FAILED left pentagon at ('1', 'g', '1'); left triangle at ('g',); "
        "right pentagon at ('g', '1'); right triangle at ('g', '1')",
    ),
}


@pytest.mark.parametrize("family", INVALID)
def test_invalid_file_names_first_failing_family(family, tmp_path):
    fixture, edit, error, message = INVALID[family]
    doc = json.loads((FIXTURES / fixture).read_text())
    edit(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        load(path)
    assert type(info.value) is error
    assert str(info.value) == message
