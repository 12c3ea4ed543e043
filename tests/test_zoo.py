"""Example constructors, Hopf data, translation maps, and serialization."""

import json
import re

import pytest

from entwine.entwining import EntwiningStructure, check_bowtie
from entwine.errors import BowTieError, PreconditionError, StructureParseError, ValidationError
from entwine.linalg import QQ, FieldSpec, Mat
from entwine.structures import (
    FiniteCoalgebra,
    LinearMap,
    flip_map,
    validate_algebra,
    validate_coalgebra,
)
from entwine.zoo import (
    Bialgebra,
    bialgebra_self_entwining,
    comodule_algebra_entwining,
    corrupted_psi_entwining,
    group_algebra_hopf,
    load,
    named_example,
    save,
    sweedler_h4,
    translation_map,
    validate_antipode,
    validate_bialgebra,
    validate_comodule_algebra,
    z2_graded_algebra_entwining,
)


def test_sweedler_passes_all_validators():
    h = sweedler_h4()
    assert validate_algebra(h.algebra).ok
    assert validate_coalgebra(h.coalgebra).ok
    assert validate_bialgebra(h).ok
    assert validate_antipode(h).ok


def test_group_algebra_z2_is_kz2():
    h = group_algebra_hopf(2)
    assert h.algebra.basis_labels == ["1", "g"]
    assert h.algebra.mult.mat.entry(0, 3) == 1  # g.g = 1
    assert h.coalgebra.comult.mat.entry(3, 1) == 1  # Delta g = g (x) g
    assert h.antipode.mat == Mat.identity(QQ, 2)  # g^{-1} = g


def test_group_algebra_z3_antipode():
    h = group_algebra_hopf(3)
    assert h.antipode.mat.entry(2, 1) == 1  # S(g) = g^2


def test_sweedler_rejected_in_char_2():
    with pytest.raises(PreconditionError):
        sweedler_h4(FieldSpec.prime(2))


def test_group_algebra_warns_on_bad_characteristic():
    with pytest.warns(UserWarning):
        group_algebra_hopf(2, FieldSpec.prime(2))


def test_self_entwining_iff_bialgebra():
    # Delta g = 1 (x) g + g (x) 1 is a perfectly good coalgebra but not a
    # bialgebra with g^2 = 1, so the induced psi must fail the bow-tie.
    primitive = FiniteCoalgebra.from_structure_constants(
        QQ, ["1", "g"], [(0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1)], [1, 0]
    )
    assert validate_coalgebra(primitive).ok
    h = group_algebra_hopf(2)
    assert not validate_bialgebra(Bialgebra(h.algebra, primitive)).ok
    with pytest.raises(BowTieError):
        bialgebra_self_entwining(Bialgebra(h.algebra, primitive))


def test_comodule_algebra_via_delta_is_self_entwining():
    h = group_algebra_hopf(2)
    via_coaction = comodule_algebra_entwining(h, h.algebra, h.coalgebra.comult)
    assert via_coaction.psi == bialgebra_self_entwining(h).psi


def test_trivial_coaction_gives_flip():
    h = group_algebra_hopf(2)
    a = h.algebra
    # a |-> a (x) 1
    coaction = LinearMap(
        (2,), (2, 2), Mat.from_triples(QQ, 4, 2, [(0, 0, 1), (2, 1, 1)])
    )
    e = comodule_algebra_entwining(h, a, coaction)
    assert e.psi == flip_map(QQ, 2, 2)


def _graded_z2_coaction(triples):
    """A map k[x]/(x^2) -> k[x]/(x^2) (x) kZ2 by (row, column, value) triples; graded-z2's
    coaction 1 -> 1 (x) 1, x -> x (x) g is [(0, 0, 1), (3, 1, 1)]."""
    return LinearMap((2,), (2, 2), Mat.from_triples(QQ, 4, 2, triples))


def test_graded_z2_coaction_passes_comodule_algebra_checks():
    h, a = group_algebra_hopf(2), named_example("graded-z2").algebra
    report = validate_comodule_algebra(h, a, _graded_z2_coaction([(0, 0, 1), (3, 1, 1)]))
    assert report.items == [
        ("coaction coassociativity", True, ""),
        ("coaction counit", True, ""),
        ("coaction is an algebra map", True, ""),
        ("coaction of unit", True, ""),
    ]


@pytest.mark.parametrize(
    "triples, failures",
    [
        # x -> 2 x (x) g
        ([(0, 0, 1), (3, 1, 2)], [("coaction coassociativity", ("x",)), ("coaction counit", ("x",))]),
        # x -> 0
        ([(0, 0, 1)], [("coaction counit", ("x",))]),
        # 1 -> 0: the unit's domain is k, so its witness is the empty tuple
        (
            [(3, 1, 1)],
            [("coaction counit", ("1",)), ("coaction is an algebra map", ("1", "x")), ("coaction of unit", ())],
        ),
    ],
)
def test_comodule_algebra_mutants_fail_with_label_witnesses(triples, failures):
    h, a = group_algebra_hopf(2), named_example("graded-z2").algebra
    coaction = _graded_z2_coaction(triples)
    assert validate_comodule_algebra(h, a, coaction).failures == failures
    name, witness = failures[0]
    with pytest.raises(ValidationError, match=re.escape(f"{name} at {witness}")):
        comodule_algebra_entwining(h, a, coaction)


def test_graded_algebra_example_passes():
    e = z2_graded_algebra_entwining()
    assert check_bowtie(e.algebra, e.coalgebra, e.psi).ok


def test_translation_map_kz2():
    h = group_algebra_hopf(2)
    tau = translation_map(h)
    # tau(1) = 1 (x) 1, tau(g) = g (x) g
    assert tau.mat.entry(0, 0) == 1
    assert tau.mat.entry(3, 1) == 1
    assert tau.mat.nnz == 2


def test_translation_map_sweedler():
    tau = translation_map(sweedler_h4())
    # tau(x) = S(x)(x)1 + S(g)(x)x = -gx(x)1 + g(x)x
    col = [tau.mat.entry(i, 2) for i in range(16)]
    assert col[3 * 4 + 0] == -1  # gx (x) 1
    assert col[1 * 4 + 2] == 1  # g (x) x


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_translation_map_splits_on_every_hopf_example(field):
    # the two identities translation_map no longer checks, which the antipode
    # and counit axioms imply: c^(1) c^(2)_(0) (x) c^(2)_(1) = 1 (x) c and
    # a_(0) a_(1)^(1) (x) a_(1)^(2) = 1 (x) a
    from entwine.structures import compose, tensor

    hopfs = [named_example(name, field).hopf for name in ("z2", "z3", "sweedler")] + [group_algebra_hopf(5, field)]
    for h in hopfs:
        a, c, tau = h.algebra, h.coalgebra, translation_map(h)
        ida, idc = a.identity(), c.identity()
        cover = compose(compose(tensor(a.mult, idc), tensor(ida, c.comult)), tau)
        assert cover == tensor(a.unit_map(), idc)
        counit = compose(tensor(a.mult, ida), compose(tensor(ida, tau), c.comult))
        assert counit == tensor(a.unit_map(), ida)


def test_each_coefficient_text_is_parsed_once_per_section(monkeypatch, tmp_path):
    # entry sections parse each distinct text once, the unit and counit each
    # value, and Mat.from_triples takes the parsed Fractions as they are
    import entwine.linalg as linalg
    import entwine.zoo as zoo

    kz5, path = bialgebra_self_entwining(group_algebra_hopf(5)), tmp_path / "kz5.json"
    save(kz5, path)
    doc = json.loads(path.read_text())
    parsed, reparsed = [], []
    real = zoo.parse_coeff
    monkeypatch.setattr(zoo, "parse_coeff", lambda v: parsed.append(v) or real(v))
    monkeypatch.setattr(linalg, "parse_coeff", lambda v: reparsed.append(v) or real(v))
    e = load(path, validate=False)
    sections = [doc["algebra"]["mult"], doc["coalgebra"]["comult"], doc["psi"], doc["hopf"]["antipode"]]
    distinct = sum(len({entry[-1] for entry in section}) for section in sections)
    assert len(parsed) == distinct + len(doc["algebra"]["unit"]) + len(doc["coalgebra"]["counit"]) < len(doc["psi"])
    assert reparsed == []
    assert e.psi == kz5.psi and e.hopf.antipode == kz5.hopf.antipode


def test_save_load_round_trip(tmp_path):
    e = named_example("z2")
    p1 = tmp_path / "z2.json"
    p2 = tmp_path / "z2_again.json"
    save(e, p1)
    loaded = load(p1)
    assert loaded.psi == e.psi
    assert loaded.hopf is not None
    save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_zero_denominator(tmp_path):
    e = named_example("trivial-k")
    path = tmp_path / "bad.json"
    save(e, path)
    doc = json.loads(path.read_text())
    doc["psi"] = [[0, 0, "1/0"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(StructureParseError):
        load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "nonsense.json"
    path.write_text("{not json")
    with pytest.raises(StructureParseError):
        load(path)


def test_hand_written_file_loads(tmp_path):
    doc = {
        "format": "entwine-structure/1",
        "field": "Q",
        "algebra": {
            "dim": 1,
            "labels": ["1"],
            "mult": [[0, 0, 0, "1"]],
            "unit": ["1"],
        },
        "coalgebra": {
            "dim": 1,
            "labels": ["1"],
            "comult": [[0, 0, 0, "1"]],
            "counit": ["1"],
        },
        "psi": [[0, 0, "1"]],
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc))
    e = load(path)
    assert e.algebra.dim == 1 and e.coalgebra.dim == 1


def test_corrupted_fixture_load_names_relation(tmp_path):
    bad = corrupted_psi_entwining()
    path = tmp_path / "corrupted.json"
    save(bad, path)
    with pytest.raises(BowTieError) as err:
        load(path)
    assert "left pentagon" in str(err.value)


def test_named_examples_construct():
    for name in ("trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2"):
        e = named_example(name)
        assert isinstance(e, EntwiningStructure)
    with pytest.raises(PreconditionError):
        named_example("nope")
