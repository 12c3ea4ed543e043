"""Structure-constant algebra/coalgebra layer and its validators."""

from pathlib import Path

import pytest

from entwine.errors import ShapeMismatchError
from entwine.homspace import middle_operator, op_postcompose, op_precompose, unvec, vec
from entwine.linalg import QQ, FieldSpec, Mat
from entwine.structures import (
    Bicomodule,
    Bimodule,
    FiniteAlgebra,
    FiniteCoalgebra,
    LinearMap,
    compose,
    decode_index,
    flip_map,
    identity_map,
    regular_bicomodule,
    regular_bimodule,
    tensor,
    validate_algebra,
    validate_bicomodule,
    validate_bimodule,
    validate_coalgebra,
)
from entwine.zoo import load, sweedler_h4

Z2_MULT = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
Z2_COMULT = [(0, 0, 0, 1), (1, 1, 1, 1)]


def kz2_algebra(mult=Z2_MULT):
    return FiniteAlgebra.from_structure_constants(QQ, ["1", "g"], mult, [1, 0])


def kz2_coalgebra(counit=(1, 1)):
    return FiniteCoalgebra.from_structure_constants(QQ, ["1", "g"], Z2_COMULT, counit)


def field_algebra():
    return FiniteAlgebra.from_structure_constants(QQ, ["1"], [(0, 0, 0, 1)], [1])


def test_ground_field_is_algebra():
    assert validate_algebra(field_algebra()).ok


def test_group_algebra_kz2_passes():
    assert validate_algebra(kz2_algebra()).ok


def test_corrupted_multiplication_fails_with_witness():
    # g.1 = 1 breaks both the right unit law and associativity.
    bad = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 0, 1)]
    report = validate_algebra(kz2_algebra(bad))
    assert not report.ok
    axioms = [axiom for axiom, _ in report.failures]
    assert "associativity" in axioms or "right unit" in axioms
    witnesses = [w for _, w in report.failures if w is not None]
    assert witnesses and all("g" in w for w in witnesses)


def test_one_dim_coalgebra_passes():
    c = FiniteCoalgebra.from_structure_constants(QQ, ["1"], [(0, 0, 0, 1)], [1])
    assert validate_coalgebra(c).ok


def test_grouplike_coalgebra_passes():
    assert validate_coalgebra(kz2_coalgebra()).ok


def test_corrupted_counit_fails():
    report = validate_coalgebra(kz2_coalgebra(counit=(1, 0)))
    assert not report.ok
    axioms = [axiom for axiom, _ in report.failures]
    assert any("counit" in axiom for axiom in axioms)
    assert any(w == ("g",) for _, w in report.failures if w is not None)


def test_regular_bimodule_passes():
    a = kz2_algebra()
    assert validate_bimodule(a, regular_bimodule(a)).ok


def test_regular_bicomodule_passes():
    c = kz2_coalgebra()
    assert validate_bicomodule(c, regular_bicomodule(c)).ok


def test_broken_action_fails():
    a = kz2_algebra()
    reg = regular_bimodule(a)
    # g.1 = g but g.g = g as well: (gg).1 = 1 while g.(g.1) = g.
    bad_left = LinearMap(
        (2, 2),
        (2,),
        Mat.from_rows(QQ, [[1, 0, 0, 0], [0, 1, 1, 1]]),
    )
    report = validate_bimodule(a, Bimodule(2, bad_left, reg.right))
    assert not report.ok
    assert any("associativity" in axiom for axiom, _ in report.failures)


def test_broken_coaction_fails():
    c = kz2_coalgebra()
    reg = regular_bicomodule(c)
    bad_left = LinearMap((2,), (2, 2), Mat.from_rows(QQ, [[1, 1], [0, 0], [0, 0], [0, 0]]))
    report = validate_bicomodule(c, Bicomodule(2, bad_left, reg.right))
    assert not report.ok


def test_compose_identity():
    a = kz2_algebra()
    assert compose(a.identity(), a.mult) == a.mult
    assert compose(a.mult, identity_map(QQ, (2, 2))) == a.mult


def test_validation_that_holds_does_no_arithmetic(monkeypatch):
    # a check that holds compares the canonical storage of both sides; only a
    # failure subtracts them, to find its witness
    calls = []
    add = Mat._add
    monkeypatch.setattr(Mat, "_add", lambda self, other, sign: calls.append(sign) or add(self, other, sign))
    load(Path(__file__).resolve().parent.parent / "fixtures" / "sweedler.json")
    assert calls == []


def test_compose_shape_check():
    a = kz2_algebra()
    with pytest.raises(ShapeMismatchError):
        compose(a.mult, a.mult)


def test_counit_axiom_through_tensor():
    # (id_A (x) eps (x) id_C) o (id_A (x) Delta) = id on A (x) C.
    a = kz2_algebra()
    c = kz2_coalgebra()
    ida, idc = a.identity(), c.identity()
    lhs = compose(tensor(tensor(ida, c.counit), idc), tensor(ida, c.comult))
    assert lhs == identity_map(QQ, (2, 2))


def test_tensor_shape_concatenation():
    f = LinearMap((2,), (3,), Mat.zeros(QQ, 3, 2))
    g = LinearMap((3,), (2,), Mat.zeros(QQ, 2, 3))
    t = tensor(f, g)
    assert t.domain_shape == (2, 3)
    assert t.codomain_shape == (3, 2)


def test_tensor_respects_composition():
    a = kz2_algebra()
    f = a.mult
    g = a.identity()
    fp = identity_map(QQ, (2, 2))
    gp = a.unit_map()
    lhs = compose(tensor(f, g), tensor(fp, gp))
    rhs = tensor(compose(f, fp), compose(g, gp))
    assert lhs == rhs


def test_flip_squares_to_identity():
    f = flip_map(QQ, 2, 3)
    g = flip_map(QQ, 3, 2)
    assert compose(g, f) == identity_map(QQ, (2, 3))


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_flip_map_matches_the_triples_formula(field):
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            triples = [(j * d1 + i, i * d2 + j, 1) for i in range(d1) for j in range(d2)]
            flip = flip_map(field, d1, d2)
            assert flip.mat == Mat.from_triples(field, d1 * d2, d1 * d2, triples), (d1, d2)
            assert (flip.domain_shape, flip.codomain_shape) == ((d1, d2), (d2, d1))


def test_tensor_of_many_maps_is_the_nested_tensor():
    a = sweedler_h4().algebra
    ida, unit, flip = a.identity(), a.unit_map(), flip_map(QQ, 4, 4)
    for maps in ((a.mult,), (ida, flip, ida), (unit, a.mult, unit, ida)):
        nested = maps[0]
        for f in maps[1:]:
            nested = tensor(nested, f)
        many = tensor(*maps)
        assert many == nested
        assert (many.domain_shape, many.codomain_shape) == (nested.domain_shape, nested.codomain_shape)


def test_decode_index():
    assert decode_index((2, 3, 4), 0) == (0, 0, 0)
    assert decode_index((2, 3, 4), 23) == (1, 2, 3)
    assert decode_index((2, 3, 4), (1 * 3 + 2) * 4 + 1) == (1, 2, 1)


# -- flattened-operator utilities -------------------------------------------


def test_vec_unvec_roundtrip():
    a = kz2_algebra()
    v = vec(a.mult)
    back = unvec(v, a.mult.domain_shape, a.mult.codomain_shape)
    assert back == a.mult


def test_post_and_pre_compose_operators():
    f = LinearMap((2,), (2,), Mat.from_rows(QQ, [[1, 2], [3, 4]]))
    w = Mat.from_rows(QQ, [[0, 1], [1, 0]])
    assert op_postcompose(w, 2) @ vec(f) == vec(LinearMap((2,), (2,), w @ f.mat))
    assert op_precompose(w, 2) @ vec(f) == vec(LinearMap((2,), (2,), f.mat @ w))


def test_middle_operator_matches_direct():
    # f |-> L (I_2 (x) f (x) I_3) R checked against the direct computation.
    import random

    rng = random.Random(0)

    def rand_mat(r, c):
        return Mat.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])

    f_rows, f_cols, dl, dr = 2, 3, 2, 3
    F = rand_mat(f_rows, f_cols)
    L = rand_mat(4, dl * f_rows * dr)
    R = rand_mat(dl * f_cols * dr, 5)
    from entwine.linalg import kron

    big = kron(kron(Mat.identity(QQ, dl), F), Mat.identity(QQ, dr))
    direct = L @ big @ R
    op = middle_operator(L, dl, f_rows, f_cols, dr, R)
    got = op @ vec(LinearMap((f_cols,), (f_rows,), F))
    assert got == vec(LinearMap((5,), (4,), direct))
