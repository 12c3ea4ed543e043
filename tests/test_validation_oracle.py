"""The axiom validators against their composition formulas.

validate_algebra, validate_coalgebra, validate_bialgebra, validate_antipode
and check_bowtie decide each identity on dense structure constants.  The
oracle below states the same identities as compositions of padded Kronecker
products of the structure maps (the formulas the validators were written
from), and must give the same CheckReport items -- names, flags and witness
tuples -- on every fixture, every benchmark input, single-entry mutants over
Q and F_7, a structure over Q whose products pass 2**53, and structures over
F_{2^31-1}.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine import structures
from entwine.entwining import check_bowtie
from entwine.linalg import FieldSpec, Mat, kron
from entwine.structures import (
    CheckReport,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebra,
    LinearMap,
    compose,
    flip_map,
    tensor,
    validate_algebra,
    validate_antipode,
    validate_bialgebra,
    validate_coalgebra,
)
from entwine.zoo import bialgebra_self_entwining, group_algebra_hopf, load, named_example

ROOT = Path(__file__).resolve().parent.parent
F7, F_MERSENNE = FieldSpec.prime(7), FieldSpec.prime(2**31 - 1)


# -- the oracle: each identity as a composition of structure maps ------------------


def oracle_algebra(a):
    report = CheckReport(f"algebra(dim={a.dim})")
    ida = a.identity()
    labels3 = [a.basis_labels] * 3
    report.check(
        "associativity", compose(a.mult, tensor(a.mult, ida)), compose(a.mult, tensor(ida, a.mult)), labels3
    )
    unit = a.unit_map()
    report.check("left unit", compose(a.mult, tensor(unit, ida)), ida, [a.basis_labels])
    report.check("right unit", compose(a.mult, tensor(ida, unit)), ida, [a.basis_labels])
    return report


def oracle_coalgebra(c):
    report = CheckReport(f"coalgebra(dim={c.dim})")
    idc = c.identity()
    labels1 = [c.basis_labels]
    report.check(
        "coassociativity",
        compose(tensor(c.comult, idc), c.comult),
        compose(tensor(idc, c.comult), c.comult),
        labels1,
    )
    report.check("left counit", compose(tensor(c.counit, idc), c.comult), idc, labels1)
    report.check("right counit", compose(tensor(idc, c.counit), c.comult), idc, labels1)
    return report


def oracle_bialgebra(b):
    a, c = b.algebra, b.coalgebra
    ida = a.identity()
    report = CheckReport("bialgebra")
    flip = flip_map(a.field, a.dim, a.dim)
    lhs = compose(c.comult, a.mult)
    rhs = compose(tensor(a.mult, a.mult), compose(tensor(ida, flip, ida), tensor(c.comult, c.comult)))
    report.add("comultiplication is an algebra map", lhs == rhs)
    report.add("grouplike unit", compose(c.comult, a.unit_map()) == tensor(a.unit_map(), a.unit_map()))
    report.add("counit is an algebra map", compose(c.counit, a.mult) == tensor(c.counit, c.counit))
    report.add("counit of unit", compose(c.counit, a.unit_map()).mat.entry(0, 0) == 1)
    return report


def oracle_antipode(h):
    a, c, s = h.algebra, h.coalgebra, h.antipode
    ida = a.identity()
    report = CheckReport("antipode")
    target = compose(a.unit_map(), c.counit)
    report.add("left antipode axiom", compose(a.mult, compose(tensor(s, ida), c.comult)) == target)
    report.add("right antipode axiom", compose(a.mult, compose(tensor(ida, s), c.comult)) == target)
    return report


def oracle_bowtie(a, c, psi):
    ida, idc = a.identity(), c.identity()
    report = CheckReport("bow-tie")
    report.check(
        "left pentagon",
        compose(psi, tensor(idc, a.mult)),
        compose(tensor(a.mult, idc), compose(tensor(ida, psi), tensor(psi, ida))),
        [c.basis_labels, a.basis_labels, a.basis_labels],
    )
    report.check(
        "left triangle", compose(psi, tensor(idc, a.unit_map())), tensor(a.unit_map(), idc), [c.basis_labels]
    )
    report.check(
        "right pentagon",
        compose(tensor(ida, c.comult), psi),
        compose(tensor(psi, idc), compose(tensor(idc, psi), tensor(c.comult, ida))),
        [c.basis_labels, a.basis_labels],
    )
    report.check(
        "right triangle",
        compose(tensor(ida, c.counit), psi),
        tensor(c.counit, ida),
        [c.basis_labels, a.basis_labels],
    )
    return report


def assert_matches_oracle(a, c, psi, hopf=None):
    """Every family's report items equal the oracle's; returns whether all hold."""
    pairs = [
        (validate_algebra(a), oracle_algebra(a)),
        (validate_coalgebra(c), oracle_coalgebra(c)),
        (check_bowtie(a, c, psi), oracle_bowtie(a, c, psi)),
    ]
    if hopf is not None:
        pairs += [(validate_bialgebra(hopf), oracle_bialgebra(hopf)), (validate_antipode(hopf), oracle_antipode(hopf))]
    for got, want in pairs:
        assert (got.subject, got.items) == (want.subject, want.items)
    return all(got.ok for got, _ in pairs)


def _parts(e):
    return e.algebra, e.coalgebra, e.psi, e.hopf


# -- fixtures and benchmark inputs ---------------------------------------------------


@pytest.mark.parametrize("path", sorted((ROOT / "fixtures").glob("*.json")), ids=lambda p: p.stem)
def test_fixtures_match_the_oracle(path):
    ok = assert_matches_oracle(*_parts(load(path, validate=False)))
    assert ok == (path.stem != "corrupted-psi")


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen_oracle", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_inputs_match_the_oracle(tmp_path):
    # the seeded monomial basis changes give the benchmark's fractions and scales
    gen = _perfbench_gen()
    names = list(gen.STRUCTURES)
    for seed in (1, 5):
        gen.write_inputs(seed, tmp_path / str(seed), names)
        for stem in names:
            ok = assert_matches_oracle(*_parts(load(tmp_path / str(seed) / f"{stem}.json", validate=False)))
            assert ok == (stem not in gen.BROKEN)


def test_kz6_matches_the_oracle():
    assert assert_matches_oracle(*_parts(bialgebra_self_entwining(group_algebra_hopf(6))))


# -- single-entry mutants --------------------------------------------------------------


def _with_entry(m: Mat, r, c, value) -> Mat:
    kept = [t for t in m.triples() if t[:2] != (r, c)]
    return Mat.from_triples(m.field, m.rows, m.cols, kept + [(r, c, value)])


def mutated(parts, target, r, c, value):
    """The structure maps (A, C, psi, hopf) with entry (r, c) of one of them set to value; A and C
    of a Hopf structure stay one space, so a mutated mu or Delta is the Hopf algebra's too."""
    a, co, psi, hopf = parts
    mats = {
        "mu": a.mult.mat, "eta": a.unit, "delta": co.comult.mat, "eps": co.counit.mat, "psi": psi.mat,
        "S": hopf.antipode.mat if hopf else None,
    }
    m = mats[target]
    mats[target] = _with_entry(m, r % m.rows, c % m.cols, value)
    a = FiniteAlgebra(a.field, a.basis_labels, LinearMap(a.mult.domain_shape, (a.dim,), mats["mu"]), mats["eta"])
    co = FiniteCoalgebra(
        co.field,
        co.basis_labels,
        LinearMap((co.dim,), co.comult.codomain_shape, mats["delta"]),
        LinearMap((co.dim,), (), mats["eps"]),
    )
    psi = LinearMap(psi.domain_shape, psi.codomain_shape, mats["psi"])
    hopf = hopf and HopfAlgebra(a, co, LinearMap((a.dim,), (a.dim,), mats["S"]))
    return a, co, psi, hopf


MUTANT_BASES = {
    "sweedler": named_example("sweedler"),
    "z3": named_example("z3"),
    "graded-z2": named_example("graded-z2"),
    "kz3 over F_7": bialgebra_self_entwining(group_algebra_hopf(3, F7)),
}
TARGETS = ["mu", "eta", "delta", "eps", "psi", "S"]


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(sorted(MUTANT_BASES)),
    target=st.sampled_from(TARGETS),
    r=st.integers(0, 63),
    c=st.integers(0, 63),
    value=st.sampled_from([0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]),
)
def test_single_entry_mutants_match_the_oracle(base, target, r, c, value):
    e = MUTANT_BASES[base]
    if target == "S" and e.hopf is None:
        target = "psi"
    assert_matches_oracle(*mutated(_parts(e), target, r, c, value))


# -- coefficient sizes: the integer path and the largest prime ------------------------------


def rescaled(e, scales):
    """e in the basis f_i = scales[i] e_i of A and of C (one space, one change for a Hopf
    structure): every map M becomes D_out^-1 M D_in, with D the diagonal of the scales."""
    a, co, psi, hopf = _parts(e)
    field = e.field

    def diag(values):
        return Mat.from_triples(field, len(values), len(values), [(i, i, v) for i, v in enumerate(values)])

    da, dc = diag(scales[: a.dim]), diag(scales[: co.dim])
    ia, ic = diag([1 / Fraction(s) for s in scales[: a.dim]]), diag([1 / Fraction(s) for s in scales[: co.dim]])
    a2 = FiniteAlgebra(field, a.basis_labels, LinearMap((a.dim,) * 2, (a.dim,), ia @ a.mult.mat @ kron(da, da)), ia @ a.unit)
    co2 = FiniteCoalgebra(
        field,
        co.basis_labels,
        LinearMap((co.dim,), (co.dim,) * 2, kron(ic, ic) @ co.comult.mat @ dc),
        LinearMap((co.dim,), (), co.counit.mat @ dc),
    )
    psi2 = LinearMap(psi.domain_shape, psi.codomain_shape, kron(ia, ic) @ psi.mat @ kron(dc, da))
    hopf2 = hopf and HopfAlgebra(a2, co2, LinearMap((a.dim,), (a.dim,), ia @ hopf.antipode.mat @ da))
    return a2, co2, psi2, hopf2


BIG = [1, -(3**5), 3**10, 3**15]  # products of three entries pass 2**53


def test_big_rationals_take_the_integer_path(monkeypatch):
    parts = rescaled(named_example("sweedler"), BIG)
    products = []
    real = structures._Exact.__matmul__

    def spy(x, y):
        out = real(x, y)
        products.append(out.a.dtype)
        return out

    monkeypatch.setattr(structures._Exact, "__matmul__", spy)
    assert assert_matches_oracle(*parts)
    assert object in products and np.float64 in products


@pytest.mark.parametrize("target", TARGETS)
def test_big_rational_mutants_match_the_oracle(target):
    parts = rescaled(named_example("sweedler"), BIG)
    for r, c in ((0, 0), (1, 3), (3, 1)):
        assert not assert_matches_oracle(*mutated(parts, target, r, c, Fraction(5, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_largest_prime_matches_the_oracle(n):
    e = bialgebra_self_entwining(group_algebra_hopf(n, F_MERSENNE))
    assert assert_matches_oracle(*_parts(e))
    parts = rescaled(e, [1, 2**30, 3**19, 12345678][:n])
    assert assert_matches_oracle(*parts)
    for target in TARGETS:
        assert not assert_matches_oracle(*mutated(parts, target, 1, 0, 2**31 - 5))
