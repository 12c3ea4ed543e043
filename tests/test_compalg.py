"""Comp operations, cup products, weak-comp axioms, equivariant subcomplex."""

import random
from collections import Counter
from math import prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entwine import compalg
from entwine.compalg import (
    ALGEBRA,
    COALGEBRA,
    Cochain,
    CompContext,
    _commutators,
    _cond2_core,
    _cond3_operators,
    _cond3_pi_last,
    _direct_cup,
    _direct_sqcup,
    _pi_grid,
    check_prelie_identities,
    class_products,
    coboundary,
    comp_i,
    cup,
    diamond,
    eps_tensor_id,
    equivariance_operator,
    equivariant_basis,
    equivariant_checks,
    graded_commutativity,
    hopf_criterion_operator,
    lin_comb,
    sqcup,
    verify_weak_comp,
)
from entwine.entwining import EntwiningStructure, convolution_psi, rho_R_coaction
from entwine.errors import DegreeError, InconsistentQuotientError
from entwine.homspace import vec
from entwine.linalg import QQ, FieldSpec, Mat, hstack, kernel_basis, kron, rank
from entwine.structures import LinearMap, compose, identity_map, tensor
from entwine.zoo import load, named_example, sweedler_h4, trivial_entwining

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _random_cochain(ctx, degree, rng):
    """A degree-`degree` cochain whose entries, in row-major order, are rng.integers(-2, 3)."""
    dom, cod = ctx.space_shapes(degree)
    rows, cols = prod(cod), prod(dom)
    triples = [(k // cols, k % cols, int(v)) for k, v in enumerate(rng.integers(-2, 3, size=rows * cols))]
    return Cochain(ctx.side, degree, LinearMap(dom, cod, Mat.from_triples(ctx.e.field, rows, cols, triples)))


@pytest.fixture(scope="module")
def kz2_ctx():
    return CompContext(named_example("z2"), ALGEBRA)


@pytest.fixture(scope="module")
def kz2_dual():
    return CompContext(named_example("z2"), COALGEBRA)


@pytest.fixture(scope="module")
def triv_ctx():
    return CompContext(named_example("trivial-z2"), ALGEBRA)


def test_out_of_range_insertion_is_zero(kz2_ctx):
    f = kz2_ctx.basis(1)[0]
    g = kz2_ctx.basis(1)[1]
    assert comp_i(kz2_ctx, f, 1, g).is_zero
    assert comp_i(kz2_ctx, f, 5, g).is_zero


def test_insert_pi_is_multiplication_insertion(kz2_ctx):
    # f <>_i pi collapses to precomposition with the multiplication at slot i,
    # checked as one operator identity per (m, i) by linearity in f.
    e = kz2_ctx.e
    a, c = e.algebra, e.coalgebra
    for m in (1, 2):
        for i in range(m):
            for f in kz2_ctx.basis(m):
                ins = tensor(
                    tensor(
                        tensor(c.identity(), identity_map(QQ, (a.dim,) * i)), a.mult
                    ),
                    identity_map(QQ, (a.dim,) * (m - i - 1)),
                )
                direct = LinearMap(
                    ins.domain_shape, f.map_.codomain_shape, f.map_.mat @ ins.mat
                )
                assert comp_i(kz2_ctx, f, i, kz2_ctx.pi).map_ == direct


def test_insertion_hand_value(kz2_ctx):
    # two-step hand composition on kZ2 with grouplike Delta c = c (x) c:
    # taking f = g = mu (viewed in Hom(C (x) A, A)),
    #   (f o_0 g)(c, a) = f(c_(1), g(c_(2), a)) = c (c a) = c^2 a = eps(c) a
    mu = kz2_ctx.cochain(1, kz2_ctx.e.algebra.mult)
    out = comp_i(kz2_ctx, mu, 0, mu)
    assert out == eps_tensor_id(kz2_ctx)


def test_diamond_single_term_for_degree_one(kz2_ctx):
    f = kz2_ctx.basis(1)[2]
    g = kz2_ctx.basis(1)[3]
    assert diamond(kz2_ctx, f, g) == comp_i(kz2_ctx, f, 0, g)


def test_diamond_degree_bookkeeping(kz2_ctx):
    f = kz2_ctx.basis(2)[0]
    g = kz2_ctx.basis(1)[0]
    assert diamond(kz2_ctx, f, g).degree == 2


def test_pi_diamond_pi_vanishes(kz2_ctx, kz2_dual):
    assert diamond(kz2_ctx, kz2_ctx.pi, kz2_ctx.pi).is_zero
    assert diamond(kz2_dual, kz2_dual.pi, kz2_dual.pi).is_zero


def test_degree_zero_sqcup_is_twisted_convolution(kz2_ctx):
    for f in kz2_ctx.basis(0):
        for g in kz2_ctx.basis(0):
            conv = convolution_psi(kz2_ctx.e, f.map_, g.map_)
            assert sqcup(kz2_ctx, f, g).map_ == conv


def test_degree_zero_cup_is_convolution(kz2_ctx):
    e = kz2_ctx.e
    for f in kz2_ctx.basis(0):
        for g in kz2_ctx.basis(0):
            ordinary = compose(
                e.algebra.mult, compose(tensor(f.map_, g.map_), e.coalgebra.comult)
            )
            assert cup(kz2_ctx, f, g).map_ == ordinary


def test_cup_associativity_on_basis(kz2_ctx):
    rng = random.Random(1)
    cochains = kz2_ctx.basis(0) + kz2_ctx.basis(1)
    for _ in range(30):
        f, g, h = (cochains[rng.randrange(len(cochains))] for _ in range(3))
        lhs = cup(kz2_ctx, cup(kz2_ctx, f, g), h)
        rhs = cup(kz2_ctx, f, cup(kz2_ctx, g, h))
        assert lhs == rhs


def test_pi_is_coboundary_of_counit_tensor_identity(kz2_ctx, kz2_dual):
    assert coboundary(kz2_ctx, eps_tensor_id(kz2_ctx)) == kz2_ctx.pi
    assert coboundary(kz2_dual, eps_tensor_id(kz2_dual)) == kz2_dual.pi


def test_coboundary_squares_to_zero(kz2_ctx, kz2_dual):
    for ctx in (kz2_ctx, kz2_dual):
        for m in (0, 1, 2):
            for f in ctx.basis(m):
                assert coboundary(ctx, coboundary(ctx, f)).is_zero


def test_derivation_property_small(kz2_ctx):
    # d(f cup g) = df cup g + (-1)^m f cup dg for degrees m + n <= 2
    for m in (0, 1):
        for n in range(0, 2 - m + 1):
            for f in kz2_ctx.basis(m):
                for g in kz2_ctx.basis(n):
                    lhs = coboundary(kz2_ctx, cup(kz2_ctx, f, g))
                    sign = -1 if m % 2 else 1
                    rhs = lin_comb(
                        kz2_ctx,
                        m + n + 1,
                        [
                            (1, cup(kz2_ctx, coboundary(kz2_ctx, f), g)),
                            (sign, cup(kz2_ctx, f, coboundary(kz2_ctx, g))),
                        ],
                    )
                    assert lhs == rhs


def test_dual_side_cup_routes_agree(kz2_dual):
    for m in (0, 1):
        for n in (0, 1):
            for f in kz2_dual.basis(m):
                for g in kz2_dual.basis(n):
                    assert cup(kz2_dual, f, g) == _direct_cup(kz2_dual, f, g)
                    assert sqcup(kz2_dual, f, g) == _direct_sqcup(kz2_dual, f, g)


def test_weak_comp_axioms_all_fixtures():
    for name in ("trivial-k", "trivial-z2", "z2", "z3", "sweedler"):
        e = named_example(name)
        assert verify_weak_comp(CompContext(e, ALGEBRA), 2).ok, name
        assert verify_weak_comp(CompContext(e, COALGEBRA), 2).ok, name


def test_weak_comp_over_prime_field():
    from entwine.linalg import FieldSpec
    from entwine.zoo import bialgebra_self_entwining, group_algebra_hopf

    e = bialgebra_self_entwining(group_algebra_hopf(2, FieldSpec.prime(7)))
    assert verify_weak_comp(CompContext(e, ALGEBRA), 2).ok
    assert verify_weak_comp(CompContext(e, COALGEBRA), 2).ok


def test_weak_comp_degree_cap():
    ctx = CompContext(named_example("trivial-k"), ALGEBRA)
    for cap in (-1, 4):
        with pytest.raises(DegreeError):
            verify_weak_comp(ctx, cap)
    with pytest.raises(DegreeError):
        equivariant_checks(ctx, -1)
    for name in ("trivial-z2", "z2", "graded-z2"):
        for side in (ALGEBRA, COALGEBRA):
            report = verify_weak_comp(CompContext(named_example(name), side), 3)
            cond2 = [item for item in report.items if item[0].startswith("condition (2)")]
            assert report.ok and len(cond2) == 144, (name, side)
            assert not any("sampled" in item[0] for item in report.items)


def _spy(monkeypatch, name):
    decided, real = [], getattr(compalg, name)

    def spy(ctx, *key):
        decided.append(key)
        return real(ctx, *key)

    monkeypatch.setattr(compalg, name, spy)
    return decided


def test_weak_comp_decides_each_condition2_identity_once(monkeypatch):
    # condition (2) reads only the slots (i, j): 4 distinct identities cover the 27
    # items of degree cap 2, and 9 the 144 of cap 3; a second run decides none again
    decided = _spy(monkeypatch, "_cond2_core")
    for cap, count in ((2, 4), (3, 9)):
        ctx = CompContext(named_example("z2"), ALGEBRA)
        decided.clear()
        assert verify_weak_comp(ctx, cap).ok
        assert len(decided) == len(set(decided)) == count
        verify_weak_comp(ctx, cap)
        assert len(decided) == count


def test_weak_comp_decides_each_condition3_identity_once_per_call(monkeypatch):
    # h = pi reads (i, j) and g = pi reads (i, j, p): 1 and 3 at cap 2, 3 and 12 at
    # cap 3; both read pi, so another call decides them again, with its own pi
    pi_last, pi_first = _spy(monkeypatch, "_cond3_pi_last"), _spy(monkeypatch, "_cond3_operators")
    ctx = CompContext(named_example("z2"), ALGEBRA)
    for cap, lasts, firsts in ((2, 1, 3), (3, 3, 12)):
        for pi, ok in ((None, True), (ctx.basis(2)[6], False)):
            pi_last.clear(), pi_first.clear()
            report = verify_weak_comp(ctx, cap, pi=pi)
            assert all(item[1] == ok for item in report.items if item[0].startswith("condition (3)"))
            assert len(pi_last) == len({key[:-1] for key in pi_last}) == lasts  # key[-1] is pi
            assert len(pi_first) == len({key[:-1] for key in pi_first}) == firsts


def test_condition3_fails_for_non_pi(kz2_ctx):
    # the weak axioms only promise condition (3) for pi itself
    fake = kz2_ctx.basis(2)[6]
    report = verify_weak_comp(kz2_ctx, 2, pi=fake)
    assert not report.ok
    assert any("condition (3)" in name for name, _ in report.failures)


def test_core_identity_matches_brute_force():
    rng = random.Random(0)
    for name in ("z2", "graded-z2"):
        for side in (ALGEBRA, COALGEBRA):
            ctx = CompContext(named_example(name), side)
            for _ in range(40):
                m = rng.randint(1, 3)
                n = rng.randint(0, 3)
                p = rng.randint(0, 3)
                f = ctx.basis(m)[rng.randrange(ctx.space_dim(m))]
                g = ctx.basis(n)[rng.randrange(ctx.space_dim(n))]
                h = ctx.basis(p)[rng.randrange(ctx.space_dim(p))]
                for i in range(m):
                    for j in range(i, i + n):
                        lhs = comp_i(ctx, comp_i(ctx, f, i, g), j, h)
                        rhs = comp_i(ctx, f, i, comp_i(ctx, g, j - i, h))
                        assert (lhs == rhs) and _cond2_core(ctx, i, j)


def _brute_cond3(ctx, m, free, i, j, pi2, pi_first):
    for f in ctx.basis(m):
        for x in ctx.basis(free):
            if pi_first:
                lhs = comp_i(ctx, comp_i(ctx, f, i, pi2), j, x)
                rhs = comp_i(ctx, comp_i(ctx, f, j, x), i + x.degree - 1, pi2)
            else:
                lhs = comp_i(ctx, comp_i(ctx, f, i, x), j, pi2)
                rhs = comp_i(ctx, comp_i(ctx, f, j, pi2), i + 1, x)
            if lhs != rhs:
                return False
    return True


def test_condition3_operators_match_brute_force(kz2_ctx, kz2_dual):
    # the slot-free verdicts must agree with a literal tuple scan at every degree
    # m, both for pi (holds) and for arbitrary 2-cochains (generally fails)
    for ctx in (kz2_ctx, kz2_dual):
        for pi2 in (ctx.pi, ctx.basis(2)[6]):
            for m, frees in ((2, (0, 1, 2)), (3, (0,))):
                for free in frees:
                    for i in range(1, m):
                        for j in range(i):
                            assert _cond3_pi_last(ctx, i, j, pi2) == _brute_cond3(ctx, m, free, i, j, pi2, False)
                            lhs, rhs = _cond3_operators(ctx, i, j, free, pi2)
                            assert (lhs == rhs) == _brute_cond3(ctx, m, free, i, j, pi2, True)


# -- the weak-comp identities at full size: the oracle for their smallest forms --


def _cond2_core_at(ctx, D, i, j) -> bool:
    """The condition-(2) identity with both sides padded to composite degree D."""
    e = ctx.base
    da, dc = e.algebra.dim, e.coalgebra.dim
    lhs = kron(rho_R_coaction(e, i).mat, Mat.identity(e.field, da ** (j - i) * dc * da ** (D - j))) @ ctx.P(j, D)
    inner = kron(
        Mat.identity(e.field, dc * da**i), rho_R_coaction(e, j - i).mat, Mat.identity(e.field, da ** (D - j))
    )
    return lhs == inner @ ctx.P(i, D)


def _cond3_operators_at(ctx, m, k, i, j, pi, pi_first) -> bool:
    """Condition (3) as operators in the free cochain of degree k at degree m, j < i:
    pi_first=False (h = pi): (f o_i g) o_j pi = (f o_j pi) o_{i+1} g with g free;
    pi_first=True  (g = pi): (f o_i pi) o_j h = (f o_j h) o_{i+k-1} pi with h free."""
    ident = Mat.identity(ctx.e.field, ctx.base.coalgebra.dim * ctx.base.algebra.dim**m)
    insert = ctx.insertion_operator

    def then_pi(s, degree):
        return ctx.K(s, pi, degree) @ ctx.P(s, degree + 1)

    if not pi_first:
        lhs, rhs = insert(ident, i, m, k, after=then_pi(j, m + k - 1)), insert(then_pi(j, m), i + 1, m + 1, k)
    else:
        lhs, rhs = insert(then_pi(i, m), j, m + 1, k), insert(ident, j, m, k, after=then_pi(i + k - 1, m + k - 1))
    return lhs == rhs


def _first_violation_scan(ctx, m, n, p, i, j):
    """The first basis tuple (f, g, h), in that order, that breaks condition (2)."""
    for fi, f in enumerate(ctx.basis(m)):
        for gi, g in enumerate(ctx.basis(n)):
            for hi, h in enumerate(ctx.basis(p)):
                if comp_i(ctx, comp_i(ctx, f, i, g), j, h) != comp_i(ctx, f, i, comp_i(ctx, g, j - i, h)):
                    return (fi, gi, hi)
    return None


@pytest.mark.parametrize("field", (QQ, FieldSpec.prime(7)), ids=str)
@pytest.mark.parametrize("name", ("trivial-z2", "z2", "graded-z2", "corrupted-psi"))
def test_smallest_identities_match_the_padded_ones(name, field):
    # every key verify_weak_comp reaches up to cap 3, for pi and a seeded non-pi 2-cochain
    verdicts = Counter()
    for side in (ALGEBRA, COALGEBRA):
        ctx = CompContext(named_example(name, field), side)
        cond2 = {(m + n + p - 2, i, j) for m in range(1, 4) for n in range(4) for p in range(4)
                 for i in range(m) for j in range(i, i + n)}
        for D, i, j in sorted(cond2):
            ok = _cond2_core(ctx, i, j)
            assert ok == _cond2_core_at(ctx, D, i, j), (side, D, i, j)
            verdicts["cond2", ok] += 1
        for pi in (ctx.pi, _random_cochain(ctx, 2, np.random.default_rng(3))):
            for m in (2, 3):
                for free in range(4):
                    for i in range(1, m):
                        for j in range(i):
                            key = (side, m, free, i, j)
                            ok = _cond3_pi_last(ctx, i, j, pi)
                            assert ok == _cond3_operators_at(ctx, m, free, i, j, pi, False), key
                            verdicts["h = pi", ok] += 1
                            lhs, rhs = _cond3_operators(ctx, i, j, free, pi)
                            ok = lhs == rhs
                            assert ok == _cond3_operators_at(ctx, m, free, i, j, pi, True), key
                            verdicts["g = pi", ok] += 1
    # both verdicts occur: corrupted-psi breaks (2) at 33 keys per side, and only the
    # flip over a cocommutative coalgebra (trivial-z2) keeps (3) for every 2-cochain
    assert verdicts["cond2", False] == (66 if name == "corrupted-psi" else 0)
    assert bool(verdicts["h = pi", False]) == bool(verdicts["g = pi", False]) == (name != "trivial-z2")


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
def test_violation_witness_is_the_first_tuple_of_the_scan(side):
    ctx = CompContext(named_example("corrupted-psi"), side)
    report = verify_weak_comp(ctx, 2)
    failed = [detail for name, ok, detail in report.items if name.startswith("condition (2)") and not ok]
    assert len(failed) == 9
    for detail in failed:  # the scan is slow, so only where h has degree 0
        key, witness = detail.split(" witness basis tuple ")
        m, n, p, i, j = (int(part.split("=")[1]) for part in key.split())
        if p == 0:
            assert witness == str(_first_violation_scan(ctx, m, n, p, i, j)), detail


def test_prelie_identities(kz2_ctx):
    f = kz2_ctx.basis(1)[3]
    g = kz2_ctx.basis(1)[5]
    h = kz2_ctx.basis(2)[7]
    assert check_prelie_identities(kz2_ctx, kz2_ctx.pi, f, g).ok
    assert check_prelie_identities(kz2_ctx, f, kz2_ctx.pi, g).ok
    assert check_prelie_identities(kz2_ctx, f, g, h).ok


def test_prelie_degenerate_degree_zero(kz2_ctx):
    f = kz2_ctx.basis(0)[0]
    g = kz2_ctx.basis(0)[1]
    assert check_prelie_identities(kz2_ctx, f, g, kz2_ctx.pi).ok


def test_theorem_sign_identity_random_pairs(kz2_ctx):
    rng = random.Random(2)
    pool = kz2_ctx.basis(0) + kz2_ctx.basis(1) + kz2_ctx.basis(2)
    for _ in range(25):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        if f.degree + g.degree > 3:
            continue
        assert check_prelie_identities(kz2_ctx, f, g, kz2_ctx.pi).ok


def test_graded_commutativity_degree_zero(kz2_ctx, triv_ctx):
    assert graded_commutativity(kz2_ctx, 0, 0).ok
    assert graded_commutativity(triv_ctx, 0, 0).ok


def test_graded_commutativity_empty_degrees(kz2_ctx):
    # the Hopf fixture has no positive-degree classes: vacuous but reported
    rep = graded_commutativity(kz2_ctx, 1, 1)
    assert rep.ok and any("no class pairs" in n for n, _, _ in rep.items)


def test_one_dim_everything_equivariant():
    ctx = CompContext(named_example("trivial-k"), ALGEBRA)
    for n in (0, 1, 2):
        assert equivariant_basis(ctx, n).cols == ctx.space_dim(n)


def test_equivariant_dims_kz2(kz2_ctx):
    # solver-computed subspace dimensions, frozen
    assert [equivariant_basis(kz2_ctx, n).cols for n in (0, 1, 2)] == [2, 4, 8]


def test_pi_is_equivariant(kz2_ctx):
    assert (equivariance_operator(kz2_ctx, 2) @ vec(kz2_ctx.pi.map_)).is_zero()


def test_equivariant_checks_kz2(kz2_ctx):
    report = equivariant_checks(kz2_ctx, 2)
    assert report.ok, str(report)
    names = [n for n, _, _ in report.items]
    assert any("translation-map criterion" in n for n in names)


def _span_equal(vs: Mat, ws: Mat) -> bool:
    """Whether the columns of vs and of ws span the same subspace: the oracle
    for comparing canonical kernel bases with ==."""
    return rank(vs) == rank(ws) == rank(hstack([vs, ws]))


@pytest.mark.parametrize(
    "vs, ws, equal",
    [
        ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [1, -1, 0]], True),
        ([], [], True),
        # equal dimensions, different spans
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]], False),
        # a proper subspace, on either side
        ([[1, 1, 0]], [[1, 0, 0], [0, 1, 0]], False),
        ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0]], False),
        # spanning sets with a dependent vector
        ([[1, 0, 0], [2, 0, 0]], [[3, 0, 0]], True),
    ],
)
def test_span_equal(vs, ws, equal):
    vs, ws = (
        Mat.from_triples(QQ, 3, len(vectors), [(i, j, x) for j, v in enumerate(vectors) for i, x in enumerate(v)])
        for vectors in (vs, ws)
    )
    assert _span_equal(vs, ws) is equal


@pytest.mark.parametrize("name", ["z2", "z3", "sweedler"])
def test_criterion_equality_matches_span_oracle(name):
    # equivariant_checks compares the equivariant basis with the criterion's
    # kernel basis by ==: canonical kernel bases are equal exactly when their
    # spans are.  The kernel of d^n is a different span, so == must fail there
    ctx = CompContext(named_example(name), ALGEBRA)
    for n in range(3):
        vs = equivariant_basis(ctx, n)
        criterion = kernel_basis(hopf_criterion_operator(ctx, n))
        cocycles = kernel_basis(ctx.differential_operator(n))
        assert (vs == criterion) is _span_equal(vs, criterion) is True
        assert (vs == cocycles) is _span_equal(vs, cocycles) is False


def test_equivariant_checks_sweedler():
    ctx = CompContext(named_example("sweedler"), ALGEBRA)
    report = equivariant_checks(ctx, 2)
    assert report.ok, str(report)


def _bumped_psi_z2(i, j):
    """z2 with psi[i, j] raised by 1: no longer an entwining."""
    e = named_example("z2")
    rows = e.psi.mat.to_fraction_rows()
    rows[i][j] += 1
    psi = LinearMap(e.psi.domain_shape, e.psi.codomain_shape, Mat.from_rows(e.field, rows))
    return EntwiningStructure.unchecked(e.algebra, e.coalgebra, psi)


_BROKEN_Z2 = [
    ("pi is equivariant", False, ""),
    ("closure under insertions", False, "violated at m=2 n=2 i=1"),
    ("cup = sqcup on equivariant cochains", True, ""),
    ("differential preserves the subcomplex", False, ""),
    ("graded commutativity of equivariant classes", False, ""),
]
_CORRUPTED_PSI_TAIL = [
    ("closure under insertions", True, "all basis pairs"),
    ("cup = sqcup on equivariant cochains", True, ""),
    ("differential preserves the subcomplex", False, ""),
    ("graded commutativity of equivariant classes", False, ""),
]


# report items recorded with the per-pair loops the battery used to run
@pytest.mark.parametrize(
    "build, cap, items",
    [
        (lambda: load(FIXTURES / "corrupted-psi.json", validate=False), 1, _CORRUPTED_PSI_TAIL),
        (
            lambda: load(FIXTURES / "corrupted-psi.json", validate=False),
            2,
            [("pi is equivariant", False, "")] + _CORRUPTED_PSI_TAIL,
        ),
        # violations only at (m, n) = (2, 2)
        (lambda: _bumped_psi_z2(1, 0), 2, _BROKEN_Z2),
        # violations at m = 2 for n = 0, 1, 2: the detail names the last one
        (lambda: _bumped_psi_z2(2, 0), 2, _BROKEN_Z2),
    ],
    ids=["corrupted-psi-1", "corrupted-psi-2", "z2-psi-1-0", "z2-psi-2-0"],
)
def test_equivariant_failure_details_are_pinned(build, cap, items):
    assert equivariant_checks(CompContext(build(), ALGEBRA), cap).items == items


def _stack(ctx, cochains, degree):
    """The columns vec(c) on base of the cochains, as one Mat."""
    columns = [vec(ctx.to_base(c)) for c in cochains]
    return hstack(columns) if columns else Mat.zeros(ctx.e.field, ctx.space_dim(degree), 0)


def _columns(m):
    return [m.col_vector(j) for j in range(m.cols)]


def _per_pair_checks(ctx, bases, cap):
    """Oracle: closure, cup = sqcup and stability, one basis pair at a time."""
    ops = {n: equivariance_operator(ctx, n) for n in range(cap + 2)}
    closure_ok, closure_detail = True, "all basis pairs"
    for m in range(cap + 1):
        for n in range(cap + 1):
            for f in bases[m]:
                for g in bases[n]:
                    for i in range(m):
                        out = comp_i(ctx, f, i, g)
                        if out.degree <= cap + 1 and not (ops[out.degree] @ vec(out.map_)).is_zero():
                            closure_ok = False
                            closure_detail = f"violated at m={m} n={n} i={i}"
    agree = all(
        cup(ctx, f, g) == sqcup(ctx, f, g)
        for m in range(cap + 1)
        for n in range(cap + 1)
        if m + n <= cap + 1
        for f in bases[m]
        for g in bases[n]
    )
    stable = all(
        (ops[m + 1] @ vec(coboundary(ctx, f).map_)).is_zero()
        for m in range(cap + 1)
        for f in bases[m]
    )
    return [
        ("closure under insertions", closure_ok, closure_detail),
        ("cup = sqcup on equivariant cochains", agree, ""),
        ("differential preserves the subcomplex", stable, ""),
    ]


# (degree, basis index) of a cochain added to the equivariant basis of z2;
# None adds nothing and "random" adds a seeded random degree-1 cochain
@pytest.mark.parametrize("extra", [None, (0, 2), (1, 1), (1, 3), (2, 5), "random"])
def test_stacked_checks_match_per_pair_checks(monkeypatch, kz2_ctx, extra):
    # one cochain outside the subcomplex makes the checks fail at some pairs
    # and not others; the stacked operators must fail exactly where the
    # per-pair loops do, with the same closure detail
    import entwine.compalg as compalg

    subsets = {n: [kz2_ctx.from_vec(n, v) for v in _columns(equivariant_basis(kz2_ctx, n))] for n in range(3)}
    if extra == "random":
        subsets[1].insert(1, _random_cochain(kz2_ctx, 1, np.random.default_rng(0)))
    elif extra is not None:
        degree, k = extra
        subsets[degree].insert(1, kz2_ctx.basis(degree)[k])
    monkeypatch.setattr(compalg, "equivariant_basis", lambda ctx, n: _stack(ctx, subsets[n], n))
    for cap in (1, 2):
        want = _per_pair_checks(kz2_ctx, subsets, cap)
        names = {name for name, _, _ in want}
        got = [item for item in equivariant_checks(kz2_ctx, cap).items if item[0] in names]
        assert got == want


def _count_calls(monkeypatch, owner, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_equivariant_checks_work_grows_with_the_basis(monkeypatch):
    # the battery inserts through one operator per degree pair and slot, with
    # all basis cochains of a degree stacked: no comp_i call at all, where it
    # once made one per basis cochain
    import entwine.compalg as compalg

    counts = _count_calls(monkeypatch, compalg, ["comp_i"])
    ctx = CompContext(named_example("sweedler"), ALGEBRA)
    assert [equivariant_basis(ctx, n).cols for n in (0, 1)] == [4, 16]
    assert equivariant_checks(ctx, 1).ok
    assert counts == {"comp_i": 0}


def _insertions_per_degree_triple(cap):
    """insertion_operator calls of equivariant_checks(ctx, cap) when every
    basis and cocycle space is non-empty: fixed by the (m, n, slot) triples."""
    closure = sum(m for m in range(1, cap + 1) for n in range(cap + 1) if m + n - 1 <= cap + 1)
    cup_pairs = sum(1 for m in range(cap + 1) for n in range(cap + 1) if m + n <= cap + 1)
    commutativity_pairs = sum(1 for m in range(cap) for n in range(cap - m))
    # two product grids per pair, of two insertion operators each
    return closure + 4 * cup_pairs + 4 * commutativity_pairs


@pytest.mark.parametrize("name", ["z2", "sweedler"])
def test_equivariant_checks_build_operators_per_degree_triple_not_per_cochain(monkeypatch, name):
    # bases of 2, 4, 8 (z2) and 4, 16, 64 (Sweedler) cochains: the same
    # operator count, and no I (x) g (x) I per basis cochain
    counts = _count_calls(monkeypatch, CompContext, ["K", "insertion_operator"])
    ctx = CompContext(named_example(name), ALGEBRA)
    assert equivariant_checks(ctx, 2).ok
    assert counts == {"K": 0, "insertion_operator": _insertions_per_degree_triple(2)}


def test_equivariant_command_extracts_each_kernel_once(monkeypatch, tmp_path):
    # the dims table, the battery and the Hopf criterion share one kernel
    # basis per degree of the equivariance operator
    import entwine.compalg as compalg
    from entwine.cli import main

    degree_of, calls = {}, []
    operator, kernel = compalg.equivariance_operator, compalg.kernel_basis

    def recording_operator(ctx, n):
        op = operator(ctx, n)
        degree_of[id(op)] = (n, op)  # holding op keeps its id unique
        return op

    def counting_kernel(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(compalg, "equivariance_operator", recording_operator)
    monkeypatch.setattr(compalg, "kernel_basis", counting_kernel)
    out = tmp_path / "report.json"
    main(["equivariant", str(FIXTURES / "sweedler.json"), "--max-degree", "2", "--json", str(out)])
    per_degree = Counter(degree_of[id(m)][0] for m in calls if id(m) in degree_of)
    assert per_degree == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
@pytest.mark.parametrize("name", ("z2", "z3", "sweedler", "graded-z2"))
def test_product_grids_match_per_pair_products(side, name):
    # column (x, y) holds vec(x cup y) in the cup grid, vec(y sqcup x) in the
    # sqcup grid and vec(x cup y -+ y cup x) in the commutators; a single x
    # takes the grid's no-reorder path, and an empty stack on either side
    # gives a grid with no columns
    ctx = CompContext(named_example(name), side)
    rng = np.random.default_rng(1)

    for m, n in [(0, 1), (1, 0), (1, 1)]:
        xs = [ctx.basis(m)[0], _random_cochain(ctx, m, rng)]
        ys = [ctx.basis(n)[-1], _random_cochain(ctx, n, rng), _random_cochain(ctx, n, rng)]
        cases = [(xs, m, ys, n), (xs[1:], m, ys, n), (ys, n, xs[:1], m), (xs, m, [], n), ([], m, ys, n)]
        for lefts, p, rights, q in cases:
            grids = [
                _pi_grid(ctx, 0, _stack(ctx, lefts, p), p, _stack(ctx, rights, q), q),
                _pi_grid(ctx, 1, _stack(ctx, lefts, p), p, _stack(ctx, rights, q), q),
                _commutators(ctx, _stack(ctx, lefts, p), p, _stack(ctx, rights, q), q),
            ]
            assert {(g.rows, g.cols) for g in grids} == {(ctx.space_dim(p + q), len(lefts) * len(rights))}
            sign = -1 if p * q % 2 else 1
            for a, x in enumerate(lefts):
                for b, y in enumerate(rights):
                    commutator = lin_comb(ctx, p + q, [(1, cup(ctx, x, y)), (-sign, cup(ctx, y, x))])
                    products = [cup(ctx, x, y), sqcup(ctx, y, x), commutator]
                    for grid, product in zip(grids, products):
                        assert grid.col_vector(a * len(rights) + b) == vec(ctx.to_base(product))


# -- oracles: the alternative formulas the library no longer evaluates ----------

ORACLE_FIXTURES = ("trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2")
# fixtures small enough to pair every two basis cochains of degree <= 1
EXHAUSTIVE_PAIRS = ("trivial-k", "trivial-z2", "z2", "graded-z2")


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_products_match_direct_formulas(examples, name, side):
    # the products are bilinear.  On the small fixtures every pair of basis
    # cochains of degree <= 1 is compared; on z3 and sweedler (6400 pairs)
    # every basis cochain meets seeded random partners of degrees 0 and 1 in
    # both slots.  Seeded random cochains of degree <= 2 meet each other.
    ctx = CompContext(examples[name], side)
    rng = np.random.default_rng(0)
    basis = ctx.basis(0) + ctx.basis(1)
    randoms = [_random_cochain(ctx, d, rng) for d in (0, 1, 2)]
    pairs = [(f, g) for f in randoms for g in randoms]
    for f in basis:
        partners = basis if name in EXHAUSTIVE_PAIRS else randoms[:2]
        pairs += [(f, g) for g in partners] + [(g, f) for g in partners]
    for f, g in pairs:
        assert cup(ctx, f, g) == _direct_cup(ctx, f, g), (name, side, f.degree, g.degree)
        assert sqcup(ctx, f, g) == _direct_sqcup(ctx, f, g), (name, side, f.degree, g.degree)


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_coboundary_matches_diamond_formula(examples, name, side):
    # every basis cochain of degree <= 2, and seeded random ones
    ctx = CompContext(examples[name], side)
    rng = np.random.default_rng(1)
    cochains = [f for m in (0, 1, 2) for f in ctx.basis(m)]
    cochains += [_random_cochain(ctx, d, rng) for d in (0, 1, 2)]
    for f in cochains:
        m = f.degree
        sign = -1 if (m - 1) % 2 else 1
        expected = lin_comb(
            ctx, m + 1, [(sign, diamond(ctx, ctx.pi, f)), (-1, diamond(ctx, f, ctx.pi))]
        )
        assert coboundary(ctx, f) == expected, (name, side, m)


def _per_pair_class_products(ctx, m, n):
    """Oracle: the per-pair loop class_products replaced.  One from_vec ->
    cup/sqcup -> single-column reduce per class pair; returns the product
    columns and the graded_commutativity items."""
    hm, hn, target = (ctx.cohomology_at(d) for d in (m, n, m + n))
    sign = -1 if (m * n) % 2 else 1
    cups, sqcups, items = [], [], []
    for xv in _columns(hm.class_reps):
        xi = ctx.from_vec(m, xv)
        for ev in _columns(hn.class_reps):
            eta = ctx.from_vec(n, ev)
            product, twisted = cup(ctx, xi, eta), sqcup(ctx, eta, xi)
            cups.append(vec(ctx.to_base(product)))
            sqcups.append(vec(ctx.to_base(twisted)))
            residual = lin_comb(ctx, m + n, [(1, product), (-sign, twisted)])
            name = f"class pair #{len(items)}"
            try:
                coords = target.reduce(vec(ctx.to_base(residual)))
            except InconsistentQuotientError:
                items.append((name, False, "residual is not a cocycle"))
                continue
            items.append((name, coords.is_zero(), f"deg ({m},{n})"))
    if not items:
        items.append((f"no class pairs at degrees ({m},{n})", True, "nothing to check"))
    return cups, sqcups, items


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
@pytest.mark.parametrize("field", (QQ, FieldSpec.prime(7)), ids=str)
@pytest.mark.parametrize("name", ORACLE_FIXTURES + ("sweedler-flip",))
def test_class_products_match_per_pair_loop(name, field, side):
    # sweedler-flip (the trivial entwining of H4) has 4 classes in each degree
    # on side A, graded-z2 has classes in degrees 0-2; the rest have H^0 only
    if name == "sweedler-flip":
        h = sweedler_h4(field)
        e = trivial_entwining(h.algebra, h.coalgebra)
    else:
        e = named_example(name, field)
    ctx = CompContext(e, side)
    for m in range(3):
        for n in range(3 - m):
            cups, sqcups, items = _per_pair_class_products(ctx, m, n)
            got = class_products(ctx, m, n)
            for want, mat in zip((cups, sqcups), got):
                assert _columns(mat) == want, (m, n)
            assert graded_commutativity(ctx, m, n).items == items, (m, n)


@pytest.mark.parametrize("side", (ALGEBRA, COALGEBRA))
def test_graded_commutativity_flags_the_pairs_the_loop_flags(monkeypatch, side):
    # with every basis 1-cochain of graded-z2 posing as a class of H^1, some
    # (1,1) residuals are not cocycles: the batched check must flag the same
    # pairs with the same details
    ctx = CompContext(named_example("graded-z2"), side)
    real = ctx.cohomology_at
    fake = SimpleNamespace(class_reps=_stack(ctx, ctx.basis(1), 1))
    monkeypatch.setattr(ctx, "cohomology_at", lambda d: fake if d == 1 else real(d))
    _, _, items = _per_pair_class_products(ctx, 1, 1)
    assert {(ok, detail) for _, ok, detail in items} >= {(False, "residual is not a cocycle"), (True, "deg (1,1)")}
    assert graded_commutativity(ctx, 1, 1).items == items
