"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per criterion.
"""

import functools
import json
import time
from pathlib import Path

import pytest

from entwine.compalg import (
    ALGEBRA,
    COALGEBRA,
    CompContext,
    coboundary,
    cup,
    diamond,
    eps_tensor_id,
    equivariant_checks,
    graded_commutativity,
    lin_comb,
    sqcup,
    verify_weak_comp,
)
from entwine.complexes import (
    build_ApsiCV,
    build_CpsiAM,
    cartier_complex,
    cohomology,
    hochschild_complex,
    hom_CM_bimodule,
    hopf_contracting_homotopy,
    module_differential,
    projectivity_witness,
)
from entwine.deform import (
    DoubleComplexGrid,
    TotalComplex,
    coboundary_equivalence,
    deformation_from_cocycle,
    random_two_cochain,
)
from entwine.entwining import check_bowtie
from entwine.errors import BowTieError, CocycleConditionError
from entwine.linalg import FieldSpec, Mat, solve
from entwine.structures import regular_bicomodule, regular_bimodule
from entwine.zoo import bialgebra_self_entwining, load, sweedler_h4

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL_NAMES = ("trivial-k", "trivial-z2", "z2", "z3", "sweedler")


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS - {description}")

        return run

    return wrap


@criterion(1, "bow-tie suite over all fixtures; corrupted psi names its relation")
def test_criterion_01_bowtie(examples):
    started = time.time()
    for name in ALL_NAMES:
        e = examples[name]
        assert check_bowtie(e.algebra, e.coalgebra, e.psi).ok, name
    with pytest.raises(BowTieError) as err:
        load(FIXTURES / "corrupted-psi.json")
    assert "left pentagon" in str(err.value)
    assert time.time() - started < 1.0


@criterion(2, "d^2 = 0 for both twisted complexes, degrees <= 3, all fixtures")
def test_criterion_02_d_squared(examples):
    started = time.time()
    for name in ALL_NAMES:
        e = examples[name]
        build_CpsiAM(e, regular_bimodule(e.algebra), n_max=4)
        build_CpsiAM(e, hom_CM_bimodule(e, regular_bimodule(e.algebra)), n_max=4)
        build_ApsiCV(e, regular_bicomodule(e.coalgebra), n_max=4)
    assert time.time() - started < 30.0


@criterion(3, "twisted builders equal the Hochschild/Cartier oracles, degrees <= 4")
def test_criterion_03_oracles():
    from entwine.zoo import field_algebra, field_coalgebra, group_algebra_hopf, trivial_entwining

    for n_group in (1, 2, 3):
        h = group_algebra_hopf(n_group)
        e = trivial_entwining(h.algebra, field_coalgebra())
        m = regular_bimodule(h.algebra)
        twisted = build_CpsiAM(e, m, n_max=5)
        oracle = hochschild_complex(h.algebra, m, n_max=5)
        assert twisted.space_dims == oracle.space_dims
        for d_t, d_o in zip(twisted.differentials, oracle.differentials):
            assert d_t == d_o
        e2 = trivial_entwining(field_algebra(), h.coalgebra)
        v = regular_bicomodule(h.coalgebra)
        twisted2 = build_ApsiCV(e2, v, n_max=5)
        oracle2 = cartier_complex(h.coalgebra, v, n_max=5)
        assert twisted2.space_dims == oracle2.space_dims
        for d_t, d_o in zip(twisted2.differentials, oracle2.differentials):
            assert d_t == d_o


@criterion(4, "Hopf acyclicity: betti (2,0,0) for kZ2 and (4,0,0) for Sweedler H4")
def test_criterion_04_hopf_acyclicity(examples):
    started = time.time()
    kz2 = examples["z2"]
    cx = build_CpsiAM(kz2, regular_bimodule(kz2.algebra), n_max=3)
    assert [cohomology(cx, n).betti for n in (0, 1, 2)] == [2, 0, 0]

    h4 = examples["sweedler"]
    cx_q = build_CpsiAM(h4, regular_bimodule(h4.algebra), n_max=3)
    betti_q = [cohomology(cx_q, n).betti for n in (0, 1, 2)]
    assert betti_q[:2] == [4, 0]
    assert betti_q[2] == 0  # full result over Q

    h4_p = bialgebra_self_entwining(sweedler_h4(FieldSpec.prime(10007)))
    cx_p = build_CpsiAM(h4_p, regular_bimodule(h4_p.algebra), n_max=3)
    betti_p = [cohomology(cx_p, n).betti for n in (0, 1, 2)]
    assert betti_p[:2] == betti_q[:2]  # F_p must match Q where both computed
    assert betti_p[2] == 0
    assert time.time() - started < 300.0


@criterion(5, "contracting homotopy identity at n = 1, 2 (kZ2) and n = 1 (H4)")
def test_criterion_05_homotopy(examples):
    for name, degrees in (("z2", (1, 2)), ("sweedler", (1,))):
        e = examples[name]
        m = regular_bimodule(e.algebra)
        for n in degrees:
            h_n = hopf_contracting_homotopy(e, m, n)
            h_n1 = hopf_contracting_homotopy(e, m, n + 1)
            d_n = module_differential(e, m, n)
            d_nm1 = module_differential(e, m, n - 1)
            dim = m.dim * e.coalgebra.dim * e.algebra.dim**n
            assert h_n1 @ d_n + d_nm1 @ h_n == Mat.identity(e.field, dim), (name, n)


@criterion(6, "projectivity witness exists and forces betti(1) = 0 for both coefficients")
def test_criterion_06_projectivity(examples):
    for name in ("z2", "sweedler"):
        e = examples[name]
        assert projectivity_witness(e) is not None, name
        for coeff in (regular_bimodule(e.algebra), hom_CM_bimodule(e, regular_bimodule(e.algebra))):
            cx = build_CpsiAM(e, coeff, n_max=2)
            assert cohomology(cx, 1).betti == 0, name


@criterion(7, "weak comp axioms hold exhaustively, both sides, all fixtures")
def test_criterion_07_weak_comp(examples):
    started = time.time()
    for name in ALL_NAMES:
        e = examples[name]
        assert verify_weak_comp(CompContext(e, ALGEBRA), 2).ok, name
        assert verify_weak_comp(CompContext(e, COALGEBRA), 2).ok, name
    assert time.time() - started < 120.0


@criterion(8, "pi = d(eps (x) id) and pi <> pi = 0 on all fixtures")
def test_criterion_08_pi(examples):
    for name in ALL_NAMES:
        e = examples[name]
        for side in (ALGEBRA, COALGEBRA):
            ctx = CompContext(e, side)
            assert coboundary(ctx, eps_tensor_id(ctx)) == ctx.pi, (name, side)
            assert diamond(ctx, ctx.pi, ctx.pi).is_zero, (name, side)


@criterion(9, "cup/sqcup derivation rules and the commutator identity, kZ2, m+n <= 3")
def test_criterion_09_derivations(examples):
    ctx = CompContext(examples["z2"], ALGEBRA)
    for m in range(0, 4):
        for n in range(0, 4 - m):
            for f in ctx.basis(m):
                df = coboundary(ctx, f)
                for g in ctx.basis(n):
                    dg = coboundary(ctx, g)
                    sign_m = -1 if m % 2 else 1
                    lhs = coboundary(ctx, cup(ctx, f, g))
                    rhs = lin_comb(
                        ctx, m + n + 1,
                        [(1, cup(ctx, df, g)), (sign_m, cup(ctx, f, dg))],
                    )
                    assert lhs == rhs, ("cup", m, n)
                    lhs = coboundary(ctx, sqcup(ctx, f, g))
                    rhs = lin_comb(
                        ctx, m + n + 1,
                        [(1, sqcup(ctx, df, g)), (sign_m, sqcup(ctx, f, dg))],
                    )
                    assert lhs == rhs, ("sqcup", m, n)
                    s1 = -1 if (n - 1) % 2 else 1
                    s2 = -1 if (m * n) % 2 else 1
                    lhs = lin_comb(
                        ctx, m + n,
                        [
                            (1, diamond(ctx, f, dg)),
                            (-1, coboundary(ctx, diamond(ctx, f, g))),
                            (s1, diamond(ctx, df, g)),
                        ],
                    )
                    rhs = lin_comb(
                        ctx, m + n,
                        [(s1, sqcup(ctx, g, f)), (-s1 * s2, cup(ctx, f, g))],
                    )
                    assert lhs == rhs, ("commutator", m, n)


@criterion(10, "graded sign rule on cohomology classes, m+n <= 3, all fixtures")
def test_criterion_10_graded_commutativity(examples):
    for name in ALL_NAMES:
        ctx = CompContext(examples[name], ALGEBRA)
        for m in range(0, 4):
            for n in range(0, 4 - m):
                assert graded_commutativity(ctx, m, n).ok, (name, m, n)


@criterion(11, "equivariant subcomplex: closure, cup agreement, Hopf criterion (kZ2)")
def test_criterion_11_equivariant(examples):
    report = equivariant_checks(CompContext(examples["z2"], ALGEBRA), 2)
    assert report.ok, str(report)
    names = [n for n, _, _ in report.items]
    assert sum("translation-map criterion" in n for n in names) == 3  # degrees 0, 1, 2


@criterion(12, "double complex identities and glued total complex dimensions")
def test_criterion_12_double_complex(examples):
    for name in ALL_NAMES:
        e = examples[name]
        DoubleComplexGrid(e, 3, 3)  # d^2, dbar^2, d dbar = dbar d verified inside
        tc = TotalComplex(e, 4)  # D^2 = 0 verified inside
        da, dc = e.algebra.dim, e.coalgebra.dim
        for n in range(1, 5):
            expected = da ** (n + 1) + sum(
                (dc * da ** (n - k)) * (da * dc**k) for k in range(1, n)
            ) + dc ** (n + 1)
            assert tc.dims[n] == expected, (name, n)


@criterion(13, "deformation round trip on kZ2: cocycles, coboundaries, rejection")
def test_criterion_13_deformations(examples):
    started = time.time()
    e = examples["z2"]
    tc = TotalComplex(e, 3)
    h2 = cohomology(tc.complex, 2)
    assert (h2.cocycle_basis.cols, h2.coboundary_basis.cols) == (9, 8)
    for j in range(h2.cocycle_basis.cols):
        deformation_from_cocycle(e, h2.cocycle_basis.col_vector(j), tc)
    d1 = tc.differential(1)
    for j in range(h2.coboundary_basis.cols):
        z = h2.coboundary_basis.col_vector(j)
        w = solve(d1, z)
        assert w is not None
        coboundary_equivalence(e, z, w, tc)
    z_bad = random_two_cochain(tc, seed=0)
    assert not (tc.differential(2) @ z_bad).is_zero()
    with pytest.raises(CocycleConditionError):
        deformation_from_cocycle(e, z_bad, tc)
    # validity of the first-order laws is exactly the cocycle condition
    from entwine.deform import first_order_checks, split_degree2

    assert not first_order_checks(e, split_degree2(tc, z_bad)).ok
    assert time.time() - started < 300.0


@criterion(14, "two runs of the CLI suite produce byte-identical reports")
def test_criterion_14_determinism(tmp_path):
    from entwine.cli import main

    blobs = []
    for round_ in (1, 2):
        parts = []
        commands = [
            ["verify", str(FIXTURES / "z2.json")],
            ["verify", str(FIXTURES / "sweedler.json")],
            ["cohom", str(FIXTURES / "z2.json"), "--max-degree", "3"],
            ["cohom", str(FIXTURES / "z2.json"), "--side", "C"],
            ["cup", str(FIXTURES / "z2.json"), "--deg", "0", "0"],
            ["equivariant", str(FIXTURES / "z2.json"), "--max-degree", "2"],
            ["deform", str(FIXTURES / "z2.json"), "--seed", "0"],
        ]
        for i, argv in enumerate(commands):
            out = tmp_path / f"run{round_}_{i}.json"
            code = main(argv + ["--json", str(out)])
            assert code == 0
            parts.append(out.read_bytes())
        blobs.append(b"\x00".join(parts))
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0].split(b"\x00")[0])
    assert doc["format"] == "entwine-report/1"
