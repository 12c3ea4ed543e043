"""Double complex, glued total complex, and the deformation correspondence."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entwine import cli, deform, linalg
from entwine.complexes import cohomology, module_differential
from entwine.deform import (
    DoubleComplexGrid,
    InfinitesimalDeformation,
    TotalComplex,
    coboundary_equivalence,
    coboundary_witnesses,
    deformation_from_cocycle,
    first_order_checks,
    first_order_laws,
    random_two_cochain,
    split_degree2,
    transport_laws,
)
from entwine.entwining import bimodule_on_A_Cn
from entwine.errors import CocycleConditionError, DegreeError
from entwine.linalg import Mat, hstack, kron, rank, solve, vstack
from entwine.zoo import EXAMPLE_NAMES, named_example


@pytest.fixture(scope="module")
def kz2():
    return named_example("z2")


@pytest.fixture(scope="module")
def kz2_ch(kz2):
    return TotalComplex(kz2, 3)


def test_one_dim_grid_and_total(kz2):
    e = named_example("trivial-k")
    grid = DoubleComplexGrid(e, 3, 3)  # identities verified inside
    assert all(dim == 1 for dim in grid.dims.values())
    tc = TotalComplex(e, 4)
    assert tc.dims == [0, 2, 3, 4, 5]
    assert cohomology(tc.complex, 2).betti == 0


def test_kz2_grid_identities(kz2):
    grid = DoubleComplexGrid(kz2, 3, 3)
    # row n = 1 horizontal differential is the module-valued one for A (x) C
    m1 = bimodule_on_A_Cn(kz2, 1)
    for m in range(3):
        assert grid.d[(m, 1)] == module_differential(kz2, m1, m)


def test_caps_enforced(kz2):
    with pytest.raises(DegreeError):
        DoubleComplexGrid(kz2, 4, 3)
    with pytest.raises(DegreeError):
        TotalComplex(kz2, 5)


def test_total_dims_match_component_sum(kz2, kz2_ch):
    da, dc = kz2.algebra.dim, kz2.coalgebra.dim
    for n in (1, 2, 3):
        expected = da ** (n + 1) + sum(
            (dc * da ** (n - k)) * (da * dc**k) for k in range(1, n)
        ) + dc ** (n + 1)
        assert kz2_ch.dims[n] == expected
    assert kz2_ch.dims == [0, 8, 32, 96]


def _triples_assembly(field, rows, cols, blocks):
    """Reference block assembly: every entry as a Fraction triple."""
    triples = []
    for roff, coff, mat in blocks:
        for i, j, v in mat.triples():
            triples.append((roff + i, coff + j, v))
    return Mat.from_triples(field, rows, cols, triples)


@pytest.mark.parametrize("name", ["sweedler", "graded-z2"])
def test_total_differential_matches_triples_assembly(monkeypatch, name):
    e = named_example(name)
    tc = TotalComplex(e, 4)
    monkeypatch.setattr(deform, "from_blocks", _triples_assembly)
    reference = TotalComplex(e, 4)
    for n in range(4):
        got, want = tc.differential(n), reference.differential(n)
        assert got == want and got.nnz == want.nnz


# corrupted-psi is no entwining: its total complex fails D o D = 0
@pytest.mark.parametrize("name", [n for n in EXAMPLE_NAMES if n not in ("sweedler", "graded-z2", "corrupted-psi")])
def test_total_differential_matches_triples_assembly_on_the_other_examples(monkeypatch, name):
    test_total_differential_matches_triples_assembly(monkeypatch, name)


def test_total_differential_peak_memory(monkeypatch):
    # Sweedler's D^3 (14336 x 2560, 33712 entries) with warm caches; tracemalloc
    # peaks above the starting level: 1.62 MB for _total_differential(3) and
    # 1.02 MB for its from_blocks call, which places each entry in its CSR slot,
    # against 2.61 and 2.01 MB when from_blocks sorted an int64 key per entry
    tc = TotalComplex(named_example("sweedler"), 4)
    real_from_blocks, calls = deform.from_blocks, []

    def from_blocks(*args):
        start, peak_before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = real_from_blocks(*args)
        calls.append((peak_before, tracemalloc.get_traced_memory()[1] - start))
        return out

    monkeypatch.setattr(deform, "from_blocks", from_blocks)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tc._total_differential(3)
        [(peak_before, call_peak)] = calls
        peak = max(peak_before, tracemalloc.get_traced_memory()[1]) - start
    finally:
        tracemalloc.stop()
    assert peak < 2.1e6 and call_peak < 1.5e6, (peak, call_peak)


def test_kz2_total_cohomology(kz2_ch):
    h2 = cohomology(kz2_ch.complex, 2)
    assert (h2.cocycle_basis.cols, h2.coboundary_basis.cols, h2.betti) == (9, 8, 1)
    assert cohomology(kz2_ch.complex, 1).betti == 0


def test_zero_cochain_is_trivial_deformation(kz2, kz2_ch):
    z = Mat.zeros(kz2.field, kz2_ch.dims[2], 1)
    deformation = deformation_from_cocycle(kz2, z, kz2_ch)
    assert deformation.mu1.is_zero()
    assert deformation.psi1.is_zero()
    alpha1, gamma1 = coboundary_equivalence(kz2, z, Mat.zeros(kz2.field, kz2_ch.dims[1], 1), kz2_ch)
    assert alpha1.is_zero() and gamma1.is_zero()


def test_every_cocycle_deforms(kz2, kz2_ch):
    h2 = cohomology(kz2_ch.complex, 2)
    for j in range(h2.cocycle_basis.cols):
        deformation_from_cocycle(kz2, h2.cocycle_basis.col_vector(j), kz2_ch)


def test_every_coboundary_is_equivalent_to_trivial(kz2, kz2_ch):
    h2 = cohomology(kz2_ch.complex, 2)
    d1 = kz2_ch.differential(1)
    for j in range(h2.coboundary_basis.cols):
        z = h2.coboundary_basis.col_vector(j)
        w = solve(d1, z)
        assert w is not None
        coboundary_equivalence(kz2, z, w, kz2_ch)


def test_nontrivial_class_has_no_witness(kz2, kz2_ch):
    h2 = cohomology(kz2_ch.complex, 2)
    assert h2.betti > 0
    for j in range(h2.class_reps.cols):
        assert solve(kz2_ch.differential(1), h2.class_reps.col_vector(j)) is None


def test_random_non_cocycle_rejected(kz2, kz2_ch):
    z = random_two_cochain(kz2_ch, seed=0)
    assert not (kz2_ch.differential(2) @ z).is_zero()
    with pytest.raises(CocycleConditionError):
        deformation_from_cocycle(kz2, z, kz2_ch)


@pytest.mark.parametrize("name", ["trivial-k", "sweedler"])
def test_random_two_cochain_is_numpys_default_rng_stream(name):
    # trivial-k's 3-dimensional degree-2 space often samples a cocycle, so a
    # different stream changes its deform reports
    tc = TotalComplex(named_example(name), 3)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        oracle = [(i, 0, int(rng.integers(-3, 4))) for i in range(tc.dims[2])]
        assert random_two_cochain(tc, seed) == Mat.from_triples(tc.e.field, tc.dims[2], 1, oracle), seed
    with pytest.raises(ValueError):
        random_two_cochain(tc, -1)


def test_first_order_laws_iff_cocycle(kz2, kz2_ch):
    # validity of the mod-t^2 deformation is exactly the cocycle condition
    d2 = kz2_ch.differential(2)
    rng = np.random.default_rng(1)
    for trial in range(6):
        z = Mat.from_triples(
            kz2.field,
            kz2_ch.dims[2],
            1,
            [(i, 0, int(rng.integers(-2, 3))) for i in range(kz2_ch.dims[2])],
        )
        is_cocycle = (d2 @ z).is_zero()
        passes = first_order_checks(kz2, split_degree2(kz2_ch, z)).ok
        assert is_cocycle == passes


def test_bad_witness_rejected(kz2, kz2_ch):
    h2 = cohomology(kz2_ch.complex, 2)
    z = h2.coboundary_basis.col_vector(0)
    assert not z.is_zero()
    zero_w = Mat.zeros(kz2.field, kz2_ch.dims[1], 1)
    with pytest.raises(CocycleConditionError):
        coboundary_equivalence(kz2, z, zero_w, kz2_ch)


def test_grids_verify_for_all_fixtures():
    for name in ("trivial-z2", "z3", "sweedler"):
        e = named_example(name)
        DoubleComplexGrid(e, 3, 3)
        TotalComplex(e, 4)


def test_deformed_structure_is_entwining_mod_t2(kz2, kz2_ch):
    # build the deformed triple over Q[t]/(t^2) ~ explicit first-order arithmetic:
    # checked here by re-deriving the first-order laws from scratch for one class
    h2 = cohomology(kz2_ch.complex, 2)
    rep = h2.class_reps.col_vector(0)
    deformation = deformation_from_cocycle(kz2, rep, kz2_ch)
    assert isinstance(deformation, InfinitesimalDeformation)
    report = first_order_checks(kz2, deformation)
    assert report.ok
    assert len(report.items) == 8


# -- the law operators against the per-cochain formulas ---------------------------------
#
# The two oracles below evaluate each law directly on one cochain, as matrix
# formulas, and return its residuals lhs - rhs; each law's row block of the
# operator applied to the cochain must equal their vec, so a dropped term or
# a flipped sign shows even where a boolean check would still pass.

VALID_FIXTURES = ["trivial-k", "trivial-z2", "z2", "graded-z2", "z3", "sweedler"]


def _first_order_residuals(e, deformation):
    """[(law, [lhs - rhs, ...])] for the deformed triple at the t^1 coefficient."""
    a, c = e.algebra, e.coalgebra
    da, dc = a.dim, c.dim
    mu, delta, psi = a.mult.mat, c.comult.mat, e.psi.mat
    mu1, delta1, psi1 = deformation.mu1.mat, deformation.delta1.mat, deformation.psi1.mat
    ia, ic = Mat.identity(e.field, da), Mat.identity(e.field, dc)
    unit, counit = a.unit, c.counit.mat
    residuals = []

    lhs = mu1 @ kron(mu, ia) + mu @ kron(mu1, ia)
    rhs = mu1 @ kron(ia, mu) + mu @ kron(ia, mu1)
    residuals.append(("associativity", [lhs - rhs]))

    w = mu1 @ kron(unit, unit)  # mu1(1,1); deformed unit is 1 - t w
    residuals.append((
        "unit law",
        [mu1 @ kron(unit, ia) - mu @ kron(w, ia), mu1 @ kron(ia, unit) - mu @ kron(ia, w)],
    ))

    lhs = kron(delta1, ic) @ delta + kron(delta, ic) @ delta1
    rhs = kron(ic, delta1) @ delta + kron(ic, delta) @ delta1
    residuals.append(("coassociativity", [lhs - rhs]))

    e1 = kron(counit, counit) @ delta1  # deformed counit is eps - t e1
    residuals.append((
        "counit law",
        [kron(counit, ic) @ delta1 - kron(e1, ic) @ delta, kron(ic, counit) @ delta1 - kron(ic, e1) @ delta],
    ))

    lhs = psi1 @ kron(ic, mu) + psi @ kron(ic, mu1)
    rhs = (
        kron(mu1, ic) @ kron(ia, psi) @ kron(psi, ia)
        + kron(mu, ic) @ kron(ia, psi1) @ kron(psi, ia)
        + kron(mu, ic) @ kron(ia, psi) @ kron(psi1, ia)
    )
    residuals.append(("left pentagon", [lhs - rhs]))

    lhs = kron(ia, delta1) @ psi + kron(ia, delta) @ psi1
    rhs = (
        kron(psi1, ic) @ kron(ic, psi) @ kron(delta, ia)
        + kron(psi, ic) @ kron(ic, psi1) @ kron(delta, ia)
        + kron(psi, ic) @ kron(ic, psi) @ kron(delta1, ia)
    )
    residuals.append(("right pentagon", [lhs - rhs]))

    lhs = psi1 @ kron(ic, unit) - psi @ kron(ic, w)
    residuals.append(("left triangle", [lhs - -kron(w, ic)]))

    lhs = kron(ia, counit) @ psi1 - kron(ia, e1) @ psi
    residuals.append(("right triangle", [lhs - -kron(e1, ia)]))
    return residuals


def _transport_residuals(e, z, w, tc):
    """[(identity, [lhs - rhs])] for id + t alpha1, id + t gamma1 read off w."""
    pieces = tc.split(1, w)
    alpha1 = pieces[("hoch", 1)]
    gamma1 = pieces[("cart", 1)]
    deformation = split_degree2(tc, z)
    a, c = e.algebra, e.coalgebra
    mu, delta, psi = a.mult.mat, c.comult.mat, e.psi.mat
    ia = Mat.identity(e.field, a.dim)
    ic = Mat.identity(e.field, c.dim)
    residuals = []
    lhs = alpha1.mat @ mu + deformation.mu1.mat
    rhs = mu @ kron(alpha1.mat, ia) + mu @ kron(ia, alpha1.mat)
    residuals.append(("product transported", [lhs - rhs]))
    lhs = kron(gamma1.mat, ic) @ delta + kron(ic, gamma1.mat) @ delta + deformation.delta1.mat
    residuals.append(("coproduct transported", [lhs - delta @ gamma1.mat]))
    lhs = psi @ kron(gamma1.mat, ia) + psi @ kron(ic, alpha1.mat)
    rhs = kron(alpha1.mat, ic) @ psi + kron(ia, gamma1.mat) @ psi + deformation.psi1.mat
    residuals.append(("entwining map transported", [lhs - rhs]))
    return residuals


def _random_column(field, length, seed):
    rng = np.random.default_rng(seed)
    return Mat.from_triples(field, length, 1, [(i, 0, int(rng.integers(-3, 4))) for i in range(length)])


def _assert_blocks_match(laws, column, oracle):
    """Each law's block of the operator applied to column is vec(lhs - rhs)."""
    residual = laws.op @ column
    assert [name for name, _ in oracle] == [name for name, _, _ in laws.blocks]
    for (name, start, end), (_, pieces) in zip(laws.blocks, oracle):
        want = vstack([r.reshape(r.rows * r.cols, 1) for r in pieces])
        assert residual.select_rows(slice(start, end)) == want, name
    assert laws.blocks[-1][2] == laws.op.rows


@pytest.fixture(scope="module", params=VALID_FIXTURES)
def deform_case(request):
    e = named_example(request.param)
    tc = TotalComplex(e, 3)
    return e, tc, cohomology(tc.complex, 2)


def test_first_order_operator_matches_formulas(deform_case):
    e, tc, h2 = deform_case
    laws = first_order_laws(e)
    samples = (_random_column(e.field, tc.dims[2], seed) for seed in range(1, 20))
    randoms = [z for z in samples if not (tc.differential(2) @ z).is_zero()][:2]
    assert len(randoms) == 2
    cocycles = h2.cocycle_basis
    for z in [cocycles.col_vector(j) for j in range(cocycles.cols)] + randoms:
        oracle = _first_order_residuals(e, split_degree2(tc, z))
        _assert_blocks_match(laws, z, oracle)
        report = first_order_checks(e, split_degree2(tc, z))
        assert [(name, ok) for name, ok, _ in report.items] == [
            (name, all(r.is_zero() for r in pieces)) for name, pieces in oracle
        ]
    # the non-cocycles break some law, and the batched reading agrees per column
    failures = laws.failures(hstack([cocycles, *randoms]))
    assert not any(failures[: cocycles.cols]) and all(failures[cocycles.cols :])


def test_transport_operator_matches_formulas(deform_case):
    e, tc, h2 = deform_case
    laws = transport_laws(e)
    ws = coboundary_witnesses(tc)
    zs = h2.coboundary_basis
    pairs = [(zs.col_vector(k), ws.col_vector(k)) for k in range(zs.cols)]
    for seed in (1, 2):  # unrelated (w, z): every identity has a nonzero residual to compare
        pairs.append((_random_column(e.field, tc.dims[2], seed), _random_column(e.field, tc.dims[1], seed + 10)))
    for z, w in pairs:
        _assert_blocks_match(laws, vstack([w, z]), _transport_residuals(e, z, w, tc))
    assert not any(laws.failures(vstack([ws, zs])))


def test_batched_witnesses_equal_solves(deform_case):
    e, tc, h2 = deform_case
    d1 = tc.differential(1)
    ws = coboundary_witnesses(tc)
    assert ws.cols == h2.coboundary_basis.cols
    for k in range(ws.cols):
        assert ws.col_vector(k) == solve(d1, h2.coboundary_basis.col_vector(k))


def test_first_order_laws_cut_out_the_cocycles(deform_case):
    # ker L = ker D^2 on total 2-cochains: the mod-t^2 laws are exactly the cocycle condition
    e, tc, _ = deform_case
    laws, d2 = first_order_laws(e).op, tc.differential(2)
    assert rank(laws) == rank(d2) == rank(vstack([laws, d2]))


def test_deform_command_does_no_per_coboundary_work(monkeypatch, tmp_path):
    # the battery is products with stacked bases: no solve, and kron calls only
    # to build each operator once (1932 is the count of a per-cochain battery)
    counts = {"kron": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in (("kron", linalg.kron), ("solve", linalg.solve)):
        wrapper = counting(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "entwine":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "sweedler.json"
    assert cli.main(["deform", str(fixture), "--json", str(tmp_path / "r.json")]) == 0
    assert counts["solve"] == 0
    assert 0 < counts["kron"] <= 1932 // 2
