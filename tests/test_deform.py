"""Double complex, glued total complex, and the deformation correspondence."""

import numpy as np
import pytest

from entwine import deform
from entwine.complexes import module_differential
from entwine.deform import (
    InfinitesimalDeformation,
    build_CH,
    build_double_complex,
    coboundary_equivalence,
    deformation_from_cocycle,
    first_order_checks,
    random_two_cochain,
    split_degree2,
    total_cohomology,
)
from entwine.entwining import bimodule_on_A_Cn
from entwine.errors import CocycleConditionError, DegreeError
from entwine.linalg import Mat, solve
from entwine.zoo import named_example


@pytest.fixture(scope="module")
def kz2():
    return named_example("z2")


@pytest.fixture(scope="module")
def kz2_ch(kz2):
    return build_CH(kz2, 3)


def test_one_dim_grid_and_total(kz2):
    e = named_example("trivial-k")
    grid = build_double_complex(e, 3, 3)  # identities verified inside
    assert all(dim == 1 for dim in grid.dims.values())
    tc = build_CH(e, 4)
    assert tc.dims == [0, 2, 3, 4, 5]
    assert total_cohomology(tc, 2).betti == 0


def test_kz2_grid_identities(kz2):
    grid = build_double_complex(kz2, 3, 3)
    # row n = 1 horizontal differential is the module-valued one for A (x) C
    m1 = bimodule_on_A_Cn(kz2, 1)
    for m in range(3):
        assert grid.d[(m, 1)] == module_differential(kz2, m1, m)


def test_caps_enforced(kz2):
    with pytest.raises(DegreeError):
        build_double_complex(kz2, 4, 3)
    with pytest.raises(DegreeError):
        build_CH(kz2, 5)


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
    tc = build_CH(e, 4)
    monkeypatch.setattr(deform, "from_blocks", _triples_assembly)
    reference = build_CH(e, 4)
    for n in range(4):
        got, want = tc.differential(n), reference.differential(n)
        assert got == want and got.nnz == want.nnz


def test_kz2_total_cohomology(kz2_ch):
    h2 = total_cohomology(kz2_ch, 2)
    assert (len(h2.cocycle_basis), len(h2.coboundary_basis), h2.betti) == (9, 8, 1)
    assert total_cohomology(kz2_ch, 1).betti == 0


def test_zero_cochain_is_trivial_deformation(kz2, kz2_ch):
    z = Mat.zeros(kz2.field, kz2_ch.dims[2], 1)
    deformation = deformation_from_cocycle(kz2, z, kz2_ch)
    assert deformation.mu1.is_zero()
    assert deformation.psi1.is_zero()
    alpha1, gamma1 = coboundary_equivalence(kz2, z, Mat.zeros(kz2.field, kz2_ch.dims[1], 1), kz2_ch)
    assert alpha1.is_zero() and gamma1.is_zero()


def test_every_cocycle_deforms(kz2, kz2_ch):
    h2 = total_cohomology(kz2_ch, 2)
    for z in h2.cocycle_basis:
        deformation_from_cocycle(kz2, z, kz2_ch)


def test_every_coboundary_is_equivalent_to_trivial(kz2, kz2_ch):
    h2 = total_cohomology(kz2_ch, 2)
    d1 = kz2_ch.differential(1)
    for z in h2.coboundary_basis:
        w = solve(d1, z)
        assert w is not None
        coboundary_equivalence(kz2, z, w, kz2_ch)


def test_nontrivial_class_has_no_witness(kz2, kz2_ch):
    h2 = total_cohomology(kz2_ch, 2)
    assert h2.betti > 0
    for rep in h2.class_reps:
        assert solve(kz2_ch.differential(1), rep) is None


def test_random_non_cocycle_rejected(kz2, kz2_ch):
    z = random_two_cochain(kz2_ch, seed=0)
    assert not (kz2_ch.differential(2) @ z).is_zero()
    with pytest.raises(CocycleConditionError):
        deformation_from_cocycle(kz2, z, kz2_ch)


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
    h2 = total_cohomology(kz2_ch, 2)
    z = h2.coboundary_basis[0]
    assert not z.is_zero()
    zero_w = Mat.zeros(kz2.field, kz2_ch.dims[1], 1)
    with pytest.raises(CocycleConditionError):
        coboundary_equivalence(kz2, z, zero_w, kz2_ch)


def test_grids_verify_for_all_fixtures():
    for name in ("trivial-z2", "z3", "sweedler"):
        e = named_example(name)
        build_double_complex(e, 3, 3)
        build_CH(e, 4)


def test_deformed_structure_is_entwining_mod_t2(kz2, kz2_ch):
    # build the deformed triple over Q[t]/(t^2) ~ explicit first-order arithmetic:
    # checked here by re-deriving the first-order laws from scratch for one class
    h2 = total_cohomology(kz2_ch, 2)
    rep = h2.class_reps[0]
    deformation = deformation_from_cocycle(kz2, rep, kz2_ch)
    assert isinstance(deformation, InfinitesimalDeformation)
    report = first_order_checks(kz2, deformation)
    assert report.ok
    assert len(report.items) == 8
