"""Twisted complexes vs classical oracles, cohomology, homotopies, witnesses."""

from pathlib import Path

import pytest

from entwine.complexes import (
    CochainComplex,
    bar_delta,
    bar_homotopy,
    build_ApsiCV,
    build_CpsiAM,
    cartier_complex,
    cartier_inclusion,
    cartier_inclusion_operator,
    cob_delta,
    cob_homotopy,
    cohomology,
    comodule_differential,
    h0_characterization,
    hochschild_complex,
    hochschild_differential,
    hochschild_inclusion,
    hochschild_inclusion_operator,
    hom_CM_bimodule,
    hopf_contracting_homotopy,
    module_differential,
    projectivity_witness,
)
from entwine.entwining import (
    bicomodule_on_C_An,
    bimodule_on_A_Cn,
    check_bowtie,
    dual,
    dual_bimodule,
    splitting,
    translation,
)
from entwine.errors import DegreeError, MissingTranslationMapError
from entwine.homspace import middle_operator, op_postcompose, op_precompose, vec
from entwine.linalg import (
    QQ,
    FieldSpec,
    Mat,
    image_basis,
    kernel_basis,
    quotient_with_projection,
    rank,
    solve,
)
from entwine.structures import (
    Bimodule,
    LinearMap,
    compose,
    identity_map,
    regular_bicomodule,
    regular_bimodule,
    tensor,
    validate_algebra,
    validate_coalgebra,
)
from entwine.zoo import (
    bialgebra_self_entwining,
    field_algebra,
    field_coalgebra,
    group_algebra_hopf,
    named_example,
    sweedler_h4,
    trivial_entwining,
)


@pytest.fixture(scope="module")
def kz2():
    return bialgebra_self_entwining(group_algebra_hopf(2))


@pytest.fixture(scope="module")
def triv_z2():
    h = group_algebra_hopf(2)
    return trivial_entwining(h.algebra, h.coalgebra)


@pytest.fixture(scope="module")
def triv_k():
    return trivial_entwining(field_algebra(), field_coalgebra())


# -- oracle agreement ---------------------------------------------------------


@pytest.mark.parametrize("n_group", [1, 2, 3])
def test_hochschild_oracle_with_trivial_C(n_group):
    h = group_algebra_hopf(n_group)
    e = trivial_entwining(h.algebra, field_coalgebra())
    m = regular_bimodule(h.algebra)
    twisted = build_CpsiAM(e, m, n_max=4)
    oracle = hochschild_complex(h.algebra, m, n_max=4)
    assert twisted.space_dims == oracle.space_dims
    for d_t, d_o in zip(twisted.differentials, oracle.differentials):
        assert d_t == d_o


@pytest.mark.parametrize("n_group", [1, 2, 3])
def test_cartier_oracle_with_trivial_A(n_group):
    h = group_algebra_hopf(n_group)
    e = trivial_entwining(field_algebra(), h.coalgebra)
    v = regular_bicomodule(h.coalgebra)
    twisted = build_ApsiCV(e, v, n_max=4)
    oracle = cartier_complex(h.coalgebra, v, n_max=4)
    assert twisted.space_dims == oracle.space_dims
    for d_t, d_o in zip(twisted.differentials, oracle.differentials):
        assert d_t == d_o


# -- the comodule-valued complex is the module-valued one of the dual -----------


def direct_comodule_differential(e, v, n):
    """d^n on Hom(V, A (x) C^n) coded directly from the comodule-valued formula."""
    a, c = e.algebra, e.coalgebra
    da, dc, dv = a.dim, c.dim, v.dim
    cod = da * dc**n
    psi_cn = tensor(e.psi, identity_map(e.field, (dc,) * n))
    total = middle_operator(psi_cn.mat, dc, cod, dv, 1, v.left.mat)
    for k in range(1, n + 1):
        ins = tensor(
            tensor(identity_map(e.field, (da,) + (dc,) * (k - 1)), c.comult),
            identity_map(e.field, (dc,) * (n - k)),
        )
        op = op_postcompose(ins.mat, dv)
        total = total + op if k % 2 == 0 else total - op
    last = middle_operator(Mat.identity(e.field, cod * dc), 1, cod, dv, dc, v.right.mat)
    return total + last if (n + 1) % 2 == 0 else total - last


@pytest.mark.parametrize(
    "name", ["trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2"]
)
def test_comodule_differential_matches_direct_formula(examples, name):
    e = examples[name]
    towers = [regular_bicomodule(e.coalgebra)] + [bicomodule_on_C_An(e, m) for m in (1, 2)]
    for v in towers:
        for n in range(4):
            assert comodule_differential(e, v, n) == direct_comodule_differential(e, v, n), (
                name,
                v.dim,
                n,
            )


def test_dual_entwining_is_valid(examples):
    for name, e in examples.items():
        d = dual(e)
        assert validate_algebra(d.algebra).ok, name
        assert validate_coalgebra(d.coalgebra).ok, name
        assert check_bowtie(d.algebra, d.coalgebra, d.psi).ok, name
        assert (d.algebra.dim, d.coalgebra.dim) == (e.coalgebra.dim, e.algebra.dim)


def test_dual_is_an_involution(examples):
    for name, e in examples.items():
        dd = dual(dual(e))
        assert dd.algebra.mult == e.algebra.mult, name
        assert dd.algebra.unit == e.algebra.unit, name
        assert dd.coalgebra.comult == e.coalgebra.comult, name
        assert dd.coalgebra.counit == e.coalgebra.counit, name
        assert dd.psi == e.psi, name
        assert dd.psi.domain_shape == e.psi.domain_shape
        assert dd.psi.codomain_shape == e.psi.codomain_shape


def test_one_dim_everything(triv_k):
    # all spaces are one-dimensional and the scalar differentials alternate 0, 1, 0, ...
    m = regular_bimodule(triv_k.algebra)
    cx = build_CpsiAM(triv_k, m, n_max=3)
    assert cx.space_dims == [1, 1, 1, 1]
    assert [d.is_zero() for d in cx.differentials] == [True, False, True]
    assert cohomology(cx, 0).betti == 1
    assert cohomology(cx, 1).betti == 0
    assert cohomology(cx, 2).betti == 0


def test_trivial_complex_by_hand():
    cx = CochainComplex(QQ, [1, 1], [Mat.zeros(QQ, 1, 1)], label="0 -> k -> 0")
    assert cohomology(cx, 0).betti == 1


def test_kz2_hopf_acyclic(kz2):
    m = regular_bimodule(kz2.algebra)
    cx = build_CpsiAM(kz2, m, n_max=3)
    assert [cohomology(cx, n).betti for n in (0, 1, 2)] == [2, 0, 0]


def test_trivial_kz2_h0_is_hom_C_A(triv_z2):
    m = regular_bimodule(triv_z2.algebra)
    cx = build_CpsiAM(triv_z2, m, n_max=2)
    assert cohomology(cx, 0).betti == 4


def test_comodule_complex_builds_kz2(kz2):
    v = regular_bicomodule(kz2.coalgebra)
    build_ApsiCV(kz2, v, n_max=3)  # d^2 = 0 verified on construction


def test_cohomology_out_of_range(kz2):
    m = regular_bimodule(kz2.algebra)
    cx = build_CpsiAM(kz2, m, n_max=2)
    with pytest.raises(DegreeError):
        cohomology(cx, 2)


def _oracle_complexes(e):
    yield build_CpsiAM(e, regular_bimodule(e.algebra), n_max=4)
    yield build_ApsiCV(e, regular_bicomodule(e.coalgebra), n_max=4)
    yield hochschild_complex(e.algebra, regular_bimodule(e.algebra), n_max=4)
    yield cartier_complex(e.coalgebra, regular_bicomodule(e.coalgebra), n_max=4)


@pytest.mark.parametrize(
    "name", ["trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2"]
)
def test_rank_betti_matches_bases(examples, name):
    # betti comes from the homotopy certificate or from ranks; the bases and
    # classes from the eager kernel/image/quotient builders, read afterwards
    for cx in _oracle_complexes(examples[name]):
        for n in range(4):
            h = cohomology(cx, n)
            assert h.betti == h.class_reps.cols == h.cocycle_basis.cols - h.coboundary_basis.cols, (
                name,
                cx.label,
                n,
            )


def test_lazy_cohomology_returns_eager_objects(kz2):
    cx = build_CpsiAM(kz2, regular_bimodule(kz2.algebra), n_max=3)
    h = cohomology(cx, 1)
    cocycles = kernel_basis(cx.differential(1))
    boundaries = image_basis(cx.differential(0))
    reps, reduce = quotient_with_projection(boundaries, cocycles)
    assert h.cocycle_basis == cocycles and h.coboundary_basis == boundaries and h.class_reps == reps
    assert h.class_reps is h.class_reps and h.reduce is h.reduce
    for j in range(cocycles.cols):
        assert h.reduce(cocycles.col_vector(j)) == reduce(cocycles.col_vector(j))


# -- inclusions ----------------------------------------------------------------


def test_inclusion_of_identity(kz2):
    m = regular_bimodule(kz2.algebra)
    f = kz2.algebra.identity()
    j = hochschild_inclusion(kz2, m, f)
    # j(id)(c, a) = eps(c) a
    from entwine.structures import tensor

    assert j == tensor(kz2.coalgebra.counit, kz2.algebra.identity())


def test_hochschild_inclusion_chain_map(kz2):
    m = regular_bimodule(kz2.algebra)
    for n in range(3):
        lhs = module_differential(kz2, m, n) @ hochschild_inclusion_operator(kz2, m, n)
        rhs = hochschild_inclusion_operator(kz2, m, n + 1) @ hochschild_differential(
            kz2.algebra, m, n
        )
        assert lhs == rhs


def test_hochschild_inclusion_injective(kz2):
    m = regular_bimodule(kz2.algebra)
    for n in range(3):
        op = hochschild_inclusion_operator(kz2, m, n)
        assert rank(op) == op.cols


def test_cartier_inclusion_chain_map_and_injective(kz2):
    from entwine.complexes import cartier_differential

    v = regular_bicomodule(kz2.coalgebra)
    for n in range(3):
        op_n = cartier_inclusion_operator(kz2, v, n)
        op_n1 = cartier_inclusion_operator(kz2, v, n + 1)
        lhs = comodule_differential(kz2, v, n) @ op_n
        rhs = op_n1 @ cartier_differential(kz2.coalgebra, v, n)
        assert lhs == rhs
        assert rank(op_n) == op_n.cols


def test_cartier_inclusion_values(kz2):
    v = regular_bicomodule(kz2.coalgebra)
    f = kz2.coalgebra.identity()
    jbar = cartier_inclusion(kz2, v, f)
    from entwine.structures import tensor

    assert jbar == tensor(kz2.algebra.unit_map(), kz2.coalgebra.identity())


# -- projectivity witness ---------------------------------------------------------


def test_witness_forced_for_point(triv_k):
    chi = projectivity_witness(triv_k)
    assert chi is not None
    assert chi.mat.entry(0, 0) == 1  # chi(1) = 1 (x) 1


def test_witness_exists_kz2_and_h4(kz2):
    assert projectivity_witness(kz2) is not None
    h4 = bialgebra_self_entwining(sweedler_h4())
    assert projectivity_witness(h4) is not None


def test_witness_properties(kz2):
    from entwine.complexes import tensor_square_bimodule
    from entwine.structures import compose, tensor

    chi = projectivity_witness(kz2)
    a, c = kz2.algebra, kz2.coalgebra
    # normalisation mu o chi = 1 o eps
    assert compose(a.mult, chi) == compose(a.unit_map(), c.counit)
    # 0-cocycle in C_psi(A, A(x)A)
    m = tensor_square_bimodule(a)
    assert (module_differential(kz2, m, 0) @ vec(chi)).is_zero()


# -- Hom(C, M) bimodule ------------------------------------------------------------


def test_hom_cm_dimension_and_validation(kz2):
    m = regular_bimodule(kz2.algebra)
    hom = hom_CM_bimodule(kz2, m)  # validates internally
    assert hom.dim == kz2.coalgebra.dim * m.dim


def test_hom_cm_pointwise_for_trivial(triv_z2):
    m = regular_bimodule(triv_z2.algebra)
    hom = hom_CM_bimodule(triv_z2, m)
    # with the flip, (a.f)(c) = a f(c): the action is blockwise left multiplication
    import itertools

    a = triv_z2.algebra
    for r, (i, j) in itertools.product(range(2), itertools.product(range(2), range(2))):
        f = LinearMap((2,), (2,), Mat.from_triples(QQ, 2, 2, [(i, j, 1)]))
        acted = hom.left.mat @ Mat.from_triples(
            QQ, 2 * 4, 1, [(r * 4 + (i * 2 + j), 0, 1)]
        )
        direct = compose(
            LinearMap((2,), (2,), a.mult.mat @ Mat.from_triples(QQ, 4, 2, [(r * 2 + s, s, 1) for s in range(2)])),
            f,
        )
        assert acted == vec(direct)


# -- contracting homotopy ------------------------------------------------------------


def test_homotopy_identity_kz2(kz2):
    m = regular_bimodule(kz2.algebra)
    for n in (1, 2):
        h_n = hopf_contracting_homotopy(kz2, m, n)
        h_n1 = hopf_contracting_homotopy(kz2, m, n + 1)
        d_n = module_differential(kz2, m, n)
        d_nm1 = module_differential(kz2, m, n - 1)
        dim = m.dim * kz2.coalgebra.dim * kz2.algebra.dim**n
        assert h_n1 @ d_n + d_nm1 @ h_n == Mat.identity(QQ, dim)


def test_homotopy_identity_sweedler():
    e = bialgebra_self_entwining(sweedler_h4())
    m = regular_bimodule(e.algebra)
    h1 = hopf_contracting_homotopy(e, m, 1)
    h2 = hopf_contracting_homotopy(e, m, 2)
    d1 = module_differential(e, m, 1)
    d0 = module_differential(e, m, 0)
    dim = m.dim * e.coalgebra.dim * e.algebra.dim
    assert h2 @ d1 + d0 @ h1 == Mat.identity(QQ, dim)


def test_homotopy_requires_hopf_data(triv_z2):
    m = regular_bimodule(triv_z2.algebra)
    with pytest.raises(MissingTranslationMapError):
        hopf_contracting_homotopy(triv_z2, m, 1)
    with pytest.raises(MissingTranslationMapError):
        splitting(triv_z2)


# -- padded face terms and the splitting X against the formulas they replaced ----------


def direct_module_differential(e, m, n):
    """d^n with each face term f |-> f o (C (x) A^{k-1} (x) mu (x) A^{n-k}) built
    as nested pads and precomposed."""
    a, c = e.algebra, e.coalgebra
    da, dc, dm = a.dim, c.dim, m.dim
    dom = dc * da**n
    psi_an = tensor(e.psi, identity_map(e.field, (da,) * n))
    total = middle_operator(m.left.mat, da, dm, dom, 1, psi_an.mat)
    for k in range(1, n + 1):
        ins = tensor(
            tensor(identity_map(e.field, (dc,) + (da,) * (k - 1)), a.mult),
            identity_map(e.field, (da,) * (n - k)),
        )
        op = op_precompose(ins.mat, dm)
        total = total + op if k % 2 == 0 else total - op
    last = middle_operator(m.right.mat, 1, dm, dom, da, Mat.identity(e.field, dc * da ** (n + 1)))
    return total + last if (n + 1) % 2 == 0 else total - last


def direct_hopf_homotopy(e, m, n):
    """h^n from tau (x) A^{n-1}, then A (x) Delta(1) (x) A^n, then mu (x) C (x) A^n,
    composed on the full tensor powers of degree n."""
    a, c = e.algebra, e.coalgebra
    da, dc = a.dim, c.dim
    step1 = tensor(translation(e), identity_map(e.field, (da,) * (n - 1)))
    unit_coact = compose(c.comult, LinearMap((), (dc,), a.unit))
    step2 = tensor(
        tensor(a.identity(), LinearMap((), (da, dc), unit_coact.mat)),
        identity_map(e.field, (da,) * n),
    )
    step3 = tensor(a.mult, identity_map(e.field, (dc,) + (da,) * n))
    xi = compose(step3, compose(step2, step1))
    return middle_operator(m.left.mat, da, m.dim, dc * da**n, 1, xi.mat)


def _hopf_structures_over(field):
    cases = {name: named_example(name, field) for name in ("z2", "z3", "sweedler")}
    cases["kz5"] = bialgebra_self_entwining(group_algebra_hopf(5, field))
    return cases


def _coefficient_kinds(e):
    """(structure, bimodule) pairs: regular, the A (x) C tower, and the dual side."""
    yield "regular", e, regular_bimodule(e.algebra)
    yield "A (x) C", e, bimodule_on_A_Cn(e, 1)
    yield "dual side", dual(e), dual_bimodule(regular_bicomodule(e.coalgebra))


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_padded_builders_match_the_direct_formulas(field):
    for name, e in _hopf_structures_over(field).items():
        for kind, s, m in _coefficient_kinds(e):
            for n in range(4):
                assert module_differential(s, m, n) == direct_module_differential(s, m, n), (name, kind, n)
            for n in range(1, 5):
                assert hopf_contracting_homotopy(s, m, n) == direct_hopf_homotopy(s, m, n), (name, kind, n)


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_splitting_is_a_normalised_zero_cocycle(field):
    # (mu (x) C)(A (x) psi) X = eta (x) C, and X is a 0-cocycle of the twisted
    # complex with coefficients in A (x) C (x) A (outer actions on the outer factors)
    for name, e in _hopf_structures_over(field).items():
        a, c = e.algebra, e.coalgebra
        ida, idc = a.identity(), c.identity()
        x = splitting(e)
        assert x is splitting(e)
        assert (x.domain_shape, x.codomain_shape) == ((c.dim,), (a.dim, c.dim, a.dim))
        normalised = compose(tensor(a.mult, idc), compose(tensor(ida, e.psi), x))
        assert normalised == tensor(a.unit_map(), idc), name
        dim = a.dim * c.dim * a.dim
        outer = Bimodule(
            dim,
            LinearMap((a.dim, dim), (dim,), tensor(a.mult, idc, ida).mat),
            LinearMap((dim, a.dim), (dim,), tensor(ida, idc, a.mult).mat),
        )
        assert (module_differential(e, outer, 0) @ vec(x)).is_zero(), name


# -- betti numbers by certificate ----------------------------------------------------


def _hopf_cases(examples):
    cases = {name: examples[name] for name in ("z2", "z3", "sweedler")}
    cases["kz5-fp"] = bialgebra_self_entwining(group_algebra_hopf(5, FieldSpec.parse("Fp:10007")))
    return cases


def _both_sides(e, n_max=4):
    yield build_CpsiAM(e, regular_bimodule(e.algebra), n_max)
    yield build_ApsiCV(e, regular_bicomodule(e.coalgebra), n_max)


def _rank_betti(cx, n):
    below = rank(cx.differential(n - 1)) if n else 0
    return cx.space_dims[n] - rank(cx.differential(n)) - below


def _counting_ranks(monkeypatch):
    """The Mats complexes eliminates for a rank, recorded in call order."""
    import entwine.complexes as complexes

    ranked = []
    monkeypatch.setattr(complexes, "rank", lambda m: ranked.append(m) or rank(m))
    return ranked


def test_certificate_betti_equals_rank_betti(examples):
    for name, e in _hopf_cases(examples).items():
        for cx in _both_sides(e):
            for n in (1, 2, 3):
                assert cx.acyclic_at(n), (name, cx.label, n)
                assert cohomology(cx, n).betti == _rank_betti(cx, n) == 0, (name, cx.label, n)
            assert not cx.acyclic_at(0)


@pytest.mark.parametrize("wrong", ["scaled by 2", "zero map"])
def test_wrong_homotopy_falls_back_to_ranks(examples, monkeypatch, wrong):
    import entwine.complexes as complexes

    true_homotopy = complexes.hopf_contracting_homotopy

    def broken(e, m, n):
        h = true_homotopy(e, m, n)
        return h.scale(2) if wrong == "scaled by 2" else Mat.zeros(h.field, h.rows, h.cols)

    monkeypatch.setattr(complexes, "hopf_contracting_homotopy", broken)
    ranked = _counting_ranks(monkeypatch)
    for name, e in _hopf_cases(examples).items():
        for cx in _both_sides(e):
            for n in (1, 2, 3):
                assert not cx.acyclic_at(n), (name, cx.label, n)
                assert cohomology(cx, n).betti == _rank_betti(cx, n) == 0, (name, cx.label, n)
            # with no degree-1 certificate, betti_0 is not read off a trace: d^0 is eliminated
            ranked.clear()
            assert cohomology(cx, 0).betti == _rank_betti(cx, 0) == e.algebra.dim, (name, cx.label)
            assert len(ranked) == 1 and ranked[0] is cx.differential(0)


def test_unusable_translation_map_falls_back_to_ranks(monkeypatch):
    import entwine.entwining as entwining
    from entwine.errors import MissingTranslationMapError

    def refuse(h):
        raise MissingTranslationMapError("no translation map")

    monkeypatch.setattr(entwining, "translation_map", refuse)
    e = bialgebra_self_entwining(group_algebra_hopf(3))
    for cx in _both_sides(e):
        assert [cohomology(cx, n).betti for n in range(4)] == [3, 0, 0, 0]
        assert not any(cx.acyclic_at(n) for n in range(4))


def test_certificate_verdict_is_checked_once_per_degree(kz2, monkeypatch):
    cx = build_CpsiAM(kz2, regular_bimodule(kz2.algebra), n_max=4)
    calls = []
    monkeypatch.setattr(cx, "_contracts", lambda n: calls.append(n) or True)
    for _ in range(2):
        for n in range(4):
            cohomology(cx, n)
    assert calls == [1, 2, 3]


def test_acyclic_degree_reduces_without_elimination(examples, monkeypatch):
    # H^1 = 0 is certified: no classes, and reduce only checks d^1 v = 0,
    # as the quotient built from the kernel and image bases does
    import entwine.linalg as linalg
    from entwine.errors import InconsistentQuotientError

    for cx in _both_sides(examples["sweedler"]):
        d0, d1 = cx.differential(0), cx.differential(1)
        unit = Mat.identity(cx.field, cx.space_dims[1])
        off = next(unit.col_vector(j) for j in range(unit.cols) if not (d1 @ unit.col_vector(j)).is_zero())
        coboundary = d0 @ Mat.identity(cx.field, cx.space_dims[0]).col_vector(1)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_rref", None)  # any elimination fails
            h = cohomology(cx, 1)
            assert h.betti == 0 and h.class_reps == Mat.zeros(cx.field, cx.space_dims[1], 0)
            assert h.reduce(coboundary).rows == 0 and h.reduce(Mat.zeros(cx.field, cx.space_dims[1], 1)).rows == 0
            with pytest.raises(InconsistentQuotientError):
                h.reduce(off)
        reps, reduce = quotient_with_projection(image_basis(d0), kernel_basis(d1))
        assert reps == Mat.zeros(cx.field, cx.space_dims[1], 0) and reduce(coboundary).rows == 0
        with pytest.raises(InconsistentQuotientError):
            reduce(off)


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_trace_betti_0_equals_rank_betti_0(field, monkeypatch):
    # where h^1 certifies degree 1 (Hopf data) and dim C^0 < p, rank d^0 is the
    # trace of h^1 d^0 and no elimination runs; elsewhere d^0 is eliminated
    # (over F_7 that is z3 and Sweedler, with dim C^0 = 9 and 16)
    ranked = _counting_ranks(monkeypatch)
    traced = []
    for name in ("trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2"):
        e = named_example(name, field)
        for cx in _both_sides(e, n_max=2):
            ranked.clear()
            assert cohomology(cx, 0).betti == _rank_betti(cx, 0), (name, cx.label)
            assert cx.acyclic_at(1) is (e.hopf is not None), (name, cx.label)
            if e.hopf is not None and cx.space_dims[0] < (field.p or 17):
                assert ranked == [], (name, cx.label)
                traced.append(name)
            else:
                assert len(ranked) == 1 and ranked[0] is cx.differential(0), (name, cx.label)
    assert traced == (["z2"] * 2 if field.p else ["z2", "z2", "z3", "z3", "sweedler", "sweedler"])


def test_trace_mod_p_needs_dim_c0_below_p(monkeypatch):
    # z3 over F_3: h^1 certifies degree 1, but dim C^0 = 9 >= 3, and the trace
    # of the idempotent h^1 d^0 is rank d^0 = 6 only mod 3; d^0 is eliminated
    with pytest.warns(UserWarning):
        e = named_example("z3", FieldSpec.prime(3))
    ranked = _counting_ranks(monkeypatch)
    for cx in _both_sides(e, n_max=2):
        assert cx.acyclic_at(1) and cx.space_dims[0] == 9
        assert cohomology(cx, 0).betti == _rank_betti(cx, 0) == 3, cx.label
        assert len(ranked) == 1 and ranked.pop() is cx.differential(0)
    side_a = build_CpsiAM(e, regular_bimodule(e.algebra), 2)
    proj = hopf_contracting_homotopy(e, regular_bimodule(e.algebra), 1) @ side_a.differential(0)
    assert proj @ proj == proj and sum(proj.entry(i, i) for i in range(9)) % 3 == 0


def test_failed_idempotence_check_falls_back_to_the_rank(kz2, monkeypatch):
    # a degree-1 verdict forced past a wrong h^1 = 2 h: P = 2 h^1 d^0 has
    # P^2 = 2P != P, so the trace is not read
    import entwine.complexes as complexes

    true_homotopy = complexes.hopf_contracting_homotopy
    monkeypatch.setattr(complexes, "hopf_contracting_homotopy", lambda e, m, n: true_homotopy(e, m, n).scale(2))
    ranked = _counting_ranks(monkeypatch)
    for cx in _both_sides(kz2, n_max=2):
        monkeypatch.setattr(cx, "_contracts", lambda n: True)
        ranked.clear()
        assert cohomology(cx, 0).betti == _rank_betti(cx, 0) == 2
        assert len(ranked) == 1 and ranked[0] is cx.differential(0)


def test_unchecked_structure_with_a_bad_antipode_gets_rank_betti_numbers():
    # translation_map does not check its splitting identities: on an
    # unchecked structure whose antipode is scaled by 2, every homotopy built
    # from tau fails its check, and each degree falls back to ranks
    from entwine.entwining import EntwiningStructure
    from entwine.structures import HopfAlgebra

    z3 = named_example("z3")
    bad = HopfAlgebra(z3.algebra, z3.coalgebra, z3.hopf.antipode.scale(2))
    e = EntwiningStructure.unchecked(z3.algebra, z3.coalgebra, z3.psi, hopf=bad)
    for cx in _both_sides(e, n_max=3):
        assert not any(cx.acyclic_at(n) for n in (1, 2))
        assert [cohomology(cx, n).betti for n in range(3)] == [_rank_betti(cx, n) for n in range(3)] == [3, 0, 0]


def test_hopf_data_with_a_foreign_psi_exits_like_the_rank_path(tmp_path):
    # z2's antipode beside trivial-z2's flip psi: a valid structure whose Hopf
    # data does not describe psi; cohom must give the rank-path numbers
    import json

    from entwine.cli import main
    from entwine.zoo import load

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    doc = json.loads((fixtures / "z2.json").read_text())
    doc["psi"] = json.loads((fixtures / "trivial-z2.json").read_text())["psi"]
    path = tmp_path / "hopf-flip.json"
    path.write_text(json.dumps(doc))
    e = load(path)
    assert e.hopf is not None
    for side, cx in zip("AC", _both_sides(e)):
        out = tmp_path / f"{side}.json"
        assert main(["cohom", str(path), "--side", side, "--max-degree", "4", "--json", str(out)]) == 0
        betti = json.loads(out.read_text())["tables"]["betti numbers"]
        assert betti == {str(n): _rank_betti(cx, n) for n in range(4)}


def test_dual_carries_the_dual_hopf_algebra(examples):
    from entwine.structures import validate_antipode, validate_bialgebra

    for name, e in _hopf_cases(examples).items():
        h = dual(e).hopf
        assert h.algebra is dual(e).algebra and h.coalgebra is dual(e).coalgebra
        assert validate_bialgebra(h).ok and validate_antipode(h).ok, name
    for name in ("trivial-k", "trivial-z2", "graded-z2"):
        assert examples[name].hopf is None and dual(examples[name]).hopf is None


# -- degree-zero characterization ----------------------------------------------------


def test_h0_characterization_trivial_commutative(triv_z2):
    # commutative A: every phi: C -> A satisfies the centrality condition
    assert len(h0_characterization(triv_z2)) == 4


def test_h0_characterization_kz2_hopf(kz2):
    assert len(h0_characterization(kz2)) == 2


def test_h0_matches_cocycles(kz2, triv_z2):
    from entwine.zoo import named_example

    others = [named_example(n) for n in ("z3", "sweedler", "graded-z2", "trivial-k")]
    for e in (kz2, triv_z2, *others):
        m = regular_bimodule(e.algebra)
        cx = build_CpsiAM(e, m, n_max=1)
        cocycles = cohomology(cx, 0).cocycle_basis
        chars = [vec(f) for f in h0_characterization(e)]
        assert len(chars) == cocycles.cols
        for v in chars:
            assert solve(cocycles, v) is not None


# -- bar / cobar scaffolding ----------------------------------------------------------


def test_bar_resolution_squares_to_zero(kz2):
    for n in (1, 2):
        assert compose(bar_delta(kz2, n), bar_delta(kz2, n + 1)).is_zero()


def test_bar_homotopy_identity(kz2):
    # the stated homotopy satisfies delta h + h delta = -id
    for n in (1, 2):
        lhs = compose(bar_delta(kz2, n + 1), bar_homotopy(kz2, n)) + compose(
            bar_homotopy(kz2, n - 1), bar_delta(kz2, n)
        )
        dim = lhs.mat.rows
        assert lhs.mat == -Mat.identity(QQ, dim)


def test_cobar_squares_to_zero(kz2):
    for n in (0, 1):
        assert compose(cob_delta(kz2, n + 1), cob_delta(kz2, n)).is_zero()


def test_cobar_homotopy_identity(kz2):
    for n in (1, 2):
        lhs = compose(cob_homotopy(kz2, n + 1), cob_delta(kz2, n)) + compose(
            cob_delta(kz2, n - 1), cob_homotopy(kz2, n)
        )
        dim = lhs.mat.rows
        assert lhs.mat == -Mat.identity(QQ, dim)
