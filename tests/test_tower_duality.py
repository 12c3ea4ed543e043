"""The A (x) C^n tower and the cobar scaffolding, derived from the dual entwining,
against direct recursions kept here as oracles."""

from fractions import Fraction

import pytest

from entwine.complexes import cob_delta, cob_homotopy
from entwine.entwining import (
    EntwiningStructure,
    bimodule_on_A_Cn,
    check_tower_compatibility,
    dual,
    psi_down,
    rho_L_action,
    rho_R_action,
)
from entwine.errors import DegreeError, ValidationError
from entwine.linalg import QQ, FieldSpec, Mat
from entwine.structures import Bimodule, LinearMap, compose, identity_map, tensor, validate_bimodule
from entwine.zoo import EXAMPLE_NAMES, group_algebra_hopf, named_example

FIELDS = {"Q": QQ, "F7": FieldSpec.prime(7)}


# -- oracles: the tower and cobar formulas coded directly on e ------------------------


def direct_psi_down(e, n):
    """psi_n = (psi (x) C^{n-1}) o (C (x) psi_{n-1})."""
    if n == 1:
        return e.psi
    idc_pow = identity_map(e.field, (e.coalgebra.dim,) * (n - 1))
    return compose(tensor(e.psi, idc_pow), tensor(e.coalgebra.identity(), direct_psi_down(e, n - 1)))


def direct_rho_L_action(e, n):
    """Multiply into the first factor of A (x) C^n."""
    if n == 0:
        return e.algebra.mult
    return tensor(e.algebra.mult, identity_map(e.field, (e.coalgebra.dim,) * n))


def direct_rho_R_action(e, n):
    """Pass a through C^n with psi_n, then multiply."""
    if n == 0:
        return e.algebra.mult
    idc_pow = identity_map(e.field, (e.coalgebra.dim,) * n)
    return compose(tensor(e.algebra.mult, idc_pow), tensor(e.algebra.identity(), direct_psi_down(e, n)))


def direct_bimodule_on_A_Cn(e, n):
    m = Bimodule(e.algebra.dim * e.coalgebra.dim**n, direct_rho_L_action(e, n), direct_rho_R_action(e, n))
    validate_bimodule(e.algebra, m).raise_if_failed()
    return m


def direct_cob_delta(e, n):
    """deltabar^n: C (x) A (x) C^{n+1} -> C (x) A (x) C^{n+2}."""
    a, c = e.algebra, e.coalgebra
    idc_n1 = identity_map(e.field, (c.dim,) * (n + 1))
    total = compose(
        tensor(tensor(c.identity(), e.psi), idc_n1),
        tensor(tensor(c.comult, a.identity()), idc_n1),
    )
    for k in range(1, n + 2):
        ins = tensor(
            tensor(identity_map(e.field, (c.dim, a.dim) + (c.dim,) * (k - 1)), c.comult),
            identity_map(e.field, (c.dim,) * (n + 1 - k)),
        )
        total = total + ins if k % 2 == 0 else total - ins
    return total


def direct_cob_homotopy(e, n):
    """h^n = (-1)^{n+1} ( - (x) eps): C (x) A (x) C^{n+1} -> C (x) A (x) C^n."""
    space = identity_map(e.field, (e.coalgebra.dim, e.algebra.dim) + (e.coalgebra.dim,) * n)
    h = tensor(space, e.coalgebra.counit)
    return -h if n % 2 == 0 else h


def direct_second_square(e, n, j):
    """rho_R o (com_j (x) A) = com_j o rho_R, com_j comultiplying slot j of C^n."""
    ida, idc = e.algebra.identity(), e.coalgebra.identity()

    def idc_pow(k):
        return identity_map(e.field, (e.coalgebra.dim,) * k)

    com_inside = tensor(tensor(tensor(ida, idc_pow(j)), e.coalgebra.comult), idc_pow(n - j - 1))
    lhs = compose(direct_rho_R_action(e, n + 1), tensor(com_inside, ida))
    return lhs == compose(com_inside, direct_rho_R_action(e, n))


# -- the derived maps equal the oracles, factor shapes included --------------------------


def same_map(f, g):
    return f.mat == g.mat and (f.domain_shape, f.codomain_shape) == (g.domain_shape, g.codomain_shape)


def one_sided_entwining(field):
    """Unchecked psi(c (x) a) = a (x) f(c) on (kZ2, kZ2), f the idempotent onto 1 + g.

    f is idempotent but not comultiplicative, so the first tower square holds
    and the second fails: the one structure here on which the squares differ.
    """
    h = group_algebra_hopf(2, field)
    triples = [(a * 2 + c2, c * 2 + a, Fraction(1, 2)) for a in range(2) for c in range(2) for c2 in range(2)]
    psi = LinearMap((2, 2), (2, 2), Mat.from_triples(field, 4, 4, triples))
    return EntwiningStructure.unchecked(h.algebra, h.coalgebra, psi)


@pytest.fixture(params=[(name, f) for name in EXAMPLE_NAMES + ("one-sided",) for f in FIELDS], ids="-".join)
def structure(request):
    name, field = request.param
    if name == "one-sided":
        return one_sided_entwining(FIELDS[field])
    return named_example(name, FIELDS[field])


def test_psi_down_and_actions_match_direct_recursions(structure):
    e = structure
    for n in (1, 2, 3):
        assert same_map(psi_down(e, n), direct_psi_down(e, n)), n
    for n in (0, 1, 2, 3):
        assert same_map(rho_L_action(e, n), direct_rho_L_action(e, n)), n
        assert same_map(rho_R_action(e, n), direct_rho_R_action(e, n)), n


def test_cobar_scaffolding_matches_direct_formulas(structure):
    e = structure
    for n in (1, 2, 3):
        assert same_map(cob_delta(e, n), direct_cob_delta(e, n)), n
        assert same_map(cob_homotopy(e, n), direct_cob_homotopy(e, n)), n
    assert same_map(cob_delta(e, 0), direct_cob_delta(e, 0))
    with pytest.raises(DegreeError):
        cob_delta(e, -1)


def test_second_square_matches_direct_formula(structure):
    e = structure
    for n in (1, 2, 3):
        for j in range(n):
            assert check_tower_compatibility(e, n, j)[1] == direct_second_square(e, n, j), (n, j)


def test_bimodule_tower_matches_validated_direct_tower(structure):
    e = structure
    for n in (1, 2, 3):
        try:
            expected = direct_bimodule_on_A_Cn(e, n)
        except ValidationError:
            with pytest.raises(ValidationError):
                bimodule_on_A_Cn(e, n)
            continue
        m = bimodule_on_A_Cn(e, n)
        assert m.dim == expected.dim
        assert same_map(m.left, expected.left) and same_map(m.right, expected.right), n
        assert bimodule_on_A_Cn(e, n) is m  # cached on e


def test_derived_maps_never_build_the_double_dual(structure):
    e = structure
    for derived in (psi_down, rho_L_action, rho_R_action, cob_delta, cob_homotopy):
        derived(e, 2)
    check_tower_compatibility(e, 2, 1)
    try:
        bimodule_on_A_Cn(e, 2)
    except ValidationError:
        pass
    assert ("dual",) not in dual(e)._cache


def test_corrupted_psi_still_fails_both_towers():
    bad = named_example("corrupted-psi")
    with pytest.raises(ValidationError):
        bimodule_on_A_Cn(bad, 1)
    for n in (1, 2, 3):
        for j in range(n):
            assert check_tower_compatibility(bad, n, j) == (False, False), (n, j)


def test_one_sided_psi_passes_only_the_first_square():
    e = one_sided_entwining(QQ)
    for n in (1, 2, 3):
        for j in range(n):
            assert check_tower_compatibility(e, n, j) == (True, False), (n, j)
    with pytest.raises(ValidationError):
        bimodule_on_A_Cn(e, 1)


def test_bimodule_tower_degree_error():
    e = named_example("z2")
    with pytest.raises(DegreeError, match="bimodule tower"):
        bimodule_on_A_Cn(e, 0)
    with pytest.raises(DegreeError):
        psi_down(e, 0)
