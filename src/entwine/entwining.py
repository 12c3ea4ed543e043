"""Entwining structures (A, C, psi) and their induced (co)module structures.

psi: C (x) A -> A (x) C must make the bow-tie diagram commute, equivalently
the four relations, written in alpha-notation psi(c (x) a) = a_alpha (x) c^alpha:

    left pentagon:  (aa')_alpha (x) c^alpha = a_alpha a'_beta (x) c^{alpha beta}
    left triangle:  1_alpha (x) c^alpha = 1 (x) c
    right pentagon: a_alpha (x) Delta(c^alpha)
                        = a_{beta alpha} (x) c_(1)^alpha (x) c_(2)^beta
    right triangle: a_alpha eps(c^alpha) = a eps(c)

One tower family is built, psi^n : C (x) A^n -> A^n (x) C (move C right past
n copies of A), which makes C (x) A^n a C-bicomodule.  The mirror family
psi_n : C^n (x) A -> A (x) C^n (move A left past n copies of C), its actions
and the A-bimodule A (x) C^n are the transposes of their counterparts on the
dual entwining (C*, A*, psi^T).  Those structures drive every differential
downstream, so the towers are cached per structure.
"""

from __future__ import annotations

import numpy as np

from .errors import BowTieError, DegreeError, MissingTranslationMapError, ShapeMismatchError
from .structures import (
    Bicomodule,
    Bimodule,
    CheckReport,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebra,
    LinearMap,
    _dense,
    _Exact,
    compose,
    identity_map,
    tensor,
    translation_map,
    validate_algebra,
    validate_antipode,
    validate_bialgebra,
    validate_bicomodule,
    validate_coalgebra,
)


def check_bowtie(a: FiniteAlgebra, c: FiniteCoalgebra, psi: LinearMap) -> CheckReport:
    """Evaluate the four bow-tie relations as exact identities of dense structure constants."""
    if psi.domain_shape != (c.dim, a.dim) or psi.codomain_shape != (a.dim, c.dim):
        raise ShapeMismatchError("psi must map C(x)A -> A(x)C")
    da, dc, p = a.dim, c.dim, a.field.p
    mu, unit, delta, eps, ps = _dense(p, a.mult.mat, a.unit, c.comult.mat, c.counit.mat, psi.mat)
    # psi(e_c (x) e_i) = sum ps[(a, d), (c, i)] e_a (x) e_d; each side below is indexed
    # [codomain factors, domain factors]
    labels = [c.basis_labels, a.basis_labels, a.basis_labels]
    report = CheckReport("bow-tie")
    # psi o (C (x) mu) = (mu (x) C) o (A (x) psi) o (psi (x) A):
    # sum mu[k, (y, z)] ps[(z, d), (e, j)] ps[(y, e), (c, i)], first over z, then over (y, e)
    lhs = (ps.reshape(-1, da) @ mu).reshape(da, dc, dc, da, da)
    q = (mu.reshape(da * da, da) @ ps.reshape(da, -1)).reshape(da, da, dc, dc, da).transpose(0, 2, 1, 3, 4)
    rhs = ps.transpose() @ q.reshape(da * dc, da * dc, da)  # [(k, d), (c, i), j], one product per (k, d)
    report.check_exact("left pentagon", lhs, rhs.reshape(da, dc, dc, da, da), labels)
    # psi o (C (x) 1) = 1 (x) C
    lhs = (ps.reshape(-1, da) @ unit).reshape(da, dc, dc)
    rhs = (unit @ _Exact(np.eye(dc).reshape(1, -1), 1, 1, p)).reshape(da, dc, dc)
    report.check_exact("left triangle", lhs, rhs, labels[:1])
    # (A (x) Delta) o psi = (psi (x) C) o (C (x) psi) o (Delta (x) A):
    # sum ps[(a, x), (x1, b)] ps[(b, y), (x2, i)] delta[(x1, x2), c], first over x2, then over (x1, b)
    by_a = ps.reshape(da, dc, dc * da)  # [a, d, (c, i)]: each product below runs once per a
    lhs = (delta @ by_a).reshape(da, dc, dc, dc, da)
    r = delta.reshape(dc, dc, dc).transpose(0, 2, 1).reshape(dc * dc, dc) @ ps.reshape(da * dc, dc, da)
    r = r.reshape(da, dc, dc, dc, da).transpose(2, 0, 1, 3, 4)  # [x1, b, y, c, i]
    rhs = (ps @ r.reshape(dc * da, -1)).reshape(da, dc, dc, dc, da)
    report.check_exact("right pentagon", lhs, rhs, labels[:2])
    # (A (x) eps) o psi = eps (x) A
    rhs = (_Exact(np.eye(da).reshape(-1, 1), 1, 1, p) @ eps).reshape(da, da, dc).transpose(0, 2, 1)
    report.check_exact("right triangle", (eps @ by_a).reshape(da, dc, da), rhs, labels[:2])
    return report


class EntwiningStructure:
    """Validated triple (A, C, psi) with cached psi towers.

    Construction checks each axiom family once and raises on the first that
    fails: algebra, coalgebra, then bialgebra and antipode when hopf is given,
    then the bow-tie relations.
    """

    def __init__(self, algebra, coalgebra, psi, hopf=None, _skip_validation=False):
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.psi = psi
        self.hopf = hopf
        self._cache: dict = {}
        if not _skip_validation:
            validate_algebra(algebra).raise_if_failed()
            validate_coalgebra(coalgebra).raise_if_failed()
            if hopf is not None:
                validate_bialgebra(hopf).raise_if_failed()
                validate_antipode(hopf).raise_if_failed()
            report = check_bowtie(algebra, coalgebra, psi)
            if not report.ok:
                raise BowTieError(str(report), report=report)

    @classmethod
    def unchecked(cls, algebra, coalgebra, psi, hopf=None):
        """Construct without validation (diagnostics and negative fixtures)."""
        return cls(algebra, coalgebra, psi, hopf=hopf, _skip_validation=True)

    @property
    def field(self):
        return self.algebra.field

    def summary(self):
        return {
            "field": str(self.field),
            "dim_A": self.algebra.dim,
            "dim_C": self.coalgebra.dim,
            "hopf": self.hopf is not None,
        }

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        return f"EntwiningStructure(dim_A={self.algebra.dim}, dim_C={self.coalgebra.dim})"


# -- duality ---------------------------------------------------------------------


def dual(e: EntwiningStructure) -> EntwiningStructure:
    """The dual entwining (C*, A*, psi^T) in the dual bases, cached on e.

    Transposing Delta, eps gives the product and unit of C*, transposing mu, 1
    the coproduct and counit of A*, and the four bow-tie relations of psi^T
    are the transposes of those of psi; so no second validation pass is needed.
    """

    def build():
        a, c = e.algebra, e.coalgebra
        algebra = FiniteAlgebra(
            e.field, c.basis_labels, c.comult.transpose(), c.counit.mat.transpose()
        )
        coalgebra = FiniteCoalgebra(
            e.field, a.basis_labels, a.mult.transpose(), a.unit_map().transpose()
        )
        hopf = e.hopf and HopfAlgebra(algebra, coalgebra, e.hopf.antipode.transpose())  # (C*, A*, S^T)
        return EntwiningStructure.unchecked(algebra, coalgebra, e.psi.transpose(), hopf=hopf)

    return e._cached(("dual",), build)


def translation(e: EntwiningStructure) -> LinearMap:
    """The translation map tau(c) = S(c_(1)) (x) c_(2) of e.hopf, cached on e."""
    return e._cached(("tau",), lambda: translation_map(e.hopf))


def splitting(e: EntwiningStructure) -> LinearMap:
    """The splitting X = (mu (x) C (x) A)(A (x) Delta(1) (x) A) tau: C -> A (x) C (x) A
    of e.hopf, cached on e; X(c) = S(c_(1)) (x) 1 (x) c_(2) for a Hopf algebra."""
    if e.hopf is None:
        raise MissingTranslationMapError("structure carries no Hopf/translation data")

    def build():
        a, c = e.algebra, e.coalgebra
        ida = a.identity()
        unit_coaction = LinearMap((), (a.dim, c.dim), c.comult.mat @ a.unit)
        spread = compose(tensor(ida, unit_coaction, ida), translation(e))
        return compose(tensor(a.mult, c.identity(), ida), spread)

    return e._cached(("splitting",), build)


def dual_bimodule(v: Bicomodule) -> Bimodule:
    """V* as a C*-bimodule: each coaction transposes into an action."""
    return Bimodule(v.dim, v.left.transpose(), v.right.transpose(), labels=v.labels)


def psi_up(e: EntwiningStructure, n: int) -> LinearMap:
    """psi^n: C (x) A^n -> A^n (x) C; psi^1 = psi."""
    if n < 1:
        raise DegreeError("psi^n needs n >= 1")

    def build():
        if n == 1:
            return e.psi
        prev = psi_up(e, n - 1)
        ida_pow = identity_map(e.field, (e.algebra.dim,) * (n - 1))
        ida = e.algebra.identity()
        return compose(tensor(ida_pow, e.psi), tensor(prev, ida))

    return e._cached(("up", n), build)


def psi_down(e: EntwiningStructure, n: int) -> LinearMap:
    """psi_n: C^n (x) A -> A (x) C^n; psi_1 = psi.  The transpose of psi^n of dual(e)."""
    return psi_up(dual(e), n).transpose()


# -- induced structures -------------------------------------------------------


def rho_L_coaction(e: EntwiningStructure, n: int) -> LinearMap:
    """Left coaction of C on C (x) A^n: comultiply the first factor."""
    if n == 0:
        return e.coalgebra.comult
    ida_pow = identity_map(e.field, (e.algebra.dim,) * n)
    return tensor(e.coalgebra.comult, ida_pow)


def rho_R_coaction(e: EntwiningStructure, n: int) -> LinearMap:
    """Right coaction of C on C (x) A^n: comultiply, then push one C right with psi^n."""
    def build():
        if n == 0:
            return e.coalgebra.comult
        ida_pow = identity_map(e.field, (e.algebra.dim,) * n)
        idc = e.coalgebra.identity()
        return compose(tensor(idc, psi_up(e, n)), tensor(e.coalgebra.comult, ida_pow))

    return e._cached(("rhoRcoact", n), build)


def bicomodule_on_C_An(e: EntwiningStructure, n: int) -> Bicomodule:
    """C (x) A^n as a C-bicomodule; built and validated once per structure."""
    if n < 1:
        raise DegreeError("bicomodule tower needs n >= 1")

    def build():
        v = Bicomodule(e.coalgebra.dim * e.algebra.dim**n, rho_L_coaction(e, n), rho_R_coaction(e, n))
        validate_bicomodule(e.coalgebra, v).raise_if_failed()
        return v

    return e._cached(("bicomod", n), build)


def rho_L_action(e: EntwiningStructure, n: int) -> LinearMap:
    """Left action of A on A (x) C^n: the transpose of the left coaction of dual(e)."""
    return rho_L_coaction(dual(e), n).transpose()


def rho_R_action(e: EntwiningStructure, n: int) -> LinearMap:
    """Right action of A on A (x) C^n: the transpose of the right coaction of dual(e)."""
    return rho_R_coaction(dual(e), n).transpose()


def bimodule_on_A_Cn(e: EntwiningStructure, n: int) -> Bimodule:
    """A (x) C^n as an A-bimodule: the dual of the bicomodule tower of dual(e).

    Built once per structure.  Each bimodule axiom is the transpose of a
    bicomodule axiom, so validating the dual tower validates this one.
    """
    if n < 1:
        raise DegreeError("bimodule tower needs n >= 1")
    return e._cached(("bimod", n), lambda: dual_bimodule(bicomodule_on_C_An(dual(e), n)))


def check_tower_compatibility(e: EntwiningStructure, n: int, j: int):
    """Do multiplication/comultiplication inside the towers commute with rho_R?

    Returns (first_square_ok, second_square_ok): the first square multiplies
    two adjacent A-factors inside C (x) A^{n+1}; the second comultiplies a
    C-factor inside A (x) C^n, and is the transpose of the first square of dual(e).
    """
    if n < 1:
        raise DegreeError("need n >= 1")
    if not 0 <= j <= n - 1:
        raise DegreeError(f"slot j={j} out of range for n={n}")
    return _multiplication_square(e, n, j), _multiplication_square(dual(e), n, j)


def _multiplication_square(e: EntwiningStructure, n: int, j: int) -> bool:
    """rho_R o mu_j = (mu_j (x) C) o rho_R, mu_j multiplying slots j, j+1 of A^{n+1}."""
    da, dc = e.algebra.dim, e.coalgebra.dim
    mul_inside = tensor(
        identity_map(e.field, (dc,) + (da,) * j), e.algebra.mult, identity_map(e.field, (da,) * (n - j - 1))
    )
    lhs = compose(rho_R_coaction(e, n), mul_inside)
    return lhs == compose(tensor(mul_inside, e.coalgebra.identity()), rho_R_coaction(e, n + 1))


# -- twisted convolution -------------------------------------------------------


def convolution_psi(e: EntwiningStructure, f: LinearMap, g: LinearMap) -> LinearMap:
    """(f *_psi g)(c) = f(c_(2))_alpha g(c_(1)^alpha)."""
    da, dc = e.algebra.dim, e.coalgebra.dim
    for h in (f, g):
        if h.domain_shape != (dc,) or h.codomain_shape != (da,):
            raise ShapeMismatchError("convolution operands must map C -> A")
    ida = e.algebra.identity()
    idc = e.coalgebra.identity()
    inner = compose(e.psi, tensor(idc, f))
    return compose(e.algebra.mult, compose(tensor(ida, g), compose(inner, e.coalgebra.comult)))


def convolution_unit(e: EntwiningStructure) -> LinearMap:
    """The unit 1 o eps of the twisted convolution algebra Hom(C, A)."""
    return compose(e.algebra.unit_map(), e.coalgebra.counit)
