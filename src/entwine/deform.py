"""Double complex, glued total complex, and infinitesimal deformations.

The grid cell (m, n) is Hom(C (x) A^m, A (x) C^n); the horizontal d is the
module-valued differential with coefficients in the bimodule A (x) C^n, the
vertical dbar is the comodule-valued differential with coefficients in the
bicomodule C (x) A^m, and the two commute.

The glued total complex replaces the first row by the Hochschild complex of A
and the first column by the Cartier complex of C, attached through the
inclusions f -> eps (x) f and f -> 1 (x) f; its total differential is
D = d + (-1)^m dbar, with D^2 = 0 verified numerically at construction.

Sign convention for degree-2 classes: a cochain (m2, w, d2) with components in
Hom(A^2, A), Hom(C (x) A, A (x) C), Hom(C, C^2) corresponds to the deformation

    mu_t = mu + t m2,   psi_t = psi - t w,   Delta_t = Delta - t d2,

which makes "D-cocycle" equivalent to "every structure law holds to first
order" with no leftover signs (the two mixed components of D z are exactly the
first-order pentagons under this matching, as the deformation tests confirm).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    CochainComplex,
    cartier_differential,
    cartier_inclusion_operator,
    cohomology,
    comodule_differential,
    hochschild_differential,
    hochschild_inclusion_operator,
    module_differential,
)
from .entwining import EntwiningStructure, bicomodule_on_C_An, bimodule_on_A_Cn
from .errors import (
    CocycleConditionError,
    DegreeError,
    InternalConsistencyError,
)
from .homspace import unvec
from .linalg import Mat, from_blocks, kron
from .structures import (
    Bicomodule,
    Bimodule,
    CheckReport,
    LinearMap,
    regular_bicomodule,
    regular_bimodule,
)


def _row_bimodule(e, n) -> Bimodule:
    return regular_bimodule(e.algebra) if n == 0 else bimodule_on_A_Cn(e, n)


def _col_bicomodule(e, m) -> Bicomodule:
    return regular_bicomodule(e.coalgebra) if m == 0 else bicomodule_on_C_An(e, m)


class DoubleComplexGrid:
    """Cells Hom(C (x) A^m, A (x) C^n) with commuting d and dbar."""

    def __init__(self, e: EntwiningStructure, m_max: int, n_max: int):
        if m_max > 3 or n_max > 3:
            raise DegreeError("grid caps at 3 x 3")
        self.e = e
        self.m_max = m_max
        self.n_max = n_max
        da, dc = e.algebra.dim, e.coalgebra.dim
        self.dims = {
            (m, n): (dc * da**m) * (da * dc**n)
            for m in range(m_max + 1)
            for n in range(n_max + 1)
        }
        self.d = {}
        self.dbar = {}
        row_mods = {n: _row_bimodule(e, n) for n in range(n_max + 1)}
        col_mods = {m: _col_bicomodule(e, m) for m in range(m_max + 1)}
        for n in range(n_max + 1):
            for m in range(m_max):
                self.d[(m, n)] = module_differential(e, row_mods[n], m)
        for m in range(m_max + 1):
            for n in range(n_max):
                self.dbar[(m, n)] = comodule_differential(e, col_mods[m], n)
        for n in range(n_max + 1):
            for m in range(m_max - 1):
                if not (self.d[(m + 1, n)] @ self.d[(m, n)]).is_zero():
                    raise InternalConsistencyError(f"d o d != 0 in row {n}")
        for m in range(m_max + 1):
            for n in range(n_max - 1):
                if not (self.dbar[(m, n + 1)] @ self.dbar[(m, n)]).is_zero():
                    raise InternalConsistencyError(f"dbar o dbar != 0 in column {m}")
        for m in range(m_max):
            for n in range(n_max):
                lhs = self.dbar[(m + 1, n)] @ self.d[(m, n)]
                rhs = self.d[(m, n + 1)] @ self.dbar[(m, n)]
                if lhs != rhs:
                    raise InternalConsistencyError(f"d dbar != dbar d at cell ({m},{n})")


def build_double_complex(e: EntwiningStructure, m_max: int = 3, n_max: int = 3) -> DoubleComplexGrid:
    return DoubleComplexGrid(e, m_max, n_max)


class TotalComplex:
    """Glued total complex with Hochschild first row and Cartier first column.

    Degree n >= 1 splits as Hom(A^n, A) (+) sum_k Hom(C (x) A^{n-k}, A (x) C^k)
    (+) Hom(C, C^n); degree 0 is the zero space (the unglued corner cannot
    carry a degree-0 piece compatible with D^2 = 0).
    """

    def __init__(self, e: EntwiningStructure, n_max: int):
        if n_max > 4:
            raise DegreeError("total complex caps at degree 4")
        self.e = e
        self.n_max = n_max
        a, c = e.algebra, e.coalgebra
        da, dc = a.dim, c.dim
        self.components: dict[int, list] = {0: []}
        for n in range(1, n_max + 1):
            comps = [("hoch", n, da * da**n)]
            for k in range(1, n):
                comps.append(("mid", (n - k, k), (dc * da ** (n - k)) * (da * dc**k)))
            comps.append(("cart", n, dc**n * dc))
            self.components[n] = comps
        self.dims = [sum(d for _, _, d in self.components[n]) for n in range(n_max + 1)]
        diffs = [self._total_differential(n) for n in range(n_max)]
        self.complex = CochainComplex(e.field, self.dims, diffs, label="glued total complex")

    def offsets(self, n):
        off, out = 0, []
        for kind, tag, dim in self.components[n]:
            out.append((kind, tag, off, dim))
            off += dim
        return out

    def _total_differential(self, n) -> Mat:
        """Block matrix of D at degree n (degree 0 maps out of the zero space)."""
        e = self.e
        target = {(kind, tag): off for kind, tag, off, _ in self.offsets(n + 1)}
        source = {(kind, tag): off for kind, tag, off, _ in self.offsets(n)}
        blocks = []

        def place(tgt_kind, tgt_tag, src_kind, src_tag, mat, sign):
            blocks.append((target[tgt_kind, tgt_tag], source[src_kind, src_tag], mat if sign == 1 else -mat))

        a, c = e.algebra, e.coalgebra
        reg_bim = regular_bimodule(a)
        reg_bicom = regular_bicomodule(c)
        for kind, tag in source:
            if kind == "hoch":
                place("hoch", n + 1, "hoch", n, hochschild_differential(a, reg_bim, n), 1)
                glue = comodule_differential(e, _col_bicomodule(e, n), 0) @ hochschild_inclusion_operator(e, reg_bim, n)
                place("mid", (n, 1), "hoch", n, glue, -1 if n % 2 else 1)
            elif kind == "cart":
                place("cart", n + 1, "cart", n, cartier_differential(c, reg_bicom, n), 1)
                glue = module_differential(e, _row_bimodule(e, n), 0) @ cartier_inclusion_operator(e, reg_bicom, n)
                place("mid", (1, n), "cart", n, glue, 1)
            else:
                m, k = tag
                place("mid", (m + 1, k), "mid", (m, k), module_differential(e, _row_bimodule(e, k), m), 1)
                place("mid", (m, k + 1), "mid", (m, k), comodule_differential(e, _col_bicomodule(e, m), k), -1 if m % 2 else 1)
        return from_blocks(e.field, self.dims[n + 1], self.dims[n], blocks)

    def differential(self, n) -> Mat:
        return self.complex.differential(n)

    # -- component (un)packing -------------------------------------------------

    def split(self, n, column: Mat):
        """Column in degree-n coordinates -> {component: LinearMap}."""
        e = self.e
        da, dc = e.algebra.dim, e.coalgebra.dim
        out = {}
        for kind, tag, off, dim in self.offsets(n):
            piece = column.select_rows(slice(off, off + dim))
            if kind == "hoch":
                out[("hoch", tag)] = unvec(piece, (da,) * tag, (da,))
            elif kind == "cart":
                out[("cart", tag)] = unvec(piece, (dc,), (dc,) * tag)
            else:
                m, k = tag
                out[("mid", tag)] = unvec(piece, (dc,) + (da,) * m, (da,) + (dc,) * k)
        return out


def build_CH(e: EntwiningStructure, n_max: int = 3) -> TotalComplex:
    return TotalComplex(e, n_max)


def total_cohomology(tc: TotalComplex, n: int):
    return cohomology(tc.complex, n)


# -- infinitesimal deformations -----------------------------------------------------


@dataclass
class InfinitesimalDeformation:
    """First-order directions for product, coproduct, and entwining map."""

    mu1: LinearMap
    delta1: LinearMap
    psi1: LinearMap


def split_degree2(tc: TotalComplex, z: Mat) -> InfinitesimalDeformation:
    """Degree-2 coordinates -> deformation directions (see module docstring)."""
    pieces = tc.split(2, z)
    mu1 = pieces[("hoch", 2)]
    w = pieces[("mid", (1, 1))]
    d2 = pieces[("cart", 2)]
    return InfinitesimalDeformation(mu1=mu1, delta1=-d2, psi1=-w)


def first_order_checks(e: EntwiningStructure, deformation: InfinitesimalDeformation) -> CheckReport:
    """All structure laws of the deformed triple, at the t^1 coefficient.

    The deformed unit is 1 - t mu1(1,1) and the deformed counit is
    eps - t (eps (x) eps) Delta1; both are forced (units are rigid), so the
    triangle laws are stated with those corrections in place.
    """
    a, c = e.algebra, e.coalgebra
    da, dc = a.dim, c.dim
    mu, delta, psi = a.mult.mat, c.comult.mat, e.psi.mat
    mu1, delta1, psi1 = deformation.mu1.mat, deformation.delta1.mat, deformation.psi1.mat
    ia, ic = Mat.identity(e.field, da), Mat.identity(e.field, dc)
    unit, counit = a.unit, c.counit.mat
    report = CheckReport("first-order deformation laws")

    lhs = mu1 @ kron(mu, ia) + mu @ kron(mu1, ia)
    rhs = mu1 @ kron(ia, mu) + mu @ kron(ia, mu1)
    report.add("associativity", lhs == rhs)

    w = mu1 @ kron(unit, unit)  # mu1(1,1); deformed unit is 1 - t w
    report.add(
        "unit law",
        mu1 @ kron(unit, ia) == mu @ kron(w, ia)
        and mu1 @ kron(ia, unit) == mu @ kron(ia, w),
    )

    lhs = kron(delta1, ic) @ delta + kron(delta, ic) @ delta1
    rhs = kron(ic, delta1) @ delta + kron(ic, delta) @ delta1
    report.add("coassociativity", lhs == rhs)

    e1 = kron(counit, counit) @ delta1  # deformed counit is eps - t e1
    report.add(
        "counit law",
        kron(counit, ic) @ delta1 == kron(e1, ic) @ delta
        and kron(ic, counit) @ delta1 == kron(ic, e1) @ delta,
    )

    lhs = psi1 @ kron(ic, mu) + psi @ kron(ic, mu1)
    rhs = (
        kron(mu1, ic) @ kron(ia, psi) @ kron(psi, ia)
        + kron(mu, ic) @ kron(ia, psi1) @ kron(psi, ia)
        + kron(mu, ic) @ kron(ia, psi) @ kron(psi1, ia)
    )
    report.add("left pentagon", lhs == rhs)

    lhs = kron(ia, delta1) @ psi + kron(ia, delta) @ psi1
    rhs = (
        kron(psi1, ic) @ kron(ic, psi) @ kron(delta, ia)
        + kron(psi, ic) @ kron(ic, psi1) @ kron(delta, ia)
        + kron(psi, ic) @ kron(ic, psi) @ kron(delta1, ia)
    )
    report.add("right pentagon", lhs == rhs)

    lhs = psi1 @ kron(ic, unit) - psi @ kron(ic, w)
    report.add("left triangle", lhs == -kron(w, ic))

    lhs = kron(ia, counit) @ psi1 - kron(ia, e1) @ psi
    report.add("right triangle", lhs == -kron(e1, ia))
    return report


def deformation_from_cocycle(e: EntwiningStructure, z: Mat, tc: TotalComplex | None = None) -> InfinitesimalDeformation:
    """Split a (reduce-verified) degree-2 cocycle and check every first-order law."""
    tc = tc or build_CH(e, 2)
    deformation = split_degree2(tc, z)
    report = first_order_checks(e, deformation)
    if not report.ok:
        raise CocycleConditionError(
            "first-order law failed: " + ", ".join(n for n, _ in report.failures)
        )
    return deformation


def coboundary_equivalence(e: EntwiningStructure, z: Mat, w: Mat, tc: TotalComplex | None = None):
    """Extract (alpha1, gamma1) from a degree-1 witness w with D w = z and verify
    that id + t alpha1 / id + t gamma1 carry the z-deformation to the trivial one."""
    tc = tc or build_CH(e, 2)
    if tc.differential(1) @ w != z:
        raise CocycleConditionError("witness does not bound the given 2-cochain")
    pieces = tc.split(1, w)
    alpha1 = pieces[("hoch", 1)]
    gamma1 = pieces[("cart", 1)]
    deformation = split_degree2(tc, z)
    a, c = e.algebra, e.coalgebra
    mu, delta, psi = a.mult.mat, c.comult.mat, e.psi.mat
    ia = Mat.identity(e.field, a.dim)
    ic = Mat.identity(e.field, c.dim)
    report = CheckReport("first-order equivalence to the trivial deformation")
    lhs = alpha1.mat @ mu + deformation.mu1.mat
    rhs = mu @ kron(alpha1.mat, ia) + mu @ kron(ia, alpha1.mat)
    report.add("product transported", lhs == rhs)
    lhs = kron(gamma1.mat, ic) @ delta + kron(ic, gamma1.mat) @ delta + deformation.delta1.mat
    report.add("coproduct transported", lhs == delta @ gamma1.mat)
    lhs = psi @ kron(gamma1.mat, ia) + psi @ kron(ic, alpha1.mat)
    rhs = kron(alpha1.mat, ic) @ psi + kron(ia, gamma1.mat) @ psi + deformation.psi1.mat
    report.add("entwining map transported", lhs == rhs)
    if not report.ok:
        raise InternalConsistencyError(
            "equivalence verification failed: " + ", ".join(n for n, _ in report.failures)
        )
    return alpha1, gamma1


def random_two_cochain(tc: TotalComplex, seed: int = 0) -> Mat:
    """Seeded pseudorandom degree-2 cochain (for non-cocycle rejection demos)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dim = tc.dims[2]
    triples = [(i, 0, int(rng.integers(-3, 4))) for i in range(dim)]
    return Mat.from_triples(tc.e.field, dim, 1, triples)
