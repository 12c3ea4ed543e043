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
order" with no leftover signs: ker L = ker D^2 for the law operator L below.

The first-order laws, and the identities by which id + t alpha1, id + t gamma1
carry a deformation to the trivial one, are linear in the cochain.  Each set
is one LawOperator, built once per structure (cached on it) from jets
X + t dX multiplied by the Leibniz rule, and applied to a whole column-stacked
basis in one product; a column's failing laws are its nonzero row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from ._rng import Generator
from .complexes import (
    CochainComplex,
    build_ApsiCV,
    build_CpsiAM,
    cartier_differential,
    cartier_inclusion_operator,
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
from .homspace import unvec, vec
from .linalg import Mat, from_blocks, kron, middle_operator, vstack
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
    """Cells Hom(C (x) A^m, A (x) C^n) with commuting d and dbar: row n is the complex
    C_psi(A, A (x) C^n) and column m is A_psi(C, C (x) A^m), each verifying its own
    d o d = 0, so the grid checks only d dbar = dbar d."""

    def __init__(self, e: EntwiningStructure, m_max: int, n_max: int):
        if m_max > 3 or n_max > 3:
            raise DegreeError("grid caps at 3 x 3")
        self.e, self.m_max, self.n_max = e, m_max, n_max
        rows = [build_CpsiAM(e, _row_bimodule(e, n), m_max) for n in range(n_max + 1)]
        cols = [build_ApsiCV(e, _col_bicomodule(e, m), n_max) for m in range(m_max + 1)]
        self.d = {(m, n): d for n, row in enumerate(rows) for m, d in enumerate(row.differentials)}
        self.dbar = {(m, n): dbar for m, col in enumerate(cols) for n, dbar in enumerate(col.differentials)}
        self.dims = {(m, n): dim for n, row in enumerate(rows) for m, dim in enumerate(row.space_dims)}
        for (m, n), dbar in self.dbar.items():
            if (m + 1, n) in self.dbar and self.dbar[m + 1, n] @ self.d[m, n] != self.d[m, n + 1] @ dbar:
                raise InternalConsistencyError(f"d dbar != dbar d at cell ({m},{n})")


def _summands(da: int, dc: int, n: int):
    """(kind, tag, offset, dim, domain, codomain) of each summand of total
    degree n: Hom(A^n, A), the Hom(C (x) A^{n-k}, A (x) C^k) and Hom(C, C^n);
    degree 0 has none."""
    if n == 0:
        return []
    shapes = [("hoch", n, (da,) * n, (da,))]
    shapes += [("mid", (n - k, k), (dc,) + (da,) * (n - k), (da,) + (dc,) * k) for k in range(1, n)]
    shapes.append(("cart", n, (dc,), (dc,) * n))
    dims = [math.prod(dom) * math.prod(cod) for _, _, dom, cod in shapes]
    return [
        (kind, tag, off, dim, dom, cod)
        for (kind, tag, dom, cod), off, dim in zip(shapes, accumulate(dims, initial=0), dims)
    ]


class TotalComplex:
    """Glued total complex with Hochschild first row and Cartier first column.

    Degree n >= 1 splits as Hom(A^n, A) (+) sum_k Hom(C (x) A^{n-k}, A (x) C^k)
    (+) Hom(C, C^n); degree 0 is the zero space (the unglued corner cannot
    carry a degree-0 piece compatible with D^2 = 0).
    """

    def __init__(self, e: EntwiningStructure, n_max: int):
        if n_max > 4:
            raise DegreeError("total complex caps at degree 4")
        self.e, self.n_max = e, n_max
        da, dc = e.algebra.dim, e.coalgebra.dim
        self.dims = [sum(dim for _, _, _, dim, _, _ in _summands(da, dc, n)) for n in range(n_max + 1)]
        diffs = [self._total_differential(n) for n in range(n_max)]
        self.complex = CochainComplex(e.field, self.dims, diffs, label="glued total complex")

    def _total_differential(self, n) -> Mat:
        """Block matrix of D at degree n (degree 0 maps out of the zero space)."""
        e, a, c = self.e, self.e.algebra, self.e.coalgebra
        target = {(kind, tag): off for kind, tag, off, *_ in _summands(a.dim, c.dim, n + 1)}
        reg_bim, reg_bicom = regular_bimodule(a), regular_bicomodule(c)
        blocks = []
        for kind, tag, off, *_ in _summands(a.dim, c.dim, n):
            if kind == "hoch":
                glue = comodule_differential(e, _col_bicomodule(e, n), 0) @ hochschild_inclusion_operator(e, reg_bim, n)
                d = hochschild_differential(a, reg_bim, n)
                out = {("hoch", n + 1): d, ("mid", (n, 1)): -glue if n % 2 else glue}
            elif kind == "cart":
                glue = module_differential(e, _row_bimodule(e, n), 0) @ cartier_inclusion_operator(e, reg_bicom, n)
                out = {("cart", n + 1): cartier_differential(c, reg_bicom, n), ("mid", (1, n)): glue}
            else:
                m, k = tag
                dbar = comodule_differential(e, _col_bicomodule(e, m), k)
                d = module_differential(e, _row_bimodule(e, k), m)
                out = {("mid", (m + 1, k)): d, ("mid", (m, k + 1)): -dbar if m % 2 else dbar}
            blocks += [(target[key], off, mat) for key, mat in out.items()]
        return from_blocks(e.field, self.dims[n + 1], self.dims[n], blocks)

    def differential(self, n) -> Mat:
        return self.complex.differential(n)

    # -- component (un)packing -------------------------------------------------

    def split(self, n, column: Mat):
        """Column in degree-n coordinates -> {component: LinearMap}."""
        return {
            (kind, tag): unvec(column.select_rows(slice(off, off + dim)), dom, cod)
            for kind, tag, off, dim, dom, cod in _summands(self.e.algebra.dim, self.e.coalgebra.dim, n)
        }


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
    return InfinitesimalDeformation(mu1=pieces["hoch", 2], delta1=-pieces["cart", 2], psi1=-pieces["mid", (1, 1)])


class _Jet:
    """A matrix X + t dX over k[t]/(t^2) whose dX is linear in a cochain: d is
    the operator from cochain coordinates to vec(dX), None when dX = 0.
    Products obey the Leibniz rule, one middle_operator per varying factor."""

    def __init__(self, value: Mat, d: Mat | None = None):
        self.value, self.d = value, d

    def __sub__(self, other):
        return _Jet(self.value - other.value, _sum([self.d, None if other.d is None else -other.d]))

    def __matmul__(self, other):
        a, b, eye = self.value, other.value, partial(Mat.identity, self.value.field)
        return _Jet(a @ b, _sum([
            None if self.d is None else middle_operator(eye(a.rows), 1, a.rows, a.cols, 1, b) @ self.d,
            None if other.d is None else middle_operator(a, 1, b.rows, b.cols, 1, eye(b.cols)) @ other.d,
        ]))


def _sum(mats):
    mats = [m for m in mats if m is not None]
    return sum(mats[1:], mats[0]) if mats else None


def _kron(x: _Jet, y: _Jet) -> _Jet:
    """x (x) y, through a (x) b = (a (x) I) @ (I (x) b)."""
    a, b, eye = x.value, y.value, partial(Mat.identity, x.value.field)
    return _Jet(kron(a, b), _sum([
        None if x.d is None
        else middle_operator(eye(a.rows * b.rows), 1, a.rows, a.cols, b.rows, kron(eye(a.cols), b)) @ x.d,
        None if y.d is None
        else middle_operator(kron(a, eye(b.rows)), a.cols, b.rows, b.cols, 1, eye(a.cols * b.cols)) @ y.d,
    ]))


def _deformed(e: EntwiningStructure, transport: bool):
    """Jets of mu, Delta, psi deformed along mu1, delta1, psi1 on total
    2-cochains, and of id_A, id_C: constant, or with transport deformed along
    alpha1, gamma1 on [total 1-cochain; total 2-cochain] coordinates."""
    da, dc = e.algebra.dim, e.coalgebra.dim
    summands = [s for n in ((1, 2) if transport else (2,)) for s in _summands(da, dc, n)]
    offsets = list(accumulate((dim for _, _, _, dim, _, _ in summands), initial=0))
    where = {(kind, tag): off for (kind, tag, *_), off in zip(summands, offsets)}
    eye = Mat.identity(e.field, offsets[-1])

    def jet(value, kind, tag, sign):  # the direction is sign times the summand (module docstring)
        off = where[kind, tag]
        return _Jet(value, eye.select_rows(slice(off, off + value.rows * value.cols)).scale(sign))

    ia, ic = Mat.identity(e.field, da), Mat.identity(e.field, dc)
    mu = jet(e.algebra.mult.mat, "hoch", 2, 1)
    delta = jet(e.coalgebra.comult.mat, "cart", 2, -1)
    psi = jet(e.psi.mat, "mid", (1, 1), -1)
    if not transport:
        return mu, delta, psi, _Jet(ia), _Jet(ic)
    return mu, delta, psi, jet(ia, "hoch", 1, 1), jet(ic, "cart", 1, 1)


class LawOperator:
    """Linear laws as one operator, op: the d of each law's residual jets
    (lhs - rhs), stacked; blocks holds (name, first row, end row) per law."""

    def __init__(self, laws):
        self.blocks, row = [], 0
        for name, residuals in laws:
            self.blocks.append((name, row, row := row + sum(r.d.rows for r in residuals)))
        self.op = vstack([r.d for _, residuals in laws for r in residuals])

    def failures(self, columns: Mat) -> list[list[str]]:
        """Per column, the names of the laws whose residual is nonzero."""
        residual, failed = self.op @ columns, [[] for _ in range(columns.cols)]
        for name, start, end in self.blocks:
            for j in residual.select_rows(slice(start, end)).nonzero_columns():
                failed[j].append(name)
        return failed


def first_order_laws(e: EntwiningStructure) -> LawOperator:
    """The structure laws of the deformed triple at the t^1 coefficient, on
    total 2-cochains; cached on e.

    The deformed unit 1 - t mu1(1,1) and counit eps - t (eps (x) eps) Delta1
    are forced (units are rigid) and linear in the cochain, so the unit,
    counit and triangle laws are linear with them in place.
    """

    def build():
        mu, delta, psi, ia, ic = _deformed(e, transport=False)
        unit, counit = e.algebra.unit, e.coalgebra.counit.mat
        unit = _Jet(unit, -(mu @ _Jet(kron(unit, unit))).d)
        counit = _Jet(counit, -(_Jet(kron(counit, counit)) @ delta).d)
        return LawOperator([
            ("associativity", [mu @ _kron(mu, ia) - mu @ _kron(ia, mu)]),
            ("unit law", [mu @ _kron(unit, ia) - ia, mu @ _kron(ia, unit) - ia]),
            ("coassociativity", [_kron(delta, ic) @ delta - _kron(ic, delta) @ delta]),
            ("counit law", [_kron(counit, ic) @ delta - ic, _kron(ic, counit) @ delta - ic]),
            ("left pentagon", [psi @ _kron(ic, mu) - _kron(mu, ic) @ _kron(ia, psi) @ _kron(psi, ia)]),
            ("right pentagon", [_kron(ia, delta) @ psi - _kron(psi, ic) @ _kron(ic, psi) @ _kron(delta, ia)]),
            ("left triangle", [psi @ _kron(ic, unit) - _kron(unit, ic)]),
            ("right triangle", [_kron(ia, counit) @ psi - _kron(counit, ia)]),
        ])

    return e._cached(("first-order laws",), build)


def first_order_checks(e: EntwiningStructure, deformation: InfinitesimalDeformation) -> CheckReport:
    """All structure laws of the deformed triple, at the t^1 coefficient."""
    mu, delta, psi, _, _ = _deformed(e, transport=False)
    # each d is the signed selection of its direction, so d^T puts it back in place
    pairs = ((mu, deformation.mu1), (delta, deformation.delta1), (psi, deformation.psi1))
    failed = first_order_laws(e).failures(_sum([jet.d.transpose() @ vec(f) for jet, f in pairs]))[0]
    report = CheckReport("first-order deformation laws")
    for name, _, _ in first_order_laws(e).blocks:
        report.add(name, name not in failed)
    return report


def deformation_from_cocycle(e: EntwiningStructure, z: Mat, tc: TotalComplex) -> InfinitesimalDeformation:
    """Split a (reduce-verified) degree-2 cocycle and check every first-order law."""
    deformation = split_degree2(tc, z)
    failed = first_order_laws(e).failures(z)[0]
    if failed:
        raise CocycleConditionError("first-order law failed: " + ", ".join(failed))
    return deformation


def transport_laws(e: EntwiningStructure) -> LawOperator:
    """The identities by which f = id + t alpha1, g = id + t gamma1 carry the
    deformation of a 2-cochain z to the trivial one, on [total 1-cochain; z];
    cached on e."""

    def build():
        mu, delta, psi, f, g = _deformed(e, transport=True)
        mu0, delta0, psi0 = _Jet(mu.value), _Jet(delta.value), _Jet(psi.value)
        return LawOperator([
            ("product transported", [f @ mu - mu0 @ _kron(f, f)]),
            ("coproduct transported", [_kron(g, g) @ delta - delta0 @ g]),
            ("entwining map transported", [psi0 @ _kron(g, f) - _kron(f, g) @ psi]),
        ])

    return e._cached(("transport laws",), build)


def coboundary_witnesses(tc: TotalComplex) -> Mat:
    """The matrix W with D^1 W = Z for the degree-2 coboundary basis Z: Z is
    the pivot columns of D^1 (image_basis), so column k of W is the unit
    vector at the k-th pivot, read off the cached echelon form of D^1."""
    d1 = tc.differential(1)
    return Mat.identity(tc.e.field, d1.cols).select_columns(list(d1.rref()[0]))


def coboundary_equivalence(e: EntwiningStructure, z: Mat, w: Mat, tc: TotalComplex):
    """Extract (alpha1, gamma1) from a degree-1 witness w with D w = z and verify
    that id + t alpha1 / id + t gamma1 carry the z-deformation to the trivial one."""
    if tc.differential(1) @ w != z:
        raise CocycleConditionError("witness does not bound the given 2-cochain")
    failed = transport_laws(e).failures(vstack([w, z]))[0]
    if failed:
        raise InternalConsistencyError("equivalence verification failed: " + ", ".join(failed))
    pieces = tc.split(1, w)
    return pieces["hoch", 1], pieces["cart", 1]


def random_two_cochain(tc: TotalComplex, seed: int = 0) -> Mat:
    """numpy's default_rng(seed).integers(-3, 4, size=dim) as a degree-2 cochain (for rejection demos)."""
    dim = tc.dims[2]
    values = Generator(seed).integers(-3, 4, size=dim)
    return Mat.from_triples(tc.e.field, dim, 1, [(i, 0, v) for i, v in enumerate(values)])
