"""Weak comp algebra structure on the self-valued twisted complexes.

Algebra side: degree-m cochains are maps C (x) A^m -> A, with insertion

    (f o_i g)(c, a^1..a^{m+n-1})
        = f(c_(1), a^1_{alpha_1}, .., a^i_{alpha_i},
            g(c_(2)^{alpha_1..alpha_i}, a^{i+1}, ..), a^{n+i+1}, ..)

realised as  F . K_i(G) . P_i  where K_i(G) inserts G into slot i and
P_i = rho_R^{(i)} (x) id feeds the twisted coaction.  The distinguished
pi = eps (x) mu makes this a weak comp algebra.

Coalgebra side: degree-m cochains are maps C -> A (x) C^m with pi = 1 (x) Delta.
It is not coded separately.  f |-> f^T identifies these cochains with the
algebra-side cochains of the dual entwining (C*, A*, psi^T), and every
operation here commutes with that identification; so a coalgebra context runs
the algebra-side code on dual(e) and transposes at its boundary
(CompContext.to_base / from_base).

Each product has one formula here: cup and sqcup go through the insertions,
the coboundary through the cached complex differential.  The alternatives
(_direct_cup, _direct_sqcup, and the coboundary as (-1)^{m-1} pi <> f - f <> pi)
are oracles in tests/test_compalg.py, which compares them on the fixtures.
Products of many cochains at once (classes, equivariant bases) are product
grids (_grid, _pi_grid): for cochains xs and ys stacked as columns vec(x) and
vec(y), the matrix whose column (x, y), in (x, y) order, is vec of the product
of x and y.  The per-pair cup/sqcup loop is the oracle in the tests.

The axiom verifier does not loop over basis tuples: each axiom is multilinear
in its cochain slots, so it holds for all tuples exactly when a slot-free
composite of the structure operators holds as one matrix identity.  Each
identity is decided once, at its smallest size, for every degree up to the
cap: condition (2) per slots (i, j), condition (3) per (i, j) with h = pi and
per (i, j, p) with g = pi; condition (1) checks comp_i's own range guard.  A
brute-force tuple scan confirms the equivalence at small dimensions in the
test-suite and is used here to locate a witness tuple when (2) fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import prod
from operator import eq

from .complexes import CochainComplex, cohomology, hopf_contracting_homotopy, module_differential
from .entwining import EntwiningStructure, dual, rho_L_coaction, rho_R_coaction, translation
from .errors import (
    DegreeError,
    MissingTranslationMapError,
    ShapeMismatchError,
)
from .homspace import unvec, vec, vec_transpose_index
from .linalg import Mat, kernel_basis, kron, middle_operator, solve
from .structures import CheckReport, LinearMap, compose, identity_map, regular_bimodule, tensor

ALGEBRA = "algebra"
COALGEBRA = "coalgebra"


@dataclass
class Cochain:
    """Degree-m cochain on one side; map_ is None for formal zero cochains."""

    side: str
    degree: int
    map_: LinearMap | None

    @property
    def is_zero(self) -> bool:
        return self.map_ is None or self.map_.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if self.side != other.side or self.degree != other.degree:
            return False
        if self.map_ is None or other.map_ is None:
            return self.is_zero and other.is_zero
        return self.map_ == other.map_


def lin_comb(ctx, degree, terms) -> Cochain:
    """Signed sum of cochains of one degree; terms are (sign, cochain)."""
    total = None
    for sign, c in terms:
        if c.map_ is None:
            continue
        part = c.map_.mat if sign == 1 else -c.map_.mat
        total = part if total is None else total + part
    if total is None:
        return ctx.zero(degree)
    dom, cod = ctx.space_shapes(degree)
    return Cochain(ctx.side, degree, LinearMap(dom, cod, total))


class CompContext:
    """Entwining structure plus a side and the distinguished 2-cochain pi.

    base is the entwining the algebra-side code runs on: e itself, or dual(e)
    for the coalgebra side, whose cochains are the transposes of base's.
    """

    def __init__(self, e: EntwiningStructure, side: str):
        if side not in (ALGEBRA, COALGEBRA):
            raise ShapeMismatchError(f"unknown side {side!r}")
        self.e = e
        self.side = side
        self.base = e if side == ALGEBRA else dual(e)
        self._cache: dict = {}
        b = self.base
        self.pi = self.from_base(2, tensor(b.coalgebra.counit, b.algebra.mult).mat)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- the f <-> f^T boundary -------------------------------------------------

    def _flip(self, f: LinearMap) -> LinearMap:
        return f if self.side == ALGEBRA else f.transpose()

    def to_base(self, f: Cochain) -> LinearMap:
        """f as an algebra-side cochain of base."""
        return self._flip(f.map_)

    def from_base(self, degree, mat: Mat) -> Cochain:
        """The cochain whose algebra-side matrix on base is mat."""
        return Cochain(self.side, degree, self._flip(LinearMap(*self._base_shapes(degree), mat)))

    # -- degree bookkeeping -------------------------------------------------

    def _base_shapes(self, m):
        a, c = self.base.algebra, self.base.coalgebra
        return (c.dim,) + (a.dim,) * m, (a.dim,)

    def space_shapes(self, m):
        dom, cod = self._base_shapes(m)
        return (dom, cod) if self.side == ALGEBRA else (cod, dom)

    def space_dim(self, m):
        dom, cod = self.space_shapes(m)
        return prod(dom) * prod(cod)

    def zero(self, degree) -> Cochain:
        if degree < 0:
            return Cochain(self.side, degree, None)
        dom, cod = self.space_shapes(degree)
        return Cochain(
            self.side, degree, LinearMap(dom, cod, Mat.zeros(self.e.field, prod(cod), prod(dom)))
        )

    def cochain(self, degree, map_: LinearMap) -> Cochain:
        dom, cod = self.space_shapes(degree)
        if map_.domain_dim != prod(dom) or map_.codomain_dim != prod(cod):
            raise ShapeMismatchError(f"cochain of degree {degree} has wrong shape")
        return Cochain(self.side, degree, LinearMap(dom, cod, map_.mat))

    def from_vec(self, degree, column: Mat) -> Cochain:
        """Inverse of vec(to_base(.)), the coordinates self_complex works in."""
        return Cochain(self.side, degree, self._flip(unvec(column, *self._base_shapes(degree))))

    def basis(self, degree) -> list[Cochain]:
        dom, cod = self.space_shapes(degree)
        rows, cols = prod(cod), prod(dom)
        field = self.e.field
        return [Cochain(self.side, degree, LinearMap(dom, cod, Mat.from_triples(field, rows, cols, [(i, j, 1)])))
                for i in range(rows) for j in range(cols)]

    # -- structure operators --------------------------------------------------

    def P(self, i, s) -> Mat:
        """rho_R^{(i)} (x) id_{A^{s-i}}, acting on C (x) A^s of base."""
        b = self.base
        return self._cached(
            ("P", i, s), lambda: kron(rho_R_coaction(b, i).mat, Mat.identity(b.field, b.algebra.dim ** (s - i)))
        )

    def K(self, i, g: Cochain, outer_degree) -> Mat:
        """Insertion of g into slot i of a degree-outer_degree cochain of base."""
        a, c = self.base.algebra, self.base.coalgebra
        left = Mat.identity(self.e.field, c.dim * a.dim**i)
        right = Mat.identity(self.e.field, a.dim ** (outer_degree - i - 1))
        return kron(left, self.to_base(g).mat, right)

    def insertion_operator(self, left: Mat, i, m, n, after: Mat | None = None) -> Mat:
        """Matrix of vec g |-> vec(left . K_i(g) . P(i, m+n-1) . after) on base,
        for g of degree n inserted into slot i of degree m; left acts on
        C (x) A^m, and after, if given, on the output space C (x) A^{m+n-1}."""
        da, dc = self.base.algebra.dim, self.base.coalgebra.dim
        right = self.P(i, m + n - 1) if after is None else self.P(i, m + n - 1) @ after
        return middle_operator(left, dc * da**i, da, dc * da**n, da ** (m - i - 1), right)

    def differential_operator(self, m) -> Mat:
        """The complexes-module differential of base, cached per degree."""
        return self._cached(("d", m), lambda: module_differential(self.base, regular_bimodule(self.base.algebra), m))

    def self_complex(self, n_max):
        """build_CpsiAM(base, regular bimodule, n_max) or longer: one complex per context, rebuilt
        only to reach a higher degree, with each d^n and h^n built once per context."""
        cx = self._cache.get("complex")
        if cx is None or cx.max_degree < n_max:
            b = self.base
            h = self._cached("h", lambda: cache(partial(hopf_contracting_homotopy, b, regular_bimodule(b.algebra))))
            diffs, dims = [self.differential_operator(n) for n in range(n_max)], map(self.space_dim, range(n_max + 1))
            cx = self._cache["complex"] = CochainComplex(self.e.field, dims, diffs, "C_psi(A,M)", h)
        return cx

    def cohomology_at(self, n):
        return self._cached(("H", n), lambda: cohomology(self.self_complex(n + 1), n))


# -- elementary operations ------------------------------------------------------


def comp_i(ctx: CompContext, f: Cochain, i: int, g: Cochain) -> Cochain:
    """f o_i g; the zero cochain when i is outside f's slot range."""
    if f.side != ctx.side or g.side != ctx.side:
        raise ShapeMismatchError("cochain side does not match context")
    m, n = f.degree, g.degree
    if i < 0 or i >= m or f.map_ is None or g.map_ is None:
        return ctx.zero(m + n - 1)
    mat = ctx.to_base(f).mat @ ctx.K(i, g, m) @ ctx.P(i, m + n - 1)
    return ctx.from_base(m + n - 1, mat)


def diamond(ctx, f: Cochain, g: Cochain) -> Cochain:
    """f <> g = sum_i (-1)^{i(n-1)} f o_i g."""
    m, n = f.degree, g.degree
    terms = [(-1 if (i * (n - 1)) % 2 else 1, comp_i(ctx, f, i, g)) for i in range(m)]
    return lin_comb(ctx, m + n - 1, terms)


def _direct_cup(ctx, f: Cochain, g: Cochain) -> Cochain:
    """Reference formula for cup, on base: mu o (f (x) g) o (rho^m_R (x) A^n)."""
    e = ctx.base
    m, n = f.degree, g.degree
    feed = kron(rho_R_coaction(e, m).mat, Mat.identity(e.field, e.algebra.dim**n))
    mat = e.algebra.mult.mat @ kron(ctx.to_base(f).mat, ctx.to_base(g).mat) @ feed
    return ctx.from_base(m + n, mat)


def _direct_sqcup(ctx, f: Cochain, g: Cochain) -> Cochain:
    """Reference formula for sqcup, on base:
    mu o (A (x) g) o (psi (x) A^n) o (C (x) f (x) A^n) o (Delta (x) A^{m+n})."""
    e = ctx.base
    a, c = e.algebra, e.coalgebra
    m, n = f.degree, g.degree
    ida_n = identity_map(e.field, (a.dim,) * n)
    chain = compose(
        a.mult,
        compose(
            tensor(a.identity(), ctx.to_base(g)),
            compose(
                tensor(e.psi, ida_n),
                compose(
                    tensor(c.identity(), ctx.to_base(f), ida_n),
                    tensor(c.comult, identity_map(e.field, (a.dim,) * (m + n))),
                ),
            ),
        ),
    )
    return ctx.from_base(m + n, chain.mat)


def cup(ctx, f: Cochain, g: Cochain) -> Cochain:
    """f cup g = (pi o_0 f) o_m g.

    tests/test_compalg.py checks it against _direct_cup on the fixtures.
    """
    if f.map_ is None or g.map_ is None:
        return ctx.zero(f.degree + g.degree)
    return comp_i(ctx, comp_i(ctx, ctx.pi, 0, f), f.degree, g)


def sqcup(ctx, f: Cochain, g: Cochain) -> Cochain:
    """f sqcup g = (pi o_1 g) o_0 f.

    tests/test_compalg.py checks it against _direct_sqcup on the fixtures.
    """
    if f.map_ is None or g.map_ is None:
        return ctx.zero(f.degree + g.degree)
    return comp_i(ctx, comp_i(ctx, ctx.pi, 1, g), 0, f)


def coboundary(ctx, f: Cochain) -> Cochain:
    """d f, by the cached complex differential of base.

    In comp terms d f = (-1)^{m-1} pi <> f - f <> pi; tests/test_compalg.py
    checks the two against each other on the fixtures.
    """
    m = f.degree
    if f.map_ is None:
        return ctx.zero(m + 1)
    return ctx.from_vec(m + 1, ctx.differential_operator(m) @ vec(ctx.to_base(f)))


def eps_tensor_id(ctx) -> Cochain:
    """The degree-1 cochain eps (x) A (resp. 1 (x) C on the coalgebra side)."""
    b = ctx.base
    return ctx.from_base(1, tensor(b.coalgebra.counit, b.algebra.identity()).mat)


# -- axiom verification -----------------------------------------------------------


def _cond2_core(ctx, i, j) -> bool:
    """Slot-free matrix identity equivalent to condition (2) at every (m, n, p)
    with slots (i, j): at composite degree D each side is its side at D = j
    (x) I_{A^{D-j}}, so it is decided there."""
    e = ctx.base
    da, dc = e.algebra.dim, e.coalgebra.dim
    lhs = kron(rho_R_coaction(e, i).mat, Mat.identity(e.field, da ** (j - i) * dc)) @ ctx.P(j, j)
    rhs = kron(Mat.identity(e.field, dc * da**i), rho_R_coaction(e, j - i).mat) @ ctx.P(i, j)
    return lhs == rhs


def _cond3_pi_last(ctx, i, j, pi: Cochain) -> bool:
    """Condition (3) with h = pi, (f o_i g) o_j pi = (f o_j pi) o_{i+1} g for j < i,
    at every (m, n): rho_R^{(i)} T = (T (x) id_C) rho_R^{(i+1)} with T = K_j(pi) P(j, i+1).
    f drops out by linearity; at degree m each side is K_i(g) . (its side (x) id),
    as g acts last on the left and pi's feed stops left of g's output on the
    right, and the maps K_i(g) separate points."""
    b, t = ctx.base, ctx.K(j, pi, i) @ ctx.P(j, i + 1)
    idc = Mat.identity(b.field, b.coalgebra.dim)
    return rho_R_coaction(b, i).mat @ t == kron(t, idc) @ rho_R_coaction(b, i + 1).mat


def _cond3_operators(ctx, i, j, p, pi: Cochain):
    """Operators in the free h of degree p for the two sides of condition (3)
    with g = pi, (f o_i pi) o_j h = (f o_j h) o_{i+p-1} pi for j < i.  f is
    stripped by linearity, leaving the identity of C (x) A^m; at degree m both
    sides are their value at m = i + 1 (x) I_{A^{m-i-1}}, so they are built there.
    The operators act on the flattened free cochain of base."""
    m, insert = i + 1, ctx.insertion_operator
    ident = Mat.identity(ctx.e.field, ctx.base.coalgebra.dim * ctx.base.algebra.dim**m)

    def then_pi(s, degree):  # K_s(pi) P_s: pi into slot s of a degree-`degree` cochain
        return ctx.K(s, pi, degree) @ ctx.P(s, degree + 1)

    return insert(then_pi(i, m), j, m + 1, p), insert(ident, j, m, p, after=then_pi(i + p - 1, m + p - 1))


def _find_violation_brute(ctx, m, n, p, i, j):
    """Search basis tuples, in (f, g, h) order, for a condition-(2) violation (dims <= 16)."""
    if ctx.space_dim(max(m, n, p)) > 16:
        return None
    fs, gs, hs = ctx.basis(m), ctx.basis(n), ctx.basis(p)
    inner = [[comp_i(ctx, g, j - i, h) for h in hs] for g in gs]
    for fi, f in enumerate(fs):
        for gi, g in enumerate(gs):
            fg = comp_i(ctx, f, i, g)
            for hi, h in enumerate(hs):
                if comp_i(ctx, fg, j, h) != comp_i(ctx, f, i, inner[gi][hi]):
                    return (fi, gi, hi)
    return None


def verify_weak_comp(ctx: CompContext, degree_cap: int = 2, pi: Cochain | None = None) -> CheckReport:
    """Check the weak comp algebra axioms exhaustively at every degree up to degree_cap.

    Each condition is a slot-free operator identity per key (see the module
    docstring), decided once and reported for every tuple of degrees that
    reaches it: condition (2) once per context, condition (3), which reads pi,
    once per call.
    """
    if not 0 <= degree_cap <= 3:
        raise DegreeError("degree_cap runs from 0 to 3")
    pi = pi or ctx.pi
    report = CheckReport(f"weak comp axioms [{ctx.side}]")

    field = ctx.e.field
    some = [ctx.from_vec(m, Mat.from_triples(field, ctx.space_dim(m), 1, [(0, 0, 1)])) for m in range(degree_cap + 1)]
    ok1 = all(comp_i(ctx, f, k, g).is_zero for f in some for g in some for k in (f.degree, f.degree + 1))
    report.add("condition (1): out-of-range insertions vanish", ok1)

    for m in range(1, degree_cap + 1):
        for n in range(degree_cap + 1):
            for p in range(degree_cap + 1):
                for i in range(m):
                    for j in range(i, i + n):
                        ok = ctx._cached(("cond2", i, j), partial(_cond2_core, ctx, i, j))
                        detail = f"m={m} n={n} p={p} i={i} j={j}"
                        if not ok:
                            witness = _find_violation_brute(ctx, m, n, p, i, j)
                            if witness is not None:
                                detail += f" witness basis tuple {witness}"
                        report.add("condition (2): nested insertions associate", ok, detail)

    pi_last = cache(lambda i, j: _cond3_pi_last(ctx, i, j, pi))
    pi_first = cache(lambda i, j, p: eq(*_cond3_operators(ctx, i, j, p, pi)))
    for m in range(2, degree_cap + 1):
        for free in range(degree_cap + 1):
            for i in range(1, m):
                for j in range(i):
                    detail = f"m={m} n={free} i={i} j={j}"
                    report.add("condition (3): pi commutes past insertions (h = pi)", pi_last(i, j), detail)
                    detail = f"m={m} p={free} i={i} j={j}"
                    report.add("condition (3): pi commutes past insertions (g = pi)", pi_first(i, j, free), detail)

    report.add(
        "condition (4): pi o_0 pi = pi o_1 pi",
        comp_i(ctx, pi, 0, pi) == comp_i(ctx, pi, 1, pi),
    )
    return report


def check_prelie_identities(ctx, f: Cochain, g: Cochain, h: Cochain) -> CheckReport:
    """Associator symmetries with pi and the cup/sqcup commutator identity."""
    report = CheckReport("pre-Lie identities")
    m, n, p = f.degree, g.degree, h.degree

    if ctx.pi in (f, g, h):
        lhs = lin_comb(
            ctx,
            m + n + p - 2,
            [(1, diamond(ctx, diamond(ctx, f, g), h)), (-1, diamond(ctx, f, diamond(ctx, g, h)))],
        )
        terms = []
        for i in range(m):
            for j in list(range(0, i)) + list(range(n + i, m + n - 1)):
                sign = -1 if (i * (n - 1) + j * (p - 1)) % 2 else 1
                terms.append((sign, comp_i(ctx, comp_i(ctx, f, i, g), j, h)))
        rhs = lin_comb(ctx, m + n + p - 2, terms)
        report.add("associator defect reduces to boundary slots", lhs == rhs)
    else:
        report.add("associator defect identity (needs pi among inputs)", True, "skipped")

    lhs2 = lin_comb(
        ctx,
        m + n,
        [(1, diamond(ctx, diamond(ctx, f, g), ctx.pi)), (-1, diamond(ctx, f, diamond(ctx, g, ctx.pi)))],
    )
    s = -1 if (n - 1) % 2 else 1
    rhs2 = lin_comb(
        ctx,
        m + n,
        [(s, diamond(ctx, diamond(ctx, f, ctx.pi), g)), (-s, diamond(ctx, f, diamond(ctx, ctx.pi, g)))],
    )
    report.add("pi-associator symmetry", lhs2 == rhs2)

    df, dg = coboundary(ctx, f), coboundary(ctx, g)
    s1 = -1 if (n - 1) % 2 else 1
    s2 = -1 if (m * n) % 2 else 1
    lhs3 = lin_comb(
        ctx,
        m + n,
        [
            (1, diamond(ctx, f, dg)),
            (-1, coboundary(ctx, diamond(ctx, f, g))),
            (s1, diamond(ctx, df, g)),
        ],
    )
    rhs3 = lin_comb(
        ctx,
        m + n,
        [(s1, sqcup(ctx, g, f)), (-s1 * s2, cup(ctx, f, g))],
    )
    report.add("cup/sqcup commutator identity", lhs3 == rhs3)
    return report


def _grid(ctx, xs: Mat, i: int, m: int, ys: Mat, n: int) -> Mat:
    """The product grid of x o_i y on base (xs of degree m, ys of degree n):
    one insertion operator, whose left factor stacks the matrices of the xs,
    gives rows (x, s) and columns y; one row selection and reshape move x
    into the columns, unless a single x makes rows (x, s) rows s."""
    a, da = xs.cols, ctx.base.algebra.dim
    grid = ctx.insertion_operator(xs.transpose().reshape(a * da, xs.rows // da), i, m, n) @ ys
    if a == 1:
        return grid
    length = ctx.space_dim(m + n - 1)
    return grid.select_rows(vec_transpose_index(length, a)).reshape(length, a * ys.cols)


def _pi_grid(ctx, slot: int, xs: Mat, m: int, ys: Mat, n: int) -> Mat:
    """The _grid of (pi o_slot x) o_t y: x cup y for slot 0 (t = m) and
    y sqcup x for slot 1 (t = 0)."""
    outer = _grid(ctx, vec(ctx.to_base(ctx.pi)), slot, 2, xs, m)
    return _grid(ctx, outer, m if slot == 0 else 0, m + 1, ys, n)


def class_products(ctx, m: int, n: int) -> tuple[Mat, Mat]:
    """Columns vec(xi cup eta) and vec(eta sqcup xi) on base, for every class
    pair (xi, eta) of H^m x H^n, in (xi, eta) order: the two _pi_grids of the
    stacked classes.  With no class pair the results have no columns, and no
    operator is built.
    """
    xs = ctx.cohomology_at(m).class_reps
    if not xs.cols or not (ys := ctx.cohomology_at(n).class_reps).cols:
        empty = Mat.zeros(ctx.e.field, ctx.space_dim(m + n), 0)
        return empty, empty
    return _pi_grid(ctx, 0, xs, m, ys, n), _pi_grid(ctx, 1, xs, m, ys, n)


def graded_commutativity(ctx, m: int, n: int) -> CheckReport:
    """xi cup eta - (-1)^{mn} eta sqcup xi is a coboundary, per class pair."""
    report = CheckReport(f"graded commutativity at degrees ({m},{n})")
    cups, sqcups = class_products(ctx, m, n)
    if not cups.cols:
        report.add(f"no class pairs at degrees ({m},{n})", True, "nothing to check")
        return report
    residuals = cups + sqcups if (m * n) % 2 else cups - sqcups
    # reduce raises on a non-cocycle, so d^{m+n} sorts those out first
    not_cocycles = set((ctx.differential_operator(m + n) @ residuals).nonzero_columns())
    cocycles = [j for j in range(residuals.cols) if j not in not_cocycles]
    coords = ctx.cohomology_at(m + n).reduce(residuals.select_columns(cocycles))
    failed = not_cocycles | {cocycles[j] for j in coords.nonzero_columns()}
    for pair in range(residuals.cols):
        detail = "residual is not a cocycle" if pair in not_cocycles else f"deg ({m},{n})"
        report.add(f"class pair #{pair}", pair not in failed, detail)
    return report


# -- equivariant subcomplex -----------------------------------------------------------


def equivariance_operator(ctx, n: int) -> Mat:
    """Operator whose kernel is {f : (f (x) C) o rho_R = psi o (C (x) f) o rho_L}.

    Cached per degree on ctx, so its echelon form is computed once.
    """
    if ctx.side != ALGEBRA:
        raise ShapeMismatchError("equivariant subcomplex lives on the algebra side")

    def build():
        e = ctx.e
        da, dc = e.algebra.dim, e.coalgebra.dim
        dom = dc * da**n
        term1 = middle_operator(
            Mat.identity(e.field, da * dc), 1, da, dom, dc, rho_R_coaction(e, n).mat
        )
        term2 = middle_operator(e.psi.mat, dc, da, dom, 1, rho_L_coaction(e, n).mat)
        return term1 - term2

    return ctx._cached(("equivariance", n), build)


def equivariant_basis(ctx, n: int) -> Mat:
    """Kernel basis of the degree-n equivariance operator, cached on ctx: its
    columns are vec(f) on base."""
    return ctx._cached(("equivariant basis", n), lambda: kernel_basis(equivariance_operator(ctx, n)))


def hopf_criterion_operator(ctx, n: int) -> Mat:
    """Operator whose kernel is {f : f cup tau = tau * f} (Hopf case)."""
    e = ctx.e
    if e.hopf is None:
        raise MissingTranslationMapError("criterion needs the translation map")
    tau = translation(e)
    a, c = e.algebra, e.coalgebra
    ida = a.identity()
    left1 = compose(tensor(a.mult, ida), tensor(ida, tau))  # A (x) C -> A (x) A
    op1 = middle_operator(
        left1.mat, 1, a.dim, c.dim * a.dim**n, c.dim, rho_R_coaction(e, n).mat
    )
    left2 = compose(tensor(ida, a.mult), tensor(tau, ida))  # C (x) A -> A (x) A
    op2 = middle_operator(
        left2.mat, c.dim, a.dim, c.dim * a.dim**n, 1, rho_L_coaction(e, n).mat
    )
    return op1 - op2


def _commutators(ctx, xis: Mat, m: int, etas: Mat, n: int) -> Mat:
    """Columns vec(xi cup eta - (-1)^{mn} eta cup xi) on base for every pair of
    the stacked cochains xis (degree m) and etas (degree n), in (xi, eta)
    order."""
    xi_cup = _pi_grid(ctx, 0, xis, m, etas, n)
    cup_xi = _pi_grid(ctx, 0, etas, n, xis, m).select_columns(vec_transpose_index(xis.cols, etas.cols))
    return xi_cup + cup_xi if (m * n) % 2 else xi_cup - cup_xi


def equivariant_checks(ctx, degree_cap: int = 2) -> CheckReport:
    """Closure, cup agreement, differential stability, commutativity, and the
    Hopf translation-map criterion for the equivariant subcomplex.

    Every check is linear in each cochain slot, so it runs on all basis pairs
    of two degrees at once, as a _grid of the bases F_m = equivariant_basis(ctx, m)
    (the columns vec(f) of the equivariant m-cochains f).
    """
    if degree_cap < 0:
        raise DegreeError("degree_cap must be at least 0")
    report = CheckReport("equivariant subcomplex")
    stacked = {n: equivariant_basis(ctx, n) for n in range(degree_cap + 1)}
    ops = {n: equivariance_operator(ctx, n) for n in range(degree_cap + 2)}

    if degree_cap >= 2:
        report.add("pi is equivariant", (ops[2] @ vec(ctx.pi.map_)).is_zero())

    # the detail names the last violation in (m, n, f, g, i) order; grid
    # column p holds the pair (f, g) = divmod(p, |B_n|)
    closure_ok, closure_detail = True, "all basis pairs"
    for m in range(1, degree_cap + 1):
        for n in range(min(degree_cap, degree_cap + 2 - m) + 1):
            violations = [
                (*divmod(p, stacked[n].cols), i)
                for i in range(m)
                for p in (ops[m + n - 1] @ _grid(ctx, stacked[m], i, m, stacked[n], n)).nonzero_columns()
            ]
            if violations:
                closure_ok, closure_detail = False, f"violated at m={m} n={n} i={max(violations)[2]}"
    report.add("closure under insertions", closure_ok, closure_detail)

    # the cup grid runs over (f, g), the sqcup grid over (g, f)
    agree = all(
        _pi_grid(ctx, 0, stacked[m], m, stacked[n], n).select_columns(
            vec_transpose_index(stacked[n].cols, stacked[m].cols)
        )
        == _pi_grid(ctx, 1, stacked[n], n, stacked[m], m)
        for m in stacked
        for n in range(min(degree_cap, degree_cap + 1 - m) + 1)
        if stacked[m].cols and stacked[n].cols
    )
    report.add("cup = sqcup on equivariant cochains", agree)

    images = {m: ctx.differential_operator(m) @ stacked[m] for m in stacked}
    report.add("differential preserves the subcomplex", all((ops[m + 1] @ images[m]).is_zero() for m in stacked))
    commutes = _equivariant_graded_commutativity(ctx, stacked, images, degree_cap)
    report.add("graded commutativity of equivariant classes", commutes)

    if ctx.e.hopf is not None:  # canonical kernel bases are equal exactly when the kernels are
        for n in range(min(degree_cap, 2) + 1):
            crit = kernel_basis(hopf_criterion_operator(ctx, n))
            report.add(f"translation-map criterion at degree {n}", stacked[n] == crit)
    return report


def _equivariant_graded_commutativity(ctx, stacked, images, degree_cap) -> bool:
    """Do subcomplex cocycle classes commute up to equivariant coboundaries?

    d restricts when images[m] = d F_m = F_{m+1} X has a solution X (one solve
    per degree); the cocycles are F_m ker X.  A degree pair holds when all its
    _commutators lie in the span of d F_{m+n-1}, or vanish for m + n = 0 (one
    solve)."""
    boundaries = {-1: Mat.zeros(ctx.e.field, ctx.space_dim(0), 0), **images}
    cocycles = {}
    for m in range(degree_cap):
        sub_d = solve(stacked[m + 1], images[m])
        if sub_d is None:  # the differential leaves the subcomplex
            return False
        cocycles[m] = stacked[m] @ kernel_basis(sub_d)
    return all(
        solve(boundaries[m + n - 1], _commutators(ctx, cocycles[m], m, cocycles[n], n)) is not None
        for m in range(degree_cap)
        for n in range(degree_cap - m)
        if cocycles[m].cols and cocycles[n].cols
    )
