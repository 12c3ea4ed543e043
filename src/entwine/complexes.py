"""Twisted cochain complexes of an entwining structure and their cohomology.

The module-valued complex has degree-n space Hom(C (x) A^n, M) with

    d f = leftact o (A (x) f) o (psi (x) A^n)
        + sum_k (-1)^k  f o (C (x) A^{k-1} (x) mu (x) A^{n-k})
        + (-1)^{n+1} rightact o (f (x) A)

and the comodule-valued complex has degree-n space Hom(V, A (x) C^n) with the
dual differential.  The latter is not coded separately: f |-> f^T identifies
it with the module-valued complex of the dual entwining (C*, A*, psi^T) with
coefficients V*.  Cochains are flattened row-major; differentials are sparse
operators on those coordinates, each face term one identity-padded kron.
cohomology() counts classes without bases: a contracting homotopy, when its
identity holds, proves H^n = 0 (and gives rank d^0 as a trace), and otherwise
the ranks of the differentials give the count; the cocycle, coboundary and
class bases are built only when a caller reads them (see CohomologyResult).  For Hopf data every h^n comes from
one splitting X: C -> A (x) C (x) A cached on the structure (see
hopf_contracting_homotopy).

Two independent reference builders (the Hochschild complex of an algebra and
the Cartier complex of a coalgebra) are coded directly from their classical
formulas and never share code with the twisted builders: they serve as oracles
for the degenerate cases C = k resp. A = k.
"""

from __future__ import annotations

from functools import cache, cached_property, partial

from .entwining import EntwiningStructure, dual, dual_bimodule, splitting
from .errors import (
    DegreeError,
    InconsistentQuotientError,
    InternalConsistencyError,
    MissingTranslationMapError,
    ShapeMismatchError,
)
from .homspace import (
    op_postcompose,
    op_precompose,
    unvec,
    vec,
    vec_transpose_index,
)
from .linalg import (
    Mat,
    hstack,
    kernel_basis,
    image_basis,
    kron,
    middle_operator,
    quotient_with_projection,
    rank,
    solve,
    vstack,
)
from .structures import (
    Bicomodule,
    Bimodule,
    FiniteAlgebra,
    FiniteCoalgebra,
    LinearMap,
    compose,
    identity_map,
    tensor,
    validate_bimodule,
)


class CochainComplex:
    """Graded spaces with degree-raising differentials; d o d = 0 is verified.

    homotopy, if given, maps n >= 1 to an operator h^n: C^n -> C^{n-1}."""

    def __init__(self, field, space_dims, differentials, label="", homotopy=None):
        self.field = field
        self.space_dims = list(space_dims)
        self.differentials = list(differentials)
        self.label = label
        self._homotopy = None if homotopy is None else cache(homotopy)  # h^n serves degrees n-1 and n
        self._acyclic: dict[int, bool] = {}
        self.max_degree = len(self.space_dims) - 1
        if len(self.differentials) != self.max_degree:
            raise ShapeMismatchError("need one differential per consecutive degree pair")
        for n, d in enumerate(self.differentials):
            if d.cols != self.space_dims[n] or d.rows != self.space_dims[n + 1]:
                raise ShapeMismatchError(f"differential {n} has wrong shape")
        for n in range(self.max_degree - 1):
            if not (self.differentials[n + 1] @ self.differentials[n]).is_zero():
                raise InternalConsistencyError(
                    f"{label or 'complex'}: d{n + 1} o d{n} != 0 (invalid inputs)"
                )

    def acyclic_at(self, n) -> bool:
        """Does h^{n+1} d^n + d^{n-1} h^n = id hold on C^n (n >= 1)?  If so H^n = 0
        for any h, as d o d = 0 was verified; no or unusable h answers False."""
        if n not in self._acyclic:
            self._acyclic[n] = n >= 1 and self._homotopy is not None and self._contracts(n)
        return self._acyclic[n]

    def _contracts(self, n) -> bool:
        try:
            h_n, h_up = self._homotopy(n), self._homotopy(n + 1)
        except MissingTranslationMapError:
            return False
        d = self.differentials
        return h_up @ d[n] + d[n - 1] @ h_n == Mat.identity(self.field, self.space_dims[n])

    def differential_rank(self, n) -> int:
        """rank d^n by elimination, except that when h^1 certifies degree 1, P = h^1 d^0
        is idempotent (P^2 = P - h^1 h^2 d^1 d^0; checked) with ker P = ker d^0, so
        rank d^0 = tr P, over F_p too while dim C^0 < p."""
        dim, p = self.space_dims[0], self.field.p
        if n == 0 and self.max_degree > 1 and (p is None or dim < p) and self.acyclic_at(1):
            proj = self._homotopy(1) @ self.differentials[0]
            if proj @ proj == proj:
                return int(proj.trace())
        return rank(self.differential(n))

    def differential(self, n) -> Mat:
        if not 0 <= n < len(self.differentials):
            raise DegreeError(f"no differential at degree {n}")
        return self.differentials[n]


class CohomologyResult:
    """H^n of a complex: betti at once, bases and classes on first read.

    betti is 0 when the complex's homotopy certifies H^n = 0 (acyclic_at: two
    sparse products, no elimination).  Otherwise betti = dim C^n - rank d^n -
    rank d^{n-1}, exact because the complex verified d o d = 0, so im d^{n-1}
    lies in ker d^n; each rank is one elimination, cached on its Mat, except
    that a homotopy certifying degree 1 gives rank d^0 as a trace
    (CochainComplex.differential_rank).  Every path gives the same number.
    cocycle_basis, coboundary_basis and class_reps are Mats whose columns are
    the basis vectors (coboundary_basis has none in degree 0, class_reps none
    when betti is 0).
    class_reps and reduce come from quotient_with_projection, whose span-containment check runs when read;
    reduce maps cocycle columns to class coordinates (betti x columns).  When
    betti is 0 there are no classes: reduce only checks d^n V = 0, with no
    elimination.
    """

    def __init__(self, cx: CochainComplex, degree):
        self._cx = cx
        self.degree = degree
        if cx.acyclic_at(degree):
            self.betti = 0
        else:
            below = cx.differential_rank(degree - 1) if degree else 0
            self.betti = cx.space_dims[degree] - cx.differential_rank(degree) - below

    @cached_property
    def cocycle_basis(self) -> Mat:
        return kernel_basis(self._cx.differential(self.degree))

    @cached_property
    def coboundary_basis(self) -> Mat:
        cx, n = self._cx, self.degree
        return image_basis(cx.differential(n - 1)) if n else Mat.zeros(cx.field, cx.space_dims[0], 0)

    @cached_property
    def _quotient(self):
        cx, n = self._cx, self.degree
        if self.betti == 0:  # every cocycle is a coboundary: reduce only checks d^n V = 0

            def reduce_zero(vs: Mat) -> Mat:
                if not (cx.differential(n) @ vs).is_zero():
                    raise InconsistentQuotientError("vector outside span(big)")
                return Mat.zeros(cx.field, 0, vs.cols)

            return Mat.zeros(cx.field, cx.space_dims[n], 0), reduce_zero
        return quotient_with_projection(self.coboundary_basis, self.cocycle_basis)

    @property
    def class_reps(self) -> Mat:
        return self._quotient[0]

    @property
    def reduce(self):
        return self._quotient[1]

    def __repr__(self):
        return f"CohomologyResult(degree={self.degree}, betti={self.betti})"


def cohomology(cx: CochainComplex, n: int) -> CohomologyResult:
    """H^n = ker d^n / im d^{n-1}; d^{-1} is the zero map."""
    if not 0 <= n <= cx.max_degree - 1:
        raise DegreeError(f"cohomology needs d^{n}; complex stops at {cx.max_degree}")
    return CohomologyResult(cx, n)


# -- differential operators ----------------------------------------------------


def module_differential(e: EntwiningStructure, m: Bimodule, n: int) -> Mat:
    """Operator of d^n on Hom(C (x) A^n, M), flattened."""
    da, dc, dm = e.algebra.dim, e.coalgebra.dim, m.dim
    dom = dc * da**n
    psi_an = kron(e.psi.mat, Mat.identity(e.field, da**n))
    total = middle_operator(m.left.mat, da, dm, dom, 1, psi_an)
    mu_t = e.algebra.mult.mat.transpose()
    for k in range(1, n + 1):  # f |-> f o (C (x) A^{k-1} (x) mu (x) A^{n-k}), one padded kron
        op = kron(Mat.identity(e.field, dm * dc * da ** (k - 1)), mu_t, Mat.identity(e.field, da ** (n - k)))
        total = total + op if k % 2 == 0 else total - op
    last = middle_operator(m.right.mat, 1, dm, dom, da, Mat.identity(e.field, dc * da ** (n + 1)))
    total = total + last if (n + 1) % 2 == 0 else total - last
    return total


def comodule_differential(e: EntwiningStructure, v: Bicomodule, n: int) -> Mat:
    """Operator of d^n on Hom(V, A (x) C^n), flattened.

    This is the module-valued d^n of dual(e) with coefficients V*, which acts
    on f^T in Hom(A* (x) C*^n, V*), re-indexed along f <-> f^T.
    """
    d = module_differential(dual(e), dual_bimodule(v), n)
    return d.select_rows(_transpose_index(e, v, n + 1)).select_columns(_transpose_index(e, v, n))


def _transpose_index(e: EntwiningStructure, v: Bicomodule, n: int):
    """Column order taking vec(f^T) to vec(f) for f: V -> A (x) C^n."""
    return vec_transpose_index(e.algebra.dim * e.coalgebra.dim**n, v.dim)


def build_CpsiAM(e: EntwiningStructure, m: Bimodule, n_max: int = 3) -> CochainComplex:
    """The module-valued twisted complex, degrees 0..n_max."""
    a, c = e.algebra, e.coalgebra
    dims = [m.dim * c.dim * a.dim**n for n in range(n_max + 1)]
    diffs = [module_differential(e, m, n) for n in range(n_max)]
    homotopy = partial(hopf_contracting_homotopy, e, m)
    return CochainComplex(e.field, dims, diffs, label="C_psi(A,M)", homotopy=homotopy)


def build_ApsiCV(e: EntwiningStructure, v: Bicomodule, n_max: int = 3) -> CochainComplex:
    """The comodule-valued twisted complex, degrees 0..n_max."""
    a, c = e.algebra, e.coalgebra
    dims = [v.dim * a.dim * c.dim**n for n in range(n_max + 1)]
    diffs = [comodule_differential(e, v, n) for n in range(n_max)]

    def homotopy(n):  # h^n of dual(e) with coefficients V*, re-indexed like d
        h = hopf_contracting_homotopy(dual(e), dual_bimodule(v), n)
        return h.select_rows(_transpose_index(e, v, n - 1)).select_columns(_transpose_index(e, v, n))

    return CochainComplex(e.field, dims, diffs, label="A_psi(C,V)", homotopy=homotopy)


# -- independent classical oracles ----------------------------------------------


def hochschild_differential(a: FiniteAlgebra, m: Bimodule, n: int) -> Mat:
    """Classical Hochschild d^n on Hom(A^n, M), coded directly."""
    da, dm = a.dim, m.dim
    dom = da**n
    total = middle_operator(
        m.left.mat, da, dm, dom, 1, Mat.identity(a.field, da ** (n + 1))
    )
    for k in range(1, n + 1):
        ins = tensor(identity_map(a.field, (da,) * (k - 1)), a.mult, identity_map(a.field, (da,) * (n - k)))
        op = op_precompose(ins.mat, dm)
        total = total + op if k % 2 == 0 else total - op
    last = middle_operator(m.right.mat, 1, dm, dom, da, Mat.identity(a.field, da ** (n + 1)))
    total = total + last if (n + 1) % 2 == 0 else total - last
    return total


def hochschild_complex(a: FiniteAlgebra, m: Bimodule, n_max: int = 3) -> CochainComplex:
    dims = [m.dim * a.dim**n for n in range(n_max + 1)]
    diffs = [hochschild_differential(a, m, n) for n in range(n_max)]
    return CochainComplex(a.field, dims, diffs, label="Hochschild")


def cartier_differential(c: FiniteCoalgebra, v: Bicomodule, n: int) -> Mat:
    """Classical Cartier d^n on Hom(V, C^n), coded directly."""
    dc, dv = c.dim, v.dim
    cod = dc**n
    total = middle_operator(
        Mat.identity(c.field, dc ** (n + 1)), dc, cod, dv, 1, v.left.mat
    )
    for k in range(1, n + 1):
        ins = tensor(identity_map(c.field, (dc,) * (k - 1)), c.comult, identity_map(c.field, (dc,) * (n - k)))
        op = op_postcompose(ins.mat, dv)
        total = total + op if k % 2 == 0 else total - op
    last = middle_operator(Mat.identity(c.field, dc ** (n + 1)), 1, cod, dv, dc, v.right.mat)
    total = total + last if (n + 1) % 2 == 0 else total - last
    return total


def cartier_complex(c: FiniteCoalgebra, v: Bicomodule, n_max: int = 3) -> CochainComplex:
    dims = [v.dim * c.dim**n for n in range(n_max + 1)]
    diffs = [cartier_differential(c, v, n) for n in range(n_max)]
    return CochainComplex(c.field, dims, diffs, label="Cartier")


# -- inclusions of the classical complexes ---------------------------------------


def hochschild_inclusion_operator(e: EntwiningStructure, m: Bimodule, n: int) -> Mat:
    """Flattened operator of j^n: f |-> eps (x) f."""
    ida_n = Mat.identity(e.field, e.algebra.dim**n)
    return op_precompose(kron(e.coalgebra.counit.mat, ida_n), m.dim)


def hochschild_inclusion(e: EntwiningStructure, m: Bimodule, f: LinearMap) -> LinearMap:
    """j(f) = eps (x) f in Hom(C (x) A^n, M)."""
    n = len(f.domain_shape)
    da = e.algebra.dim
    if f.domain_shape != (da,) * n or f.codomain_dim != m.dim:
        raise ShapeMismatchError("inclusion expects f: A^n -> M")
    return unvec(hochschild_inclusion_operator(e, m, n) @ vec(f), (e.coalgebra.dim,) + (da,) * n, f.codomain_shape)


def cartier_inclusion_operator(e: EntwiningStructure, v: Bicomodule, n: int) -> Mat:
    """Flattened operator of jbar^n: f |-> 1 (x) f."""
    idc_n = Mat.identity(e.field, e.coalgebra.dim**n)
    return op_postcompose(kron(e.algebra.unit, idc_n), v.dim)


def cartier_inclusion(e: EntwiningStructure, v: Bicomodule, f: LinearMap) -> LinearMap:
    """jbar(f) = 1 (x) f in Hom(V, A (x) C^n)."""
    n = len(f.codomain_shape)
    dc = e.coalgebra.dim
    if f.codomain_shape != (dc,) * n or f.domain_dim != v.dim:
        raise ShapeMismatchError("inclusion expects f: V -> C^n")
    return unvec(cartier_inclusion_operator(e, v, n) @ vec(f), f.domain_shape, (e.algebra.dim,) + (dc,) * n)


# -- Hom(C, M) bimodule -----------------------------------------------------------


def hom_CM_bimodule(e: EntwiningStructure, m: Bimodule) -> Bimodule:
    """Hom(C, M) with (a.f)(c) = a_alpha . f(c^alpha) and (f.a)(c) = f(c).a."""
    a, c = e.algebra, e.coalgebra
    da, dc, dm = a.dim, c.dim, m.dim
    dim = dm * dc
    left_blocks, right_blocks = [], []
    for r in range(da):
        emb = LinearMap((), (da,), Mat.identity(e.field, da).col_vector(r))
        route = compose(e.psi, tensor(c.identity(), emb))
        left_blocks.append(middle_operator(m.left.mat, da, dm, dc, 1, route.mat))
        acts = compose(m.right, tensor(identity_map(e.field, (dm,)), emb))
        right_blocks.append(op_postcompose(acts.mat, dc))
    left = LinearMap((da, dim), (dim,), hstack(left_blocks))
    # the right action reads its argument as f (x) a: column f * da + a
    right = LinearMap(
        (dim, da), (dim,), hstack(right_blocks).select_columns(vec_transpose_index(dim, da))
    )
    hom = Bimodule(dim, left, right)
    validate_bimodule(a, hom).raise_if_failed()
    return hom


# -- projectivity witness ----------------------------------------------------------


def tensor_square_bimodule(a: FiniteAlgebra) -> Bimodule:
    """A (x) A with a.(x (x) y) = ax (x) y and (x (x) y).a = x (x) ya."""
    ida = a.identity()
    left = tensor(a.mult, ida)
    right = LinearMap(
        (a.dim * a.dim, a.dim), (a.dim * a.dim,), tensor(ida, a.mult).mat
    )
    left = LinearMap((a.dim, a.dim * a.dim), (a.dim * a.dim,), left.mat)
    return Bimodule(a.dim * a.dim, left, right)


def projectivity_witness(e: EntwiningStructure) -> LinearMap | None:
    """A 0-cocycle chi: C -> A (x) A with mu o chi = 1 o eps, if one exists."""
    a, c = e.algebra, e.coalgebra
    m = tensor_square_bimodule(a)
    d0 = module_differential(e, m, 0)
    mu_post = op_postcompose(a.mult.mat, c.dim)
    target = vec(compose(a.unit_map(), c.counit))
    system = vstack([d0, mu_post])
    rhs = vstack([Mat.zeros(e.field, d0.rows, 1), target])
    x = solve(system, rhs)
    if x is None:
        return None
    return unvec(x, (c.dim,), (a.dim, a.dim))


# -- Hopf contracting homotopy -------------------------------------------------------


def hopf_contracting_homotopy(e: EntwiningStructure, m: Bimodule, n: int) -> Mat:
    """Operator of h^n(f)(c, a^1..a^{n-1}) = X^1 . f(X^2, X^3, a^1, ..., a^{n-1}).

    X = splitting(e): C -> A (x) C (x) A, X(c) = S(c_(1)) (x) 1 (x) c_(2), is
    built once per structure from the translation map tau(c) = S(c_(1)) (x) c_(2)
    of e.hopf, so h^n is one middle_operator on X (x) A^{n-1}.
    build_CpsiAM and build_ApsiCV hand it to their complex, and cohomology()
    uses it only where CochainComplex.acyclic_at finds
    h^{n+1} d^n + d^{n-1} h^n = id.
    """
    x = splitting(e)
    if n < 1:
        raise DegreeError("homotopy starts at degree 1")
    da = e.algebra.dim
    xi = kron(x.mat, Mat.identity(e.field, da ** (n - 1)))
    return middle_operator(m.left.mat, da, m.dim, e.coalgebra.dim * da**n, 1, xi)


# -- degree-zero characterization -----------------------------------------------------


def h0_characterization(e: EntwiningStructure) -> list[LinearMap]:
    """Basis of {phi: C -> A with a_alpha phi(c^alpha) = phi(c) a for all a, c}.

    Built from psi and mu directly, independently of the complex machinery.
    """
    a, c = e.algebra, e.coalgebra
    da, dc = a.dim, c.dim
    lhs = middle_operator(a.mult.mat, da, da, dc, 1, e.psi.mat)
    rhs = middle_operator(a.mult.mat, 1, da, dc, da, Mat.identity(e.field, dc * da))
    basis = kernel_basis(lhs - rhs)
    return [unvec(basis.col_vector(j), (dc,), (da,)) for j in range(basis.cols)]


# -- resolution scaffolding: bar, and cobar as its transpose on dual(e) ---------------


def bar_delta(e: EntwiningStructure, n: int) -> LinearMap:
    """delta_n: A (x) C (x) A^{n+1} -> A (x) C (x) A^n."""
    if n < 1:
        raise DegreeError("bar differential starts at degree 1")
    a, c = e.algebra, e.coalgebra
    da, dc = a.dim, c.dim
    ida_n = identity_map(e.field, (da,) * n)
    total = compose(tensor(a.mult, c.identity(), ida_n), tensor(a.identity(), e.psi, ida_n))
    for k in range(1, n + 1):
        ins = tensor(
            identity_map(e.field, (da, dc) + (da,) * (k - 1)), a.mult, identity_map(e.field, (da,) * (n - k))
        )
        total = total + ins if k % 2 == 0 else total - ins
    return total


def bar_homotopy(e: EntwiningStructure, n: int) -> LinearMap:
    """h_n = (-1)^n ( - (x) 1): A (x) C (x) A^{n+1} -> A (x) C (x) A^{n+2}."""
    a, c = e.algebra, e.coalgebra
    space = identity_map(e.field, (a.dim, c.dim) + (a.dim,) * (n + 1))
    h = tensor(space, a.unit_map())
    return h if n % 2 == 0 else -h


def cob_delta(e: EntwiningStructure, n: int) -> LinearMap:
    """deltabar^n: C (x) A (x) C^{n+1} -> C (x) A (x) C^{n+2}; delta_{n+1} of dual(e), transposed."""
    if n < 0:
        raise DegreeError("cobar differential starts at degree 0")
    return bar_delta(dual(e), n + 1).transpose()


def cob_homotopy(e: EntwiningStructure, n: int) -> LinearMap:
    """h^n = (-1)^{n+1} ( - (x) eps): C (x) A (x) C^{n+1} -> C (x) A (x) C^n; h_{n-1} of dual(e), transposed."""
    return bar_homotopy(dual(e), n - 1).transpose()
