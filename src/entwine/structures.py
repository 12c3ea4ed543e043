"""Finite-dimensional algebras and coalgebras given by structure constants.

Structure constants come in sparse (i, j, k, coeff) triples and are densified
into matrices of the structure maps.  Multi-indices into tensor powers flatten
with the leftmost factor most significant, matching left-to-right tensor
notation; Kronecker products follow the same convention.

Validators check the defining axioms as exact identities and return a
CheckReport, the one report type of the package (the CLI's too), with a
witness basis tuple for every failed identity.  The algebra, coalgebra,
bialgebra and antipode axioms (and entwining.check_bowtie) are decided on the
dense structure constants: each side is one to three products of reshaped
numerator arrays (_Exact), in float64 while every partial sum stays below
2**53, else on Python ints, with the denominators cross-multiplied and, over
F_p, compared mod p.  The arrays reach dim(A)^3 dim(C)^2 entries, which beats
sparse composition only on small structures; the (bi)module axioms still
compose sparse maps.  Each mirrored family is coded once: the coalgebra
axioms are the algebra axioms of C* and the bimodule axioms the bicomodule
axioms of M* over A*, transposed, with each witness read on the codomain of
the coded identity.  Constructors of higher layers demand validated inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .linalg import FieldSpec, Mat, kron


class LinearMap:
    """Linear map between tensor products, with recorded factor shapes."""

    __slots__ = ("domain_shape", "codomain_shape", "mat")

    def __init__(self, domain_shape, codomain_shape, mat: Mat):
        domain_shape = tuple(domain_shape)
        codomain_shape = tuple(codomain_shape)
        if mat.cols != math.prod(domain_shape) or mat.rows != math.prod(codomain_shape):
            raise ShapeMismatchError(
                f"matrix {mat.rows}x{mat.cols} vs shapes {codomain_shape}<-{domain_shape}"
            )
        self.domain_shape = domain_shape
        self.codomain_shape = codomain_shape
        self.mat = mat

    @property
    def field(self) -> FieldSpec:
        return self.mat.field

    @property
    def domain_dim(self) -> int:
        return self.mat.cols

    @property
    def codomain_dim(self) -> int:
        return self.mat.rows

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self):
        raise TypeError("LinearMap is not hashable")

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.domain_shape, self.codomain_shape, self.mat + other.mat)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.domain_shape, self.codomain_shape, self.mat - other.mat)

    def __neg__(self):
        return LinearMap(self.domain_shape, self.codomain_shape, -self.mat)

    def scale(self, value) -> "LinearMap":
        return LinearMap(self.domain_shape, self.codomain_shape, self.mat.scale(value))

    def transpose(self) -> "LinearMap":
        """The dual map Y* -> X* in the dual bases."""
        return LinearMap(self.codomain_shape, self.domain_shape, self.mat.transpose())

    def __repr__(self):
        return f"LinearMap({self.codomain_shape} <- {self.domain_shape})"


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g; flattened dimensions must agree."""
    if f.domain_dim != g.codomain_dim:
        raise ShapeMismatchError(
            f"compose: domain dim {f.domain_dim} != codomain dim {g.codomain_dim}"
        )
    return LinearMap(g.domain_shape, f.codomain_shape, f.mat @ g.mat)


def tensor(*maps: LinearMap) -> LinearMap:
    """The tensor product of one or more maps, the leftmost most significant."""
    return LinearMap(
        sum((f.domain_shape for f in maps), ()),
        sum((f.codomain_shape for f in maps), ()),
        kron(*(f.mat for f in maps)),
    )


def identity_map(field: FieldSpec, shape) -> LinearMap:
    shape = tuple(shape)
    return LinearMap(shape, shape, Mat.identity(field, math.prod(shape)))


def flip_map(field: FieldSpec, d1: int, d2: int) -> LinearMap:
    """The flip v (x) w -> w (x) v as a permutation matrix: row j * d1 + i
    holds its one entry in column i * d2 + j."""
    row = np.arange(d1 * d2)
    return LinearMap((d1, d2), (d2, d1), Mat.identity(field, d1 * d2).select_rows(row % d1 * d2 + row // d1))


def decode_index(shape, flat: int):
    """Invert the leftmost-most-significant flattening."""
    idx = []
    for d in reversed(shape):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def _ints(a):
    """a as an array of Python ints (a float64 array holds exact integers)."""
    return a if a.dtype == object else a.astype(np.int64).astype(object)


class _Exact:
    """A map's numerators as a dense array over den, and a bound on them: float64 while the bound is
    below 2**53 (every entry exact), else Python ints; over F_p (p set), residues up to sign."""

    __slots__ = ("a", "den", "bound", "p")

    def __init__(self, a, den, bound, p):
        self.a, self.den, self.bound, self.p = a, den, bound, p

    def reshape(self, *shape):
        return _Exact(self.a.reshape(*shape), self.den, self.bound, self.p)

    def transpose(self, *axes):
        return _Exact(self.a.transpose(*axes), self.den, self.bound, self.p)

    def dual(self):
        """The transpose, stored C-contiguous: products on a transposed view take other BLAS kernels."""
        return _Exact(np.ascontiguousarray(self.a.T), self.den, self.bound, self.p)

    def __matmul__(self, other):
        """The exact product (2-D, or stacked on the right), in float64 while every partial sum (at most
        bound * bound * terms) stays below 2**53; over F_p, reducing the operands first may keep it there."""
        x, y, terms = self, other, self.a.shape[-1]
        if x.p and x.bound * y.bound * terms >= 2**53 > (x.p - 1) ** 2 * terms:
            x, y = ((v.a % v.p).astype(np.float64) if v.a.dtype == object else np.fmod(v.a, v.p) for v in (x, y))
            x, y = _Exact(x, self.den, self.p - 1, self.p), _Exact(y, other.den, self.p - 1, self.p)
        bound = x.bound * y.bound * terms
        a, b = (x.a, y.a) if bound < 2**53 else (_ints(x.a), _ints(y.a))
        return _Exact(np.dot(a, b) if b.ndim == 2 else a @ b, x.den * y.den, bound, x.p)


def _dense(p, *mats):
    """The _Exact numerators of each Mat (p: the field's characteristic, None over Q)."""
    return [_Exact(*m.dense(), p) for m in mats]


# -- check reports ---------------------------------------------------------------


class CheckReport:
    """Named checks on one subject, recorded in order as (name, ok, detail), and named tables.

    detail is free text, or for a failed identity of maps the first basis
    tuple (as labels) where the two sides differ: on the domain, or with
    _transposed (a family derived as the transpose of the one coded) on the
    codomain, the domain of the derived identity.
    """

    def __init__(self, subject):
        self.subject = subject
        self.items: list[tuple[str, bool, object]] = []
        self.tables: dict = {}

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    def check(self, name, lhs: LinearMap, rhs: LinearMap, labels_per_factor, _transposed=False):
        """Record lhs == rhs, with the first differing basis tuple on failure."""
        if lhs.mat == rhs.mat:  # canonical storage: no arithmetic
            self.add(name, True)
            return
        diff, shape = lhs.mat - rhs.mat, lhs.domain_shape
        if _transposed:
            diff, shape = diff.transpose(), lhs.codomain_shape
        idx = decode_index(shape, diff.nonzero_columns()[0])
        self.add(name, False, tuple(labels[k] for labels, k in zip(labels_per_factor, idx)))

    def check_exact(self, name, lhs: _Exact, rhs: _Exact, labels_per_factor=None, _transposed=False):
        """Record lhs == rhs (one shape, one trailing axis per labels entry for the domain, or one
        leading axis for the codomain) with the denominators cross-multiplied, mod p over F_p, and on
        failure the first differing tuple."""
        kx, ky = rhs.den // (g := math.gcd(lhs.den, rhs.den)), lhs.den // g
        x, y = (lhs.a, rhs.a) if lhs.bound * kx + rhs.bound * ky < 2**53 else (_ints(lhs.a), _ints(rhs.a))
        diff = (x if kx == 1 else x * kx) - (y if ky == 1 else y * ky)
        if lhs.p:  # below 2**53, p divides exactly the integers whose rounded quotient is integral
            diff = diff % lhs.p if diff.dtype == object else np.modf(diff / lhs.p)[0]
        ok = not diff.any()
        if ok or labels_per_factor is None:
            return self.add(name, ok)
        k = len(labels_per_factor)
        first = np.nonzero(diff.any(axis=tuple(range(k, diff.ndim) if _transposed else range(diff.ndim - k))))
        self.add(name, False, tuple(labels[i[0]] for labels, i in zip(labels_per_factor, first)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    @property
    def failures(self):
        return [(name, detail) for name, ok, detail in self.items if not ok]

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationError(str(self), report=self)

    def __str__(self):
        if self.ok:
            return f"{self.subject}: all checks hold"
        parts = [f"{name} at {detail}" if detail else name for name, detail in self.failures]
        return f"{self.subject}: FAILED " + "; ".join(parts)


# -- algebras ------------------------------------------------------------------


class FiniteAlgebra:
    """Associative unital algebra by structure constants."""

    __slots__ = ("field", "dim", "basis_labels", "mult", "unit")

    def __init__(self, field, basis_labels, mult: LinearMap, unit: Mat):
        self.field = field
        self.basis_labels = list(basis_labels)
        self.dim = len(self.basis_labels)
        if mult.domain_shape != (self.dim, self.dim) or mult.codomain_shape != (self.dim,):
            raise ShapeMismatchError("mult must map A(x)A -> A")
        if unit.rows != self.dim or unit.cols != 1:
            raise ShapeMismatchError("unit must be a vector in A")
        self.mult = mult
        self.unit = unit

    @classmethod
    def from_structure_constants(cls, field, labels, mult_triples, unit_coords):
        """mult_triples: (i, j, k, coeff) meaning e_i . e_j += coeff e_k."""
        d = len(labels)
        entries = [(k, i * d + j, c) for (i, j, k, c) in mult_triples]
        mult = LinearMap((d, d), (d,), Mat.from_triples(field, d, d * d, entries))
        unit = Mat.column(field, unit_coords)
        return cls(field, labels, mult, unit)

    def unit_map(self) -> LinearMap:
        """The unit as a map k -> A."""
        return LinearMap((), (self.dim,), self.unit)

    def identity(self) -> LinearMap:
        return identity_map(self.field, (self.dim,))

    def mult_triples(self):
        d = self.dim
        for k, col, v in self.mult.mat.triples():
            yield (col // d, col % d, k, v)

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim}, field={self.field})"


def _algebra_axioms(report, mu: _Exact, unit: _Exact, labels, names, transposed=False) -> CheckReport:
    """The associativity, left unit and right unit identities of (mu, unit), recorded under names;
    a witness is read on the domain, or when transposed on the codomain."""
    d, p = len(labels), mu.p
    eye = _Exact(np.eye(d), 1, 1, p)
    # e_i e_j = sum_k mu[k, (i, j)] e_k; outer[(k, j), x] = mu[k, (x, j)], inner[(k, i), x] = mu[k, (i, x)]
    outer, inner = mu.reshape(d, d, d).transpose(0, 2, 1).reshape(d * d, d), mu.reshape(d * d, d)
    lhs = (outer @ mu).reshape(d, d, d, d).transpose(0, 2, 3, 1)  # [k, i, j, l] = sum_x mu[k, (x, l)] mu[x, (i, j)]
    rhs = (inner @ mu).reshape(d, d, d, d)
    report.check_exact(names[0], lhs, rhs, [labels] * (1 if transposed else 3), transposed)
    report.check_exact(names[1], (outer @ unit).reshape(d, d), eye, [labels], transposed)
    report.check_exact(names[2], (inner @ unit).reshape(d, d), eye, [labels], transposed)
    return report


def validate_algebra(a: FiniteAlgebra) -> CheckReport:
    mu, unit = _dense(a.field.p, a.mult.mat, a.unit)
    report = CheckReport(f"algebra(dim={a.dim})")
    return _algebra_axioms(report, mu, unit, a.basis_labels, ("associativity", "left unit", "right unit"))


# -- coalgebras ----------------------------------------------------------------


class FiniteCoalgebra:
    """Coassociative counital coalgebra by structure constants."""

    __slots__ = ("field", "dim", "basis_labels", "comult", "counit")

    def __init__(self, field, basis_labels, comult: LinearMap, counit: LinearMap):
        self.field = field
        self.basis_labels = list(basis_labels)
        self.dim = len(self.basis_labels)
        if comult.domain_shape != (self.dim,) or comult.codomain_shape != (self.dim, self.dim):
            raise ShapeMismatchError("comult must map C -> C(x)C")
        if counit.domain_shape != (self.dim,) or counit.codomain_shape != ():
            raise ShapeMismatchError("counit must map C -> k")
        self.comult = comult
        self.counit = counit

    @classmethod
    def from_structure_constants(cls, field, labels, comult_triples, counit_values):
        """comult_triples: (i, j, k, coeff) meaning Delta(e_i) += coeff e_j (x) e_k."""
        d = len(labels)
        entries = [(j * d + k, i, c) for (i, j, k, c) in comult_triples]
        comult = LinearMap((d,), (d, d), Mat.from_triples(field, d * d, d, entries))
        counit = LinearMap(
            (d,), (), Mat.from_triples(field, 1, d, [(0, i, v) for i, v in enumerate(counit_values)])
        )
        return cls(field, labels, comult, counit)

    def identity(self) -> LinearMap:
        return identity_map(self.field, (self.dim,))

    def comult_triples(self):
        d = self.dim
        for row, i, v in self.comult.mat.triples():
            yield (i, row // d, row % d, v)

    def counit_values(self):
        return [self.counit.mat.entry(0, i) for i in range(self.dim)]

    def __repr__(self):
        return f"FiniteCoalgebra(dim={self.dim}, field={self.field})"


def validate_coalgebra(c: FiniteCoalgebra) -> CheckReport:
    """The algebra axioms of C*, whose product and unit are Delta^T and eps^T, transposed."""
    delta, eps = _dense(c.field.p, c.comult.mat, c.counit.mat)
    report, names = CheckReport(f"coalgebra(dim={c.dim})"), ("coassociativity", "left counit", "right counit")
    return _algebra_axioms(report, delta.dual(), eps.dual(), c.basis_labels, names, True)


# -- bialgebras and antipodes --------------------------------------------------------


class Bialgebra:
    """An algebra and coalgebra on one space with compatible structures.

    Unvalidated: EntwiningStructure checks the bialgebra and antipode axioms once.
    """

    def __init__(self, algebra: FiniteAlgebra, coalgebra: FiniteCoalgebra):
        if algebra.dim != coalgebra.dim:
            raise ShapeMismatchError("bialgebra needs one underlying space")
        self.algebra = algebra
        self.coalgebra = coalgebra

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def field(self):
        return self.algebra.field

    @property
    def basis_labels(self):
        return self.algebra.basis_labels


class HopfAlgebra(Bialgebra):
    """Bialgebra with an antipode."""

    def __init__(self, algebra, coalgebra, antipode: LinearMap):
        super().__init__(algebra, coalgebra)
        self.antipode = antipode


def validate_bialgebra(b) -> CheckReport:
    """Delta and eps of b.coalgebra must be algebra maps and 1 grouplike."""
    a, c, d, p = b.algebra, b.coalgebra, b.dim, b.field.p
    mu, unit, delta, eps = _dense(p, a.mult.mat, a.unit, c.comult.mat, c.counit.mat)
    report = CheckReport("bialgebra")
    # Delta(e_i e_j)[a, b] = sum mu[a, (p, r)] mu[b, (q, s)] delta[(p, q), i] delta[(r, s), j]: first
    # g[(a, r), (q, i)] (sum over p) and h[(b, q), (r, j)] (sum over s), then the sum over (r, q)
    g = mu.reshape(d, d, d).transpose(0, 2, 1).reshape(d * d, d) @ delta.reshape(d, d * d)
    h = mu.reshape(d * d, d) @ delta.reshape(d, d, d).transpose(1, 0, 2).reshape(d, d * d)
    g, h = g.reshape(d, d, d, d).transpose(0, 3, 1, 2), h.reshape(d, d, d, d).transpose(2, 1, 0, 3)
    rhs = (g.reshape(d * d, -1) @ h.reshape(d * d, -1)).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    report.check_exact("comultiplication is an algebra map", (delta @ mu).reshape(d, d, d, d), rhs)
    report.check_exact("grouplike unit", delta @ unit, (unit @ unit.transpose()).reshape(-1, 1))
    report.check_exact("counit is an algebra map", eps @ mu, (eps.transpose() @ eps).reshape(1, -1))
    report.check_exact("counit of unit", eps @ unit, _Exact(np.ones((1, 1)), 1, 1, p))
    return report


def validate_antipode(h) -> CheckReport:
    """S * id = id * S = 1 o eps in the convolution algebra of h."""
    a, c, d, p = h.algebra, h.coalgebra, h.dim, h.field.p
    mu, unit, delta, eps, s = _dense(p, a.mult.mat, a.unit, c.comult.mat, c.counit.mat, h.antipode.mat)
    report = CheckReport("antipode")
    # sum mu[k, x, y] s[x, x'] delta[(x', y), i], and sum mu[k, x, y] s[y, y'] delta[(x, y'), i]
    left = mu @ (s @ delta.reshape(d, d * d)).reshape(d * d, d)
    right = (mu.reshape(d * d, d) @ s).reshape(d, d * d) @ delta
    report.check_exact("left antipode axiom", left, unit @ eps)
    report.check_exact("right antipode axiom", right, unit @ eps)
    return report


def translation_map(h: HopfAlgebra) -> LinearMap:
    """tau(c) = S(c_(1)) (x) c_(2).  Its splitting identities follow from the antipode and
    counit axioms, which EntwiningStructure checks on load; on unchecked data nothing
    rests on them, as every homotopy built from tau is checked."""
    tau = compose(tensor(h.antipode, h.coalgebra.identity()), h.coalgebra.comult)
    return LinearMap((h.coalgebra.dim,), (h.algebra.dim, h.algebra.dim), tau.mat)


# -- (bi)modules ----------------------------------------------------------------


class Bimodule:
    """A-bimodule with explicit left and right action maps."""

    __slots__ = ("dim", "left", "right", "labels")

    def __init__(self, dim, left: LinearMap, right: LinearMap, labels=None):
        self.dim = dim
        if left.codomain_dim != dim or left.domain_dim % dim:
            raise ShapeMismatchError("left action must map A(x)M -> M")
        if right.codomain_dim != dim or right.domain_dim % dim:
            raise ShapeMismatchError("right action must map M(x)A -> M")
        self.left = left
        self.right = right
        self.labels = labels or [f"m{i}" for i in range(dim)]

    def __repr__(self):
        return f"Bimodule(dim={self.dim})"


def regular_bimodule(a: FiniteAlgebra) -> Bimodule:
    return Bimodule(a.dim, a.mult, a.mult, labels=a.basis_labels)


def validate_bimodule(a: FiniteAlgebra, m: Bimodule) -> CheckReport:
    """The bicomodule axioms of M* over A*, transposed."""
    names = ("left associativity", "left unit", "right associativity", "right unit", "actions commute")
    report = CheckReport(f"bimodule(dim={m.dim})")
    return _bicomodule_axioms(report, dual_coalgebra(a), dual_bicomodule(m), names, True)


def dual_coalgebra(a: FiniteAlgebra) -> FiniteCoalgebra:
    """A* as a coalgebra: the product and unit transpose into the coproduct and counit."""
    return FiniteCoalgebra(a.field, a.basis_labels, a.mult.transpose(), a.unit_map().transpose())


def dual_bicomodule(m: Bimodule) -> Bicomodule:
    """M* as an A*-bicomodule: each action transposes into a coaction."""
    return Bicomodule(m.dim, m.left.transpose(), m.right.transpose(), labels=m.labels)


def dual_bimodule(v: Bicomodule) -> Bimodule:
    """V* as a C*-bimodule: each coaction transposes into an action."""
    return Bimodule(v.dim, v.left.transpose(), v.right.transpose(), labels=v.labels)


class Bicomodule:
    """C-bicomodule with explicit left and right coaction maps."""

    __slots__ = ("dim", "left", "right", "labels")

    def __init__(self, dim, left: LinearMap, right: LinearMap, labels=None):
        self.dim = dim
        if left.domain_dim != dim or left.codomain_dim % dim:
            raise ShapeMismatchError("left coaction must map V -> C(x)V")
        if right.domain_dim != dim or right.codomain_dim % dim:
            raise ShapeMismatchError("right coaction must map V -> V(x)C")
        self.left = left
        self.right = right
        self.labels = labels or [f"v{i}" for i in range(dim)]

    def __repr__(self):
        return f"Bicomodule(dim={self.dim})"


def regular_bicomodule(c: FiniteCoalgebra) -> Bicomodule:
    return Bicomodule(c.dim, c.comult, c.comult, labels=c.basis_labels)


def _bicomodule_axioms(report, c: FiniteCoalgebra, v: Bicomodule, names, transposed=False) -> CheckReport:
    """The bicomodule identities of v over c, recorded under names; a witness is read on the
    domain V, or when transposed on the codomain, labelled by the factors each check lists."""
    idc, idv = c.identity(), identity_map(c.field, (v.dim,))
    lc, lv = c.basis_labels, v.labels

    def check(name, lhs, rhs, *codomain):
        report.check(name, lhs, rhs, codomain if transposed else [lv], transposed)

    check(names[0], compose(tensor(c.comult, idv), v.left), compose(tensor(idc, v.left), v.left), lc, lc, lv)
    check(names[1], compose(tensor(c.counit, idv), v.left), idv, lv)
    check(names[2], compose(tensor(v.right, idc), v.right), compose(tensor(idv, c.comult), v.right), lv, lc, lc)
    check(names[3], compose(tensor(idv, c.counit), v.right), idv, lv)
    check(names[4], compose(tensor(idc, v.right), v.left), compose(tensor(v.left, idc), v.right), lc, lv, lc)
    return report


def validate_bicomodule(c: FiniteCoalgebra, v: Bicomodule) -> CheckReport:
    names = ("left coassociativity", "left counit", "right coassociativity", "right counit", "coactions commute")
    return _bicomodule_axioms(CheckReport(f"bicomodule(dim={v.dim})"), c, v, names)
