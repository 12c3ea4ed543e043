"""Finite-dimensional algebras and coalgebras given by structure constants.

Structure constants come in sparse (i, j, k, coeff) triples and are densified
into matrices of the structure maps.  Multi-indices into tensor powers flatten
with the leftmost factor most significant, matching left-to-right tensor
notation; Kronecker products follow the same convention.

Validators check the defining axioms as exact matrix identities and report a
witness basis tuple for every failure.  Constructors of higher layers demand
validated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import ShapeMismatchError, ValidationError
from .linalg import FieldSpec, Mat, kron


def _prod(shape) -> int:
    return math.prod(shape) if shape else 1


class LinearMap:
    """Linear map between tensor products, with recorded factor shapes."""

    __slots__ = ("domain_shape", "codomain_shape", "mat")

    def __init__(self, domain_shape, codomain_shape, mat: Mat):
        domain_shape = tuple(domain_shape)
        codomain_shape = tuple(codomain_shape)
        if mat.cols != _prod(domain_shape) or mat.rows != _prod(codomain_shape):
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


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    return LinearMap(
        f.domain_shape + g.domain_shape,
        f.codomain_shape + g.codomain_shape,
        kron(f.mat, g.mat),
    )


def identity_map(field: FieldSpec, shape) -> LinearMap:
    shape = tuple(shape)
    return LinearMap(shape, shape, Mat.identity(field, _prod(shape)))


def flip_map(field: FieldSpec, d1: int, d2: int) -> LinearMap:
    """The flip v (x) w -> w (x) v as a permutation matrix."""
    triples = [(j * d1 + i, i * d2 + j, 1) for i in range(d1) for j in range(d2)]
    return LinearMap((d1, d2), (d2, d1), Mat.from_triples(field, d1 * d2, d1 * d2, triples))


def decode_index(shape, flat: int):
    """Invert the leftmost-most-significant flattening."""
    idx = []
    for d in reversed(shape):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


# -- validation reports -------------------------------------------------------


@dataclass
class ValidationReport:
    subject: str
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add_failure(self, axiom: str, witness=None):
        self.failures.append((axiom, witness))

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationError(str(self), report=self)

    def __str__(self):
        if self.ok:
            return f"{self.subject}: all axioms hold"
        parts = []
        for axiom, witness in self.failures:
            if witness is None:
                parts.append(axiom)
            else:
                parts.append(f"{axiom} at {witness}")
        return f"{self.subject}: FAILED " + "; ".join(parts)


def _witness(lhs: LinearMap, rhs: LinearMap, labels_per_factor):
    """First basis tuple where two maps differ, as human-readable labels."""
    diff = lhs.mat - rhs.mat
    if diff.is_zero():
        return None
    first = min(j for _, j, _ in diff.triples())
    idx = decode_index(lhs.domain_shape, first)
    return tuple(labels[k] for labels, k in zip(labels_per_factor, idx))


def _check(report, axiom, lhs, rhs, labels_per_factor):
    if lhs.mat != rhs.mat:
        report.add_failure(axiom, _witness(lhs, rhs, labels_per_factor))


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


def validate_algebra(a: FiniteAlgebra) -> ValidationReport:
    report = ValidationReport(f"algebra(dim={a.dim})")
    ida = a.identity()
    labels3 = [a.basis_labels] * 3
    _check(
        report,
        "associativity",
        compose(a.mult, tensor(a.mult, ida)),
        compose(a.mult, tensor(ida, a.mult)),
        labels3,
    )
    unit = a.unit_map()
    _check(report, "left unit", compose(a.mult, tensor(unit, ida)), ida, [a.basis_labels])
    _check(report, "right unit", compose(a.mult, tensor(ida, unit)), ida, [a.basis_labels])
    return report


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


def validate_coalgebra(c: FiniteCoalgebra) -> ValidationReport:
    report = ValidationReport(f"coalgebra(dim={c.dim})")
    idc = c.identity()
    labels1 = [c.basis_labels]
    _check(
        report,
        "coassociativity",
        compose(tensor(c.comult, idc), c.comult),
        compose(tensor(idc, c.comult), c.comult),
        labels1,
    )
    _check(report, "left counit", compose(tensor(c.counit, idc), c.comult), idc, labels1)
    _check(report, "right counit", compose(tensor(idc, c.counit), c.comult), idc, labels1)
    return report


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


def validate_bimodule(a: FiniteAlgebra, m: Bimodule) -> ValidationReport:
    report = ValidationReport(f"bimodule(dim={m.dim})")
    ida = a.identity()
    idm = identity_map(a.field, (m.dim,))
    unit = a.unit_map()
    la, lm = a.basis_labels, m.labels
    _check(
        report,
        "left associativity",
        compose(m.left, tensor(a.mult, idm)),
        compose(m.left, tensor(ida, m.left)),
        [la, la, lm],
    )
    _check(report, "left unit", compose(m.left, tensor(unit, idm)), idm, [lm])
    _check(
        report,
        "right associativity",
        compose(m.right, tensor(m.right, ida)),
        compose(m.right, tensor(idm, a.mult)),
        [lm, la, la],
    )
    _check(report, "right unit", compose(m.right, tensor(idm, unit)), idm, [lm])
    _check(
        report,
        "actions commute",
        compose(m.left, tensor(ida, m.right)),
        compose(m.right, tensor(m.left, ida)),
        [la, lm, la],
    )
    return report


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


def validate_bicomodule(c: FiniteCoalgebra, v: Bicomodule) -> ValidationReport:
    report = ValidationReport(f"bicomodule(dim={v.dim})")
    idc = c.identity()
    idv = identity_map(c.field, (v.dim,))
    lv = [v.labels]
    _check(
        report,
        "left coassociativity",
        compose(tensor(c.comult, idv), v.left),
        compose(tensor(idc, v.left), v.left),
        lv,
    )
    _check(report, "left counit", compose(tensor(c.counit, idv), v.left), idv, lv)
    _check(
        report,
        "right coassociativity",
        compose(tensor(v.right, idc), v.right),
        compose(tensor(idv, c.comult), v.right),
        lv,
    )
    _check(report, "right counit", compose(tensor(idv, c.counit), v.right), idv, lv)
    _check(
        report,
        "coactions commute",
        compose(tensor(idc, v.right), v.left),
        compose(tensor(v.left, idc), v.right),
        lv,
    )
    return report
