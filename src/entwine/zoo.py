"""Worked examples and (de)serialization of entwining structures.

The file format is a single JSON document:

    {
      "format": "entwine-structure/1",
      "field": "Q" | "Fp:<p>",
      "algebra":   {"dim", "labels", "mult":   [[i, j, k, "a/b"], ...], "unit": ["a/b", ...]},
      "coalgebra": {"dim", "labels", "comult": [[i, j, k, "a/b"], ...], "counit": ["a/b", ...]},
      "psi": [[row, col, "a/b"], ...],
      "hopf": {"antipode": [[i, j, "a/b"], ...]}        # optional
    }

mult triples read e_i . e_j += c e_k; comult triples read
Delta(e_i) += c e_j (x) e_k; psi rows index A (x) C and columns C (x) A in the
leftmost-most-significant flattening.  Coefficients are decimal integer
fractions.  Loading validates everything: field spec and index ranges, then
each axiom family once, in the order algebra, coalgebra, bialgebra and antipode
(when a hopf section is present), bow-tie relations (failures are reported by
relation name).
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from functools import cache

from .entwining import EntwiningStructure
from .errors import PreconditionError, ShapeMismatchError, StructureParseError
from .linalg import FieldSpec, Mat, format_coeff, parse_coeff
from .structures import (
    Bialgebra,
    Bicomodule,
    Bimodule,
    CheckReport,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebra,
    LinearMap,
    compose,
    flip_map,
    tensor,
    validate_bicomodule,
    validate_bimodule,
)
from .structures import translation_map, validate_antipode, validate_bialgebra  # noqa: F401  (re-export)

FORMAT_TAG = "entwine-structure/1"


# -- constructors ---------------------------------------------------------------


def trivial_entwining(a: FiniteAlgebra, c: FiniteCoalgebra) -> EntwiningStructure:
    """psi = flip of tensor factors."""
    return EntwiningStructure(a, c, flip_map(a.field, c.dim, a.dim))


def bialgebra_self_entwining(h: Bialgebra) -> EntwiningStructure:
    """psi(c (x) a) = a_(1) (x) c a_(2); entwines the bialgebra with itself."""
    a, c = h.algebra, h.coalgebra
    d = a.dim
    flip = flip_map(a.field, d, d)
    psi = compose(
        tensor(a.identity(), a.mult),
        compose(tensor(flip, a.identity()), tensor(c.identity(), c.comult)),
    )
    psi = LinearMap((d, d), (d, d), psi.mat)
    return EntwiningStructure(a, c, psi, hopf=h if isinstance(h, HopfAlgebra) else None)


def comodule_algebra_entwining(
    c_bialg: Bialgebra, a: FiniteAlgebra, coaction: LinearMap
) -> EntwiningStructure:
    """psi(c (x) a) = a_(0) (x) c a_(1) for a comodule algebra (A, coaction)."""
    c = c_bialg.coalgebra
    if coaction.domain_shape != (a.dim,) or coaction.codomain_shape != (a.dim, c.dim):
        raise ShapeMismatchError("coaction must map A -> A(x)C")
    report = validate_comodule_algebra(c_bialg, a, coaction)
    report.raise_if_failed()
    flip = flip_map(a.field, c.dim, a.dim)
    psi = compose(
        tensor(a.identity(), c_bialg.algebra.mult),
        compose(tensor(flip, c.identity()), tensor(c.identity(), coaction)),
    )
    psi = LinearMap((c.dim, a.dim), (a.dim, c.dim), psi.mat)
    return EntwiningStructure(a, c, psi)


def validate_comodule_algebra(c_bialg: Bialgebra, a: FiniteAlgebra, coaction) -> CheckReport:
    c = c_bialg.coalgebra
    ida, idc = a.identity(), c.identity()
    la = a.basis_labels
    report = CheckReport("comodule algebra")
    report.check(
        "coaction coassociativity",
        compose(tensor(coaction, idc), coaction),
        compose(tensor(ida, c.comult), coaction),
        [la],
    )
    report.check("coaction counit", compose(tensor(ida, c.counit), coaction), ida, [la])
    flip = flip_map(a.field, c.dim, a.dim)
    lhs = compose(coaction, a.mult)
    rhs = compose(
        tensor(a.mult, c_bialg.algebra.mult),
        compose(tensor(ida, flip, idc), tensor(coaction, coaction)),
    )
    report.check("coaction is an algebra map", lhs, rhs, [la, la])
    report.check(
        "coaction of unit",
        compose(coaction, a.unit_map()),
        tensor(a.unit_map(), c_bialg.algebra.unit_map()),
        [],
    )
    return report


def group_algebra_hopf(n: int, field: FieldSpec = FieldSpec.rationals()) -> HopfAlgebra:
    """Group algebra of Z/n with grouplike basis g^0, ..., g^{n-1}."""
    if n < 1:
        raise PreconditionError("group order must be >= 1")
    if field.characteristic and n % field.characteristic == 0:
        warnings.warn(f"char {field.characteristic} divides group order {n}; not semisimple")
    labels = ["1"] if n == 1 else ["1", "g"] + [f"g{k}" for k in range(2, n)]
    mult = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    unit = [1] + [0] * (n - 1)
    algebra = FiniteAlgebra.from_structure_constants(field, labels, mult, unit)
    comult = [(i, i, i, 1) for i in range(n)]
    counit = [1] * n
    coalgebra = FiniteCoalgebra.from_structure_constants(field, labels, comult, counit)
    antipode = LinearMap(
        (n,), (n,), Mat.from_triples(field, n, n, [((-i) % n, i, 1) for i in range(n)])
    )
    return HopfAlgebra(algebra, coalgebra, antipode)


def sweedler_h4(field: FieldSpec = FieldSpec.rationals()) -> HopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra on basis 1, g, x, gx.

    Conventions: g^2 = 1, x^2 = 0, xg = -gx, Delta(x) = x (x) 1 + g (x) x,
    S(x) = -gx.  Needs characteristic != 2.
    """
    if field.characteristic == 2:
        raise PreconditionError("Sweedler H4 requires characteristic != 2")
    labels = ["1", "g", "x", "gx"]
    mult = [
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
        (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
        (1, 1, 0, 1),            # g.g = 1
        (1, 2, 3, 1),            # g.x = gx
        (1, 3, 2, 1),            # g.gx = x
        (2, 1, 3, -1),           # x.g = -gx
        (3, 1, 2, -1),           # gx.g = -x
    ]
    unit = [1, 0, 0, 0]
    algebra = FiniteAlgebra.from_structure_constants(field, labels, mult, unit)
    comult = [
        (0, 0, 0, 1),
        (1, 1, 1, 1),
        (2, 2, 0, 1), (2, 1, 2, 1),        # Delta x = x(x)1 + g(x)x
        (3, 3, 1, 1), (3, 0, 3, 1),        # Delta gx = gx(x)g + 1(x)gx
    ]
    counit = [1, 1, 0, 0]
    coalgebra = FiniteCoalgebra.from_structure_constants(field, labels, comult, counit)
    antipode = LinearMap(
        (4,),
        (4,),
        Mat.from_triples(field, 4, 4, [(0, 0, 1), (1, 1, 1), (3, 2, -1), (2, 3, 1)]),
    )
    return HopfAlgebra(algebra, coalgebra, antipode)


def z2_graded_algebra_entwining(field: FieldSpec = FieldSpec.rationals()) -> EntwiningStructure:
    """k[x]/(x^2) graded by Z/2 (deg x = 1), entwined with k[Z/2]."""
    h = group_algebra_hopf(2, field)
    a = FiniteAlgebra.from_structure_constants(
        field, ["1", "x"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0]
    )
    # coaction 1 -> 1 (x) 1, x -> x (x) g
    coaction = LinearMap(
        (2,), (2, 2), Mat.from_triples(field, 4, 2, [(0, 0, 1), (3, 1, 1)])
    )
    return comodule_algebra_entwining(h, a, coaction)


def corrupted_psi_entwining(field: FieldSpec = FieldSpec.rationals()) -> EntwiningStructure:
    """Flip entwining of (kZ2, kZ2) with one sign flipped: breaks the bow-tie."""
    h = group_algebra_hopf(2, field)
    psi = flip_map(field, 2, 2)
    bad = psi.mat - Mat.from_triples(field, 4, 4, [(1, 2, 2)])  # psi(g (x) 1) = -1 (x) g
    return EntwiningStructure.unchecked(h.algebra, h.coalgebra, LinearMap((2, 2), (2, 2), bad))


# -- serialization ----------------------------------------------------------------


def _structure_dict(e: EntwiningStructure) -> dict:
    a, c = e.algebra, e.coalgebra
    doc = {
        "format": FORMAT_TAG,
        "field": str(e.field),
        "algebra": {
            "dim": a.dim,
            "labels": list(a.basis_labels),
            "mult": sorted(
                [[i, j, k, format_coeff(v)] for (i, j, k, v) in a.mult_triples()],
                key=lambda t: t[:3],
            ),
            "unit": [format_coeff(a.unit.entry(i, 0)) for i in range(a.dim)],
        },
        "coalgebra": {
            "dim": c.dim,
            "labels": list(c.basis_labels),
            "comult": sorted(
                [[i, j, k, format_coeff(v)] for (i, j, k, v) in c.comult_triples()],
                key=lambda t: t[:3],
            ),
            "counit": [format_coeff(v) for v in c.counit_values()],
        },
        "psi": [[i, j, format_coeff(v)] for (i, j, v) in e.psi.mat.triples()],
    }
    if e.hopf is not None:
        doc["hopf"] = {
            "antipode": [[i, j, format_coeff(v)] for (i, j, v) in e.hopf.antipode.mat.triples()]
        }
    return doc


def save(e: EntwiningStructure, path) -> None:
    with open(path, "w") as fh:
        json.dump(_structure_dict(e), fh, indent=1)
        fh.write("\n")


@contextmanager
def _section(name):
    """Name the file section in any parse error raised while reading it."""
    try:
        yield
    except StructureParseError as exc:
        raise StructureParseError(f"{name}: {exc}") from None


def _read(path, tag) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructureParseError(f"{path}: invalid JSON at line {exc.lineno}") from None
    if not isinstance(doc, dict):
        raise StructureParseError(f"{path}: document must be a JSON object")
    if doc.get("format") != tag:
        raise StructureParseError(f"{path}: unknown format {doc.get('format')!r}")
    return doc


def _require(doc, key):
    if not isinstance(doc, dict):
        raise StructureParseError("not a JSON object")
    if key not in doc:
        raise StructureParseError(f"missing field {key!r}")
    return doc[key]


def _entries(doc, key, bounds):
    """doc[key] as (index, ..., coeff) tuples, each index an int below its bound."""
    entries = _require(doc, key)
    with _section(repr(key)):
        if not isinstance(entries, list):
            raise StructureParseError("not a list")
        for entry in entries:
            if not (
                isinstance(entry, list)
                and len(entry) == len(bounds) + 1
                and all(type(i) is int and 0 <= i < b for i, b in zip(entry, bounds))
            ):
                raise StructureParseError(
                    f"bad entry {entry!r}: want {len(bounds)} indices in range and a coefficient"
                )
        parse = cache(parse_coeff)  # each distinct text once (other JSON values may not hash)
        return [(*entry[:-1], (parse if type(entry[-1]) is str else parse_coeff)(entry[-1])) for entry in entries]


def _matrix(doc, key, field, rows, cols) -> Mat:
    entries = _entries(doc, key, (rows, cols))
    with _section(repr(key)):
        return Mat.from_triples(field, rows, cols, entries)


def _dim(doc) -> int:
    dim = _require(doc, "dim")
    if type(dim) is not int or dim < 1:  # a zero-dimensional section has no unit or counit
        raise StructureParseError(f"'dim' must be a positive integer, not {dim!r}")
    return dim


def _structure_constants(doc, field, cls, name, table, vector):
    """The algebra or coalgebra section, built by cls.from_structure_constants."""
    with _section(name):
        sec = _require(doc, name)
        labels = _require(sec, "labels")
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise StructureParseError("'labels' must be a list of strings")
        d = len(labels)
        if _dim(sec) != d:
            raise StructureParseError("dim does not match labels")
        values = _require(sec, vector)
        if not isinstance(values, list) or len(values) != d:
            raise StructureParseError(f"{vector!r} must be a list of {d} coefficients")
        with _section(repr(vector)):
            values = [parse_coeff(v) for v in values]
        return cls.from_structure_constants(field, labels, _entries(sec, table, (d, d, d)), values)


def load(path, validate: bool = True) -> EntwiningStructure:
    """Load and fully validate a structure file.

    Parse problems raise StructureParseError naming the section; axiom
    failures raise ValidationError; bow-tie failures raise BowTieError naming
    the relation.  The axioms are checked once, by the EntwiningStructure
    constructor.  With validate=False the structure is returned unchecked
    (diagnostics).
    """
    doc = _read(path, FORMAT_TAG)
    with _section("field"):
        field = FieldSpec.parse(_require(doc, "field"))
    algebra = _structure_constants(doc, field, FiniteAlgebra, "algebra", "mult", "unit")
    coalgebra = _structure_constants(doc, field, FiniteCoalgebra, "coalgebra", "comult", "counit")
    da, dc = algebra.dim, coalgebra.dim
    psi = LinearMap((dc, da), (da, dc), _matrix(doc, "psi", field, da * dc, dc * da))

    hopf = None
    if "hopf" in doc:
        with _section("hopf"):
            antipode = LinearMap((da,), (da,), _matrix(doc["hopf"], "antipode", field, da, da))
        # validated below, with the entwining
        hopf = HopfAlgebra(algebra, coalgebra, antipode)

    if not validate:
        return EntwiningStructure.unchecked(algebra, coalgebra, psi, hopf=hopf)
    return EntwiningStructure(algebra, coalgebra, psi, hopf=hopf)


COEFF_FORMAT_TAG = "entwine-coefficients/1"


def load_coefficients(path, e: EntwiningStructure, side: str):
    """Load a bimodule (side 'A') or bicomodule (side 'C') from a JSON file.

    Schema: {"format": "entwine-coefficients/1", "dim": d,
             "left": [[row, col, "a/b"], ...], "right": [[row, col, "a/b"], ...]}
    with left/right the matrices of the (co)action maps; loading validates the
    (co)module axioms against the structure's algebra resp. coalgebra.
    """
    doc = _read(path, COEFF_FORMAT_TAG)
    field = e.field
    da, dc = e.algebra.dim, e.coalgebra.dim
    dim = _dim(doc)
    if side == "A":
        left = LinearMap((da, dim), (dim,), _matrix(doc, "left", field, dim, da * dim))
        right = LinearMap((dim, da), (dim,), _matrix(doc, "right", field, dim, dim * da))
        m = Bimodule(dim, left, right)
        validate_bimodule(e.algebra, m).raise_if_failed()
        return m
    left = LinearMap((dim,), (dc, dim), _matrix(doc, "left", field, dc * dim, dim))
    right = LinearMap((dim,), (dim, dc), _matrix(doc, "right", field, dim * dc, dim))
    v = Bicomodule(dim, left, right)
    validate_bicomodule(e.coalgebra, v).raise_if_failed()
    return v


def save_coefficients(m, path, side: str):
    """Serialize a Bimodule or Bicomodule to the coefficients file schema."""
    doc = {
        "format": COEFF_FORMAT_TAG,
        "dim": m.dim,
        "left": [[i, j, format_coeff(v)] for (i, j, v) in m.left.mat.triples()],
        "right": [[i, j, format_coeff(v)] for (i, j, v) in m.right.mat.triples()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# -- named fixtures ----------------------------------------------------------------


def field_algebra(field=FieldSpec.rationals()) -> FiniteAlgebra:
    return FiniteAlgebra.from_structure_constants(field, ["1"], [(0, 0, 0, 1)], [1])


def field_coalgebra(field=FieldSpec.rationals()) -> FiniteCoalgebra:
    return FiniteCoalgebra.from_structure_constants(field, ["1"], [(0, 0, 0, 1)], [1])


def named_example(name: str, field=FieldSpec.rationals()) -> EntwiningStructure:
    """Fixture constructors addressed by name (also used by the CLI)."""
    if name == "trivial-k":
        return trivial_entwining(field_algebra(field), field_coalgebra(field))
    if name == "trivial-z2":
        h = group_algebra_hopf(2, field)
        return trivial_entwining(h.algebra, h.coalgebra)
    if name == "z2":
        return bialgebra_self_entwining(group_algebra_hopf(2, field))
    if name == "z3":
        return bialgebra_self_entwining(group_algebra_hopf(3, field))
    if name == "sweedler":
        return bialgebra_self_entwining(sweedler_h4(field))
    if name == "graded-z2":
        return z2_graded_algebra_entwining(field)
    if name == "corrupted-psi":
        return corrupted_psi_entwining(field)
    raise PreconditionError(f"unknown example {name!r}")


EXAMPLE_NAMES = ("trivial-k", "trivial-z2", "z2", "z3", "sweedler", "graded-z2", "corrupted-psi")
