"""Exact dense/sparse linear algebra over Q and prime fields.

Storage contract.  A Mat holds the canonical CSR arrays of its int64
numerators (indptr, indices, data, with int32 indices) in slots, plus one
positive denominator, so a matrix is num/den entrywise, and only this module
reads them.  Every Mat is canonical: sorted column indices within each row, no
duplicates, no stored zeros, F_p residues in [1, p), and over Q numerators and
denominator with no common factor.  A canonical matrix is unique, so equality
compares the stored arrays.

One construction path.  Every operation computes the CSR arrays of its result
with numpy (or scipy's compiled CSR kernels, called on the arrays: the one
scipy module loaded, by _load_sparsetools, without the scipy.sparse package
init), and _csr reduces them to canonical form, checks their structure and
hands them to Mat.__init__, the one constructor; no scipy object is built.
_csr normalises only what an operation can change: a result that re-indexes
the entries of one canonical Mat (padded kron, transpose, reshape, negation
over Q, row and column selections) inherits its residues, non-zeros and
max-abs bound, and gets the gcd pass only if it is a selection or empty.  Any
other result finds its bound when a guard first reads it.  A transpose, the
dense numerators and each identity pad are built once and cached on their source, which they do
not reference, so no cycle outlives them; racing threads may both build one
(the last, equal, Mat stays).

All arithmetic is exact and guarded against int64 overflow: matrix products
and sums fall back to arbitrary-precision Python integers when a bound is
exceeded (the result must still fit the storage), while scalings and Kronecker
products raise StructureParseError instead (neither happens for the structure
constants handled here).

Stacking and re-indexing (from_blocks, Mat.reshape) work on the numerators
over one common denominator and put each entry straight into its CSR slot, with
no sort; Mat.from_triples and Mat.triples() are the parse and serialize
boundary, where entries are Fractions.

Rank / kernel / image / solve go through one sparse RREF driver, _rref, for
both fields: integer rows in (stored numerators over Q, residues over F_p),
inserted one at a time into a fully reduced basis, and canonical rows out
(Fraction entries over Q, residues mod p over F_p).  RREF is canonical, which
keeps every downstream computation reproducible bit for bit.
A basis is one Mat whose columns are the basis vectors.

This module is the only reader of the storage format, so it also builds
middle_operator (re-exported by homspace) beside kron.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import (
    FieldMismatchError,
    InconsistentQuotientError,
    ShapeMismatchError,
    StructureParseError,
)


def _load_sparsetools():
    """scipy.sparse._sparsetools, the compiled CSR kernels behind scipy's own
    operators, loaded from its file: importing it would first run the
    scipy.sparse package init, whose array-API layer (numpy.f2py,
    numpy.testing, ...) costs about 0.2 s of every process start, more than
    most commands spend computing.  It is registered under its real name, so
    it and a later `import scipy.sparse` share one module object."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]  # scipy/__init__ not run
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "sparse")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()
_I64_GUARD = 2**62
_IDX = np.int32  # index dtype of every stored CSR, as the compiled kernels need one
_IDENTITY_CACHE: dict = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals ('Q') or a prime field ('Fp', p)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals carry no characteristic")
        elif self.kind == "Fp":
            if self.p is None or self.p < 2:
                raise ValueError(f"not a prime: {self.p}")
            if self.p * self.p >= _I64_GUARD:
                # a product of two reduced entries must fit the int64 fast path
                raise ValueError(f"prime {self.p} too large: need p < 2^31")
            if not _is_prime(self.p):
                raise ValueError(f"not a prime: {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        if text == "Q":
            return FieldSpec("Q")
        if isinstance(text, str) and text.startswith("Fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise StructureParseError(f"bad field spec {text!r}") from None
            try:
                return FieldSpec.prime(p)
            except ValueError as exc:
                raise StructureParseError(str(exc)) from None
        raise StructureParseError(f"bad field spec {text!r}")

    def __str__(self):
        return "Q" if self.kind == "Q" else f"Fp:{self.p}"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p


QQ = FieldSpec.rationals()


def parse_coeff(text) -> Fraction:
    """Parse a coefficient given as 'a' or 'a/b' (decimal integers)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise StructureParseError(f"bad coefficient {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            a, b = s.split("/", 1)
            num, den = int(a), int(b)
            if den == 0:
                raise StructureParseError(f"zero denominator in {text!r}")
            return Fraction(num, den)
        return Fraction(int(s))
    except ValueError:
        raise StructureParseError(f"bad coefficient {text!r}") from None


def format_coeff(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coeff_to_field(field: FieldSpec, value) -> tuple[int, int]:
    """Return (numerator, denominator) of value normalised into the field."""
    frac = value if type(value) is Fraction else parse_coeff(value)
    if field.kind == "Q":
        return frac.numerator, frac.denominator
    p = field.p
    if frac.denominator % p == 0:
        raise StructureParseError(f"denominator of {frac} not invertible mod {p}")
    num = frac.numerator * pow(frac.denominator, p - 2, p) % p
    return num, 1


def _csr(field, shape, indptr, indices, data, den=1, source=None, subset=False) -> "Mat":
    """The one construction path: CSR arrays in canonical order -> one Mat.

    indices must be sorted within each row and free of duplicates.  This
    reduces residues mod p, drops stored zeros, cancels the common factor of
    numerators and denominator over Q (den is 1 over F_p), checks the array
    sizes (ValueError) and hands the arrays, which it takes over, to
    Mat.__init__ as int32 indices and int64 data, with no max-abs bound yet.

    With source, the Mat whose entries the arrays re-index, the result keeps its bound; only
    the gcd pass runs, when subset=True (a subset may share a factor with den) or none is left.
    """
    rows, cols = shape
    if max(shape) >= 2**31 or data.size >= 2**31:
        raise ShapeMismatchError(f"{rows}x{cols} with {data.size} entries exceeds 32-bit CSR indices")
    if indptr.size != rows + 1 or indptr[0] != 0 or not indices.size == data.size == indptr[-1]:
        raise ValueError(f"malformed CSR arrays for a {rows}x{cols} matrix")
    bound = None if source is None else source._bound
    if source is None:
        if field.kind == "Fp":
            data = data % field.p
        if np.count_nonzero(data) != data.size:
            keep = data != 0
            indptr = np.concatenate(([0], keep.cumsum()))[indptr]
            indices, data = indices[keep], data[keep]
    if den != 1 and (source is None or subset or not data.size):
        g = math.gcd(int(np.gcd.reduce(data)), den) if data.size else den
        if g > 1:
            data, den = data // g, den // g
    indptr, indices = indptr.astype(_IDX, copy=False), indices.astype(_IDX, copy=False)
    return Mat(field, rows, cols, indptr, indices, data.astype(np.int64, copy=False), den, bound)


def _trimmed(buffer, n):
    """buffer[:n], copied out when most of the buffer would be dead weight."""
    return buffer[:n].copy() if n < buffer.size // 2 else buffer[:n]


def _sorted_coo(shape, key, data):
    """CSR arrays of the entries at row-major positions key (row * cols + col):
    one stable sort, duplicates summed."""
    order = key.argsort(kind="stable")
    key, data = key[order], data[order]
    if key.size > 1:
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        if first.size < key.size:
            key, data = key[first], np.add.reduceat(data, first)
    indptr = key.searchsorted(np.arange(shape[0] + 1) * shape[1])
    return indptr, key % max(shape[1], 1), data


def _row_ids(indptr):
    """The row of each stored entry of a CSR matrix."""
    return np.arange(indptr.size - 1).repeat(indptr[1:] - indptr[:-1])


def _product(rows, cols, a, b):
    """Sorted CSR arrays (indptr, indices, data) of the rows x cols product of
    the CSR operands a and b, each an (indptr, indices, data) triple of _IDX
    indices and int64 data; the kernel stores no zero sum."""
    nnz = _sparsetools.csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    indptr, indices, data = np.empty(rows + 1, _IDX), np.empty(nnz, _IDX), np.empty(nnz, np.int64)
    _sparsetools.csr_matmat(rows, cols, *a, *b, indptr, indices, data)
    nnz = indptr[-1]
    indices, data = _trimmed(indices, nnz), _trimmed(data, nnz)
    _sparsetools.csr_sort_indices(rows, indptr, indices, data)
    return indptr, indices, data


def _selection(n, idx):
    """CSR arrays of the n x len(idx) 0/1 matrix with a 1 at (idx[k], k)."""
    order = np.argsort(idx, kind="stable")
    indptr = np.concatenate(([0], np.bincount(idx, minlength=n).cumsum())).astype(_IDX)
    return indptr, order.astype(_IDX), np.ones(idx.size, np.int64)


class Mat:
    """Immutable exact matrix over a FieldSpec, stored canonically (see the
    module docstring); only _csr calls the constructor."""

    __slots__ = ("field", "rows", "cols", "_ptr", "_idx", "_data", "_den", "_bound", "_rref_cache", "_derived")

    def __init__(self, field: FieldSpec, rows: int, cols: int, ptr, idx, data, den: int, bound: int | None):
        self.field = field
        self.rows, self.cols = rows, cols
        self._ptr, self._idx, self._data = ptr, idx, data  # never changed after _csr
        self._den = den
        self._bound = bound  # at least the largest |numerator|; None until _max_abs computes it
        self._rref_cache = None
        self._derived = None  # transpose and identity pads, built on first use

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(field, rows, cols) -> "Mat":
        return _csr(field, (rows, cols), np.zeros(rows + 1, _IDX), np.zeros(0, _IDX), np.zeros(0, np.int64))

    @staticmethod
    def identity(field, n) -> "Mat":
        key = (field, n)
        cached = _IDENTITY_CACHE.get(key)
        if cached is None:
            cached = _csr(field, (n, n), np.arange(n + 1), np.arange(n), np.ones(n, np.int64))
            _IDENTITY_CACHE[key] = cached
        return cached

    @staticmethod
    def from_triples(field, rows, cols, triples) -> "Mat":
        """Build from (row, col, coeff) triples; absent entries are zero, and
        repeated ones are summed exactly before the int64 guard sees them."""
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for i, j, v in triples:
            if not (0 <= i < rows and 0 <= j < cols):
                raise StructureParseError(f"index ({i},{j}) out of range {rows}x{cols}")
            n, d = _coeff_to_field(field, v)
            if (i, j) in acc:
                n, d = _coeff_to_field(field, Fraction(*acc[i, j]) + Fraction(n, d))
            acc[i, j] = n, d
        keys = [key for key, (n, _) in acc.items() if n]
        values = [acc[key] for key in keys]
        den = math.lcm(*[d for _, d in values])
        data = [n * (den // d) for n, d in values]
        if any(abs(x) >= _I64_GUARD for x in data):
            raise StructureParseError("coefficients too large for the engine")
        flat = np.array([i * cols + j for i, j in keys], np.int64)
        return _csr(field, (rows, cols), *_sorted_coo((rows, cols), flat, np.array(data, np.int64)), den)

    @staticmethod
    def from_rows(field, rows_data) -> "Mat":
        cols = len(rows_data[0]) if rows_data else 0
        if any(len(row) != cols for row in rows_data):
            raise ShapeMismatchError("ragged rows")
        triples = [(i, j, v) for i, row in enumerate(rows_data) for j, v in enumerate(row)]
        return Mat.from_triples(field, len(rows_data), cols, triples)

    @staticmethod
    def column(field, values) -> "Mat":
        return Mat.from_rows(field, [[v] for v in values])

    # -- helpers -----------------------------------------------------------

    def _arrays(self):
        return self._ptr, self._idx, self._data

    def _max_abs(self) -> int:
        if self._bound is None:
            self._bound = int(np.abs(self._data).max()) if self._data.size else 0
        return self._bound

    def _derive(self, key, build, *args) -> "Mat":
        """build(*args), cached on self under key (the result holds no link back)."""
        derived = self._derived = self._derived or {}
        if key not in derived:
            derived[key] = build(*args)
        return derived[key]

    def _check_field(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self._products_fit(other):
            arrays = _product(self.rows, other.cols, self._arrays(), other._arrays())
            return _csr(self.field, (self.rows, other.cols), *arrays, self._den * other._den)
        return self._slow_matmul(other)

    def _products_fit(self, other: "Mat") -> bool:
        """Do all partial sums of self @ other stay below the int64 guard?  They
        are at most max|A| max|B| cols, and (the sound, tighter bound, computed
        only when the first fails) at most the largest row-L1 of A times max|B|."""
        a, b, width = self._max_abs(), other._max_abs(), max(self.cols, 1)
        if a * b * width < _I64_GUARD:
            return True
        if a * width >= _I64_GUARD:  # a row-L1 might not fit int64 itself
            return False
        indptr, _, data = self._arrays()
        # each segment from a non-empty row's start runs exactly to that row's end
        return int(np.add.reduceat(np.abs(data), indptr[:-1][np.diff(indptr) > 0]).max()) * b < _I64_GUARD

    def _slow_matmul(self, other: "Mat") -> "Mat":
        a_ptr, a_cols, a_vals = (x.tolist() for x in self._arrays())
        b_ptr, b_cols, b_vals = (x.tolist() for x in other._arrays())
        den = self._den * other._den
        triples = []
        for i in range(self.rows):
            acc: dict[int, int] = {}
            for k, av in zip(a_cols[a_ptr[i] : a_ptr[i + 1]], a_vals[a_ptr[i] : a_ptr[i + 1]]):
                for j, bv in zip(b_cols[b_ptr[k] : b_ptr[k + 1]], b_vals[b_ptr[k] : b_ptr[k + 1]]):
                    acc[j] = acc.get(j, 0) + av * bv
            triples.extend((i, j, Fraction(v, den)) for j, v in acc.items() if v)
        return Mat.from_triples(self.field, self.rows, other.cols, triples)

    def _add(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, on the numerators over the common denominator."""
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("shape mismatch in addition")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        if max(self._max_abs() * fa, other._max_abs() * fb) >= _I64_GUARD:
            # the aligned numerators would overflow: from_triples sums the entries exactly
            rhs = other.triples() if sign > 0 else ((i, j, -v) for i, j, v in other.triples())
            return Mat.from_triples(self.field, self.rows, self.cols, [*self.triples(), *rhs])
        (ap, aj, ax), (bp, bj, bx) = self._arrays(), other._arrays()
        nnz = ax.size + bx.size
        indptr, indices, data = np.empty(self.rows + 1, _IDX), np.empty(nnz, _IDX), np.empty(nnz, np.int64)
        # canonical operands give a canonical sum: sorted, no zero stored
        kernel = _sparsetools.csr_plus_csr if sign > 0 else _sparsetools.csr_minus_csr
        kernel(self.rows, self.cols, ap, aj, ax if fa == 1 else ax * fa, bp, bj, bx if fb == 1 else bx * fb,
               indptr, indices, data)
        nnz = indptr[-1]
        return _csr(self.field, (self.rows, self.cols), indptr, _trimmed(indices, nnz), _trimmed(data, nnz), den)

    def __add__(self, other: "Mat") -> "Mat":
        return self._add(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._add(other, -1)

    def __neg__(self) -> "Mat":
        indptr, indices, data = self._arrays()
        source = None if self.field.p else self  # over F_p, -x mod p is a new residue with its own bound
        return _csr(self.field, (self.rows, self.cols), indptr, indices, -data, self._den, source)

    def scale(self, value) -> "Mat":
        n, d = _coeff_to_field(self.field, value)
        if n == 0:
            return Mat.zeros(self.field, self.rows, self.cols)
        if abs(n) * self._max_abs() >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        indptr, indices, data = self._arrays()
        return _csr(self.field, (self.rows, self.cols), indptr, indices, data * n, self._den * d)

    def reshape(self, rows, cols) -> "Mat":
        """The same entries read row-major into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        indptr, indices, data = self._arrays()
        # row-major positions of a canonical matrix are already sorted
        flat = _row_ids(indptr) * self.cols + indices
        new_ptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
        return _csr(self.field, (rows, cols), new_ptr, flat % max(cols, 1), data, self._den, self)

    def transpose(self) -> "Mat":
        return self._derive("T", _transposed, self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # a canonical matrix is unique (over Q its denominator is the lcm of
        # its entries' denominators) and _csr fixes the dtypes, so equality
        # compares the stored bytes, with no arithmetic
        if self._den != other._den or self.nnz != other.nnz:
            return False
        return all(x.tobytes() == y.tobytes() for x, y in zip(self._arrays(), other._arrays()))

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def is_zero(self) -> bool:
        return self._data.size == 0

    @property
    def nnz(self) -> int:
        return self._data.size

    def entry(self, i, j) -> Fraction:
        if not (-self.rows <= i < self.rows and -self.cols <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        i, j = i % self.rows, j % self.cols
        indptr, indices, data = self._arrays()
        lo, hi = indptr[i], indptr[i + 1]
        k = lo + np.searchsorted(indices[lo:hi], j)
        return Fraction(int(data[k]) if k < hi and indices[k] == j else 0, self._den)

    def col_vector(self, j) -> "Mat":
        return self.select_columns([j])

    def select_columns(self, idx) -> "Mat":
        """The columns idx (a list or a slice), as self @ a 0/1 selection."""
        idx = np.arange(self.cols)[idx]
        arrays = _product(self.rows, idx.size, self._arrays(), _selection(self.cols, idx))
        return _csr(self.field, (self.rows, idx.size), *arrays, self._den, self, subset=True)

    def select_rows(self, idx) -> "Mat":
        """The rows idx (a list or a slice), gathered row by row."""
        idx = np.arange(self.rows)[idx]
        indptr, indices, data = self._arrays()
        counts = (indptr[1:] - indptr[:-1])[idx]
        new_ptr = np.concatenate(([0], counts.cumsum()))
        take = (indptr[idx] - new_ptr[:-1]).repeat(counts) + np.arange(new_ptr[-1])
        return _csr(self.field, (idx.size, self.cols), new_ptr, indices[take], data[take], self._den, self, subset=True)

    def trace(self) -> Fraction:
        """The sum of the diagonal entries, in the field."""
        total = sum(self._data[_row_ids(self._ptr) == self._idx].tolist())
        return Fraction(total % self.field.p if self.field.p else total, self._den)

    def nonzero_columns(self) -> list[int]:
        """The columns holding a stored (non-zero) entry, in increasing order."""
        cols = np.sort(self._idx)  # nnz-sized: a grid's cols can be far larger
        return cols[:1].tolist() + cols[1:][cols[1:] != cols[:-1]].tolist()

    def dense(self):
        """(numerators, denominator, bound), built once: the stored numerators as a read-only dense
        array, float64 while their bound is below 2**53 (so exact), else Python ints."""
        return self._derive("dense", _densified, self)

    def to_fraction_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for i, j, v in self.triples():
            out[i][j] = v
        return out

    def triples(self):
        """Yield (i, j, Fraction) over nonzero entries, row-major order."""
        indptr, indices, data = self._arrays()
        for i, j, v in zip(_row_ids(indptr).tolist(), indices.tolist(), data.tolist()):
            yield i, j, Fraction(v, self._den)

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols}, nnz={self.nnz})"

    # -- echelon form -------------------------------------------------------

    def rref(self):
        """Canonical reduced row echelon data: (pivot_cols, pivot_rows).

        pivot_rows[k] is a dict col->coeff for the row whose pivot is
        pivot_cols[k]; pivots are 1 and pivot columns are cleared elsewhere.
        """
        if self._rref_cache is None:
            self._rref_cache = _rref(self)
        return self._rref_cache


def _densified(m: Mat):
    out = np.zeros((m.rows, m.cols), np.float64 if m._max_abs() < 2**53 else object)
    out[_row_ids(m._ptr), m._idx] = m._data if out.dtype == np.float64 else m._data.tolist()
    out.flags.writeable = False
    return out, m._den, m._bound


def _transposed(m: Mat) -> Mat:
    """Gustavson's transposition: a counting sort on the column indices, leaving each row sorted."""
    indptr, indices, data = np.empty(m.cols + 1, _IDX), np.empty(m.nnz, _IDX), np.empty(m.nnz, np.int64)
    _sparsetools.csr_tocsc(m.rows, m.cols, *m._arrays(), indptr, indices, data)
    return _csr(m.field, (m.cols, m.rows), indptr, indices, data, m._den, m)


def _rref(m: Mat):
    """Reduced row echelon form of m's stored numerators (over Q the common
    denominator scales every row alike, so the RREF is unchanged).

    The non-zero rows are built as dicts one at a time, shortest first (then
    highest leading column first: a new pivot then tends to lie left of every
    basis row, and clears little), and each is reduced once against a basis
    kept fully reduced, so nothing cascades.  A row that reduces to zero is
    dropped; otherwise its leading column becomes a pivot, cleared from the
    basis rows that holders (column -> pivots of the rows with an entry there)
    lists.  The RREF is unique, so the order only sets the work.  Over Q the
    update is fraction-free, each new or changed row is divided by the gcd of
    its entries, and rows are divided by their pivots only on exit (Fraction
    entries, pivots Fraction(1)); over F_p basis rows have pivot 1.
    """
    p = m.field.p
    ptr, idx, data = m._arrays()
    lengths = np.diff(ptr)
    rows = np.flatnonzero(lengths)
    order = rows[np.lexsort((-idx[ptr[rows]], lengths[rows]))].tolist()
    ptr = ptr.tolist()
    basis: dict[int, dict] = {}  # pivot column -> its row
    holders: dict[int, set] = {}

    def sub(r, b, c):  # r <- (pv/g) r - (v/g) b for v = r[c], pv = b[c], g = gcd(pv, v); zeros stay
        v, pv = r[c], b[c]
        if pv != 1:  # over Q only
            g = math.gcd(pv, v)
            v //= g
            if pv != g:
                for k in r:
                    r[k] *= pv // g
        if p is None:
            for k, w in b.items():
                r[k] = r.get(k, 0) - v * w
        else:
            for k, w in b.items():
                r[k] = (r.get(k, 0) - v * w) % p

    def primitive(r):
        g = math.gcd(*r.values())
        if g != 1:
            for k in r:
                r[k] //= g

    for i in order:
        r = dict(zip(idx[ptr[i] : ptr[i + 1]].tolist(), data[ptr[i] : ptr[i + 1]].tolist()))
        for c in [k for k in r if k in basis]:
            sub(r, basis[c], c)
        r = {k: w for k, w in r.items() if w}
        if not r:
            continue
        c = min(r)
        if p is None:
            primitive(r)
        elif r[c] != 1:
            inv = pow(r[c], p - 2, p)
            r = {k: w * inv % p for k, w in r.items()}
        targets = list(holders.get(c, ()))
        for k in r:
            holders.setdefault(k, set()).add(c)
        for d in targets:
            b = basis[d]
            sub(b, r, c)
            for k in r:
                if b[k]:
                    holders[k].add(d)
                else:
                    del b[k]
                    holders[k].discard(d)
            if p is None:
                primitive(b)
        basis[c] = r
    piv = sorted(basis.items())
    if p is None:
        return tuple(c for c, _ in piv), [{k: Fraction(w, r[c]) for k, w in r.items()} for c, r in piv]
    return tuple(c for c, _ in piv), [r for _, r in piv]


# -- public operations ------------------------------------------------------


def rank(m: Mat) -> int:
    return len(m.rref()[0])


def kernel_basis(m: Mat) -> Mat:
    """Null space basis in reduced echelon form: column j is the vector of the
    j-th free column."""
    piv_cols, piv_rows = m.rref()
    piv_set = set(piv_cols)
    free = {fc: j for j, fc in enumerate(fc for fc in range(m.cols) if fc not in piv_set)}
    entries = [(fc, j, 1) for fc, j in free.items()]
    # a reduced pivot row holds its pivot and otherwise only free columns
    entries += [(c, free[k], -v) for c, row in zip(piv_cols, piv_rows) for k, v in row.items() if k != c]
    return _from_rref_entries(m.field, m.cols, len(free), entries)


def _from_rref_entries(field, rows, cols, entries) -> Mat:
    """The rows x cols matrix holding the (row, col, value) entries, positions
    distinct; values are canonical RREF data (Fractions or ints over Q, ints
    over F_p)."""
    entries = sorted(entries)
    den = math.lcm(*(v.denominator for _, _, v in entries))
    data = [v.numerator * (den // v.denominator) for _, _, v in entries]
    if any(abs(x) >= _I64_GUARD for x in data):
        raise StructureParseError("coefficients too large for the engine")
    indptr = np.searchsorted(np.array([i for i, _, _ in entries], np.int64), np.arange(rows + 1))
    indices = np.array([j for _, j, _ in entries], _IDX)
    return _csr(field, (rows, cols), indptr, indices, np.array(data, np.int64), den)


def image_basis(m: Mat) -> Mat:
    """Basis of the column space: the original columns at pivot positions."""
    return m.select_columns(list(m.rref()[0]))


def solve(m: Mat, b: Mat) -> Mat | None:
    """Some x with m @ x = b, or None when a column of b is outside the
    column space of m.

    b may have any number of columns: [m | b] is eliminated once, and column
    j of x is the solution that sets the free variables of m to zero, the
    answer a solve of column j alone gives.
    """
    m._check_field(b)
    if b.rows != m.rows:
        raise ShapeMismatchError("right-hand side has wrong shape")
    piv_cols, piv_rows = hstack([m, b]).rref()
    if piv_cols and piv_cols[-1] >= m.cols:  # a pivot in b: 0 = 1 in some column
        return None
    entries = [(c, k - m.cols, v) for c, row in zip(piv_cols, piv_rows) for k, v in row.items() if k >= m.cols]
    return _from_rref_entries(m.field, m.cols, b.cols, entries)


def from_blocks(field, rows, cols, blocks) -> Mat:
    """The rows x cols matrix holding each (row_off, col_off, m) block at its offset.

    No two blocks share a cell: an h x w block at (r, c) covers rows r..r+h-1
    and columns c..c+w-1, and a cell covered twice raises ShapeMismatchError,
    whatever the blocks store there.  Row lengths are summed first; then the
    blocks, in column-offset order, write their entries straight into their
    CSR slots, rescaled to one common denominator under addition's int64 guard.
    """
    blocks = sorted(blocks, key=lambda block: block[1])
    den = math.lcm(*(m._den for _, _, m in blocks))
    indptr, edge = np.zeros(rows + 1, np.int64), np.zeros(rows, np.int64)  # edge: end column of a row's blocks
    for r, c, m in blocks:
        if m.field != field:
            raise FieldMismatchError(f"{m.field} block in a {field} matrix")
        if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
            raise ShapeMismatchError(f"{m.rows}x{m.cols} block at ({r},{c}) outside {rows}x{cols}")
        if m._max_abs() * (den // m._den) >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        if m.cols:
            if edge[r : r + m.rows].max(initial=c) > c:
                raise ShapeMismatchError("overlapping blocks")
            edge[r : r + m.rows] = c + m.cols
        indptr[r + 1 : r + m.rows + 1] += m._ptr[1:] - m._ptr[:-1]
    indptr = indptr.cumsum()
    fill = indptr[:-1].copy()  # each row's next free slot
    indices, data = np.empty(indptr[-1], _IDX), np.empty(indptr[-1], np.int64)
    for r, c, m in blocks:
        counts = m._ptr[1:] - m._ptr[:-1]
        slots = np.arange(m.nnz) + (fill[r : r + m.rows] - m._ptr[:-1]).repeat(counts)
        indices[slots], data[slots] = m._idx + np.int64(c), m._data * (den // m._den)  # _csr checks the width
        fill[r : r + m.rows] += counts
    return _csr(field, (rows, cols), indptr, indices, data, den)


def hstack(mats: list[Mat]) -> Mat:
    if not mats or any(m.rows != mats[0].rows for m in mats):
        raise ShapeMismatchError("hstack needs one or more matrices of one height")
    offsets = list(accumulate((m.cols for m in mats), initial=0))
    return from_blocks(mats[0].field, mats[0].rows, offsets[-1], [(0, off, m) for off, m in zip(offsets, mats)])


def vstack(mats: list[Mat]) -> Mat:
    if not mats or any(m.cols != mats[0].cols for m in mats):
        raise ShapeMismatchError("vstack needs one or more matrices of one width")
    offsets = list(accumulate((m.rows for m in mats), initial=0))
    return from_blocks(mats[0].field, offsets[-1], mats[0].cols, [(off, 0, m) for off, m in zip(offsets, mats)])


def _is_identity(m: Mat) -> bool:
    """Is m the Mat.identity object (not merely equal to it)?"""
    return m.rows == m.cols == m.nnz and _IDENTITY_CACHE.get((m.field, m.rows)) is m


def _padded(factors, k: int) -> Mat:
    """The Kronecker product I_p (x) x (x) I_q of factors, all identities but
    x = factors[k], built once per (p, q) and cached on x."""
    x, p, q = factors[k], math.prod(f.rows for f in factors[:k]), math.prod(f.rows for f in factors[k + 1 :])
    if p == q == 1:
        return x  # nothing to pad: Mats are immutable
    return x._derive((p, q), _pad, x, p, q)


def _pad(x: Mat, p: int, q: int) -> Mat:
    """I_p (x) x (x) I_q written straight in CSR order: row (i, s) of x (x) I_q
    holds row i of x with columns j * q + s, and I_p repeats those rows p
    times with column offsets.  The entries are x's, so no guard is needed."""
    indptr, indices, data = x._arrays()
    if q != 1:
        counts = (indptr[1:] - indptr[:-1]).repeat(q)
        out_row = np.arange(x.rows * q).repeat(counts)
        new_ptr = np.concatenate(([0], counts.cumsum()))
        src = indptr[out_row // q] + np.arange(new_ptr[-1]) - new_ptr[out_row]  # the entry of x each one copies
        indptr, indices, data = new_ptr, indices[src].astype(np.int64) * q + out_row % q, data[src]
    if p != 1:
        offsets = np.arange(p)[:, None]
        indptr = np.concatenate(((indptr[:-1] + offsets * data.size).ravel(), [p * data.size]))
        indices, data = (indices + offsets * (x.cols * q)).ravel(), data[None].repeat(p, 0).ravel()
    return _csr(x.field, (p * x.rows * q, p * x.cols * q), indptr, indices, data, x._den, x)


def kron(*factors: Mat) -> Mat:
    """Kronecker product of one or more factors; the leftmost is most significant.

    A product of Mat.identity factors is the cached identity, and when every
    factor but one is a Mat.identity, _padded writes the product (or returns
    that factor when nothing pads it).
    Otherwise row (i, k) of A (x) B is A[i] (x) B[k], so its entries are
    written straight in CSR order, with no sort.  The guard is on the product
    of the factors' stored numerators; over F_p each step is reduced mod p
    first.
    """
    first = factors[0]
    field = first.field
    for f in factors[1:]:
        first._check_field(f)
    cores = [k for k, f in enumerate(factors) if not _is_identity(f)]
    if not cores:
        return Mat.identity(field, math.prod(f.rows for f in factors))
    if len(cores) == 1:
        return _padded(factors, cores[0])
    rows, cols, den = first.rows, first.cols, first._den
    indptr, indices, data = first._arrays()
    bound = first._max_abs()
    for f in factors[1:]:
        bound *= f._max_abs()
        if bound >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        bp, bj, bx = f._arrays()
        nb = bp[1:] - bp[:-1]
        counts = ((indptr[1:] - indptr[:-1])[:, None] * nb).ravel()
        new_ptr = np.concatenate(([0], counts.cumsum()))
        out_row = np.arange(counts.size).repeat(counts)
        ia, ib = np.divmod(out_row, f.rows)
        q, r = np.divmod(np.arange(new_ptr[-1]) - new_ptr[out_row], nb[ib])
        ka, kb = indptr[ia] + q, bp[ib] + r
        indptr, indices, data = new_ptr, indices[ka].astype(np.int64) * f.cols + bj[kb], data[ka] * bx[kb]
        rows, cols, den = rows * f.rows, cols * f.cols, den * f._den
        if field.kind == "Fp":
            data %= field.p
            bound = field.p - 1
    return _csr(field, (rows, cols), indptr, indices, data, den)


def middle_operator(left: Mat, dl: int, f_rows: int, f_cols: int, dr: int, right: Mat) -> Mat:
    """Operator of F |--> left @ (I_dl (x) F (x) I_dr) @ right.

    left must have dl * f_rows * dr columns and right dl * f_cols * dr rows;
    the result maps the row-major flattening vec(F) (length f_rows * f_cols)
    to that of the composite (left.rows x right.cols).

    Entry ((x, y), (i, j)) is the sum over the identity blocks (a, b) of
    left[x, (a, i, b)] * right[(a, j, b), y], so the operator is one join of
    the entries of left and right on (a, b).  Each entry sums at most dl * dr
    products; past that bound the engine raises like kron does.
    """
    if left.cols != dl * f_rows * dr:
        raise ShapeMismatchError("left factor width mismatch")
    if right.rows != dl * f_cols * dr:
        raise ShapeMismatchError("right factor height mismatch")
    left._check_field(right)
    if dl == dr == 1:  # F -> F @ right is I (x) right^T, and F -> left @ F is left (x) I
        if _is_identity(left):
            return kron(left, right.transpose())
        if _is_identity(right):
            return kron(left, right)
    field = left.field
    # over F_p each product is reduced below p before the sum
    term_bound = field.p - 1 if field.kind == "Fp" else left._max_abs() * right._max_abs()
    if term_bound * dl * dr >= _I64_GUARD:
        raise StructureParseError("entry growth beyond engine bounds")
    lp, lj, lx = left._arrays()
    rp, rj, rx = right._arrays()
    l_col, r_row = lj.astype(np.int64), _row_ids(rp)
    l_key = l_col // (f_rows * dr) * dr + l_col % dr
    r_key = r_row // (f_cols * dr) * dr + r_row % dr
    shape = (left.rows * right.cols, f_rows * f_cols)
    # each side's share of the output key (x * right.cols + y) * F + i * f_cols + j, once per
    # entry (the right side's in block order); the k-th pair of left entry e with an entry of
    # right in its block takes the right entry at block-order position first[e] + k
    l_share = _row_ids(lp) * (right.cols * shape[1]) + l_col // dr % f_rows * f_cols
    r_order = r_key.argsort(kind="stable")
    r_share, r_vals = (rj.astype(np.int64) * shape[1] + r_row // dr % f_cols)[r_order], rx[r_order]
    r_count = np.bincount(r_key, minlength=dl * dr)
    reps = r_count[l_key]
    first = (r_count.cumsum() - r_count)[l_key] - (reps.cumsum() - reps)
    pos = np.arange(reps.sum()) + first.repeat(reps)
    key = l_share.repeat(reps) + r_share[pos]
    data = lx.repeat(reps) * r_vals[pos]
    if field.kind == "Fp":
        data %= field.p
    return _csr(field, shape, *_sorted_coo(shape, key, data), left._den * right._den)


def quotient_with_projection(sub: Mat, big: Mat):
    """Complete the column span of sub to that of big; return (chosen, reduce).

    chosen holds the columns of big that complete sub.  reduce maps a matrix
    whose columns lie in span(big) to the matrix of their coordinates on
    chosen modulo span(sub) (chosen.cols x columns), with one elimination for
    all columns.  Raises InconsistentQuotientError when span(sub) is not
    contained in span(big) or a column fed to reduce is outside span(big).
    """
    piv_cols, _ = hstack([sub, big]).rref()
    if len(piv_cols) != rank(big):
        raise InconsistentQuotientError("span(sub) not contained in span(big)")
    # pivot columns past the sub block are exactly the greedy completion of
    # sub to a basis of span(big), scanning big in the given order
    chosen = big.select_columns([j - sub.cols for j in piv_cols if j >= sub.cols])
    combined = hstack([sub, chosen])

    def reduce(vs: Mat) -> Mat:
        x = solve(combined, vs)
        if x is None:
            raise InconsistentQuotientError("vector outside span(big)")
        return x.select_rows(slice(sub.cols, None))

    return chosen, reduce
