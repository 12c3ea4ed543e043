"""Exact dense/sparse linear algebra over Q and prime fields.

Matrices are stored as scipy integer sparse matrices together with a single
positive denominator, so a matrix is num/den entrywise.  All arithmetic is
exact and guarded against int64 overflow: matrix products and sums fall back
to arbitrary-precision Python integers when a bound is exceeded (the result
must still fit the storage), while scalings and Kronecker products raise
StructureParseError instead (neither happens for the structure constants
handled here).

Stacking and re-indexing (from_blocks, Mat.reshape) work on the numerators
over one common denominator; Mat.from_triples and Mat.triples() are the parse
and serialize boundary, where entries are Fractions.

Rank / kernel / image / solve go through one sparse RREF driver, _rref, for
both fields: integer rows in (stored numerators over Q, residues over F_p),
canonical rows out (Fraction entries over Q, residues mod p over F_p).  RREF
is canonical, which keeps every downstream computation reproducible bit for bit.

This module is the only reader of the storage format, so it also builds
middle_operator (re-exported by homspace) beside kron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .errors import (
    FieldMismatchError,
    InconsistentQuotientError,
    ShapeMismatchError,
    StructureParseError,
)

_I64_GUARD = 2**62
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
    frac = parse_coeff(value)
    if field.kind == "Q":
        return frac.numerator, frac.denominator
    p = field.p
    if frac.denominator % p == 0:
        raise StructureParseError(f"denominator of {frac} not invertible mod {p}")
    num = frac.numerator * pow(frac.denominator, p - 2, p) % p
    return num, 1


class Mat:
    """Immutable exact matrix over a FieldSpec; no zero entry is stored."""

    __slots__ = ("field", "rows", "cols", "_num", "_den", "_rref_cache")

    def __init__(self, field: FieldSpec, num, den: int = 1):
        if den <= 0:
            num, den = -num, -den
        self.field = field
        self._num = num.tocsr() if not sp.issparse(num) or num.format != "csr" else num
        if self._num.dtype != np.int64:
            # scipy returns float64 for some degenerate kron/stack results
            if self._num.nnz and not np.all(self._num.data == np.trunc(self._num.data)):
                raise ShapeMismatchError("non-integer data reached the integer engine")
            self._num = self._num.astype(np.int64)
        self._num.sum_duplicates()
        self.rows, self.cols = self._num.shape
        if field.kind == "Fp":
            if den != 1:
                inv = pow(den % field.p, field.p - 2, field.p)
                self._num = self._mod(self._num * inv)
                den = 1
            else:
                self._num = self._mod(self._num)
        self._den = den
        self._rref_cache = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def zeros(field, rows, cols) -> "Mat":
        return Mat(field, sp.csr_matrix((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field, n) -> "Mat":
        key = (field, n)
        cached = _IDENTITY_CACHE.get(key)
        if cached is None:
            cached = Mat(field, sp.identity(n, dtype=np.int64, format="csr"))
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
        ii, jj = zip(*keys) if keys else ((), ())
        m = sp.coo_matrix((np.array(data, dtype=np.int64), (ii, jj)), shape=(rows, cols))
        return Mat(field, m.tocsr(), den)

    @staticmethod
    def from_rows(field, rows_data) -> "Mat":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        triples = []
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ShapeMismatchError("ragged rows")
            for j, v in enumerate(row):
                triples.append((i, j, v))
        return Mat.from_triples(field, rows, cols, triples)

    @staticmethod
    def column(field, values) -> "Mat":
        return Mat.from_rows(field, [[v] for v in values])

    # -- helpers -----------------------------------------------------------

    def _mod(self, num):
        num = num.tocsr()
        num.data %= self.field.p
        num.eliminate_zeros()
        return num

    def _max_abs(self) -> int:
        if self._num.nnz == 0:
            return 0
        return int(np.abs(self._num.data).max())

    def _check_field(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def normalized(self) -> "Mat":
        if self._den == 1:
            return self
        if self._num.nnz == 0:
            return Mat(self.field, self._num, 1)
        g = int(np.gcd.reduce(np.abs(self._num.data)))
        g = math.gcd(g, self._den)
        if g <= 1:
            return self
        num = self._num.copy()
        num.data //= g
        return Mat(self.field, num, self._den // g)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bound = self._max_abs() * other._max_abs() * max(self.cols, 1)
        if bound < _I64_GUARD:
            num = self._num @ other._num
            return Mat(self.field, num, self._den * other._den).normalized()
        return self._slow_matmul(other)

    def _slow_matmul(self, other: "Mat") -> "Mat":
        a = self._num.tocoo()
        rows_map: dict[int, dict[int, int]] = {}
        for i, j, v in zip(a.row, a.col, a.data):
            rows_map.setdefault(int(i), {})[int(j)] = int(v)
        b = other._num.tocsr()
        triples = []
        for i, arow in rows_map.items():
            acc: dict[int, int] = {}
            for k, av in arow.items():
                start, end = b.indptr[k], b.indptr[k + 1]
                for idx in range(start, end):
                    j = int(b.indices[idx])
                    acc[j] = acc.get(j, 0) + av * int(b.data[idx])
            for j, v in acc.items():
                if v:
                    triples.append((i, j, Fraction(v, self._den * other._den)))
        return Mat.from_triples(self.field, self.rows, other.cols, triples)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("shape mismatch in addition")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        if max(self._max_abs() * fa, other._max_abs() * fb) < _I64_GUARD:
            return Mat(self.field, self._num * fa + other._num * fb, den).normalized()
        # the aligned numerators would overflow: from_triples sums the entries exactly
        return Mat.from_triples(self.field, self.rows, self.cols, [*self.triples(), *other.triples()])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(self.field, -self._num, self._den)

    def scale(self, value) -> "Mat":
        n, d = _coeff_to_field(self.field, value)
        if n == 0:
            return Mat.zeros(self.field, self.rows, self.cols)
        if abs(n) * self._max_abs() >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        return Mat(self.field, self._num * n, self._den * d).normalized()

    def reshape(self, rows, cols) -> "Mat":
        """The same entries read row-major into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        coo = self._num.tocoo()
        flat = coo.row.astype(np.int64) * self.cols + coo.col
        num = sp.csr_matrix((coo.data, (flat // cols, flat % cols)), shape=(rows, cols))
        return Mat(self.field, num, self._den).normalized()

    def transpose(self) -> "Mat":
        return Mat(self.field, self._num.transpose().tocsr(), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # a normalised matrix is unique (over Q its denominator is the lcm of
        # its entries' denominators), so equality needs no arithmetic
        a, b = self.normalized(), other.normalized()
        return a._den == b._den and (a._num != b._num).nnz == 0

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def is_zero(self) -> bool:
        return self._num.nnz == 0

    @property
    def nnz(self) -> int:
        return self._num.nnz

    def entry(self, i, j) -> Fraction:
        return Fraction(int(self._num[i, j]), self._den)

    def col_vector(self, j) -> "Mat":
        return Mat(self.field, self._num[:, j].tocsr(), self._den)

    def select_columns(self, idx) -> "Mat":
        return Mat(self.field, self._num[:, idx].tocsr(), self._den)

    def select_rows(self, idx) -> "Mat":
        return Mat(self.field, self._num[idx, :].tocsr(), self._den)

    def to_fraction_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        coo = self._num.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            out[int(i)][int(j)] = Fraction(int(v), self._den)
        return out

    def triples(self):
        """Yield (i, j, Fraction) over nonzero entries, row-major order."""
        csr = self._num
        for i in range(self.rows):
            for idx in range(csr.indptr[i], csr.indptr[i + 1]):
                yield i, int(csr.indices[idx]), Fraction(int(csr.data[idx]), self._den)

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols}, nnz={self.nnz})"

    # -- echelon form -------------------------------------------------------

    def _row_dicts(self):
        """One dict col -> stored non-zero integer per row; dropping the common
        denominator over Q scales every row alike, so the RREF is unchanged."""
        csr = self._num
        ptr, cols, vals = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
        return [dict(zip(cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]])) for i in range(self.rows)]

    def rref(self):
        """Canonical reduced row echelon data: (pivot_cols, pivot_rows).

        pivot_rows[k] is a dict col->coeff for the row whose pivot is
        pivot_cols[k]; pivots are 1 and pivot columns are cleared elsewhere.
        """
        if self._rref_cache is None:
            self._rref_cache = _rref(self._row_dicts(), self.cols, self.field.p)
        return self._rref_cache


def _rref(rows, ncols, p=None):
    """Reduced row echelon form of integer row dicts over Q (p None) or F_p.

    Entries are non-zero ints, residues in [1, p) over F_p; the rows are
    consumed.  index[c] holds the ids of all rows with an entry in column c,
    pivot rows included, kept exact as entries fill in or cancel: its
    unpivoted rows are the pivot candidates, the others the rows to clear.
    The pivot is a row holding a unit (+-1) there if any, then the shortest,
    then the first: that choice only sets the work, because the RREF is
    unique.  Over Q the update r <- (pv/g) r - (v/g) prow is fraction-free and
    r is then divided by the gcd of its entries; pivot rows are divided by
    their pivots only on exit (Fraction entries, pivots Fraction(1)).
    """
    units = (1, -1) if p is None else (1, p - 1)
    index = [set() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for k in r:
            index[k].add(i)
    pivoted = [False] * len(rows)
    piv = []
    for c in range(ncols):
        hits = index[c]
        cands = [i for i in hits if not pivoted[i]]
        if not cands:
            continue
        i = min(cands, key=lambda i: (rows[i][c] not in units, len(rows[i]), i))
        pivoted[i] = True
        prow, pv = rows[i], rows[i][c]
        if p is not None and pv != 1:
            inv = pow(pv, p - 2, p)
            prow = rows[i] = {k: w * inv % p for k, w in prow.items()}
            pv = 1
        for j in list(hits):
            if j == i:
                continue
            r = rows[j]
            v = r[c]
            if pv != 1:  # over Q only (F_p pivots are 1 by now): r <- (pv/g) r first
                g = math.gcd(pv, v)
                v //= g
                if pv != g:
                    a = pv // g
                    for k in r:
                        r[k] *= a
            for k, w in prow.items():
                nv = r.get(k, 0) - v * w
                if p is not None:
                    nv %= p
                if nv:
                    if k not in r:
                        index[k].add(j)
                    r[k] = nv
                else:
                    del r[k]
                    index[k].discard(j)
            if p is None and r:
                g = math.gcd(*r.values())
                if g != 1:
                    for k in r:
                        r[k] //= g
        piv.append((c, prow))
    if p is None:
        return tuple(c for c, _ in piv), [{k: Fraction(w, r[c]) for k, w in r.items()} for c, r in piv]
    return tuple(c for c, _ in piv), [r for _, r in piv]


# -- public operations ------------------------------------------------------


def rank(m: Mat) -> int:
    return len(m.rref()[0])


def kernel_basis(m: Mat) -> list[Mat]:
    """Null space basis in reduced echelon form, one vector per free column."""
    piv_cols, piv_rows = m.rref()
    piv_set = set(piv_cols)
    free = {fc: [(fc, 0, 1)] for fc in range(m.cols) if fc not in piv_set}
    # a reduced pivot row holds its pivot and otherwise only free columns
    for c, row in zip(piv_cols, piv_rows):
        for k, v in row.items():
            if k != c:
                free[k].append((c, 0, -v))
    return [Mat.from_triples(m.field, m.cols, 1, triples) for triples in free.values()]


def image_basis(m: Mat) -> list[Mat]:
    """Basis of the column space: the original columns at pivot positions."""
    piv_cols, _ = m.rref()
    return [m.col_vector(j) for j in piv_cols]


def solve(m: Mat, b: Mat) -> Mat | None:
    """Some x with m @ x = b, or None when the system is inconsistent."""
    m._check_field(b)
    if b.rows != m.rows or b.cols != 1:
        raise ShapeMismatchError("right-hand side has wrong shape")
    aug = hstack([m, b])
    piv_cols, piv_rows = aug.rref()
    triples = []
    for c, row in zip(piv_cols, piv_rows):
        if c == m.cols:
            return None
        v = row.get(m.cols)
        if v:
            triples.append((c, 0, v))
    return Mat.from_triples(m.field, m.cols, 1, triples)


def from_blocks(field, rows, cols, blocks) -> Mat:
    """The rows x cols matrix holding each (row_off, col_off, m) block at its offset.

    Blocks must not overlap.  The numerators are rescaled to one common
    denominator, under the same int64 guard as addition.
    """
    den = math.lcm(*(m._den for _, _, m in blocks))
    ii, jj, data = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for r, c, m in blocks:
        if m.field != field:
            raise FieldMismatchError(f"{m.field} block in a {field} matrix")
        if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
            raise ShapeMismatchError(f"{m.rows}x{m.cols} block at ({r},{c}) outside {rows}x{cols}")
        scale = den // m._den
        if m._max_abs() * scale >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        coo = m._num.tocoo()
        ii.append(coo.row.astype(np.int64) + r)
        jj.append(coo.col.astype(np.int64) + c)
        data.append(coo.data * scale)
    data = np.concatenate(data)
    num = sp.csr_matrix((data, (np.concatenate(ii), np.concatenate(jj))), shape=(rows, cols))
    if num.nnz != data.size:
        raise ShapeMismatchError("overlapping blocks")
    num.eliminate_zeros()
    return Mat(field, num, den).normalized()


def from_columns(field, length, columns) -> Mat:
    if any(col.rows != length or col.cols != 1 for col in columns):
        raise ShapeMismatchError("column of wrong length")
    return from_blocks(field, length, len(columns), [(0, j, col) for j, col in enumerate(columns)])


def hstack(mats: list[Mat]) -> Mat:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatchError("mixed heights in hstack")
    offsets = list(accumulate((m.cols for m in mats), initial=0))
    return from_blocks(mats[0].field, rows, offsets[-1], [(0, off, m) for off, m in zip(offsets, mats)])


def vstack(mats: list[Mat]) -> Mat:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatchError("mixed widths in vstack")
    offsets = list(accumulate((m.rows for m in mats), initial=0))
    return from_blocks(mats[0].field, offsets[-1], cols, [(off, 0, m) for off, m in zip(offsets, mats)])


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; leftmost tensor factor is most significant."""
    a._check_field(b)
    if a._max_abs() * b._max_abs() >= _I64_GUARD:
        raise StructureParseError("entry growth beyond engine bounds")
    shape = (a.rows * b.rows, a.cols * b.cols)
    A, B = a._num.tocoo(), b._num.tocoo()
    if A.nnz == 0 or B.nnz == 0:
        return Mat(a.field, sp.csr_matrix(shape, dtype=np.int64), 1)
    # vectorized COO outer product: much faster than scipy's kron for the
    # many small factors composed here
    row = (A.row.astype(np.int64)[:, None] * b.rows + B.row[None, :]).ravel()
    col = (A.col.astype(np.int64)[:, None] * b.cols + B.col[None, :]).ravel()
    data = (A.data[:, None] * B.data[None, :]).ravel()
    num = sp.csr_matrix((data, (row, col)), shape=shape)
    return Mat(a.field, num, a._den * b._den).normalized()


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
    field = left.field
    # over F_p each product is reduced below p before the sum
    term_bound = field.p - 1 if field.kind == "Fp" else left._max_abs() * right._max_abs()
    if term_bound * dl * dr >= _I64_GUARD:
        raise StructureParseError("entry growth beyond engine bounds")
    lo, ro = left._num.tocoo(), right._num.tocoo()
    l_key = lo.col // (f_rows * dr) * dr + lo.col % dr
    r_key = ro.row // (f_cols * dr) * dr + ro.row % dr
    # pair each entry of left with every entry of right in its block
    r_order = np.argsort(r_key, kind="stable")
    r_count = np.bincount(r_key, minlength=dl * dr)
    r_start = np.cumsum(r_count) - r_count
    reps = r_count[l_key]
    li = np.repeat(np.arange(lo.nnz), reps)
    within = np.arange(li.size) - np.repeat(np.cumsum(reps) - reps, reps)
    ri = r_order[r_start[l_key[li]] + within]
    rows = lo.row[li].astype(np.int64) * right.cols + ro.col[ri]
    cols = (lo.col[li] // dr % f_rows).astype(np.int64) * f_cols + ro.row[ri] // dr % f_cols
    data = lo.data[li] * ro.data[ri]
    if field.kind == "Fp":
        data %= field.p
    num = sp.csr_matrix((data, (rows, cols)), shape=(left.rows * right.cols, f_rows * f_cols))
    num.eliminate_zeros()
    return Mat(field, num, left._den * right._den).normalized()


def quotient_with_projection(sub: list[Mat], big: list[Mat], field=None, length=None):
    """Complete span(sub) to span(big); return (class_basis, reduce).

    reduce maps any vector of span(big) to its coordinates on class_basis
    modulo span(sub).  Raises InconsistentQuotientError when span(sub) is not
    contained in span(big) or reduce is fed a vector outside span(big).
    """
    if not sub and not big:
        if field is None:
            raise ShapeMismatchError("empty quotient needs explicit field/length")

        def reduce_zero(v: Mat):
            if not v.is_zero():
                raise InconsistentQuotientError("vector outside span(big)")
            return ()

        return [], reduce_zero
    probe = (big or sub)[0]
    field = probe.field
    length = probe.rows
    big_mat = from_columns(field, length, big)
    sub_mat = from_columns(field, length, sub)
    scan = hstack([sub_mat, big_mat])
    piv_cols, _ = scan.rref()
    if len(piv_cols) != rank(big_mat):
        raise InconsistentQuotientError("span(sub) not contained in span(big)")
    # pivot columns past the sub block are exactly the greedy completion of
    # sub to a basis of span(big), scanning big in the given order
    chosen = [big[j - len(sub)] for j in piv_cols if j >= len(sub)]
    class_mat = from_columns(field, length, chosen)
    combined = hstack([sub_mat, class_mat])

    def reduce(v: Mat):
        x = solve(combined, v)
        if x is None:
            raise InconsistentQuotientError("vector outside span(big)")
        return tuple(x.entry(len(sub) + k, 0) for k in range(len(chosen)))

    return chosen, reduce
