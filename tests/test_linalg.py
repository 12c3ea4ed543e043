"""Exact linear algebra kernel: ranks, kernels, quotients, Kronecker products."""

import ast
import gc
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse._base as sparse_base
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entwine.errors import (
    FieldMismatchError,
    InconsistentQuotientError,
    ShapeMismatchError,
    StructureParseError,
)
from entwine.linalg import (
    _I64_GUARD,
    QQ,
    FieldSpec,
    Mat,
    _csr,
    _row_ids,
    _sorted_coo,
    from_blocks,
    hstack,
    image_basis,
    kernel_basis,
    kron,
    middle_operator,
    parse_coeff,
    quotient_with_projection,
    rank,
    solve,
    vstack,
)
from entwine.complexes import build_ApsiCV, build_CpsiAM
from entwine.structures import LinearMap, regular_bicomodule, regular_bimodule
from entwine.zoo import bialgebra_self_entwining, group_algebra_hopf, named_example, trivial_entwining

F7 = FieldSpec.prime(7)


def mat(rows, field=QQ):
    return Mat.from_rows(field, rows)


def test_field_spec_parse_and_str():
    assert str(FieldSpec.parse("Q")) == "Q"
    assert FieldSpec.parse("Fp:11").p == 11
    with pytest.raises(StructureParseError):
        FieldSpec.parse("Fp:4")
    with pytest.raises(StructureParseError):
        FieldSpec.parse("R")


def test_prime_field_bound():
    # p < 2^31 keeps a product of two reduced entries inside int64
    assert FieldSpec.parse("Fp:2147483647").p == 2**31 - 1
    started = time.perf_counter()
    with pytest.raises(StructureParseError, match="too large"):
        FieldSpec.parse(f"Fp:{2**61 - 1}")
    assert time.perf_counter() - started < 1.0
    with pytest.raises(ValueError):
        FieldSpec.prime(4294967311)


def test_parse_coeff():
    assert parse_coeff("3/4") == Fraction(3, 4)
    assert parse_coeff("-2") == Fraction(-2)
    with pytest.raises(StructureParseError):
        parse_coeff("1/0")
    with pytest.raises(StructureParseError):
        parse_coeff("x")


def test_rank_identity_and_zero():
    assert rank(Mat.identity(QQ, 2)) == 2
    assert rank(Mat.zeros(QQ, 2, 2)) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first, so rank 1.
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(QQ, 3)) == Mat.zeros(QQ, 3, 0)


def test_kernel_zero_matrix_standard_basis():
    ker = kernel_basis(Mat.zeros(QQ, 2, 3))
    assert ker.cols == 3
    for j in range(3):
        assert [ker.entry(i, j) for i in range(3)] == [int(i == j) for i in range(3)]


def test_kernel_hand_solved():
    # [[1,1]] x = 0  =>  x spans (1,-1).
    v = kernel_basis(mat([[1, 1]]))
    assert v.cols == 1
    assert v.entry(0, 0) == -v.entry(1, 0) != 0


def test_image_basis():
    assert image_basis(Mat.identity(QQ, 2)).cols == 2
    assert image_basis(Mat.zeros(QQ, 3, 2)) == Mat.zeros(QQ, 3, 0)
    im = image_basis(mat([[1, 2], [2, 4]]))
    assert im.cols == 1
    assert im.entry(1, 0) == 2 * im.entry(0, 0)


def test_solve_identity_and_inconsistent():
    b = Mat.column(QQ, [2, 3])
    assert solve(Mat.identity(QQ, 2), b) == b
    assert solve(Mat.zeros(QQ, 2, 2), b) is None


def test_solve_scalar_division():
    x = solve(mat([[2]]), Mat.column(QQ, [1]))
    assert x.entry(0, 0) == Fraction(1, 2)


def test_solve_checks_shapes():
    from entwine.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        solve(Mat.identity(QQ, 2), Mat.column(QQ, [1, 2, 3]))


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        mat([[1]]) @ mat([[1]], field=F7)


def test_kron_identity():
    assert kron(Mat.identity(QQ, 2), Mat.identity(QQ, 2)) == Mat.identity(QQ, 4)


def test_kron_scalar_factor():
    a = mat([[1, 2], [3, 4]])
    c = mat([[5]])
    assert kron(a, c) == a.scale(5)
    assert kron(c, a) == a.scale(5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=16, max_size=16).map(lambda xs: [xs[:4], xs[4:8], xs[8:12], xs[12:]]))
def test_kron_mixed_product_property(entries):
    # (a (x) b)(c (x) d) = ac (x) bd on random 2x2 blocks.
    a, b = mat(entries[:2]).__class__, None  # noqa: F841  (keep hypothesis payload obvious)
    a = mat([entries[0][:2], entries[1][:2]])
    b = mat([entries[0][2:], entries[1][2:]])
    c = mat([entries[2][:2], entries[3][:2]])
    d = mat([entries[2][2:], entries[3][2:]])
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def _kernel_vectors(m: Mat) -> list[Mat]:
    """Oracle for kernel_basis: the null space vector of each free column, one
    Mat apiece, read off the reduced echelon form."""
    piv_cols, piv_rows = m.rref()
    free = {fc: [(fc, 0, 1)] for fc in range(m.cols) if fc not in piv_cols}
    # a reduced pivot row holds its pivot and otherwise only free columns
    for c, row in zip(piv_cols, piv_rows):
        for k, v in row.items():
            if k != c:
                free[k].append((c, 0, -v))
    return [Mat.from_triples(m.field, m.cols, 1, entries) for entries in free.values()]


@st.composite
def _small_matrix(draw):
    field = draw(st.sampled_from([QQ, F7]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return Mat.from_triples(field, rows, cols, [(k // cols, k % cols, v) for k, v in enumerate(entries)])


@settings(max_examples=40, deadline=None)
@given(_small_matrix())
@example(Mat.zeros(QQ, 0, 3))
@example(Mat.zeros(F7, 0, 2))
@example(Mat.from_rows(QQ, [[], [], []]))
@example(Mat.zeros(F7, 2, 0))
def test_rank_nullity_property(m):
    k, r = kernel_basis(m), rank(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.cols == m.cols - r
    oracle = _kernel_vectors(m)
    assert len(oracle) == k.cols and all(k.col_vector(j) == v for j, v in enumerate(oracle))
    im = image_basis(m)
    assert im.rows == m.rows and im.cols == r
    assert all(im.col_vector(j) == m.col_vector(c) for j, c in enumerate(m.rref()[0]))


def test_rank_mod_p_differs_from_q():
    # [[p]] has rank 1 over Q but rank 0 over F_p.
    assert rank(mat([[7]])) == 1
    assert rank(mat([[7]], field=F7)) == 0


def test_fp_inverse_in_solve():
    x = solve(mat([[3]], field=F7), Mat.column(F7, [1]))
    assert x.entry(0, 0) == 5  # 3*5 = 15 = 1 mod 7


def test_quotient_sub_equals_big():
    e1 = Mat.column(QQ, [1, 0])
    cls, red = quotient_with_projection(e1, e1)
    assert cls == Mat.zeros(QQ, 2, 0)
    assert red(e1) == Mat.zeros(QQ, 0, 1)


def test_quotient_empty_sub():
    e1 = Mat.column(QQ, [1, 0])
    cls, red = quotient_with_projection(Mat.zeros(QQ, 2, 0), e1)
    assert cls == e1
    assert red(e1) == Mat.column(QQ, [1])


def test_quotient_echelon_completion():
    # sub = {(1,0)}, big = {(1,0),(0,1)}: class rep (0,1), reduce((3,5)) = (5).
    e1 = Mat.column(QQ, [1, 0])
    e2 = Mat.column(QQ, [0, 1])
    cls, red = quotient_with_projection(e1, hstack([e1, e2]))
    assert cls == e2
    assert red(Mat.column(QQ, [3, 5])) == Mat.column(QQ, [5])


def test_quotient_containment_violation():
    e1 = Mat.column(QQ, [1, 0])
    e2 = Mat.column(QQ, [0, 1])
    with pytest.raises(InconsistentQuotientError):
        quotient_with_projection(e2, e1)


def test_exactness_reproducible():
    m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r1 = rank(m)
    m2 = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert r1 == rank(m2) == 2
    assert kernel_basis(m) == kernel_basis(m2)


def test_fraction_entries_round_trip():
    m = Mat.from_triples(QQ, 2, 2, [(0, 0, "1/2"), (1, 1, "-3/4")])
    assert m.entry(0, 0) == Fraction(1, 2)
    assert m.entry(1, 1) == Fraction(-3, 4)
    assert (m + m).entry(0, 0) == 1


def test_entry_indices_count_from_the_end_when_negative():
    m = Mat.from_triples(QQ, 2, 3, [(0, 0, "1/2"), (1, 2, "-3/4")])
    assert m.entry(-1, -1) == Fraction(-3, 4) and m.entry(-2, 0) == Fraction(1, 2)
    assert m.entry(0, -1) == 0
    for i, j in ((2, 0), (0, 3), (-3, 0), (0, -4)):
        with pytest.raises(IndexError):
            m.entry(i, j)


def test_hstack_of_columns():
    c1 = Mat.column(QQ, [1, 2])
    c2 = Mat.column(QQ, [3, 4])
    assert hstack([c1, c2]) == mat([[1, 3], [2, 4]])


@pytest.mark.parametrize("field", [QQ, F7])
def test_scale_by_zero_stores_nothing(field):
    m = mat([[1, 2], [0, 3]], field=field)
    for zero in (0, "0", 7 if field == F7 else "0/5"):
        z = m.scale(zero)
        assert z.nnz == 0 and z.is_zero()
        assert z == Mat.zeros(field, 2, 2)
    assert LinearMap((2,), (2,), m).scale(0).is_zero()


@pytest.mark.parametrize("field", [QQ, F7])
def test_cancelling_triples_store_nothing(field):
    # repeated triples are summed; a sum of zero leaves no stored entry
    m = Mat.from_triples(field, 2, 2, [(0, 0, 3), (0, 0, -3), (1, 1, 2)])
    assert m.nnz == 1 and not m.is_zero()
    assert m.rref() == ((1,), [{1: 1}])


def test_repeated_triples_are_summed_before_the_guard():
    # each triple alone is past the int64 guard on the common denominator 6,
    # their sum 1/6 is not
    big = [(0, 0, Fraction(2**61 + 1, 2)), (0, 0, Fraction(-(3 * 2**60 + 1), 3))]
    m = Mat.from_triples(QQ, 1, 1, big)
    assert m.entry(0, 0) == Fraction(1, 6)
    # a sum that is itself past the guard still raises
    with pytest.raises(StructureParseError, match="too large"):
        Mat.from_triples(QQ, 1, 1, [(0, 0, 2**61), (0, 0, 2**61)])
    # over F_p repeated triples are summed mod p
    m = Mat.from_triples(FieldSpec.prime(7), 1, 2, [(0, 0, 3), (0, 0, 4), (0, 1, 5), (0, 1, 5)])
    assert m.to_fraction_rows() == [[0, 3]]


# -- assembly: from_blocks / hstack / vstack / reshape against a
# pure-Fraction reference built from to_fraction_rows

P = 10007
FIELDS = [QQ, FieldSpec.prime(P)]


def _reference(field, rows, cols, blocks):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r, c, m in blocks:
        for i, row in enumerate(m.to_fraction_rows()):
            for j, v in enumerate(row):
                out[r + i][c + j] += v
    if field.kind == "Fp":
        out = [[Fraction(v.numerator * pow(v.denominator, -1, P) % P) for v in row] for row in out]
    return out


def _assert_matches(got: Mat, field, rows, cols, blocks):
    want = _reference(field, rows, cols, blocks)
    assert (got.field, got.rows, got.cols) == (field, rows, cols)
    assert got.to_fraction_rows() == want
    # no stored zeros, whatever the blocks held
    assert got.nnz == sum(1 for row in want for v in row if v)


# mixed denominators over Q; several zero entries so that all-zero blocks occur
_coeff = st.one_of(st.just(0), st.builds(Fraction, st.integers(-49, 49), st.integers(1, 12)))


@st.composite
def _matrix(draw, field, rows, cols):
    entries = [[draw(_coeff) for _ in range(cols)] for _ in range(rows)]
    if field.kind == "Fp":
        # keep denominators invertible mod P
        entries = [[Fraction(v.numerator) for v in row] for row in entries]
    return Mat.from_triples(
        field, rows, cols, [(i, j, v) for i, row in enumerate(entries) for j, v in enumerate(row)]
    )


def _sorted_assembly(field, rows, cols, blocks):
    """The sort-based block assembly from_blocks replaced, kept as its oracle:
    one int64 row-major key per stored entry, one stable argsort, and
    colliding stored entries (only those) raise."""
    den = math.lcm(*(m._den for _, _, m in blocks))
    keys, data = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for r, c, m in blocks:
        if m.field != field:
            raise FieldMismatchError(f"{m.field} block in a {field} matrix")
        if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
            raise ShapeMismatchError(f"{m.rows}x{m.cols} block at ({r},{c}) outside {rows}x{cols}")
        scale = den // m._den
        if m._max_abs() * scale >= _I64_GUARD:
            raise StructureParseError("entry growth beyond engine bounds")
        indptr, indices, values = m._arrays()
        keys.append((_row_ids(indptr) + r) * cols + indices + c)
        data.append(values * scale)
    stored = sum(d.size for d in data)
    indptr, indices, summed = _sorted_coo((rows, cols), np.concatenate(keys), np.concatenate(data))
    if summed.size != stored:
        raise ShapeMismatchError("overlapping blocks")
    return _csr(field, (rows, cols), indptr, indices, summed, den)


@st.composite
def _block_layout(draw):
    """Blocks in a grid of cells (heights and widths 0-3, up to four cells in a
    row band), each block drawn inside its cell at a random inset, so offsets
    are off the grid, with heights and widths from 0 and some blocks all zero;
    the list comes shuffled."""
    field = draw(st.sampled_from(FIELDS))
    heights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    blocks = []
    for a, cell_h in enumerate(heights):
        for b, cell_w in enumerate(widths):
            if draw(st.integers(0, 3)):
                # a third of the blocks are inset in their cell, the rest fill it
                h, w = (draw(st.integers(0, cell_h)), draw(st.integers(0, cell_w))) if draw(st.integers(0, 2)) == 0 else (cell_h, cell_w)
                m = draw(_matrix(field, h, w))
                if draw(st.integers(0, 4)) == 0:
                    m = m.scale(0)
                r = sum(heights[:a]) + draw(st.integers(0, cell_h - h))
                c = sum(widths[:b]) + draw(st.integers(0, cell_w - w))
                blocks.append((r, c, m))
    return field, sum(heights), sum(widths), draw(st.permutations(blocks))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F7, FieldSpec.prime(P)]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.data())
def test_many_column_solve_equals_column_by_column(field, rows, cols, rank_bound, data):
    # m = L R has rank <= rank_bound, so a random column is often outside its
    # column space; the other columns are m @ y and always consistent
    m = data.draw(_matrix(field, rows, rank_bound)) @ data.draw(_matrix(field, rank_bound, cols))
    columns = [
        data.draw(_matrix(field, rows, 1)) if data.draw(st.booleans()) else m @ data.draw(_matrix(field, cols, 1))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    b = hstack(columns) if columns else Mat.zeros(field, rows, 0)
    singles = [solve(m, column) for column in columns]
    x = solve(m, b)
    if None in singles:
        assert x is None
    else:
        assert x == (hstack(singles) if singles else Mat.zeros(field, cols, 0)) and m @ x == b


@settings(max_examples=60, deadline=None)
@given(_block_layout())
def test_from_blocks_matches_fraction_reference(layout):
    field, rows, cols, blocks = layout
    _assert_matches(from_blocks(field, rows, cols, blocks), field, rows, cols, blocks)


_BAND_OF_THREE = (  # one row band of three blocks over mixed denominators, listed out of column order
    QQ, 3, 7,
    [(1, 4, mat([[Fraction(1, 3), 0, 2], [0, 0, Fraction(-5, 2)]])), (0, 0, mat([[Fraction(1, 2)], [0], [1]])),
     (1, 1, mat([[0, 7, Fraction(3, 4)], [Fraction(1, 6), 0, 0]]))],
)


@settings(max_examples=100, deadline=None)
@given(_block_layout())
@example(_BAND_OF_THREE)
def test_from_blocks_matches_the_sorted_assembly(layout):
    field, rows, cols, blocks = layout
    got = from_blocks(field, rows, cols, blocks)
    assert got == _sorted_assembly(field, rows, cols, blocks)
    assert (got._ptr.dtype, got._idx.dtype, got._data.dtype) == (np.int32, np.int32, np.int64)
    _assert_matches(got, field, rows, cols, blocks)


@settings(max_examples=60, deadline=None)
@given(_block_layout(), st.data())
def test_overlapping_rectangles_raise_even_with_disjoint_entries(layout, data):
    # an intruder covering a cell of a drawn block, with entries only where no
    # block stores one: the sorted assembly accepted this, the placement raises
    field, rows, cols, blocks = layout
    covered = [(r, c, m) for r, c, m in blocks if m.rows and m.cols]
    assume(covered)
    r, c, m = data.draw(st.sampled_from(covered))
    r0, c0 = data.draw(st.integers(r, r + m.rows - 1)), data.draw(st.integers(c, c + m.cols - 1))
    top, left = data.draw(st.integers(0, r0)), data.draw(st.integers(0, c0))
    h, w = data.draw(st.integers(r0 - top + 1, rows - top)), data.draw(st.integers(c0 - left + 1, cols - left))
    stored = {(br + i, bc + j) for br, bc, b in blocks for i, j, _ in b.triples()}
    free = [(i, j) for i in range(h) for j in range(w) if (top + i, left + j) not in stored]
    picked = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=3)) if free else []
    intruder = Mat.from_triples(field, h, w, [(i, j, 1) for i, j in picked])
    at = data.draw(st.integers(0, len(blocks)))
    with_intruder = blocks[:at] + [(top, left, intruder)] + blocks[at:]
    _sorted_assembly(field, rows, cols, with_intruder)
    with pytest.raises(ShapeMismatchError, match="overlapping"):
        from_blocks(field, rows, cols, with_intruder)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.data())
def test_stacking_matches_fraction_reference(field, size, data):
    widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    mats = [data.draw(_matrix(field, size, w)) for w in widths]
    offsets = [sum(widths[:k]) for k in range(len(widths))]
    _assert_matches(
        hstack(mats), field, size, sum(widths), [(0, off, m) for off, m in zip(offsets, mats)]
    )
    tall = [m.transpose() for m in mats]
    _assert_matches(
        vstack(tall), field, sum(widths), size, [(off, 0, m) for off, m in zip(offsets, tall)]
    )
    columns = [data.draw(_matrix(field, size, 1)) for _ in widths]
    _assert_matches(
        hstack(columns),
        field, size, len(columns), [(0, j, c) for j, c in enumerate(columns)],
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4), st.data())
def test_reshape_matches_fraction_reference(field, rows, cols, data):
    m = data.draw(_matrix(field, rows, cols))
    flat = [v for row in m.to_fraction_rows() for v in row]
    new_cols = data.draw(st.sampled_from([d for d in range(1, rows * cols + 1) if rows * cols % d == 0]))
    got = m.reshape(rows * cols // new_cols, new_cols)
    assert got.to_fraction_rows() == [
        flat[k : k + new_cols] for k in range(0, len(flat), new_cols)
    ]
    assert got.nnz == m.nnz
    assert got.reshape(rows, cols) == m


@settings(max_examples=40, deadline=None)
@given(st.integers(2**60, 2**62 - 1).filter(lambda n: n % 3))
def test_stacking_near_the_int64_guard(n):
    # the common denominator 6 doubles n/3's numerator
    big = Mat.from_triples(QQ, 1, 1, [(0, 0, Fraction(n, 3))])
    half = Mat.from_triples(QQ, 1, 1, [(0, 0, Fraction(1, 2))])
    for assemble in (
        lambda: hstack([big, half]),
        lambda: vstack([half, big]),
        lambda: from_blocks(QQ, 2, 2, [(0, 0, big), (1, 1, half)]),
    ):
        if 2 * n >= 2**62:
            with pytest.raises(StructureParseError, match="entry growth beyond engine bounds"):
                assemble()
        else:
            got = assemble()
            assert sorted(v for row in got.to_fraction_rows() for v in row if v) == [
                Fraction(1, 2),
                Fraction(n, 3),
            ]


def test_from_blocks_checks_its_blocks():
    one = mat([[1]])
    with pytest.raises(ShapeMismatchError):
        from_blocks(QQ, 1, 1, [(0, 1, one)])
    with pytest.raises(ShapeMismatchError, match="overlapping"):
        from_blocks(QQ, 2, 2, [(0, 0, mat([[1, 1]])), (0, 1, one)])
    # rectangles that share a cell overlap whatever they store there
    with pytest.raises(ShapeMismatchError, match="overlapping"):
        from_blocks(QQ, 2, 2, [(0, 0, mat([[1, 0], [0, 0]])), (1, 1, one)])
    with pytest.raises(ShapeMismatchError, match="overlapping"):
        from_blocks(QQ, 1, 3, [(0, 1, one), (0, 0, Mat.zeros(QQ, 1, 2))])
    # a block of zero height or width covers no cell, and does not hide a
    # wider block from the one placed after it
    empty = [(0, 2, Mat.zeros(QQ, 1, 0)), (1, 0, Mat.zeros(QQ, 0, 5))]
    assert from_blocks(QQ, 1, 5, [(0, 0, mat([[1, 0, 0, 0, 2]])), *empty]) == mat([[1, 0, 0, 0, 2]])
    with pytest.raises(ShapeMismatchError, match="overlapping"):
        from_blocks(QQ, 1, 5, [(0, 0, Mat.zeros(QQ, 1, 5)), *empty, (0, 3, one)])
    with pytest.raises(FieldMismatchError):
        from_blocks(QQ, 1, 2, [(0, 0, one), (0, 1, mat([[1]], field=F7))])
    with pytest.raises(ShapeMismatchError):
        hstack([one, mat([[1], [2]])])
    with pytest.raises(ShapeMismatchError, match="32-bit"):  # a block offset past the int32 indices
        hstack([Mat.zeros(QQ, 1, 2**30)] * 3)
    with pytest.raises(ShapeMismatchError):
        mat([[1, 2, 3]]).reshape(2, 2)


# -- rref: the single driver against the two per-field drivers it replaced,
# kept here unchanged as the oracle


def _rref_q(rowdicts, ncols):
    pool = [r for r in rowdicts if r]
    piv: list[tuple[int, dict]] = []
    for c in range(ncols):
        best_i, best_key = None, None
        for i, r in enumerate(pool):
            v = r.get(c)
            if v is not None and v != 0:
                key = (0 if v.denominator == 1 and abs(v.numerator) == 1 else 1, len(r))
                if best_key is None or key < best_key:
                    best_key, best_i = key, i
        if best_i is None:
            continue
        row = pool.pop(best_i)
        pv = row[c]
        if pv != 1:
            row = {k: v / pv for k, v in row.items()}
        for r in pool:
            v = r.get(c)
            if v:
                for k, w in row.items():
                    nv = r.get(k, 0) - v * w
                    if nv:
                        r[k] = nv
                    elif k in r:
                        del r[k]
        for _, prow in piv:
            v = prow.get(c)
            if v:
                for k, w in row.items():
                    nv = prow.get(k, 0) - v * w
                    if nv:
                        prow[k] = nv
                    elif k in prow:
                        del prow[k]
        piv.append((c, row))
        pool = [r for r in pool if r]
    piv.sort(key=lambda t: t[0])
    return tuple(c for c, _ in piv), [r for _, r in piv]


def _rref_p(rowdicts, ncols, p):
    pool = [r for r in rowdicts if r]
    piv: list[tuple[int, dict]] = []
    for c in range(ncols):
        best_i, best_key = None, None
        for i, r in enumerate(pool):
            if c in r:
                key = (0 if r[c] in (1, p - 1) else 1, len(r))
                if best_key is None or key < best_key:
                    best_key, best_i = key, i
        if best_i is None:
            continue
        row = pool.pop(best_i)
        pv = row[c]
        if pv != 1:
            inv = pow(pv, p - 2, p)
            row = {k: v * inv % p for k, v in row.items()}
        for bucket in (pool, [pr for _, pr in piv]):
            for r in bucket:
                v = r.get(c)
                if v:
                    for k, w in row.items():
                        nv = (r.get(k, 0) - v * w) % p
                        if nv:
                            r[k] = nv
                        elif k in r:
                            del r[k]
        piv.append((c, row))
        pool = [r for r in pool if r]
    piv.sort(key=lambda t: t[0])
    return tuple(c for c, _ in piv), [r for _, r in piv]


def _oracle_rref(m: Mat):
    rows = [{j: v for j, v in enumerate(row) if v} for row in m.to_fraction_rows()]
    if m.field.kind == "Q":
        return _rref_q(rows, m.cols)
    return _rref_p([{j: int(v) for j, v in row.items()} for row in rows], m.cols, m.field.p)


RREF_FIELDS = [QQ, F7, FieldSpec.prime(P), FieldSpec.prime(2**31 - 1)]
# over Q every entry is k/D for one D, so the numerators stored over the
# common denominator stay below the guard while the entries' own
# denominators (the divisors of D) are mixed
_NEAR_GUARD = st.integers(2**61, 2**62 - 1) | st.integers(-(2**62) + 1, -(2**61))


@st.composite
def _rref_input(draw):
    field = draw(st.sampled_from(RREF_FIELDS))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    small = st.integers(-9, 9)
    if field.kind == "Q":
        den = draw(st.sampled_from([1, 6, 60, 210]))
        value = st.builds(lambda k: Fraction(k, den), small | _NEAR_GUARD)
    else:
        value = small | st.integers(-(2**62), 2**62) | st.builds(Fraction, small, st.integers(1, 6))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    entries = [
        [draw(value) if draw(st.floats(0, 1)) < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    # rank deficiency: repeat or negate earlier rows
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            src = entries[draw(st.integers(0, i - 1))]
            entries[i] = [-v for v in src] if draw(st.booleans()) else list(src)
    triples = [(i, j, v) for i, row in enumerate(entries) for j, v in enumerate(row)]
    return Mat.from_triples(field, rows, cols, triples)


_BIG = 2**62 - 1
_NO_UNIT = [[2, 3, 5], [4, 2, 3], [3, 5, 2]]  # full rank, no entry 1 or -1 mod 7
_SCALED = [[1, 11, 0, 4], [2, 0, 3, 1], [3, 11, 3, 5], [0, 22, -3, 7]]  # rank 2


@settings(max_examples=200, deadline=None)
@given(_rref_input())
@example(Mat.zeros(QQ, 0, 0))
@example(Mat.zeros(F7, 0, 4))
@example(Mat.zeros(FieldSpec.prime(P), 4, 0))
@example(Mat.zeros(FieldSpec.prime(2**31 - 1), 3, 5))
@example(
    Mat.from_triples(
        QQ, 3, 3,
        [(0, 0, Fraction(_BIG, 6)), (0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 3)), (1, 2, 5), (2, 0, Fraction(_BIG - 2, 6))],
    )
)
@example(Mat.from_rows(QQ, [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]))
@example(Mat.from_rows(QQ, _NO_UNIT))
@example(Mat.from_rows(F7, _NO_UNIT))
@example(Mat.from_rows(QQ, _SCALED))
@example(Mat.from_rows(QQ, [[Fraction(v, 210) for v in row] for row in _SCALED]))
def test_rref_matches_per_field_oracle(m):
    assert m.rref() == _oracle_rref(m)
    assert m.nonzero_columns() == np.unique(m._idx).tolist()


@st.composite
def _tall_input(draw):
    """A tall, rank-deficient matrix and a permutation of its rows: each row is
    zero, a repeat of an earlier row, a multiple of a base row, or a small
    combination of the base rows."""
    field = draw(st.sampled_from([QQ, F7, FieldSpec.prime(2**31 - 1)]))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 12))
    base = draw(st.lists(st.lists(st.integers(-1, 1), min_size=cols, max_size=cols), min_size=1, max_size=4))
    small = st.integers(-3, 3)
    if field.kind == "Q":  # entries k/den for one den, as in _rref_input
        den, scale = draw(st.sampled_from([1, 6, 60, 210])), small | _NEAR_GUARD
    else:
        den, scale = 1, small | st.integers(-(2**62), 2**62) | st.builds(Fraction, small, st.integers(1, 6))
    entries = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled", "combination"]))
        if kind == "repeat" and entries:
            entries.append(list(draw(st.sampled_from(entries))))
        elif kind == "scaled":
            c = draw(scale)
            entries.append([c * v for v in draw(st.sampled_from(base))])
        elif kind == "combination":
            coeffs = draw(st.lists(small, min_size=len(base), max_size=len(base)))
            entries.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)])
        else:
            entries.append([0] * cols)
    triples = [(i, j, Fraction(v) / den) for i, row in enumerate(entries) for j, v in enumerate(row)]
    return Mat.from_triples(field, rows, cols, triples), draw(st.permutations(range(rows)))


@settings(max_examples=100, deadline=None)
@given(_tall_input())
def test_rref_of_tall_rank_deficient_matrices(drawn):
    # most rows reduce to zero against the basis built so far; the RREF of a
    # row space is unique, so the order of the rows cannot change it
    m, perm = drawn
    assert m.rref() == _oracle_rref(m)
    assert m.select_rows(perm).rref() == m.rref()


@st.composite
def _kernel_input(draw):
    """A small matrix m and an invertible g = L U with as many columns as m has rows."""
    field = draw(st.sampled_from(RREF_FIELDS))
    n, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    small, unit = st.integers(-4, 4), st.sampled_from([1, -1, 2, -2, 3, 4])  # units of every field here
    m = Mat.from_triples(field, n, cols, [(i, j, draw(small)) for i in range(n) for j in range(cols)])
    lower = [(i, j, 1 if i == j else draw(small)) for i in range(n) for j in range(i + 1)]
    upper = [(i, j, draw(unit) if i == j else draw(small)) for i in range(n) for j in range(i, n)]
    return m, Mat.from_triples(field, n, n, lower) @ Mat.from_triples(field, n, n, upper)


@settings(max_examples=100, deadline=None)
@given(_kernel_input())
def test_kernel_basis_depends_only_on_the_kernel(drawn):
    # g @ m has the kernel of m, so its canonical kernel basis is the same Mat:
    # equivariant_checks relies on this to compare kernels with ==
    m, g = drawn
    assert kernel_basis(g @ m) == kernel_basis(m)


def test_rref_peak_memory_on_a_wall_differential():
    # d^3 of the trivial entwining of kZ5 over Q (15625 x 3125) keeps only the
    # reduced basis and the row being reduced alive: a tracemalloc peak of
    # 6.3-6.4 MB, against 31.1 MB when every row dict was built before eliminating
    h = group_algebra_hopf(5)
    e = trivial_entwining(h.algebra, h.coalgebra)
    d = build_CpsiAM(e, regular_bimodule(e.algebra), 4).differential(3)
    tracemalloc.start()
    try:
        d.rref()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 31.1e6 / 2


def _differentials(e, side, n_max):
    if side == "A":
        cx = build_CpsiAM(e, regular_bimodule(e.algebra), n_max)
    else:
        cx = build_ApsiCV(e, regular_bicomodule(e.coalgebra), n_max)
    return [cx.differential(n) for n in range(n_max)]


@pytest.mark.parametrize("side", ["A", "C"])
@pytest.mark.parametrize("name", ["z2", "z3", "graded-z2", "sweedler"])
def test_rref_matches_oracle_on_differentials(name, side):
    # sparse matrices with real fill-in and cancellation, unlike the small
    # random inputs above
    for d in _differentials(named_example(name), side, 3):
        assert d.rref() == _oracle_rref(d)


def test_rref_matches_oracle_on_kz5_mod_p():
    e = bialgebra_self_entwining(group_algebra_hopf(5, FieldSpec.prime(P)))
    for d in _differentials(e, "A", 2):
        assert d.rref() == _oracle_rref(d)


@pytest.mark.parametrize("field", RREF_FIELDS, ids=str)
def test_rref_rows_hold_canonical_field_values(field):
    # from_triples and entry read these values back: Fractions with pivot
    # Fraction(1) over Q, residues in [1, p) over F_p
    m = Mat.from_rows(field, [[2, 3, 5, Fraction(1, 3)], [4, 6, 3, 1], [6, 9, 8, Fraction(4, 3)]])
    piv_cols, piv_rows = m.rref()
    assert len(piv_cols) == 2 and len(piv_rows[0]) == 3  # values off the pivots too
    for c, row in zip(piv_cols, piv_rows):
        if field.kind == "Q":
            assert all(type(v) is Fraction for v in row.values())
            assert row[c] == Fraction(1)
        else:
            assert all(type(v) is int and 1 <= v < field.p for v in row.values())
            assert row[c] == 1


# -- equality compares stored forms and never overflows


def test_equality_does_no_arithmetic():
    a = Mat.from_triples(QQ, 1, 1, [(0, 0, Fraction(2**40, 3**10))])
    b = Mat.from_triples(QQ, 1, 1, [(0, 0, Fraction(1, 7**12))])
    assert (a == b) is False
    assert a == Mat.from_triples(QQ, 1, 1, [(0, 0, Fraction(2**40, 3**10))])


def test_sum_past_the_guard_is_exact():
    # over the common denominator 6 the numerator of x/2 is 3x > 2^62, yet
    # the sum fits the engine again
    x, y = 2**61 + 1, 3 * 2**60 + 1
    a = Mat.from_rows(QQ, [[Fraction(x, 2), 1]])
    b = Mat.from_rows(QQ, [[Fraction(-y, 3), 1]])
    expected = Mat.from_rows(QQ, [[Fraction(1, 6), 2]])
    assert a + b == expected
    assert a - (-b) == expected
    assert (a - a).is_zero()


def test_equality_ignores_the_scale_of_storage():
    m = Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]])
    right = m.select_columns([1])  # still stored over the denominator 6
    assert right == Mat.column(QQ, [Fraction(1, 3), Fraction(2, 3)])
    assert right != Mat.column(QQ, [Fraction(1, 3), Fraction(1, 3)])
    assert m.select_columns([]) == Mat.zeros(QQ, 2, 0)


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)], ids=str)
def test_mats_built_by_different_routes_compare_equal(field):
    a = Mat.from_rows(field, [[1, Fraction(1, 2)], [0, -3]])
    b = Mat.from_rows(field, [[2, 0, 5]])
    triples = [(i, j * 3 + k, a.entry(i, j) * b.entry(0, k)) for i in range(2) for j in range(2) for k in range(3)]
    assert kron(a, b) == Mat.from_triples(field, 2, 6, triples)
    padded = kron(Mat.identity(field, 2), a, Mat.identity(field, 1))
    assert padded == from_blocks(field, 4, 4, [(0, 0, a), (2, 2, a)])
    assert a.transpose().transpose() == a
    assert kron(a, b).transpose().transpose() == kron(a, b)
    assert kron(a, b) != kron(b, a).transpose()


def test_prime_field_residues_compare_equal():
    fp = FieldSpec.prime(7)
    assert Mat.from_rows(fp, [[-1, Fraction(1, 2), 8]]) == Mat.from_rows(fp, [[6, 4, 1]])
    assert Mat.from_rows(fp, [[3, 0]]).scale(5) == Mat.from_rows(fp, [[1, 0]])
    assert Mat.from_rows(fp, [[7, 14]]) == Mat.zeros(fp, 1, 2)


def test_stored_arrays_have_fixed_dtypes():
    # equality compares stored bytes, so every construction path must store
    # int32 indices and int64 numerators, whatever dtypes it computed in
    m = _csr(QQ, (2, 3), np.array([0, 1, 2], np.int64), np.array([2, 0], np.int64), np.array([5, -1], np.int32))
    a = Mat.from_rows(QQ, [[0, 0, 5], [-1, 0, 0]])
    for x in (m, a, a.transpose(), kron(Mat.identity(QQ, 2), a), a @ a.transpose(), a.reshape(3, 2)):
        ptr, idx, data = x._arrays()
        assert (ptr.dtype, idx.dtype, data.dtype) == (np.int32, np.int32, np.int64)
    assert m == a


def test_storage_format_stays_inside_linalg():
    # the numerator/denominator storage of Mat and its int64 guard are read
    # only by linalg; everything else goes through its public operations
    src = Path(__file__).resolve().parent.parent / "src" / "entwine"
    internals = re.compile(r"\._(num|den|ptr|idx|data|arrays)\b|_max_abs|_I64_GUARD")
    hits = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "linalg.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if internals.search(line)
    ]
    assert hits == []


ROOT = Path(__file__).resolve().parent.parent
SPARSETOOLS = "scipy.sparse._sparsetools"


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter on the package in src/; returns the
    last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1]


def test_only_scipy_import_is_the_compiled_kernels():
    # Mat stores plain arrays: the one scipy dependency is the private
    # _sparsetools module, which linalg loads by name, so a scipy upgrade can
    # break one function.  No other module names scipy at all; linalg has no
    # scipy import statement, names no scipy module but the kernels and the
    # package that holds them, and a fresh import loads no other scipy module.
    src = ROOT / "src" / "entwine"
    assert [path.name for path in sorted(src.rglob("*.py")) if "scipy" in path.read_text()] == ["linalg.py"]
    imports, module_names = [], set()
    for node in ast.walk(ast.parse((src / "linalg.py").read_text())):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append(node.module or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"scipy(\.\w+)*", node.value):
            module_names.add(node.value)
    assert [name for name in imports if "scipy" in name] == []
    assert module_names == {"scipy", SPARSETOOLS}
    loaded = _fresh("import sys, entwine.linalg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == str([SPARSETOOLS])


def test_cli_commands_load_no_module_beyond_the_import():
    # every command runs inside what importing the CLI and building its parser
    # (argparse's gettext loads locale) loads: no scipy.sparse, no numpy.random
    # (deform's sampled 2-cochain uses entwine._rng), no numpy.ma (np.unique loads it)
    last = _fresh(
        "import contextlib, io, sys, entwine.cli as cli\n"
        "cli.build_parser()\n"
        "loaded = set(sys.modules)\n"
        "runs = [['verify'], ['cohom'], ['cohom', '--side', 'C'], ['cup', '--deg', '0', '0'],\n"
        "        ['equivariant', '--max-degree', '2'], ['deform']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([run[0], 'fixtures/z2.json', *run[1:]]) for run in runs]\n"
        "print(codes, sorted(set(sys.modules) - loaded), 'scipy.sparse' in loaded)"
    )
    assert last == "[0, 0, 0, 0, 0, 0] [] False"


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "entwine-first"])
def test_kernels_are_the_module_scipy_sparse_uses(scipy_first):
    # the loader registers the kernels under their real name, so scipy.sparse
    # and linalg share one module object whichever is imported first
    imports = ["import scipy.sparse", "import entwine.linalg as linalg"]
    last = _fresh(
        "import sys\n"
        + "\n".join(imports if scipy_first else imports[::-1])
        + "\nfrom scipy.sparse import _sparsetools\n"
        + f"print(linalg._sparsetools is sys.modules[{SPARSETOOLS!r}] is _sparsetools)"
    )
    assert last == "True"


def test_scipy_sparse_products_work_after_the_loader():
    last = _fresh(
        "import entwine.linalg, numpy as np, scipy.sparse as sp\n"
        "a = sp.csr_matrix(np.array([[1, 2], [0, 3]]))\n"
        "print((a @ a + a.T @ a).toarray().tolist())"
    )
    assert last == "[[2, 10], [2, 22]]"


# -- canonical CSR kernels: every operation against a pure-Fraction reference,
# and every result checked for the canonical storage invariant directly

KERNEL_FIELDS = [QQ, F7, FieldSpec.prime(2**31 - 1)]


def _assert_canonical(m: Mat):
    indptr, indices, data = m._arrays()
    assert indptr.dtype == indices.dtype == np.int32 and data.dtype == np.int64
    assert indptr.size == m.rows + 1 and indptr[0] == 0 and indptr[-1] == indices.size == data.size
    assert np.all(np.diff(indptr) >= 0)
    assert np.all((indices >= 0) & (indices < m.cols))
    # strictly increasing row-major positions: sorted within rows, no duplicates
    rows = np.repeat(np.arange(m.rows), np.diff(indptr))
    assert np.all(np.diff(rows * m.cols + indices) > 0)
    assert np.all(data != 0)
    if m.field.kind == "Fp":
        assert m._den == 1 and np.all((data >= 1) & (data < m.field.p))
    else:
        assert m._den >= 1
        assert math.gcd(int(np.gcd.reduce(data)), m._den) == 1 if data.size else m._den == 1


def _ref(field, v):
    v = Fraction(v)
    if field.kind == "Q":
        return v
    return Fraction(v.numerator * pow(v.denominator, -1, field.p) % field.p)


def _ref_mat(field, rows):
    return [[_ref(field, v) for v in row] for row in rows]


def _ref_matmul(field, a, b, inner, cols):
    return _ref_mat(field, [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for i in range(len(a))])


def _ref_kron(field, a, b):
    return _ref_mat(field, [[x * y for x in arow for y in brow] for arow in a for brow in b])


def _ref_transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def _checked(m: Mat, field, want, shape):
    _assert_canonical(m)
    assert (m.field, m.rows, m.cols) == (field, *shape)
    assert m.to_fraction_rows() == want


@st.composite
def _kernel_matrix(draw, field, rows, cols):
    if field.kind == "Q":
        value = st.builds(Fraction, st.integers(-49, 49), st.integers(1, 12))
    else:
        value = st.integers(-(2**40), 2**40) | st.integers(field.p - 3, field.p + 3)
    entries = [[draw(st.just(0) | value) for _ in range(cols)] for _ in range(rows)]
    m = Mat.from_triples(field, rows, cols, [(i, j, v) for i, row in enumerate(entries) for j, v in enumerate(row)])
    return m, _ref_mat(field, entries)


_dim = st.integers(0, 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, st.data())
def test_add_sub_neg_eq_match_fraction_reference(field, rows, cols, data):
    a, ra = data.draw(_kernel_matrix(field, rows, cols))
    b, rb = data.draw(_kernel_matrix(field, rows, cols))
    how = data.draw(st.sampled_from(["free", "cancel", "partial"]))
    if how == "cancel":
        b, rb = -a, _ref_mat(field, [[-v for v in row] for row in ra])
    elif how == "partial":
        # b cancels a on some entries and differs elsewhere
        keep = [[data.draw(st.booleans()) for _ in range(cols)] for _ in range(rows)]
        rb = _ref_mat(field, [[-ra[i][j] if keep[i][j] else rb[i][j] for j in range(cols)] for i in range(rows)])
        b = Mat.from_triples(field, rows, cols, [(i, j, v) for i, row in enumerate(rb) for j, v in enumerate(row)])
    shape = (rows, cols)
    total = _ref_mat(field, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    _checked(a + b, field, total, shape)
    _checked(a - b, field, _ref_mat(field, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]), shape)
    _checked(-a, field, _ref_mat(field, [[-x for x in p] for p in ra]), shape)
    _checked(a.transpose(), field, _ref_transpose(ra, rows, cols), (cols, rows))
    assert (a == b) is (ra == rb)
    assert a - b + b == a and -(-a) == a
    assert (a + b).is_zero() is all(v == 0 for row in total for v in row)
    assert a.nonzero_columns() == sorted({j for _, j, _ in a.triples()})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, _dim, st.data())
def test_matmul_matches_fraction_reference(field, rows, inner, cols, data):
    a, ra = data.draw(_kernel_matrix(field, rows, inner))
    b, rb = data.draw(_kernel_matrix(field, inner, cols))
    _checked(a @ b, field, _ref_matmul(field, ra, rb, inner, cols), (rows, cols))


def _no_slow_matmul(self, other):
    raise AssertionError("took the Python integer path")


# max|A| max|B| cols passes the guard here, but each row of A holds at most
# two entries (one over F_p), so the row-L1 bound keeps the int64 kernel
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, KERNEL_FIELDS[2]]), st.integers(1, 3), st.integers(8, 10), st.integers(1, 3), st.data())
def test_row_l1_bound_keeps_the_int64_kernel(field, rows, inner, cols, data):
    if field == QQ:
        big, per_row = st.integers(2**39, 2**40 - 1) | st.integers(-(2**40) + 1, -(2**39)), 2
        small, top = st.integers(-(2**21), 2**21), 2**21
    else:
        big, per_row = st.integers(field.p - 2**20, field.p - 1), 1
        small, top = big, field.p - 1
    entries_a = [[0] * inner for _ in range(rows)]
    for i in range(rows):
        for j in data.draw(st.lists(st.integers(0, inner - 1), min_size=1, max_size=per_row, unique=True)):
            entries_a[i][j] = data.draw(big)
    entries_b = [[data.draw(st.just(0) | small) for _ in range(cols)] for _ in range(inner)]
    entries_b[0][0] = top
    a = Mat.from_rows(field, entries_a)
    b = Mat.from_rows(field, entries_b)
    assert a._max_abs() * b._max_abs() * inner >= 2**62
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mat, "_slow_matmul", _no_slow_matmul)
        got = a @ b
    _checked(got, field, _ref_matmul(field, _ref_mat(field, entries_a), _ref_mat(field, entries_b), inner, cols), (rows, cols))


def test_row_l1_past_the_guard_takes_the_python_integer_path(monkeypatch):
    # both bounds reach 2^62 (row-L1 2^41 times 2^21), so the int64 kernel
    # is not proven safe; the exact product is small
    a = Mat.from_rows(QQ, [[2**40, 2**40], [1, 0]])
    b = Mat.from_rows(QQ, [[2**21], [1 - 2**21]])
    calls = []
    slow = Mat._slow_matmul
    monkeypatch.setattr(Mat, "_slow_matmul", lambda self, other: calls.append(1) or slow(self, other))
    got = a @ b
    assert calls == [1]
    _checked(got, QQ, [[Fraction(2**40)], [Fraction(2**21)]], (2, 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.lists(st.tuples(_dim, _dim), min_size=2, max_size=3), st.data())
def test_kron_matches_fraction_reference(field, shapes, data):
    drawn = [data.draw(_kernel_matrix(field, r, c)) for r, c in shapes]
    rows, cols = math.prod(r for r, _ in shapes), math.prod(c for _, c in shapes)
    want = drawn[0][1]
    for _, ref in drawn[1:]:
        want = _ref_kron(field, want, ref)
    # an empty row of a factor leaves no trace in the nested lists
    want = want if cols else [[] for _ in range(rows)]
    got = kron(*(m for m, _ in drawn))
    _checked(got, field, want, (rows, cols))
    if len(drawn) == 3:
        a, b, c = (m for m, _ in drawn)
        assert got == kron(kron(a, b), c) == kron(a, kron(b, c))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KERNEL_FIELDS),
    st.integers(1, 2), st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), _dim, _dim, st.data(),
)
def test_middle_operator_matches_fraction_reference(field, dl, f_rows, f_cols, dr, out_rows, out_cols, data):
    left, rl = data.draw(_kernel_matrix(field, out_rows, dl * f_rows * dr))
    right, rr = data.draw(_kernel_matrix(field, dl * f_cols * dr, out_cols))
    got = middle_operator(left, dl, f_rows, f_cols, dr, right)
    want = _ref_middle(field, rl, dl, f_rows, f_cols, dr, rr, out_cols)
    _checked(got, field, want, (out_rows * out_cols, f_rows * f_cols))


def _ref_middle(field, rl, dl, f_rows, f_cols, dr, rr, out_cols):
    """Rows of the operator F |--> left @ (I_dl (x) F (x) I_dr) @ right from the
    Fraction rows of left and right: column (i, j) is vec(left @ (I (x) E_ij (x) I) @ right)."""
    eye = [_ref_identity(n) for n in (dl, dr)]
    columns = []
    for i in range(f_rows):
        for j in range(f_cols):
            e = [[Fraction(int((r, c) == (i, j))) for c in range(f_cols)] for r in range(f_rows)]
            middle = _ref_kron(field, _ref_kron(field, eye[0], e), eye[1])
            left_middle = _ref_matmul(field, rl, middle, dl * f_rows * dr, dl * f_cols * dr)
            comp = _ref_matmul(field, left_middle, rr, dl * f_cols * dr, out_cols)
            columns.append([v for row in comp for v in row])
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in range(len(rl) * out_cols)]


def _ref_identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def _entrywise_identity(field, n):
    """I_n built entry by entry: equal to Mat.identity(field, n) but another
    object, so kron and middle_operator take their general paths."""
    return Mat.from_triples(field, n, n, [(i, i, 1) for i in range(n)])


# identities at every position, I_0 and I_1 included, around a core with zero
# rows or columns or none (a product of identities): the padded path must
# equal the Fraction reference and the general kernel
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KERNEL_FIELDS), st.lists(_dim, max_size=2), st.lists(_dim, max_size=2),
    st.one_of(st.none(), st.tuples(_dim, _dim)), st.data(),
)
def test_kron_with_identity_factors_matches_general_kernel(field, before, after, core_shape, data):
    if core_shape is None:
        core, ref = Mat.identity(field, 2), _ref_identity(2)
    else:
        core, ref = data.draw(_kernel_matrix(field, *core_shape))
    factors = [Mat.identity(field, n) for n in before] + [core] + [Mat.identity(field, n) for n in after]
    rows, cols = math.prod(f.rows for f in factors), math.prod(f.cols for f in factors)
    want = [[Fraction(1)]]
    for f in factors:
        want = _ref_kron(field, want, ref if f is core else _ref_identity(f.rows))
    want = want if cols else [[] for _ in range(rows)]
    got = kron(*factors)
    _checked(got, field, want, (rows, cols))
    assert got == kron(*(_entrywise_identity(field, f.rows) if f is not core else f for f in factors))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kron_with_nothing_to_pad_returns_an_existing_object(field):
    # a product of identities is the cached identity, and a factor whose
    # other factors are all I_1 is returned itself; the field check stays
    one, x = Mat.identity(field, 1), Mat.from_triples(field, 2, 3, [(0, 1, 1), (1, 0, 3), (1, 2, 5)])
    assert kron(Mat.identity(field, 2), one, Mat.identity(field, 3)) is Mat.identity(field, 6)
    assert kron(one) is one and kron(one, one) is one
    assert kron(Mat.identity(field, 0), Mat.identity(field, 4)) is Mat.identity(field, 0)
    assert kron(x) is x and kron(one, x) is x and kron(x, one, one) is x
    other = F7 if field == QQ else QQ
    for factors in ([Mat.identity(other, 1), x], [x, Mat.identity(other, 1)], [Mat.identity(other, 2), one]):
        with pytest.raises(FieldMismatchError):
            kron(*factors)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, _dim, st.booleans(), st.data())
def test_middle_operator_with_an_identity_side_matches_the_join(field, f_rows, f_cols, out, identity_left, data):
    # dl = dr = 1 with an identity side is a padded kron: I (x) right^T or left (x) I
    if identity_left:
        left, right = Mat.identity(field, f_rows), data.draw(_kernel_matrix(field, f_cols, out))[0]
    else:
        left, right = data.draw(_kernel_matrix(field, out, f_rows))[0], Mat.identity(field, f_cols)
    got = middle_operator(left, 1, f_rows, f_cols, 1, right)
    rl, rr = left.to_fraction_rows(), right.to_fraction_rows()
    want = _ref_middle(field, rl, 1, f_rows, f_cols, 1, rr, right.cols)
    _checked(got, field, want, (left.rows * right.cols, f_rows * f_cols))
    if identity_left:
        assert got == middle_operator(_entrywise_identity(field, f_rows), 1, f_rows, f_cols, 1, right)
    else:
        assert got == middle_operator(left, 1, f_rows, f_cols, 1, _entrywise_identity(field, f_cols))


def _stored_max_abs(m: Mat) -> int:
    data = m._arrays()[2]
    return int(np.abs(data).max()) if data.size else 0


# the int64 guards read a max-abs bound that an arithmetic result computes on
# first read; it must equal a fresh scan of the stored numerators after every
# kind of operation
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, st.data())
def test_stored_bound_is_the_max_abs_numerator(field, rows, cols, data):
    a, b = data.draw(_kernel_matrix(field, rows, cols))[0], data.draw(_kernel_matrix(field, rows, cols))[0]
    c = data.draw(_kernel_matrix(field, cols, rows))[0]
    results = [
        a + b, a - b, a @ c, c @ a, kron(a, c), kron(a, b, c),
        from_blocks(field, 2 * rows + cols, cols + rows, [(0, 0, a), (rows, 0, b), (2 * rows, cols, c)]),
        middle_operator(a, 1, cols, cols, 1, c),
    ]
    assert [m._bound for m in results] == [None] * len(results)
    for m in (a, b, c, *results):
        assert m._max_abs() == _stored_max_abs(m) == m._bound


def test_stored_bound_after_the_python_integer_fallback():
    # + and @ pass the int64 guard here and come back through _csr
    x, y = 2**61 + 1, 3 * 2**60 + 1
    a, b = Mat.from_rows(QQ, [[Fraction(x, 2), 1]]), Mat.from_rows(QQ, [[Fraction(-y, 3), 1]])
    c = Mat.from_rows(QQ, [[Fraction(1, 5)], [2**40]])
    for m in (a + b, a - (-b), a @ c):
        assert m._max_abs() == _stored_max_abs(m)


# results that re-index the entries of one canonical Mat skip the residue,
# zero and gcd passes and inherit its bound: they must still be canonical
# (a selection keeps its gcd pass, an empty result gets den 1), and the bound
# must not be below their largest numerator
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, _dim, _dim, st.data())
def test_reindexed_results_are_canonical_below_their_bound(field, rows, cols, p, q, data):
    m, ref = data.draw(_kernel_matrix(field, rows, cols))
    pick_rows = data.draw(st.lists(st.integers(0, rows - 1), max_size=4)) if rows else []
    pick_cols = data.draw(st.lists(st.integers(0, cols - 1), max_size=4)) if cols else []
    flat = [v for row in ref for v in row]
    padded = _ref_kron(field, _ref_kron(field, _ref_identity(p), ref), _ref_identity(q))
    cases = [
        (kron(Mat.identity(field, p), m, Mat.identity(field, q)), padded, (p * rows * q, p * cols * q)),
        (m.transpose(), _ref_transpose(ref, rows, cols), (cols, rows)),
        (m.reshape(cols, rows), [flat[k * rows : (k + 1) * rows] for k in range(cols)], (cols, rows)),
        (-m, _ref_mat(field, [[-v for v in row] for row in ref]), (rows, cols)),
        (m.select_rows(pick_rows), [ref[i] for i in pick_rows], (len(pick_rows), cols)),
        (m.select_columns(pick_cols), [[row[j] for j in pick_cols] for row in ref], (rows, len(pick_cols))),
    ]
    for got, want, shape in cases:
        _checked(got, field, want if shape[1] else [[] for _ in range(shape[0])], shape)
        assert got._max_abs() >= _stored_max_abs(got)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), _dim, _dim, st.data())
def test_trace_matches_fraction_reference(field, rows, cols, data):
    m, ref = data.draw(_kernel_matrix(field, rows, cols))
    assert m.trace() == _ref(field, sum((ref[i][i] for i in range(min(rows, cols))), Fraction(0)))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_pads_and_transposes_are_built_once(field):
    # each I_p (x) x (x) I_q is cached on x under (p, q), each transpose on its source
    x = Mat.from_triples(field, 2, 3, [(0, 1, 1), (1, 0, 3), (1, 2, 5)])
    i1, i2, i3 = (Mat.identity(field, n) for n in (1, 2, 3))
    assert x.transpose() is x.transpose()
    assert kron(i2, x, i3) is kron(i2, x, i3) is kron(i1, i2, x, i3, i1)
    assert kron(x, i2) is kron(x, i2) and kron(x, i2) is not kron(i2, x)
    assert middle_operator(x, 1, 3, 3, 1, i3) is kron(x, i3)
    assert x.transpose().transpose() == x and x.transpose().transpose() is not x


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_a_dropped_source_is_freed_by_reference_counting(field):
    # a source links to what it derived and nothing links back, so dropping
    # it frees it at once, with the cyclic collector off
    x = Mat.from_triples(field, 2, 3, [(0, 1, 1), (1, 0, 3), (1, 2, 5)])
    t = x.transpose()
    derived = [t, t.transpose(), kron(Mat.identity(field, 2), x), kron(t, Mat.identity(field, 2))]
    x_data, t_data = weakref.ref(x._arrays()[2]), weakref.ref(t._arrays()[2])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del x
        assert x_data() is None and t_data() is not None
        assert derived[1].to_fraction_rows() == [[0, 1, 0], [3, 0, 5]]
        del t, derived
        assert t_data() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_selections_and_assembly_are_canonical(field):
    m = Mat.from_rows(field, [[Fraction(1, 2), 0, Fraction(1, 3)], [0, Fraction(2, 3), 1]] if field == QQ else [[3, 0, 5], [0, 6, 1]])
    # over Q, den 6: the column of 2/3 alone shares 2 with it, and empty
    # results (I_0 pads, empty selections) must get den 1
    i0 = Mat.identity(field, 0)
    for got in (
        m.select_columns([2, 0]), m.select_columns([1, 1]), m.col_vector(1), m.select_rows([1, 0, 1]),
        m.select_rows(slice(1, 2)), m.reshape(3, 2), m.scale(3), hstack([m, m]), vstack([m, -m]),
        hstack([m.col_vector(2), m.col_vector(0)]), Mat.zeros(field, 0, 3), Mat.identity(field, 3),
        kernel_basis(m), solve(m, m.col_vector(1)), -m, m.transpose(), kron(i0, m), kron(m, i0),
        kron(Mat.identity(field, 2), m, i0), m.select_rows([]), m.select_columns([]), m.col_vector(1).transpose(),
    ):
        _assert_canonical(got)
        assert got._max_abs() >= _stored_max_abs(got)
    assert m.select_columns([2, 0]).to_fraction_rows() == [[row[2], row[0]] for row in m.to_fraction_rows()]
    assert m.select_columns([1, 1]).to_fraction_rows() == [[row[1], row[1]] for row in m.to_fraction_rows()]
    assert m.select_rows([1, 0, 1]).to_fraction_rows() == [m.to_fraction_rows()[k] for k in (1, 0, 1)]


# the constructor keeps the O(1) structural checks of scipy's CSR constructor
@pytest.mark.parametrize(
    "indptr,indices,data",
    [
        ([0, 1], [0], [1]),  # indptr one short for 2 rows
        ([1, 1, 2], [0], [1]),  # indptr not starting at 0
        ([0, 1, 2], [0, 1], [1]),  # indices and data of different sizes
        ([0, 1, 3], [0, 1], [1, 2]),  # indptr[-1] past the stored entries
    ],
)
def test_malformed_csr_arrays_raise(indptr, indices, data):
    from entwine.linalg import _csr

    with pytest.raises(ValueError):
        _csr(QQ, (2, 2), np.array(indptr), np.array(indices, np.int32), np.array(data, np.int64))


# each operation builds at most one Mat from its result's arrays, and no
# scipy object at all
def test_one_mat_and_no_scipy_object_per_operation(monkeypatch):
    built, scipy_built = [], []
    mat_init, scipy_init = Mat.__init__, sparse_base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        mat_init(self, *args, **kwargs)

    def scipy_counting(self, *args, **kwargs):
        scipy_built.append(type(self).__name__)
        scipy_init(self, *args, **kwargs)

    a = Mat.from_rows(QQ, [[1, Fraction(1, 2)], [0, 3]])
    b = Mat.from_rows(QQ, [[2, 0], [Fraction(1, 3), Fraction(5, 6)]])
    b_again = Mat.from_rows(QQ, [[2, 0], [Fraction(1, 3), Fraction(5, 6)]])
    p = Mat.from_rows(F7, [[3, 4], [5, 0]])
    p2 = p.scale(2)
    i2 = Mat.identity(QQ, 2)
    operations = {
        "kron": lambda: kron(a, b),
        "kron3": lambda: kron(i2, b, i2),
        "matmul": lambda: a @ b,
        "matmul_fp": lambda: p @ p,
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "sub_fp": lambda: p - p2,
        "neg": lambda: -b,
        "transpose": lambda: b.transpose(),
        "eq": lambda: b == b_again,
        "reshape": lambda: b.reshape(1, 4),
        "select_columns": lambda: b.select_columns([1, 0]),
        "select_rows": lambda: b.select_rows([1]),
        "col_vector": lambda: b.col_vector(0),
        "hstack": lambda: hstack([a, b]),
        "middle_operator": lambda: middle_operator(a, 1, 2, 2, 1, b),
        "from_triples": lambda: Mat.from_triples(QQ, 2, 2, [(1, 0, "1/2"), (0, 1, 3)]),
    }
    monkeypatch.setattr(Mat, "__init__", counting)
    monkeypatch.setattr(sparse_base._spbase, "__init__", scipy_counting)
    counts = {}
    for name, op in operations.items():
        built.clear()
        op()
        counts[name] = len(built)
    assert {k: v for k, v in counts.items() if v > 1} == {}
    # one Mat for the whole kernel
    row = Mat.from_rows(QQ, [[1, Fraction(1, 2), 3, 0]])
    built.clear()
    basis = kernel_basis(row)
    assert basis.cols == 3 and len(built) == 1
    assert scipy_built == []
