"""middle_operator against the block-by-block sum it replaced."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entwine.errors import StructureParseError
from entwine.homspace import middle_operator, vec, vec_transpose_index
from entwine.linalg import _I64_GUARD, FieldSpec, Mat, kron
from entwine.structures import LinearMap

FIELDS = (FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2**31 - 1))


def middle_operator_blockwise(left, dl, f_rows, f_cols, dr, right):
    """Oracle: one kron per identity block (a, b), summed with Mat.__add__."""
    total = None
    for a in range(dl):
        for b in range(dr):
            col_idx = [(a * f_rows + i) * dr + b for i in range(f_rows)]
            row_idx = [(a * f_cols + j) * dr + b for j in range(f_cols)]
            term = kron(left.select_columns(col_idx), right.select_rows(row_idx).transpose())
            total = term if total is None else total + term
    return total


# small entries, so that products cancel, and magnitudes around 2^31 (two of
# them multiply to about _I64_GUARD) and 2^58 (a denominator lcm of 6 still fits)
_magnitudes = st.one_of(
    st.integers(-2, 2),
    st.builds(lambda e, d: 2**e + d, st.sampled_from([20, 30, 31, 58]), st.integers(-3, 3)),
)
_coeffs = st.builds(
    lambda n, d, neg: Fraction(-n if neg else n, d),
    _magnitudes,
    st.sampled_from([1, 1, 2, 3]),
    st.booleans(),
)


@st.composite
def _operands(draw):
    field = draw(st.sampled_from(FIELDS))
    dl, dr, f_rows, f_cols = (draw(st.integers(1, 3)) for _ in range(4))
    l_rows, r_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def mat(rows, cols):
        cells = draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), _coeffs), max_size=12
        ))
        # repeated cells keep the last value, so entries with opposite signs
        # land in one block and cancel in the sum
        entries = {(i, j): v for i, j, v in cells}
        return Mat.from_triples(field, rows, cols, [(i, j, v) for (i, j), v in entries.items()])

    left = mat(l_rows, dl * f_rows * dr)
    right = mat(dl * f_cols * dr, r_cols)
    return left, dl, f_rows, f_cols, dr, right


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_middle_operator_matches_blockwise_sum(args):
    left, dl, f_rows, f_cols, dr, right = args
    if left.field.kind == "Q" and left._max_abs() * right._max_abs() * dl * dr >= _I64_GUARD:
        # an entry could sum dl * dr products past the int64 guard
        with pytest.raises(StructureParseError, match="entry growth beyond engine bounds"):
            middle_operator(*args)
        return
    got = middle_operator(*args)
    want = middle_operator_blockwise(*args)
    assert got == want
    assert got.nnz == want.nnz
    assert got.nnz == sum(1 for _, _, v in got.triples() if v)


def test_products_that_cancel_leave_no_stored_zero():
    # F |-> left (I_2 (x) F) right with left = [1, -1] and right = [1; 1]: the
    # two blocks contribute +F and -F, so the operator is zero
    q = FieldSpec.rationals()
    op = middle_operator(Mat.from_rows(q, [[1, -1]]), 2, 1, 1, 1, Mat.from_rows(q, [[1], [1]]))
    assert op.is_zero() and op.nnz == 0


def test_summed_bound_raises_where_one_product_fits():
    # each product is 2^61, below the guard; two of them summed are not
    q = FieldSpec.rationals()
    left = Mat.from_rows(q, [[2**31, 2**31]])
    right = Mat.from_rows(q, [[2**30], [2**30]])
    with pytest.raises(StructureParseError, match="entry growth beyond engine bounds"):
        middle_operator(left, 2, 1, 1, 1, right)
    with pytest.raises(StructureParseError, match="entry growth beyond engine bounds"):
        middle_operator(left, 1, 1, 1, 2, right)
    one = middle_operator(left.select_columns([0]), 1, 1, 1, 1, right.select_rows([0]))
    assert one.entry(0, 0) == 2**61


def test_prime_field_products_are_reduced_before_the_sum():
    # over F_p with p = 2^31 - 1, -1 is stored as p - 1, so each product is
    # about 2^62 and four of them summed would leave int64 unreduced
    fp = FieldSpec.prime(2**31 - 1)
    left = Mat.from_rows(fp, [[-1] * 4])
    right = Mat.from_rows(fp, [[-1]] * 4)
    op = middle_operator(left, 2, 1, 1, 2, right)
    assert op.entry(0, 0) == 4
    assert op == middle_operator_blockwise(left, 2, 1, 1, 2, right)


@given(st.integers(1, 12), st.integers(1, 12))
@example(1, 1)
@example(1, 5)
@example(5, 1)
@settings(max_examples=60, deadline=None)
def test_vec_transpose_index_matches_the_list_formula(rows, cols):
    index = vec_transpose_index(rows, cols)
    assert isinstance(index, np.ndarray)
    assert index.tolist() == [(k % cols) * rows + k // cols for k in range(rows * cols)]
    # it is the permutation taking vec(F^T) to vec(F)
    f = Mat.from_rows(FieldSpec.rationals(), [[i * cols + j + 1 for j in range(cols)] for i in range(rows)])
    flat_t = vec(LinearMap((rows,), (cols,), f.transpose()))
    assert flat_t.select_rows(index) == vec(LinearMap((cols,), (rows,), f))
