"""Operators on flattened Hom spaces.

A map f: X -> Y with matrix F (rows = dim Y, cols = dim X) is flattened
row-major: vec(F)[i * cols + j] = F[i, j].  Everything that acts linearly on
cochains (differentials, insertion operations, equivariance conditions) is
realised as a sparse matrix on these coordinates.

The workhorse is middle_operator: the matrix of

    F  |-->  L @ (I_dl (x) F (x) I_dr) @ R

which covers all "apply f in the middle of a tensor expression" patterns.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatchError, StructureParseError
from .linalg import _I64_GUARD, Mat, kron
from .structures import LinearMap


def vec(f: LinearMap) -> Mat:
    """Row-major flattening of the matrix of f, as a column vector."""
    return f.mat.reshape(f.mat.rows * f.mat.cols, 1)


def unvec(column: Mat, domain_shape, codomain_shape) -> LinearMap:
    """Inverse of vec for the given tensor shapes."""
    rows, cols = math.prod(codomain_shape), math.prod(domain_shape)
    if column.rows != rows * cols or column.cols != 1:
        raise ShapeMismatchError("flattened vector has wrong length")
    return LinearMap(domain_shape, codomain_shape, column.reshape(rows, cols))


def vec_transpose_index(rows: int, cols: int) -> list[int]:
    """Position of vec(F)[k] inside vec(F^T), for each k, when F is rows x cols."""
    return [(k % cols) * rows + k // cols for k in range(rows * cols)]


def op_postcompose(w: Mat, f_cols: int) -> Mat:
    """Operator of F |--> w @ F on flattened coordinates."""
    return kron(w, Mat.identity(w.field, f_cols))


def op_precompose(r: Mat, f_rows: int) -> Mat:
    """Operator of F |--> F @ r on flattened coordinates."""
    return kron(Mat.identity(r.field, f_rows), r.transpose())


def middle_operator(left: Mat, dl: int, f_rows: int, f_cols: int, dr: int, right: Mat) -> Mat:
    """Operator of F |--> left @ (I_dl (x) F (x) I_dr) @ right.

    left must have dl * f_rows * dr columns and right dl * f_cols * dr rows;
    the result maps vec(F) (length f_rows * f_cols) to the flattening of the
    composite (left.rows x right.cols).

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
