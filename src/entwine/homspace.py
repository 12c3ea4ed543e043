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

from .errors import ShapeMismatchError
from .linalg import Mat, kron
from .structures import LinearMap


def vec(f: LinearMap) -> Mat:
    """Row-major flattening of the matrix of f, as a column vector."""
    m = f.mat
    triples = [(i * m.cols + j, 0, v) for i, j, v in m.triples()]
    return Mat.from_triples(m.field, m.rows * m.cols, 1, triples)


def unvec(column: Mat, domain_shape, codomain_shape) -> LinearMap:
    """Inverse of vec for the given tensor shapes."""
    import math

    rows = math.prod(codomain_shape) if codomain_shape else 1
    cols = math.prod(domain_shape) if domain_shape else 1
    if column.rows != rows * cols or column.cols != 1:
        raise ShapeMismatchError("flattened vector has wrong length")
    triples = [(i // cols, i % cols, v) for i, _, v in column.triples()]
    return LinearMap(domain_shape, codomain_shape, Mat.from_triples(column.field, rows, cols, triples))


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
    """
    if left.cols != dl * f_rows * dr:
        raise ShapeMismatchError("left factor width mismatch")
    if right.rows != dl * f_cols * dr:
        raise ShapeMismatchError("right factor height mismatch")
    if dl == 1 and dr == 1:
        return kron(left, right.transpose())
    total = None
    for a in range(dl):
        for b in range(dr):
            col_idx = [(a * f_rows + i) * dr + b for i in range(f_rows)]
            row_idx = [(a * f_cols + j) * dr + b for j in range(f_cols)]
            term = kron(left.select_columns(col_idx), right.select_rows(row_idx).transpose())
            total = term if total is None else total + term
    return total
