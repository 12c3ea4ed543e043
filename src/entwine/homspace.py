"""Operators on flattened Hom spaces.

A map f: X -> Y with matrix F (rows = dim Y, cols = dim X) is flattened
row-major: vec(F)[i * cols + j] = F[i, j].  Everything that acts linearly on
cochains (differentials, insertion operations, equivariance conditions) is
realised as a sparse matrix on these coordinates.

The workhorse is middle_operator, the matrix of

    F  |-->  L @ (I_dl (x) F (x) I_dr) @ R

which covers all "apply f in the middle of a tensor expression" patterns.
It is defined in linalg, beside kron, and re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError
from .linalg import Mat, kron, middle_operator  # noqa: F401  (re-export)
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


def vec_transpose_index(rows: int, cols: int) -> np.ndarray:
    """Position of vec(F)[k] inside vec(F^T), for each k, when F is rows x cols."""
    k = np.arange(rows * cols)
    return k % cols * rows + k // cols


def op_postcompose(w: Mat, f_cols: int) -> Mat:
    """Operator of F |--> w @ F on flattened coordinates."""
    return kron(w, Mat.identity(w.field, f_cols))


def op_precompose(r: Mat, f_rows: int) -> Mat:
    """Operator of F |--> F @ r on flattened coordinates."""
    return kron(Mat.identity(r.field, f_rows), r.transpose())
