"""Dense linear algebra over a finite field.

The Berlekamp–Welch decoder solves a (possibly singular) linear system over
``GF(p)``, and the matrix cache inverts square Vandermonde matrices.
Matrices are numpy ``int64`` arrays of canonical field elements; all
elimination is carried out with the field's own arithmetic so the same
routines work for prime and extension fields.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FieldError
from repro.gf import charges
from repro.gf.field import Field


def gf_matvec(field: Field, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Matrix-vector product over the field: ``matrix @ vector``."""
    mat = field.array(matrix)
    vec = field.array(vector).reshape(-1)
    if mat.ndim != 2 or mat.shape[1] != vec.shape[0]:
        raise FieldError(
            f"shape mismatch for matvec: {mat.shape} @ {vec.shape}"
        )
    out = np.zeros(mat.shape[0], dtype=np.int64)
    for i in range(mat.shape[0]):
        out[i] = field.dot(mat[i, :], vec)
    return out


def _row_reduce(
    field: Field, augmented: np.ndarray
) -> tuple[np.ndarray, list[int], int]:
    """Gauss–Jordan elimination: the reduced matrix, pivot columns and charge.

    The charge follows the nonzero pattern the elimination walks: per pivot
    one inversion and one scaling of the pivot row, then one
    multiply-subtract of a whole row per other row with a nonzero in the
    pivot column.
    """
    mat = field.array(augmented).copy()
    rows, cols = mat.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    ops = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        pivot = None
        for r in range(pivot_row, rows):
            if mat[r, col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            mat[[pivot_row, pivot], :] = mat[[pivot, pivot_row], :]
        inv_val = field.inv(int(mat[pivot_row, col]))
        mat[pivot_row, :] = field.mul(mat[pivot_row, :], inv_val)
        ops += field.inversion_cost + cols
        for r in range(rows):
            if r != pivot_row and mat[r, col] != 0:
                factor = int(mat[r, col])
                mat[r, :] = field.sub(mat[r, :], field.mul(mat[pivot_row, :], factor))
                ops += charges.multiply_subtract(cols)
        pivot_cols.append(col)
        pivot_row += 1
    return mat, pivot_cols, ops


def gf_solve(
    field: Field, matrix: np.ndarray, rhs: np.ndarray, allow_underdetermined: bool = False
) -> tuple[np.ndarray, int]:
    """Solve ``matrix @ x = rhs`` over the field: ``(x, charge)``.

    Raises :class:`FieldError` if the system is inconsistent, carrying the
    elimination's charge as its ``ops``.  If the system is under-determined,
    free variables are set to zero when ``allow_underdetermined`` is true;
    otherwise an error is raised.
    """
    mat = field.array(matrix)
    vec = field.array(rhs).reshape(-1)
    if mat.ndim != 2 or mat.shape[0] != vec.shape[0]:
        raise FieldError(f"shape mismatch for solve: {mat.shape}, rhs {vec.shape}")
    augmented = np.concatenate([mat, vec.reshape(-1, 1)], axis=1)
    reduced, pivots, ops = _row_reduce(field, augmented)
    num_cols = mat.shape[1]
    # Inconsistency: a pivot in the augmented column.
    if num_cols in pivots:
        raise FieldError("linear system is inconsistent", ops=ops)
    if len(pivots) < num_cols and not allow_underdetermined:
        raise FieldError("linear system is under-determined", ops=ops)
    solution = np.zeros(num_cols, dtype=np.int64)
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, num_cols]
    return solution, ops


def gf_inverse_matrix(field: Field, matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over the field."""
    mat = field.array(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise FieldError(f"matrix inverse requires a square matrix, got {mat.shape}")
    n = mat.shape[0]
    identity = np.eye(n, dtype=np.int64)
    augmented = np.concatenate([mat, identity], axis=1)
    reduced, pivots, _ = _row_reduce(field, augmented)
    if pivots != list(range(n)):
        raise FieldError("matrix is singular over the field")
    return reduced[:, n:]
