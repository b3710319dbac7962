"""The Vandermonde matrix ``V[i, j] = x_i ** j``.

The centralised decoding path of Section 6.2 expresses both the multi-point
evaluation of the decoded polynomial (equation (8)) and the consistency check
of the decoded coefficients (equation (9)) as matrix–vector products with
Vandermonde matrices ``[x_i ** j]``.  INTERMIX verifies exactly these
products, and :mod:`repro.gf.matrix_cache` builds the Reed–Solomon encode,
interpolation and transfer matrices from them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field


def vandermonde_matrix(
    field: Field, points: Sequence[int], num_columns: int
) -> np.ndarray:
    """The matrix ``V[i, j] = points[i] ** j`` for ``j = 0..num_columns-1``."""
    if num_columns <= 0:
        raise FieldError(f"Vandermonde matrix needs at least one column, got {num_columns}")
    pts = [field.element(int(p)) for p in points]
    matrix = np.zeros((len(pts), num_columns), dtype=np.int64)
    for i, point in enumerate(pts):
        acc = field.one
        for j in range(num_columns):
            matrix[i, j] = acc
            acc = field.mul(acc, point)
    return matrix
