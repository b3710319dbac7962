"""Lagrange interpolation utilities.

CSM's coded state (Section 5.1) is defined through the Lagrange interpolation
polynomial ``u_t(z) = sum_k S_k(t) * prod_{l != k} (z - omega_l)/(omega_k - omega_l)``.
The coded state of node ``i`` is ``u_t(alpha_i)``; the coefficients
``c_ik = prod_{l != k} (alpha_i - omega_l)/(omega_k - omega_l)`` form the
``N x K`` encoding matrix that INTERMIX later verifies.

This module provides:

* :func:`lagrange_basis_row` — the row ``(c_i1, ..., c_iK)`` for one
  evaluation point.
* :func:`lagrange_coefficient_matrix` — the full ``N x K`` matrix ``C``.

Encoding never forms the interpolant itself: a coded value is row ``i`` of
``C`` applied to the true values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field


def _require_distinct(field: Field, points: Sequence[int], label: str) -> list[int]:
    canonical = [field.element(int(p)) for p in points]
    if len(set(canonical)) != len(canonical):
        raise FieldError(f"{label} must be distinct field elements")
    return canonical


def lagrange_basis_row(
    field: Field, omegas: Sequence[int], alpha: int
) -> np.ndarray:
    """Return ``[c_1, ..., c_K]`` with ``c_k = prod_{l != k} (alpha - omega_l)/(omega_k - omega_l)``.

    These are the Lagrange basis polynomials evaluated at ``alpha``; a coded
    state is the inner product of this row with the vector of true states.
    """
    omegas = _require_distinct(field, omegas, "interpolation points")
    alpha = field.element(alpha)
    k = len(omegas)
    row = np.zeros(k, dtype=np.int64)
    for idx in range(k):
        numerator = 1
        denominator = 1
        for other in range(k):
            if other == idx:
                continue
            numerator = field.mul(numerator, field.sub(alpha, omegas[other]))
            denominator = field.mul(denominator, field.sub(omegas[idx], omegas[other]))
        row[idx] = field.mul(numerator, field.inv(denominator))
    return row


def lagrange_coefficient_matrix(
    field: Field, omegas: Sequence[int], alphas: Sequence[int]
) -> np.ndarray:
    """The ``N x K`` matrix ``C = [c_ik]`` mapping true states to coded states.

    Row ``i`` corresponds to evaluation point ``alphas[i]``; column ``k`` to
    interpolation point ``omegas[k]``.  ``coded = C @ states`` over the field.
    """
    omegas = _require_distinct(field, omegas, "interpolation points")
    alphas = _require_distinct(field, alphas, "evaluation points")
    matrix = np.zeros((len(alphas), len(omegas)), dtype=np.int64)
    for i, alpha in enumerate(alphas):
        matrix[i, :] = lagrange_basis_row(field, omegas, alpha)
    return matrix
