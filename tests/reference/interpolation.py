"""Coefficient-form interpolation, the scalar Lagrange matrix and the rank-1
matmul: oracles for the tests.

The shipped coding path never materialises an interpolant: encoding is the
Lagrange coefficient matrix ``C`` (equation (7)), served by the matrix cache
as the ω→α transfer matrix ``V_alpha @ V_omega**-1``, and decoding is a
cached transfer-matrix product with a Berlekamp–Welch fallback on coefficient
arrays.  The tests still check those maps against the textbook objects they
stand for:

* :func:`lagrange_interpolate` — the unique polynomial of degree
  ``< len(xs)`` through ``(x_j, y_j)``, built term by term as a
  :class:`~reference.polynomial.Poly`;
* :func:`interpolation_polynomials` — one interpolant per component of the
  ``K`` values a scheme encodes: the state polynomial ``u_t(z)`` and command
  polynomial ``v_t(z)`` of Section 5.1;
* :func:`lagrange_coefficient_matrix` — ``C`` entry by entry from equation
  (7), ``c_ik = prod_{l != k} (alpha_i - omega_l)/(omega_k - omega_l)``,
  with scalar field calls; ``LagrangeScheme.coefficient_matrix`` must equal
  it bit for bit;
* :func:`matmul_rank1` — ``GF(p)`` matrix product as one rank-1 update per
  inner index; the split-limb product must match it bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field
from repro.gf.prime_field import PrimeField
from repro.lcc.scheme import LagrangeScheme

from reference.polynomial import Poly


def lagrange_interpolate(field: Field, xs: Sequence[int], ys: Sequence[int]) -> Poly:
    """Return the unique polynomial of degree < len(xs) through ``(x_j, y_j)``."""
    xs = [field.element(int(x)) for x in xs]
    if len(set(xs)) != len(xs):
        raise FieldError("interpolation abscissae must be distinct field elements")
    ys = [field.element(int(y)) for y in ys]
    if len(xs) != len(ys):
        raise FieldError(
            f"interpolation needs matching point counts, got {len(xs)} and {len(ys)}"
        )
    result = Poly.zero(field)
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        if yj == 0:
            continue
        numerator = Poly.one(field)
        denominator = 1
        for m, xm in enumerate(xs):
            if m == j:
                continue
            numerator = numerator * Poly(field, [field.neg(xm), 1])
            denominator = field.mul(denominator, field.sub(xj, xm))
        scale = field.mul(yj, field.inv(denominator))
        result = result + numerator.scale(scale)
    return result


def interpolation_polynomials(scheme: LagrangeScheme, values: np.ndarray) -> list[Poly]:
    """The interpolants ``[p_component(z)]`` through the scheme's omegas.

    ``values`` is ``(K, dim)`` (or ``(K,)``, one component); component ``c``
    of machine ``k`` is the interpolant's value at ``omega_k``.
    """
    arr = scheme.field.array(values)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[0] != scheme.num_machines:
        raise FieldError(f"expected {scheme.num_machines} rows, got {arr.shape[0]}")
    return [
        lagrange_interpolate(scheme.field, scheme.omegas, [int(v) for v in arr[:, component]])
        for component in range(arr.shape[1])
    ]


def lagrange_coefficient_matrix(
    field: Field, omegas: Sequence[int], alphas: Sequence[int]
) -> np.ndarray:
    """The ``N x K`` matrix ``C = [c_ik]`` of equation (7), one scalar at a time.

    Row ``i`` holds the Lagrange basis polynomials at ``alphas[i]``: K
    inversions and ``O(K**2)`` multiplications per row.
    """
    omegas = [field.element(int(w)) for w in omegas]
    alphas = [field.element(int(a)) for a in alphas]
    k = len(omegas)
    matrix = np.zeros((len(alphas), k), dtype=np.int64)
    for i, alpha in enumerate(alphas):
        for idx in range(k):
            numerator = 1
            denominator = 1
            for other in range(k):
                if other == idx:
                    continue
                numerator = field.mul(numerator, field.sub(alpha, omegas[other]))
                denominator = field.mul(denominator, field.sub(omegas[idx], omegas[other]))
            matrix[i, idx] = field.mul(numerator, field.inv(denominator))
    return matrix


def matmul_rank1(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over ``GF(p)`` as ``inner`` rank-1 updates."""
    a_arr = field.array(a)
    b_arr = field.array(b)
    if a_arr.ndim != 2 or b_arr.ndim != 2 or a_arr.shape[1] != b_arr.shape[0]:
        raise FieldError(f"shape mismatch for matmul: {a_arr.shape} @ {b_arr.shape}")
    rows, inner = a_arr.shape
    out = np.zeros((rows, b_arr.shape[1]), dtype=np.int64)
    for t in range(inner):
        out += a_arr[:, t, None] * b_arr[None, t, :] % field.modulus
        out %= field.modulus
    return out
