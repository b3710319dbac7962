"""Cached point-set matrices: the coded round's encode and decode maps.

Every linear map of the coded round is a matrix over fixed point sets, built
once per ``(field, points)`` key and shared by every engine and round:

* ``vandermonde`` — ``V[i, j] = x_i ** j``, the Reed–Solomon encoding matrix
  ``codeword = V @ coeffs``;
* ``interpolation`` — ``V**-1`` of a square Vandermonde, values to
  coefficients;
* ``transfer`` — ``V_to @ V_from**-1``, values at one point set to values at
  another.  The Lagrange matrix ``C`` of equation (7) is the ω→α transfer;
  the decoder's pivot maps are pivot→α and pivot→ω transfers.

With the matrices cached, encoding a batch of ``B`` rounds is one ``GF(p)``
matrix–matrix product and decoding a clean batch is a few more; only the
Berlekamp–Welch fallback works on scalars.

Building a matrix charges nothing: cache construction is a one-off cost,
not part of any round (the amortised per-round cost is what the throughput
experiments measure), and the rounds charge the products they run with the
cached matrices by :mod:`repro.gf.charges`.

The cache is process-global and unbounded; entries are small
(``O(N * K)`` int64) and the number of distinct point sets in any experiment
is tiny.  ``clear_matrix_cache`` exists for tests and long-lived services.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.gf.field import Field
from repro.gf.linalg import gf_inverse_matrix
from repro.gf.vandermonde import vandermonde_matrix

_CACHE: dict[tuple, np.ndarray] = {}


def _field_key(field: Field) -> tuple:
    return (type(field).__name__, field.order)


def _canonical_points(field: Field, points: Sequence[int]) -> tuple[int, ...]:
    return tuple(field.element(int(p)) for p in points)


def _cached(key: tuple, builder: Callable[[], np.ndarray]) -> np.ndarray:
    cached = _CACHE.get(key)
    if cached is None:
        cached = builder()
        cached.setflags(write=False)
        _CACHE[key] = cached
    return cached


def cached_vandermonde(
    field: Field, points: Sequence[int], num_columns: int
) -> np.ndarray:
    """The (read-only) matrix ``V[i, j] = points[i] ** j``, memoised.

    This is the Reed–Solomon *encoding* matrix: ``codeword = V @ coeffs`` for
    a message coefficient vector of length ``num_columns``.
    """
    pts = _canonical_points(field, points)
    key = ("vandermonde", _field_key(field), pts, int(num_columns))
    return _cached(
        key, lambda: vandermonde_matrix(field, list(pts), int(num_columns))
    )


def cached_interpolation_matrix(field: Field, points: Sequence[int]) -> np.ndarray:
    """The (read-only) inverse ``V**-1`` of the square Vandermonde at ``points``.

    This is the *decoding* matrix for clean words: ``coeffs = V**-1 @ values``
    recovers the coefficients of the unique polynomial of degree
    ``< len(points)`` through the given evaluations.
    """
    pts = _canonical_points(field, points)
    key = ("interpolation", _field_key(field), pts)
    return _cached(
        key,
        lambda: gf_inverse_matrix(field, vandermonde_matrix(field, list(pts), len(pts))),
    )


def cached_transfer_matrix(
    field: Field, from_points: Sequence[int], to_points: Sequence[int]
) -> np.ndarray:
    """The (read-only) map from values at ``from_points`` to values at ``to_points``.

    For polynomials of degree ``< len(from_points)`` the evaluations at any
    other point set are a fixed linear map
    ``T = V_to @ V_from**-1``.  From the ``omega_k`` to the ``alpha_i`` it
    is the Lagrange coefficient matrix ``C`` the scheme encodes with; from a
    decoder pivot it re-encodes candidate codewords and evaluates decoded
    polynomials at the ``omega_k``.
    """
    src = _canonical_points(field, from_points)
    dst = _canonical_points(field, to_points)
    key = ("transfer", _field_key(field), src, dst)

    def build() -> np.ndarray:
        inverse = gf_inverse_matrix(
            field, vandermonde_matrix(field, list(src), len(src))
        )
        target = vandermonde_matrix(field, list(dst), len(src))
        return field.matmul(target, inverse)

    return _cached(key, build)


def clear_matrix_cache() -> None:
    """Drop every cached matrix (tests / long-lived processes)."""
    _CACHE.clear()


def matrix_cache_info() -> dict[str, int]:
    """Cache occupancy by matrix kind (diagnostics only)."""
    info: dict[str, int] = {}
    for key in _CACHE:
        info[key[0]] = info.get(key[0], 0) + 1
    return info
