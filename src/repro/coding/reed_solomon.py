"""Evaluation-view Reed–Solomon codes.

A codeword is the vector of evaluations ``(p(x_1), ..., p(x_n))`` of a message
polynomial ``p`` of degree less than ``k`` at ``n`` distinct points.  CSM
never encodes "messages" explicitly — the codewords arise naturally as the
broadcast coded computation results — but the code object is the convenient
place to keep the evaluation points, the dimension and the decoding radius
together.

A polynomial is its int64 coefficient array, low degree first.  The scalar
decoders need two operations on such arrays, both here: :func:`horner`
evaluation and :func:`long_division`.  Each returns its field-operation
charge with its result, counted only up to the degree: trailing zero
coefficients cost nothing, however long the array.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from repro.exceptions import DecodingError, FieldError
from repro.gf import charges
from repro.gf.field import Field
from repro.gf.matrix_cache import cached_vandermonde


def _trimmed(coefficients: "np.ndarray | Sequence[int]") -> np.ndarray:
    """The coefficients up to the degree (empty for the zero polynomial)."""
    arr = np.asarray(coefficients, dtype=np.int64).reshape(-1)
    nonzero = np.flatnonzero(arr)
    return arr[: nonzero[-1] + 1] if nonzero.size else arr[:0]


def horner(
    field: Field, coefficients: "np.ndarray | Sequence[int]", points: Sequence[int]
) -> tuple[np.ndarray, int]:
    """The polynomial with canonical ``coefficients`` at every point, and its charge.

    One vectorised multiply-add per coefficient up to the degree, so the
    charge is ``2 * len(points) * (degree + 1)`` operations.
    """
    pts = field.array(points).reshape(-1)
    acc = np.zeros_like(pts)
    terms = _trimmed(coefficients)
    for c in terms[::-1]:
        acc = field.add(field.mul(acc, pts), np.full_like(pts, c))
    return acc, charges.horner(terms.size, pts.size)


def long_division(
    field: Field,
    numerator: "np.ndarray | Sequence[int]",
    divisor: "np.ndarray | Sequence[int]",
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(quotient, remainder, charge)`` of two canonical coefficient arrays, trimmed.

    Schoolbook division: one inversion of the divisor's leading coefficient,
    then per nonzero leading remainder term one multiply for the quotient
    coefficient and one multiply-subtract per divisor coefficient.  A
    remainder term that is already zero is skipped uncharged.
    """
    div = [int(c) for c in _trimmed(divisor)]
    if not div:
        raise FieldError("polynomial division by zero")
    remainder = [int(c) for c in _trimmed(numerator)]
    quotient = [0] * max(len(remainder) - len(div) + 1, 0)
    inv_lead = field.inv(div[-1])
    ops = field.inversion_cost
    while True:
        while remainder and remainder[-1] == 0:
            remainder.pop()
        if len(remainder) < len(div):
            break
        shift = len(remainder) - len(div)
        factor = field.mul(remainder[-1], inv_lead)
        quotient[shift] = factor
        for i, c in enumerate(div):
            remainder[shift + i] = field.sub(remainder[shift + i], field.mul(factor, c))
        ops += 1 + charges.multiply_subtract(len(div))
    return np.array(quotient, dtype=np.int64), np.array(remainder, dtype=np.int64), ops


@dataclass
class DecodingResult:
    """Outcome of a noisy-interpolation decode.

    Attributes
    ----------
    coefficients:
        The recovered message polynomial, ``dimension`` coefficients low
        degree first (zero-padded above its degree).
    error_positions:
        Indices where the received word differed from the codeword of the
        recovered polynomial, i.e. the positions the decoder corrected.
    ops:
        The field operations the decode charged.
    """

    coefficients: np.ndarray
    error_positions: tuple[int, ...] = dataclass_field(default_factory=tuple)
    ops: int = 0

    @property
    def num_errors(self) -> int:
        return len(self.error_positions)


class ReedSolomonCode:
    """An ``[n, k]`` Reed–Solomon code over ``field`` with explicit points.

    Parameters
    ----------
    field:
        The finite field.
    evaluation_points:
        ``n`` distinct field elements; position ``i`` of a codeword is the
        message polynomial evaluated at ``evaluation_points[i]``.
    dimension:
        ``k``, the number of message coefficients (polynomial degree < k).
    """

    def __init__(
        self, field: Field, evaluation_points: Sequence[int], dimension: int
    ) -> None:
        points = [field.element(int(p)) for p in evaluation_points]
        if len(set(points)) != len(points):
            raise FieldError("Reed-Solomon evaluation points must be distinct")
        if dimension < 1:
            raise FieldError(f"dimension must be positive, got {dimension}")
        if dimension > len(points):
            raise FieldError(
                f"dimension {dimension} exceeds code length {len(points)}"
            )
        if len(points) >= field.order:
            raise FieldError(
                f"code length {len(points)} requires field larger than {field.order}"
            )
        self.field = field
        self.evaluation_points = points
        self.dimension = int(dimension)

    # -- properties -----------------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self.evaluation_points)

    @property
    def minimum_distance(self) -> int:
        """Singleton-bound-achieving distance ``n - k + 1``."""
        return self.length - self.dimension + 1

    @property
    def correction_radius(self) -> int:
        """Maximum number of correctable errors ``floor((n - k) / 2)``."""
        return (self.length - self.dimension) // 2

    # -- encoding ---------------------------------------------------------------------
    def encode(self, message: Sequence[int]) -> tuple[np.ndarray, int]:
        """A coefficient vector of length ``dimension`` encoded by Horner at
        every point: ``(codeword, charge)``."""
        coeffs = self.field.array(message).reshape(-1)
        if coeffs.shape[0] != self.dimension:
            raise FieldError(
                f"message length {coeffs.shape[0]} does not match dimension {self.dimension}"
            )
        return horner(self.field, coeffs, self.evaluation_points)

    # -- matrix view (cached-matrix pipeline) ------------------------------------------
    @property
    def points_key(self) -> tuple[int, ...]:
        """The evaluation points as a hashable tuple (matrix-cache key part)."""
        return tuple(int(p) for p in self.evaluation_points)

    @property
    def encoding_matrix(self) -> np.ndarray:
        """The cached ``n x k`` Vandermonde encoding matrix ``V[i, j] = x_i**j``."""
        return cached_vandermonde(self.field, self.points_key, self.dimension)

    # -- helpers shared by decoders -------------------------------------------------------
    def check_received_length(self, received: Sequence[int]) -> np.ndarray:
        word = self.field.array(received).reshape(-1)
        if word.shape[0] != self.length:
            raise DecodingError(
                f"received word length {word.shape[0]} does not match code length "
                f"{self.length}"
            )
        return word

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ReedSolomonCode(n={self.length}, k={self.dimension}, "
            f"field_order={self.field.order})"
        )
