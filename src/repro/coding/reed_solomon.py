"""Evaluation-view Reed–Solomon codes.

A codeword is the vector of evaluations ``(p(x_1), ..., p(x_n))`` of a message
polynomial ``p`` of degree less than ``k`` at ``n`` distinct points.  CSM
never encodes "messages" explicitly — the codewords arise naturally as the
broadcast coded computation results — but the code object is the convenient
place to keep the evaluation points, the dimension and the decoding radius
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from repro.exceptions import DecodingError, FieldError
from repro.gf.field import Field
from repro.gf.matrix_cache import cached_vandermonde
from repro.gf.polynomial import Poly


@dataclass
class DecodingResult:
    """Outcome of a noisy-interpolation decode.

    Attributes
    ----------
    polynomial:
        The recovered message polynomial (degree < dimension).
    codeword:
        Re-encoded evaluations of the recovered polynomial at the code's
        evaluation points.
    error_positions:
        Indices where the received word differed from the re-encoded
        codeword, i.e. the positions the decoder corrected.
    """

    polynomial: Poly
    codeword: np.ndarray
    error_positions: tuple[int, ...] = dataclass_field(default_factory=tuple)

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
    def encode_polynomial(self, poly: Poly) -> np.ndarray:
        """Evaluate a message polynomial at all code points."""
        if poly.degree >= self.dimension:
            raise FieldError(
                f"message polynomial degree {poly.degree} too large for dimension "
                f"{self.dimension}"
            )
        return poly.evaluate_many(self.evaluation_points)

    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Encode a coefficient vector of length ``dimension``."""
        coeffs = list(message)
        if len(coeffs) != self.dimension:
            raise FieldError(
                f"message length {len(coeffs)} does not match dimension {self.dimension}"
            )
        return self.encode_polynomial(Poly(self.field, coeffs))

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

    def errors_against(self, polynomial: Poly, received: Sequence[int]) -> tuple[int, ...]:
        """Positions where ``received`` disagrees with ``polynomial``'s codeword."""
        word = self.check_received_length(received)
        codeword = self.encode_polynomial(polynomial)
        return tuple(int(i) for i in np.nonzero(word != codeword)[0])

    def is_codeword(self, word: Sequence[int]) -> bool:
        """True when ``word`` is a valid codeword (fits a degree < k polynomial)."""
        received = self.check_received_length(word)
        from repro.gf.lagrange import lagrange_interpolate

        poly = lagrange_interpolate(
            self.field, self.evaluation_points, [int(v) for v in received]
        )
        return poly.degree < self.dimension

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ReedSolomonCode(n={self.length}, k={self.dimension}, "
            f"field_order={self.field.order})"
        )
