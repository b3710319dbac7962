"""Berlekamp–Welch decoding of Reed–Solomon codes.

This is the decoder the paper names for the execution phase (Section 6.2,
"say, using Berlekamp-Welch algorithm").  Given ``n`` evaluations of an
unknown polynomial ``P`` of degree less than ``k``, up to
``e = floor((n - k) / 2)`` of which are arbitrary errors, the decoder finds
an error-locator polynomial ``E`` (degree ``e``, monic) and a polynomial
``Q = P * E`` (degree < ``k + e``) satisfying ``Q(x_i) = y_i * E(x_i)`` for
every received pair.  The system is linear in the unknown coefficients and is
solved by Gaussian elimination over the field; ``P = Q / E`` whenever a valid
codeword within the radius exists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DecodingError, FieldError
from repro.gf.field import Field
from repro.gf.linalg import gf_solve
from repro.gf.polynomial import Poly
from repro.coding.reed_solomon import DecodingResult, ReedSolomonCode


class BerlekampWelchDecoder:
    """Berlekamp–Welch decoder bound to a specific Reed–Solomon code."""

    def __init__(self, code: ReedSolomonCode) -> None:
        self.code = code
        self.field: Field = code.field

    def decode(self, received: Sequence[int], num_errors: int | None = None) -> DecodingResult:
        """Decode a received word.

        Parameters
        ----------
        received:
            ``n`` field elements (possibly corrupted evaluations).
        num_errors:
            Assumed number of errors ``e``.  When omitted the decoder tries
            the maximum radius first and falls back to smaller values, which
            handles received words with fewer errors than the worst case.

        Raises
        ------
        DecodingError
            If no polynomial of degree < ``k`` lies within the decoding
            radius of the received word.
        """
        word = self.code.check_received_length(received)
        if num_errors is not None:
            attempt_orders = [int(num_errors)]
        else:
            attempt_orders = list(range(self.code.correction_radius, -1, -1))
        last_error: Exception | None = None
        for e in attempt_orders:
            try:
                poly = self._decode_with_error_count(word, e)
            except DecodingError as exc:
                last_error = exc
                continue
            error_positions = self.code.errors_against(poly, word)
            if len(error_positions) <= self.code.correction_radius:
                return DecodingResult(
                    polynomial=poly,
                    codeword=self.code.encode_polynomial(poly),
                    error_positions=error_positions,
                )
        raise DecodingError(
            "Berlekamp-Welch decoding failed: received word is not within the "
            f"correction radius {self.code.correction_radius} of any codeword"
        ) from last_error

    def _decode_with_error_count(self, word: np.ndarray, e: int) -> Poly:
        """Solve the Berlekamp–Welch linear system assuming exactly ``e`` errors."""
        field = self.field
        n = self.code.length
        k = self.code.dimension
        if e < 0 or 2 * e > n - k:
            raise DecodingError(f"error count {e} outside decodable range for [n={n}, k={k}]")
        q_len = k + e          # unknown coefficients of Q (degree < k + e)
        e_len = e              # unknown coefficients of E below the leading monic term
        num_unknowns = q_len + e_len
        if num_unknowns == 0:
            # Trivial code (k = n = 1, e = 0): the single value is the constant poly.
            return Poly(field, [int(word[0])])
        matrix = np.zeros((n, num_unknowns), dtype=np.int64)
        rhs = np.zeros(n, dtype=np.int64)
        for i, x in enumerate(self.code.evaluation_points):
            y = int(word[i])
            # Q(x_i) terms: + x_i^j for j in [0, q_len)
            acc = 1
            for j in range(q_len):
                matrix[i, j] = acc
                acc = field.mul(acc, x)
            # -y_i * E(x_i) terms for the e unknown low-order coefficients of E
            acc = 1
            for j in range(e_len):
                matrix[i, q_len + j] = field.neg(field.mul(y, acc))
                acc = field.mul(acc, x)
            # Right-hand side: y_i * x_i^e (from the monic leading term of E)
            rhs[i] = field.mul(y, field.pow(x, e))
        try:
            solution = gf_solve(field, matrix, rhs, allow_underdetermined=True)
        except FieldError as exc:  # inconsistent system
            raise DecodingError(f"Berlekamp-Welch system unsolvable for e={e}") from exc
        q_poly = Poly(field, solution[:q_len])
        e_coeffs = list(solution[q_len:]) + [1]
        e_poly = Poly(field, e_coeffs)
        quotient, remainder = q_poly.divmod(e_poly)
        if not remainder.is_zero:
            raise DecodingError(
                f"Berlekamp-Welch division left a remainder (e={e}); no codeword "
                "within this error count"
            )
        if quotient.degree >= k:
            raise DecodingError(
                f"decoded polynomial degree {quotient.degree} exceeds dimension {k}"
            )
        return quotient
