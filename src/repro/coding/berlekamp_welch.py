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

One solve at ``e`` equal to the correction radius decides every word: that
system is solvable exactly when a codeword lies within the radius, and any of
its solutions divides to that codeword (fewer actual errors only leave the
system underdetermined).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DecodingError, FieldError
from repro.gf import charges
from repro.gf.field import Field
from repro.gf.linalg import gf_solve
from repro.coding.reed_solomon import DecodingResult, ReedSolomonCode, long_division


class BerlekampWelchDecoder:
    """Berlekamp–Welch decoder bound to a specific Reed–Solomon code."""

    def __init__(self, code: ReedSolomonCode) -> None:
        self.code = code
        self.field: Field = code.field

    def decode(self, received: Sequence[int]) -> DecodingResult:
        """Decode a received word of ``n`` (possibly corrupted) field elements.

        The result carries the decode's charge: the key equation's system
        build, its elimination, the division ``Q / E`` and the re-encode.

        Raises
        ------
        DecodingError
            If no polynomial of degree < ``k`` lies within the decoding
            radius of the received word; its ``ops`` is the charge spent.
        """
        word = self.code.check_received_length(received)
        radius = self.code.correction_radius

        def failure(ops: int) -> DecodingError:
            return DecodingError(
                "Berlekamp-Welch decoding failed: received word is not within the "
                f"correction radius {radius} of any codeword",
                ops=ops,
            )

        try:
            coefficients, ops = self._solve_key_equation(word, radius)
        except FieldError as exc:  # inconsistent system
            raise failure(exc.ops) from exc
        if coefficients is None:
            raise failure(ops)
        codeword, encode_ops = self.code.encode(coefficients)
        ops += encode_ops
        error_positions = tuple(int(i) for i in np.nonzero(word != codeword)[0])
        if len(error_positions) > radius:
            raise failure(ops)
        return DecodingResult(coefficients, error_positions, ops)

    def _solve_key_equation(
        self, word: np.ndarray, e: int
    ) -> tuple[np.ndarray | None, int]:
        """``P = Q / E`` from the ``e``-error system, zero-padded to length ``k``.

        ``None`` when the division leaves a remainder or ``P`` has degree
        ``k`` or more: no codeword lies within ``e`` errors of ``word``.
        Either way with the charge spent; an inconsistent system raises
        :class:`FieldError` carrying it.
        """
        field = self.field
        n = self.code.length
        k = self.code.dimension
        q_len = k + e          # unknown coefficients of Q (degree < k + e)
        e_len = e              # unknown coefficients of E below the leading monic term
        matrix = np.zeros((n, q_len + e_len), dtype=np.int64)
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
        # Per point: q_len powers, e_len (multiply, negate, power) triples,
        # x_i^e and its product with y_i.
        ops = n * (q_len + 3 * e_len + charges.power(e) + 1)
        try:
            solution, solve_ops = gf_solve(field, matrix, rhs, allow_underdetermined=True)
        except FieldError as exc:
            exc.ops += ops
            raise
        locator = np.append(solution[q_len:], 1)
        quotient, remainder, division_ops = long_division(field, solution[:q_len], locator)
        ops += solve_ops + division_ops
        if remainder.size or quotient.size > k:
            return None, ops
        coefficients = np.zeros(k, dtype=np.int64)
        coefficients[: quotient.size] = quotient
        return coefficients, ops
