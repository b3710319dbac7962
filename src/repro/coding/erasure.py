"""Erasure decoding for Reed–Solomon codes.

In the partially synchronous setting (Section 5.2) honest nodes begin
decoding after receiving only ``N - b`` results: the ``b`` silent nodes are
*erasures* (known-missing positions) while up to ``b`` of the received values
may still be *errors*.  The execution phase therefore needs a decoder that
handles a mix of erasures and errors: we simply restrict the code to the
received positions (a shorter Reed–Solomon code with the same dimension) and
run an error decoder on it.  Successful decoding requires
``2 * errors <= received - dimension``, which reproduces the paper's bound
``3b + 1 <= N - d(K - 1)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import DecodingError
from repro.gf.lagrange import lagrange_interpolate
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.reed_solomon import DecodingResult, ReedSolomonCode


class ErasureDecoder:
    """Decoder for received words with erased (missing) positions."""

    def __init__(self, code: ReedSolomonCode) -> None:
        self.code = code
        self.field = code.field

    def decode_with_erasures(
        self, received: Sequence[int | None]
    ) -> DecodingResult:
        """Decode a word where missing positions are marked ``None``.

        The surviving positions form a punctured Reed–Solomon code of the same
        dimension; errors among the survivors are corrected with
        Berlekamp–Welch as long as ``2*errors <= survivors - dimension``.
        """
        if len(received) != self.code.length:
            raise DecodingError(
                f"received word length {len(received)} does not match code length "
                f"{self.code.length}"
            )
        present_indices = [i for i, v in enumerate(received) if v is not None]
        if len(present_indices) < self.code.dimension:
            raise DecodingError(
                f"only {len(present_indices)} symbols present, need at least "
                f"{self.code.dimension} to decode"
            )
        sub_points = [self.code.evaluation_points[i] for i in present_indices]
        sub_values = [int(received[i]) for i in present_indices]
        sub_code = ReedSolomonCode(self.field, sub_points, self.code.dimension)
        sub_decoder = BerlekampWelchDecoder(sub_code)
        try:
            sub_result = sub_decoder.decode(sub_values)
        except DecodingError as exc:
            survivors = len(present_indices)
            budget = survivors - self.code.dimension
            raise DecodingError(
                f"erasure decoding failed: {survivors} survivors of "
                f"{self.code.length} positions at dimension K={self.code.dimension}; "
                f"correctable errors e must satisfy 2e <= survivors - K = {budget} "
                f"(e <= {max(budget, 0) // 2}); underlying failure: {exc}"
            ) from exc
        polynomial = sub_result.polynomial
        codeword = self.code.encode_polynomial(polynomial)
        error_positions = tuple(
            present_indices[j] for j in sub_result.error_positions
        )
        return DecodingResult(
            polynomial=polynomial,
            codeword=codeword,
            error_positions=error_positions,
        )

    def decode_erasures_only(self, received: Sequence[int | None]) -> DecodingResult:
        """Decode assuming every present symbol is correct (pure erasures).

        This needs only ``dimension`` surviving symbols and is the cheap path
        used when the fault model is crash-only.
        """
        present = [(i, int(v)) for i, v in enumerate(received) if v is not None]
        if len(present) < self.code.dimension:
            raise DecodingError(
                f"only {len(present)} symbols present, need {self.code.dimension}"
            )
        chosen = present[: self.code.dimension]
        xs = [self.code.evaluation_points[i] for i, _ in chosen]
        ys = [v for _, v in chosen]
        polynomial = lagrange_interpolate(self.field, xs, ys)
        if polynomial.degree >= self.code.dimension:
            raise DecodingError("erasure-only decoding produced an invalid degree")
        codeword = self.code.encode_polynomial(polynomial)
        mismatches = tuple(
            i
            for i, v in enumerate(received)
            if v is not None and int(v) != int(codeword[i])
        )
        if mismatches:
            raise DecodingError(
                "erasure-only decoding found inconsistent present symbols at "
                f"positions {mismatches}; use decode_with_erasures instead"
            )
        return DecodingResult(polynomial=polynomial, codeword=codeword)


def puncture(received: Sequence[int], missing: Sequence[int]) -> list[int | None]:
    """Utility: mark the given positions of a received word as erased."""
    word: list[int | None] = [int(v) for v in received]
    for index in missing:
        word[int(index)] = None
    return word
