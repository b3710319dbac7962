"""Reed–Solomon coding substrate (evaluation view).

CSM's execution phase is exactly noisy polynomial interpolation: honest nodes
contribute correct evaluations of the composite polynomial
``h(z) = f(u(z), v(z))`` at their points ``alpha_i``, malicious nodes
contribute garbage, and the decoder must recover ``h`` as long as the number
of errors ``b`` satisfies ``2b <= N - deg(h) - 1`` (Table 2).

The decoder is :class:`~repro.coding.berlekamp_welch.BerlekampWelchDecoder`,
the linear-system decoder the paper names (Section 6.2); the
:class:`~repro.coding.erasure.ErasureDecoder` runs it on the survivors when
some results are missing.  Both share the
:class:`~repro.coding.reed_solomon.ReedSolomonCode` container, which fixes
the evaluation points and dimension.
"""

from repro.coding.reed_solomon import ReedSolomonCode, DecodingResult
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.erasure import ErasureDecoder
from repro.coding.radius import (
    max_errors_correctable,
    max_dimension_for_errors,
    required_length,
)

__all__ = [
    "ReedSolomonCode",
    "DecodingResult",
    "BerlekampWelchDecoder",
    "ErasureDecoder",
    "max_errors_correctable",
    "max_dimension_for_errors",
    "required_length",
]
