"""Binary extension fields ``GF(2**m)`` for the Appendix A embedding.

The paper's Appendix A shows how to run CSM on Boolean state machines whose
natural field, ``GF(2)``, is too small to host ``N`` distinct evaluation
points: every bit is embedded into ``GF(2**m)`` with ``2**m >= N`` and the
polynomial state transition is evaluated in the extension field.

Elements are represented as integers in ``[0, 2**m)`` whose binary expansion
gives the coefficients of a polynomial over ``GF(2)``; multiplication is
carry-less multiplication followed by reduction modulo a fixed irreducible
polynomial.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import ArrayLike, Field

#: Irreducible polynomials over GF(2) for each supported extension degree,
#: given as integer bit masks including the leading term.  E.g. m=8 uses
#: x^8 + x^4 + x^3 + x + 1 = 0b1_0001_1011 (the AES polynomial).
IRREDUCIBLE_POLYNOMIALS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010101000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class BinaryExtensionField(Field):
    """The field ``GF(2**m)`` for ``1 <= m <= 16``.

    Scalar arithmetic is implemented with integer bit operations; vector
    inputs (numpy arrays) are processed element-wise.  The sizes involved in
    the Appendix A experiments (``m = ceil(log2 N)``) are small, so the
    Python-level loops are not a bottleneck.
    """

    def __init__(self, degree: int) -> None:
        degree = int(degree)
        if degree not in IRREDUCIBLE_POLYNOMIALS:
            raise FieldError(
                f"GF(2**m) is supported for 1 <= m <= 16, got m={degree}"
            )
        self._m = degree
        self._modulus_poly = IRREDUCIBLE_POLYNOMIALS[degree]
        self._order = 1 << degree

    # -- properties ------------------------------------------------------------
    @property
    def order(self) -> int:
        return self._order

    @property
    def characteristic(self) -> int:
        return 2

    @property
    def degree(self) -> int:
        return self._m

    # -- element handling ---------------------------------------------------------
    def element(self, value: int) -> int:
        return int(value) & (self._order - 1)

    def array(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        return np.bitwise_and(arr, self._order - 1)

    def embed_bit(self, bit: int) -> int:
        """Appendix A embedding of a ``GF(2)`` element into ``GF(2**m)``.

        ``0`` maps to the all-zero word and ``1`` maps to ``0...01`` (the
        multiplicative identity), so polynomial values are preserved.
        """
        bit = int(bit)
        if bit not in (0, 1):
            raise FieldError(f"embed_bit expects a bit, got {bit}")
        return bit

    def project_bit(self, value: int) -> int:
        """Inverse of :meth:`embed_bit` for values that are valid embeddings."""
        value = self.element(value)
        if value not in (0, 1):
            raise FieldError(
                f"value {value} is not the embedding of a GF(2) element"
            )
        return value

    # -- scalar kernels --------------------------------------------------------------
    def _mul_scalar(self, a: int, b: int) -> int:
        a = self.element(a)
        b = self.element(b)
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & self._order:
                a ^= self._modulus_poly
        return result

    def _inv_scalar(self, a: int) -> int:
        a = self.element(a)
        if a == 0:
            raise FieldError("cannot invert zero element of GF(2**m)")
        # Fermat: a^(2^m - 2)
        return self._pow_scalar(a, self._order - 2)

    def _pow_scalar(self, a: int, exponent: int) -> int:
        a = self.element(a)
        result = 1
        e = int(exponent)
        while e > 0:
            if e & 1:
                result = self._mul_scalar(result, a)
            a = self._mul_scalar(a, a)
            e >>= 1
        return result

    # -- arithmetic -------------------------------------------------------------------
    def add(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.bitwise_xor(self.array(a), self.array(b))
        return self.element(a) ^ self.element(b)

    def sub(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        # Characteristic 2: subtraction is addition.
        return self.add(a, b)

    def neg(self, a: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray):
            return self.array(a)
        return self.element(a)

    def mul(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a_arr = np.broadcast_to(self.array(a), np.broadcast_shapes(np.shape(a), np.shape(b)))
            b_arr = np.broadcast_to(self.array(b), a_arr.shape)
            flat = [
                self._mul_scalar(int(x), int(y))
                for x, y in zip(a_arr.reshape(-1), b_arr.reshape(-1))
            ]
            return np.asarray(flat, dtype=np.int64).reshape(a_arr.shape)
        return self._mul_scalar(int(a), int(b))

    def inv(self, a: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray):
            flat = [self._inv_scalar(int(x)) for x in self.array(a).reshape(-1)]
            return np.asarray(flat, dtype=np.int64).reshape(np.shape(a))
        return self._inv_scalar(int(a))

    def pow(self, a: ArrayLike, exponent: int) -> ArrayLike:
        exponent = int(exponent)
        if exponent < 0:
            return self.pow(self.inv(a), -exponent)
        if isinstance(a, np.ndarray):
            flat = [self._pow_scalar(int(x), exponent) for x in self.array(a).reshape(-1)]
            return np.asarray(flat, dtype=np.int64).reshape(np.shape(a))
        return self._pow_scalar(int(a), exponent)

    # -- helpers ------------------------------------------------------------------------
    @classmethod
    def for_network_size(cls, network_size: int) -> "BinaryExtensionField":
        """Smallest ``GF(2**m)`` with at least ``network_size + 1`` elements.

        The ``+ 1`` leaves room for the evaluation points to avoid zero if a
        caller wants that; Appendix A only requires ``2**m >= N``.
        """
        m = 1
        while (1 << m) < network_size + 1:
            m += 1
        return cls(m)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BinaryExtensionField(2**{self._m})"
