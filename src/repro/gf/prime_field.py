"""Prime field ``GF(p)`` with numpy-vectorised arithmetic.

The default modulus is the Mersenne prime ``2**31 - 1``.  With all canonical
representatives below ``2**31``, the product of two elements fits in a signed
64-bit integer, so every element-wise operation can be carried out directly on
``int64`` numpy arrays without resorting to Python-object arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import ArrayLike, Field

#: Mersenne prime 2**31 - 1; large enough for any realistic network size and
#: safe for int64 products.
DEFAULT_PRIME = 2_147_483_647

#: A small set of useful primes for tests and experiments.
SMALL_PRIMES = (7, 11, 13, 17, 97, 101, 257, 65_537)

#: Split-limb parameters for the blocked matmul: with ``p < 2**31.5`` the
#: high limb ``a >> 16`` stays below ``2**15.5`` and the low limb below
#: ``2**16``, so a limb-times-element product is below ``2**47.5`` and up to
#: ``2**15`` of them can be summed in a signed 64-bit accumulator.
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_MATMUL_BLOCK = 1 << 15


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit integers."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """The field of integers modulo a prime ``p``.

    Scalars are Python ``int`` values in ``[0, p)``; vectors are numpy
    ``int64`` arrays with the same canonical range.  All arithmetic methods
    accept either form (and broadcast like numpy).

    Parameters
    ----------
    modulus:
        The prime modulus.  Must be prime and small enough that ``p**2`` fits
        in a signed 64-bit integer (``p < 2**31.5``); the default Mersenne
        prime satisfies both.
    """

    def __init__(self, modulus: int = DEFAULT_PRIME) -> None:
        modulus = int(modulus)
        if not _is_probable_prime(modulus):
            raise FieldError(f"PrimeField modulus must be prime, got {modulus}")
        if modulus * modulus >= 2**63:
            raise FieldError(
                "PrimeField modulus too large for int64-safe vectorised products; "
                f"got {modulus}"
            )
        self._p = modulus

    # -- properties -----------------------------------------------------------
    @property
    def order(self) -> int:
        return self._p

    @property
    def characteristic(self) -> int:
        return self._p

    @property
    def modulus(self) -> int:
        return self._p

    # -- element handling -------------------------------------------------------
    def element(self, value: int) -> int:
        return int(value) % self._p

    def array(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        return np.mod(arr, self._p)

    # -- arithmetic ----------------------------------------------------------------
    def add(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.mod(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64), self._p)
        return (int(a) + int(b)) % self._p

    def sub(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.mod(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64), self._p)
        return (int(a) - int(b)) % self._p

    def mul(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.mod(np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64), self._p)
        return (int(a) * int(b)) % self._p

    def neg(self, a: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray):
            return np.mod(-np.asarray(a, dtype=np.int64), self._p)
        return (-int(a)) % self._p

    def inv(self, a: ArrayLike) -> ArrayLike:
        if isinstance(a, np.ndarray):
            if np.any(np.mod(a, self._p) == 0):
                raise FieldError("cannot invert zero element of GF(p)")
            return self._vector_pow(np.asarray(a, dtype=np.int64), self._p - 2)
        value = int(a) % self._p
        if value == 0:
            raise FieldError("cannot invert zero element of GF(p)")
        return pow(value, self._p - 2, self._p)

    def pow(self, a: ArrayLike, exponent: int) -> ArrayLike:
        exponent = int(exponent)
        if exponent < 0:
            return self.pow(self.inv(a), -exponent)
        if isinstance(a, np.ndarray):
            return self._vector_pow(np.asarray(a, dtype=np.int64), exponent)
        return pow(int(a) % self._p, exponent, self._p)

    def _vector_pow(self, base: np.ndarray, exponent: int) -> np.ndarray:
        """Square-and-multiply over an int64 array, elementwise."""
        result = np.ones_like(base)
        base = np.mod(base, self._p)
        e = int(exponent)
        while e > 0:
            if e & 1:
                result = np.mod(result * base, self._p)
            base = np.mod(base * base, self._p)
            e >>= 1
        return result

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Blocked split-limb matrix product over ``GF(p)``.

        The left operand is split into 16-bit limbs ``a = hi * 2**16 + lo``;
        each limb–operand product stays below ``2**47.5``, so numpy's native
        ``int64`` matrix multiply can sum up to ``2**15`` inner-dimension
        terms per block without overflow.  Wider inner dimensions are
        accumulated block by block with a reduction in between.  Results are
        the canonical representatives (bit-identical to the rank-1-update
        formulation this replaced, which ``tests/reference/interpolation.py``
        keeps as the oracle): the same field operations as the generic
        row-by-column path, so the same :func:`repro.gf.charges.matmul`.
        """
        a_arr = self.array(a)
        b_arr = self.array(b)
        if a_arr.ndim != 2 or b_arr.ndim != 2 or a_arr.shape[1] != b_arr.shape[0]:
            raise FieldError(
                f"shape mismatch for matmul: {a_arr.shape} @ {b_arr.shape}"
            )
        rows, inner = a_arr.shape
        cols = b_arr.shape[1]
        out = np.zeros((rows, cols), dtype=np.int64)
        for start in range(0, inner, _MATMUL_BLOCK):
            a_blk = a_arr[:, start : start + _MATMUL_BLOCK]
            b_blk = b_arr[start : start + _MATMUL_BLOCK, :]
            hi = ((a_blk >> _LIMB_BITS) @ b_blk) % self._p
            lo = ((a_blk & _LIMB_MASK) @ b_blk) % self._p
            out += (hi << _LIMB_BITS) + lo
            out %= self._p
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PrimeField(p={self._p})"
