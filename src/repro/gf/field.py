"""Abstract finite-field interface.

A field does arithmetic only.  The throughput metric of the paper (Section
2.2) counts the additions and multiplications performed in ``F``, but no
field records them: each piece of work computes its charge from the shapes
it ran on, by the rules of :mod:`repro.gf.charges`, and returns it with its
result.  The one charge that depends on the field, the cost of an inversion,
is a constant of the field (:attr:`Field.inversion_cost`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence, TypeAlias

import numpy as np

from repro.exceptions import FieldError

#: Scalars and numpy arrays of canonical field elements — the common
#: currency of every arithmetic method below.
ArrayLike: TypeAlias = "np.ndarray | int | Sequence[int]"


class Field(ABC):
    """Abstract interface shared by :class:`PrimeField` and ``GF(2**m)``.

    Elements are represented as canonical Python integers (or numpy integer
    arrays for the vectorised prime-field operations).  All methods accept
    and return these canonical representations; they never wrap elements in
    per-element objects, which keeps the vectorised paths fast.
    """

    # -- basic properties --------------------------------------------------
    @property
    @abstractmethod
    def order(self) -> int:
        """Number of elements in the field."""

    @property
    @abstractmethod
    def characteristic(self) -> int:
        """The field characteristic (``p`` for ``GF(p)``, ``2`` for ``GF(2**m)``)."""

    @property
    def inversion_cost(self) -> int:
        """Multiplications charged per inversion: Fermat's ``a ** (order - 2)``
        by square-and-multiply, ``2 * (bitlen(order) - 1)`` (``2 * m`` in
        ``GF(2**m)``)."""
        return 2 * max(self.order.bit_length() - 1, 1)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- element handling ---------------------------------------------------
    @abstractmethod
    def element(self, value: int) -> int:
        """Return the canonical representative of ``value`` in the field."""

    @abstractmethod
    def array(self, values: "Iterable[int] | np.ndarray") -> np.ndarray:
        """Return a canonical numpy array of field elements."""

    # -- arithmetic ---------------------------------------------------------
    @abstractmethod
    def add(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Element-wise addition; accepts scalars or numpy arrays."""

    @abstractmethod
    def sub(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Element-wise subtraction; accepts scalars or numpy arrays."""

    @abstractmethod
    def mul(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Element-wise multiplication; accepts scalars or numpy arrays."""

    @abstractmethod
    def neg(self, a: ArrayLike) -> ArrayLike:
        """Element-wise additive inverse."""

    @abstractmethod
    def inv(self, a: ArrayLike) -> ArrayLike:
        """Element-wise multiplicative inverse; raises on zero."""

    @abstractmethod
    def pow(self, a: ArrayLike, exponent: int) -> ArrayLike:
        """Element-wise exponentiation by a non-negative integer."""

    def div(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Element-wise division ``a / b``."""
        return self.mul(a, self.inv(b))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix–matrix product over the field.

        The generic implementation is a sum of rank-1 updates: one
        element-wise :meth:`mul` of column ``k`` of ``a`` against row ``k``
        of ``b`` per inner index, accumulated with one :meth:`add` each.
        That is every row-by-column :meth:`dot` at once, with the same
        terms summed in the same order: ``rows * inner * cols``
        multiplications and ``rows * (inner - 1) * cols`` additions, the
        charge :func:`repro.gf.charges.matmul` states.  Subclasses with
        vectorised arithmetic (see
        :meth:`repro.gf.prime_field.PrimeField.matmul`) override it with a
        numpy formulation that performs the identical field operations
        without per-element Python dispatch.  This is the workhorse of the
        batched coded-round pipeline.
        """
        a_arr = self.array(a)
        b_arr = self.array(b)
        if a_arr.ndim != 2 or b_arr.ndim != 2 or a_arr.shape[1] != b_arr.shape[0]:
            raise FieldError(
                f"shape mismatch for matmul: {a_arr.shape} @ {b_arr.shape}"
            )
        shape = (a_arr.shape[0], b_arr.shape[1])
        out = np.zeros(shape, dtype=np.int64)
        for k in range(a_arr.shape[1]):
            # Broadcast both factors to the full grid: one multiplication
            # per output element.
            term = self.mul(
                np.broadcast_to(a_arr[:, k : k + 1], shape),
                np.broadcast_to(b_arr[k : k + 1, :], shape),
            )
            out = term if k == 0 else self.add(out, term)
        return np.asarray(out, dtype=np.int64)

    def dot(self, a: np.ndarray, b: np.ndarray) -> int:
        """Inner product of two equal-length vectors of field elements."""
        a_arr = self.array(a)
        b_arr = self.array(b)
        if a_arr.shape != b_arr.shape:
            raise FieldError(
                f"dot product requires equal shapes, got {a_arr.shape} and {b_arr.shape}"
            )
        products = self.mul(a_arr, b_arr)
        return self.sum(products)

    def sum(self, values: ArrayLike) -> int:
        """Sum of a vector of field elements."""
        arr = self.array(values).reshape(-1)
        if arr.size == 0:
            return self.zero
        total = int(arr[0])
        for value in arr[1:]:
            total = int(self.add(total, int(value)))
        return total

    # -- sampling -------------------------------------------------------------
    def random_element(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.order))

    def random_nonzero(self, rng: np.random.Generator) -> int:
        return int(rng.integers(1, self.order))

    def random_array(
        self, rng: np.random.Generator, shape: int | tuple[int, ...]
    ) -> np.ndarray:
        return self.array(rng.integers(0, self.order, size=shape, dtype=np.int64))

    def distinct_points(self, count: int, start: int = 1) -> list[int]:
        """Return ``count`` distinct field elements, deterministic and simple.

        CSM only requires the evaluation points ``omega_1..omega_K`` and
        ``alpha_1..alpha_N`` to be distinct; consecutive integers starting at
        ``start`` satisfy that whenever ``start + count <= order``.
        """
        if start + count > self.order:
            raise FieldError(
                f"field of order {self.order} cannot provide {count} distinct "
                f"points starting at {start}"
            )
        return [self.element(start + i) for i in range(count)]

    # -- misc -------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and type(self) is type(other) and self.order == other.order

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.order))
