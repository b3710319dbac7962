"""Abstract finite-field interface and field-operation accounting.

The throughput metric of the paper (Section 2.2) is defined directly in terms
of the number of additions and multiplications performed in the field ``F``.
To reproduce it we thread an optional :class:`OperationCounter` through every
field so that higher layers (execution phase, coding, INTERMIX) can report
exactly how many field operations each node performed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeAlias

import numpy as np

from repro.exceptions import FieldError

#: Scalars and numpy arrays of canonical field elements — the common
#: currency of every arithmetic method below.
ArrayLike: TypeAlias = "np.ndarray | int | Sequence[int]"


@dataclass
class OperationCounter:
    """Counts field additions and multiplications.

    Vectorised operations on arrays of ``n`` elements count as ``n`` scalar
    operations, matching the paper's "operation counts in F" convention.
    Inversions are counted separately; when an inversion is implemented via
    Fermat exponentiation it is *also* reported as ``2 * log2(p)``
    multiplications so complexity comparisons remain honest.
    """

    additions: int = 0
    multiplications: int = 0
    inversions: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def add(self, n: int = 1) -> None:
        self.additions += int(n)

    def mul(self, n: int = 1) -> None:
        self.multiplications += int(n)

    def inv(self, n: int = 1, mul_equivalent: int = 0) -> None:
        self.inversions += int(n)
        self.multiplications += int(mul_equivalent)

    def tag(self, label: str, n: int = 1) -> None:
        """Attribute ``n`` operations to a named phase (for reporting only)."""
        self.labels[label] = self.labels.get(label, 0) + int(n)

    @property
    def total(self) -> int:
        """Total additions plus multiplications (the paper's ``c(.)``)."""
        return self.additions + self.multiplications

    def reset(self) -> None:
        self.additions = 0
        self.multiplications = 0
        self.inversions = 0
        self.labels = {}

    def snapshot(self) -> dict[str, int]:
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
            "total": self.total,
        }

    def merge(self, other: "OperationCounter") -> None:
        self.additions += other.additions
        self.multiplications += other.multiplications
        self.inversions += other.inversions
        for key, value in other.labels.items():
            self.labels[key] = self.labels.get(key, 0) + value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"OperationCounter(add={self.additions}, mul={self.multiplications}, "
            f"inv={self.inversions})"
        )


class Field(ABC):
    """Abstract interface shared by :class:`PrimeField` and ``GF(2**m)``.

    Elements are represented as canonical Python integers (or numpy integer
    arrays for the vectorised prime-field operations).  All methods accept
    and return these canonical representations; they never wrap elements in
    per-element objects, which keeps the vectorised paths fast.
    """

    #: Optional counter; when set, arithmetic methods record operation counts.
    counter: OperationCounter | None

    def __init__(self) -> None:
        self.counter = None

    # -- construction -----------------------------------------------------
    def attach_counter(self, counter: OperationCounter | None) -> None:
        """Attach (or detach, with ``None``) an operation counter."""
        self.counter = counter

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
        terms summed in the same order, so it charges the identical
        ``rows * inner * cols`` multiplications and
        ``rows * (inner - 1) * cols`` additions.  Subclasses with vectorised
        arithmetic (see :meth:`repro.gf.prime_field.PrimeField.matmul`)
        override it with a numpy formulation that performs the identical
        field operations (and charges the identical operation counts)
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
            # Broadcast both factors to the full grid so the charge is one
            # multiplication per output element.
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

    # -- counting hooks --------------------------------------------------------
    def _count_add(self, n: int) -> None:
        if self.counter is not None:
            self.counter.add(n)

    def _count_mul(self, n: int) -> None:
        if self.counter is not None:
            self.counter.mul(n)

    def _count_inv(self, n: int, mul_equivalent: int = 0) -> None:
        if self.counter is not None:
            self.counter.inv(n, mul_equivalent=mul_equivalent)

    @staticmethod
    def _size_of(a: ArrayLike, b: ArrayLike | None = None) -> int:
        """Number of scalar operations represented by an element-wise op."""
        size_a = a.size if isinstance(a, np.ndarray) else 1
        size_b = b.size if isinstance(b, np.ndarray) else 1
        return max(size_a, size_b)

    # -- misc -------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and type(self) is type(other) and self.order == other.order

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.order))
