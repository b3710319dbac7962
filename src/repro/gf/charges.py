"""The field-operation charge rules: the paper's ``c(.)`` for each kind of work.

Throughput (Section 2.2) is ``K`` over the mean number of field additions and
multiplications a node performs per round.  Nothing counts them as they
happen: each piece of work computes its charge from the shapes it ran on, by
the rules below, and returns it with its result.  An element-wise operation
on ``n`` elements is ``n`` operations; an inversion is
:attr:`~repro.gf.field.Field.inversion_cost` multiplications.

The walks whose cost depends on the values they meet charge in place by the
same conventions: Gauss–Jordan elimination
(:func:`repro.gf.linalg.gf_solve`) from the nonzero pattern it walks, and
polynomial long division (:func:`repro.coding.reed_solomon.long_division`)
per nonzero leading remainder term.
"""

from __future__ import annotations


def matmul(rows: int, inner: int, cols: int) -> int:
    """``(rows, inner) @ (inner, cols)``: ``rows * inner * cols``
    multiplications and ``rows * (inner - 1) * cols`` additions."""
    return rows * inner * cols + rows * max(inner - 1, 0) * cols


def dot(length: int) -> int:
    """An inner product of two length-``L`` vectors: ``L`` multiplications
    and ``L - 1`` additions (nothing for an empty one)."""
    return matmul(1, length, 1)


def horner(terms: int, points: int) -> int:
    """A polynomial with ``terms`` coefficients up to its degree, at
    ``points`` points: one multiply-add per coefficient and point."""
    return 2 * terms * points


def power(exponent: int) -> int:
    """``x ** e`` by square-and-multiply: ``2 * max(bitlen(e), 1)``
    multiplications."""
    return 2 * max(int(exponent).bit_length(), 1)


def multiply_subtract(length: int) -> int:
    """``u - c * v`` over length-``L`` vectors: ``L`` multiplications and
    ``L`` additions."""
    return 2 * length
