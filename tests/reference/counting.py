"""The counting oracle: field operations overheard as they are performed.

``src/`` never counts while it computes: every piece of work derives its
charge from the shapes and values it ran on (:mod:`repro.gf.charges`) and
returns it with its result.  This module is the independent check.  It wraps
one field *instance*'s arithmetic methods for the duration of a call and
tallies every call by the per-call rules the fields used to apply to
themselves:

* ``add``, ``sub``, ``neg`` — one addition per element of the larger operand;
* ``mul`` — one multiplication per element of the larger operand;
* ``inv`` — per element, one inversion worth ``2 * (bitlen(order) - 1)``
  multiplications (Fermat exponentiation);
* ``pow(a, e)`` — ``2 * max(bitlen(e), 1)`` multiplications per element, after
  an inversion when ``e`` is negative;
* ``matmul`` — ``rows * inner * cols`` multiplications and
  ``rows * (inner - 1) * cols`` additions.

Each call is charged once, on entry.  Arithmetic a wrapped method performs
through another wrapped method — the generic ``Field.matmul``'s ``mul`` and
``add``, ``GF(2**m)``'s ``sub`` through ``add`` — is not charged again, while
``div``, ``dot`` and ``sum`` are charged through the methods they call.  Only
the wrapped instance is counted: work done on an equal but distinct field
object is invisible here.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.gf.field import Field

ARITHMETIC = ("add", "sub", "mul", "neg", "inv", "pow", "matmul")


@dataclass
class Count:
    """Field operations overheard during one counted call."""

    additions: int = 0
    multiplications: int = 0
    inversions: int = 0

    @property
    def total(self) -> int:
        """Additions plus multiplications: the paper's ``c(.)``."""
        return self.additions + self.multiplications


def _size(*operands: Any) -> int:
    return max(x.size if isinstance(x, np.ndarray) else 1 for x in operands)


def _charge(field: Field, count: Count, name: str, args: tuple) -> None:
    """Tally one call of ``field.<name>(*args)``."""
    if name in ("add", "sub", "neg"):
        count.additions += _size(*args)
    elif name == "mul":
        count.multiplications += _size(*args)
    elif name == "inv":
        elements = _size(args[0])
        count.inversions += elements
        count.multiplications += elements * 2 * max(field.order.bit_length() - 1, 1)
    elif name == "pow":
        base, exponent = args[0], int(args[1])
        if exponent < 0:
            _charge(field, count, "inv", (base,))
            exponent = -exponent
        count.multiplications += 2 * max(exponent.bit_length(), 1) * _size(base)
    else:  # matmul; a malformed product raises uncharged
        left, right = np.shape(args[0]), np.shape(args[1])
        if len(left) == 2 and len(right) == 2 and left[1] == right[0]:
            (rows, inner), cols = left, right[1]
            count.multiplications += rows * inner * cols
            count.additions += rows * max(inner - 1, 0) * cols


@contextmanager
def counting(field: Field) -> Iterator[Count]:
    """Count ``field``'s arithmetic inside the block; the count outlives it,
    also when the block raises."""
    count = Count()
    depth = 0

    def overheard(name: str) -> Callable:
        method = getattr(field, name)

        def charged(*args: Any) -> Any:
            nonlocal depth
            if depth == 0:
                _charge(field, count, name, args)
            depth += 1
            try:
                return method(*args)
            finally:
                depth -= 1

        return charged

    shadowed = {name: field.__dict__[name] for name in ARITHMETIC if name in field.__dict__}
    for name in ARITHMETIC:
        setattr(field, name, overheard(name))
    try:
        yield count
    finally:
        for name in ARITHMETIC:
            if name in shadowed:
                setattr(field, name, shadowed[name])
            else:
                delattr(field, name)


def counted(field: Field, function: Callable, *args: Any, **kwargs: Any) -> tuple[Any, Count]:
    """``(function(*args, **kwargs), count)`` of ``field``'s arithmetic.

    When ``function`` raises, the exception propagates carrying the count of
    the work done before it as its ``count`` attribute.
    """
    with counting(field) as count:
        try:
            return function(*args, **kwargs), count
        except Exception as exc:
            exc.count = count  # type: ignore[attr-defined]
            raise
