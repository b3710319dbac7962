"""Dense univariate polynomials over a finite field.

These polynomials are the work-horse of the coding layer: Lagrange
interpolants, Reed–Solomon message/locator polynomials and the composite
polynomial ``h(z) = f(u(z), v(z))`` of the coded execution phase are all
instances of :class:`Poly`.

Coefficients are stored low-degree first as canonical field elements (Python
ints).  The zero polynomial is represented by an empty coefficient list and
has degree ``-1`` by convention.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field


class Poly:
    """A univariate polynomial ``c_0 + c_1 z + ... + c_n z**n`` over ``field``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coefficients: Iterable[int] = ()) -> None:
        self.field = field
        coeffs = [field.element(int(c)) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [1])

    @classmethod
    def constant(cls, field: Field, value: int) -> "Poly":
        return cls(field, [value])

    @classmethod
    def monomial(cls, field: Field, degree: int, coefficient: int = 1) -> "Poly":
        if degree < 0:
            raise FieldError(f"monomial degree must be non-negative, got {degree}")
        coeffs = [0] * degree + [coefficient]
        return cls(field, coeffs)

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls.monomial(field, 1)

    @classmethod
    def from_roots(cls, field: Field, roots: Sequence[int]) -> "Poly":
        """The monic polynomial ``prod (z - r)`` over the given roots."""
        result = cls.one(field)
        for root in roots:
            result = result * cls(field, [field.neg(root), 1])
        return result

    @classmethod
    def random(cls, field: Field, degree: int, rng: np.random.Generator) -> "Poly":
        """A uniformly random polynomial of exactly the given degree."""
        if degree < 0:
            return cls.zero(field)
        coeffs = [field.random_element(rng) for _ in range(degree)]
        coeffs.append(field.random_nonzero(rng))
        return cls(field, coeffs)

    # -- basic queries -------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> int:
        """Coefficient of ``z**power`` (zero if above the degree)."""
        if power < 0:
            raise FieldError(f"coefficient power must be non-negative, got {power}")
        if power >= len(self.coeffs):
            return 0
        return self.coeffs[power]

    def leading_coefficient(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    def coefficient_array(self, length: int | None = None) -> np.ndarray:
        """Coefficients as a numpy array, optionally zero-padded to ``length``."""
        size = len(self.coeffs) if length is None else length
        if size < len(self.coeffs):
            raise FieldError(
                f"requested length {size} shorter than polynomial with "
                f"{len(self.coeffs)} coefficients"
            )
        arr = np.zeros(size, dtype=np.int64)
        if self.coeffs:
            arr[: len(self.coeffs)] = self.coeffs
        return arr

    # -- arithmetic ---------------------------------------------------------------------
    def _check_same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldError("cannot combine polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        field = self.field
        size = max(len(self.coeffs), len(other.coeffs))
        coeffs = []
        for i in range(size):
            coeffs.append(field.add(self.coefficient(i), other.coefficient(i)))
        return Poly(field, coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        field = self.field
        size = max(len(self.coeffs), len(other.coeffs))
        coeffs = []
        for i in range(size):
            coeffs.append(field.sub(self.coefficient(i), other.coefficient(i)))
        return Poly(field, coeffs)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return self.scale(other)
        self._check_same_field(other)
        field = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[i + j] = field.add(out[i + j], field.mul(a, b))
        return Poly(field, out)

    __rmul__ = __mul__

    def scale(self, scalar: int) -> "Poly":
        field = self.field
        scalar = field.element(scalar)
        if scalar == 0:
            return Poly.zero(field)
        return Poly(field, [field.mul(c, scalar) for c in self.coeffs])

    def shift(self, power: int) -> "Poly":
        """Multiply by ``z**power``."""
        if power < 0:
            raise FieldError(f"shift power must be non-negative, got {power}")
        if self.is_zero:
            return Poly.zero(self.field)
        return Poly(self.field, [0] * power + list(self.coeffs))

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division; returns ``(quotient, remainder)``."""
        self._check_same_field(divisor)
        field = self.field
        if divisor.is_zero:
            raise FieldError("polynomial division by zero")
        remainder = list(self.coeffs)
        quotient = [0] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        inv_lead = field.inv(divisor.leading_coefficient())
        while len(remainder) >= len(divisor.coeffs) and any(remainder):
            # strip trailing zeros
            while remainder and remainder[-1] == 0:
                remainder.pop()
            if len(remainder) < len(divisor.coeffs):
                break
            shift_amount = len(remainder) - len(divisor.coeffs)
            factor = field.mul(remainder[-1], inv_lead)
            quotient[shift_amount] = factor
            for i, c in enumerate(divisor.coeffs):
                idx = shift_amount + i
                remainder[idx] = field.sub(remainder[idx], field.mul(factor, c))
        return Poly(field, quotient), Poly(field, remainder)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is one."""
        if self.is_zero:
            return Poly.zero(self.field)
        return self.scale(self.field.inv(self.leading_coefficient()))

    def derivative(self) -> "Poly":
        field = self.field
        coeffs = [
            field.mul(c, i) for i, c in enumerate(self.coeffs) if i > 0
        ]
        return Poly(field, coeffs)

    # -- evaluation ---------------------------------------------------------------------
    def evaluate(self, point: int) -> int:
        """Horner evaluation at a single point."""
        field = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, point), c)
        return acc

    def evaluate_many(self, points) -> np.ndarray:
        """Horner evaluation at a vector of points (vectorised per step)."""
        field = self.field
        pts = field.array(points).reshape(-1)
        acc = np.zeros_like(pts)
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, pts), np.full_like(pts, c))
        return acc

    def __call__(self, point: "int | list | tuple | np.ndarray") -> "int | np.ndarray":
        if isinstance(point, (np.ndarray, list, tuple)):
            return self.evaluate_many(point)
        return self.evaluate(int(point))

    def compose(self, inner: "Poly") -> "Poly":
        """Return ``self(inner(z))`` (used to build composite polynomials)."""
        self._check_same_field(inner)
        result = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            result = result * inner + Poly.constant(self.field, c)
        return result

    # -- gcd ------------------------------------------------------------------------------------
    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    # -- dunder conveniences --------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"
