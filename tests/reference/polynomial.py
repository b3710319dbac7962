"""Dense univariate polynomials as objects: the oracle for coefficient arrays.

The shipped path keeps a polynomial as its int64 coefficient array, low
degree first, and works on it with two helpers of
:mod:`repro.coding.reed_solomon`: :func:`~repro.coding.reed_solomon.horner`
and :func:`~repro.coding.reed_solomon.long_division`.  :class:`Poly` is the
object those replaced.  Tests check the helpers against its
:meth:`~Poly.evaluate_many` and :meth:`~Poly.divmod`, values and charged
operation counts alike, and build the textbook objects of the paper's
argument with it:

* :func:`composite_polynomials` — ``h_j(z) = f_j(u(z), v(z))``, the
  composite polynomials a node's coded computation evaluates at its point.

Coefficients are canonical field elements (Python ints), low degree first.
The zero polynomial has no coefficients and degree ``-1``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field
from repro.gf.multivariate import MultivariatePolynomial
from repro.machine.polynomial_machine import PolynomialTransition


class Poly:
    """A univariate polynomial ``c_0 + c_1 z + ... + c_n z**n`` over ``field``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coefficients: Iterable[int] = ()) -> None:
        self.field = field
        coeffs = [field.element(int(c)) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [1])

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

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> int:
        """Coefficient of ``z**power`` (zero above the degree)."""
        return self.coeffs[power] if power < len(self.coeffs) else 0

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

    def __add__(self, other: "Poly") -> "Poly":
        field = self.field
        size = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            field,
            [field.add(self.coefficient(i), other.coefficient(i)) for i in range(size)],
        )

    def __mul__(self, other: "Poly") -> "Poly":
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

    def scale(self, scalar: int) -> "Poly":
        field = self.field
        scalar = field.element(scalar)
        if scalar == 0:
            return Poly.zero(field)
        return Poly(field, [field.mul(c, scalar) for c in self.coeffs])

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division; returns ``(quotient, remainder)``."""
        field = self.field
        if divisor.is_zero:
            raise FieldError("polynomial division by zero")
        remainder = list(self.coeffs)
        quotient = [0] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        inv_lead = field.inv(divisor.coeffs[-1])
        while len(remainder) >= len(divisor.coeffs) and any(remainder):
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


def compose(polynomial: MultivariatePolynomial, inner: Sequence[Poly]) -> Poly:
    """``polynomial(p_0(z), ..., p_{arity-1}(z))``: substitute a ``Poly`` per variable."""
    if len(inner) != polynomial.arity:
        raise FieldError(f"expected {polynomial.arity} inner polynomials, got {len(inner)}")
    field = polynomial.field
    result = Poly.zero(field)
    for exps, coeff in polynomial.terms.items():
        term = Poly(field, [coeff])
        for poly, exponent in zip(inner, exps):
            for _ in range(exponent):
                term = term * poly
        result = result + term
    return result


def composite_polynomials(
    transition: PolynomialTransition,
    state_polys: Sequence[Poly],
    command_polys: Sequence[Poly],
) -> list[Poly]:
    """The composite polynomials ``h_j(z) = f_j(u(z), v(z))``.

    ``state_polys`` are the per-component interpolants ``u(z)`` of the true
    states, ``command_polys`` those of the commands.  The list has
    ``result_dim`` entries (next-state components, then outputs); each has
    degree at most ``transition.degree * max deg(inner)``.
    """
    inner = list(state_polys) + list(command_polys)
    polys = transition.next_state_polys + transition.output_polys
    return [compose(p, inner) for p in polys]
