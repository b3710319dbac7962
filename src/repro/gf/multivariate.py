"""Sparse multivariate polynomials over a finite field.

CSM supports state-transition functions that are multivariate polynomials of
constant total degree ``d`` in the components of the state and the input
command.  This module provides the representation of such functions and
their evaluation at many points at once, the operation every coded node runs
on its coded state and command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field


@dataclass(frozen=True)
class Monomial:
    """A single term ``coefficient * prod(x_i ** exponents[i])``."""

    exponents: tuple[int, ...]
    coefficient: int

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)


class MultivariatePolynomial:
    """A polynomial in ``arity`` variables with coefficients in ``field``.

    Terms are stored sparsely as a mapping from exponent tuples to non-zero
    coefficients.  The class is immutable in spirit: arithmetic operations
    return new instances.
    """

    __slots__ = ("field", "arity", "terms")

    def __init__(
        self,
        field: Field,
        arity: int,
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ) -> None:
        if arity < 0:
            raise FieldError(f"arity must be non-negative, got {arity}")
        self.field = field
        self.arity = int(arity)
        normalized: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coefficient in items:
            exps = tuple(int(e) for e in exponents)
            if len(exps) != arity:
                raise FieldError(
                    f"exponent tuple {exps} does not match arity {arity}"
                )
            if any(e < 0 for e in exps):
                raise FieldError(f"negative exponent in {exps}")
            coeff = field.element(int(coefficient))
            if coeff == 0:
                continue
            if exps in normalized:
                coeff = field.add(normalized[exps], coeff)
                if coeff == 0:
                    del normalized[exps]
                    continue
            normalized[exps] = coeff
        self.terms = normalized

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def zero(cls, field: Field, arity: int) -> "MultivariatePolynomial":
        return cls(field, arity, {})

    @classmethod
    def constant(cls, field: Field, arity: int, value: int) -> "MultivariatePolynomial":
        return cls(field, arity, {tuple([0] * arity): value})

    @classmethod
    def variable(cls, field: Field, arity: int, index: int) -> "MultivariatePolynomial":
        """The polynomial ``x_index``."""
        if not 0 <= index < arity:
            raise FieldError(f"variable index {index} out of range for arity {arity}")
        exponents = [0] * arity
        exponents[index] = 1
        return cls(field, arity, {tuple(exponents): 1})

    @classmethod
    def from_monomials(
        cls, field: Field, arity: int, monomials: Sequence[Monomial]
    ) -> "MultivariatePolynomial":
        return cls(field, arity, [(m.exponents, m.coefficient) for m in monomials])

    @classmethod
    def random(
        cls,
        field: Field,
        arity: int,
        total_degree: int,
        rng: np.random.Generator,
        term_count: int = 8,
    ) -> "MultivariatePolynomial":
        """A random polynomial of total degree exactly ``total_degree``."""
        terms: dict[tuple[int, ...], int] = {}
        # Guarantee at least one term of full degree.
        top = [0] * arity
        remaining = total_degree
        for i in range(arity):
            take = int(rng.integers(0, remaining + 1)) if i < arity - 1 else remaining
            top[i] = take
            remaining -= take
        terms[tuple(top)] = field.random_nonzero(rng)
        for _ in range(term_count - 1):
            exps = [0] * arity
            budget = int(rng.integers(0, total_degree + 1))
            for i in range(arity):
                take = int(rng.integers(0, budget + 1))
                exps[i] = take
                budget -= take
                if budget <= 0:
                    break
            key = tuple(exps)
            coeff = field.random_element(rng)
            if key in terms:
                coeff = field.add(terms[key], coeff)
            if coeff != 0:
                terms[key] = coeff
        return cls(field, arity, terms)

    # -- queries ----------------------------------------------------------------------
    @property
    def total_degree(self) -> int:
        """Maximum total degree over all terms; ``0`` for constants and zero."""
        if not self.terms:
            return 0
        return max(sum(exps) for exps in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> list[Monomial]:
        return [Monomial(exps, coeff) for exps, coeff in sorted(self.terms.items())]

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.terms.get(tuple(int(e) for e in exponents), 0)

    # -- arithmetic ----------------------------------------------------------------------
    def _check_compatible(self, other: "MultivariatePolynomial") -> None:
        if self.field != other.field or self.arity != other.arity:
            raise FieldError("incompatible multivariate polynomials")

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        field = self.field
        for exps, coeff in other.terms.items():
            merged = field.add(terms.get(exps, 0), coeff)
            if merged == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = merged
        return MultivariatePolynomial(field, self.arity, terms)

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self + other.scale(self.field.neg(1))

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check_compatible(other)
        field = self.field
        terms: dict[tuple[int, ...], int] = {}
        for exps_a, coeff_a in self.terms.items():
            for exps_b, coeff_b in other.terms.items():
                exps = tuple(a + b for a, b in zip(exps_a, exps_b))
                coeff = field.mul(coeff_a, coeff_b)
                merged = field.add(terms.get(exps, 0), coeff)
                if merged == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = merged
        return MultivariatePolynomial(field, self.arity, terms)

    def scale(self, scalar: int) -> "MultivariatePolynomial":
        field = self.field
        scalar = field.element(scalar)
        terms = {
            exps: field.mul(coeff, scalar)
            for exps, coeff in self.terms.items()
            if field.mul(coeff, scalar) != 0
        }
        return MultivariatePolynomial(field, self.arity, terms)

    # -- evaluation -----------------------------------------------------------------------
    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate at a point given as a sequence of ``arity`` field elements."""
        if len(assignment) != self.arity:
            raise FieldError(
                f"assignment of length {len(assignment)} does not match arity {self.arity}"
            )
        field = self.field
        values = [field.element(int(v)) for v in assignment]
        result = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for value, exponent in zip(values, exps):
                if exponent:
                    term = field.mul(term, field.pow(value, exponent))
            result = field.add(result, term)
        return result

    def evaluate_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Evaluate at many points.

        ``assignments`` has shape ``(num_points, arity)``; the result has
        shape ``(num_points,)``.
        """
        field = self.field
        points = field.array(assignments)
        if points.ndim != 2 or points.shape[1] != self.arity:
            raise FieldError(
                f"expected assignments of shape (n, {self.arity}), got {points.shape}"
            )
        return self._evaluate_batch_canonical(points)

    def _evaluate_batch_canonical(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at canonical points, with per-variable power caching.

        Variable powers are computed once per ``(variable, exponent)`` pair
        and shared across terms; linear and quadratic exponents skip the
        square-and-multiply ladder entirely.  Every shortcut explicitly
        charges the operations the :meth:`Field.pow` formulation it replaces
        would have charged, so attached counters record bit-identical counts
        to the scalar :meth:`evaluate` loop.
        """
        field = self.field
        n = points.shape[0]
        result = np.zeros(n, dtype=np.int64)
        powers: dict[tuple[int, int], np.ndarray] = {}
        for exps, coeff in self.terms.items():
            term = np.full(n, coeff, dtype=np.int64)
            for index, exponent in enumerate(exps):
                if not exponent:
                    continue
                key = (index, exponent)
                values = powers.get(key)
                if values is None:
                    if exponent == 1:
                        values = points[:, index]
                        field._count_mul(2 * n)
                    elif exponent == 2:
                        column = points[:, index]
                        values = field.mul(column, column)  # charges n
                        field._count_mul(3 * n)
                    else:
                        values = field.pow(points[:, index], exponent)
                    powers[key] = values
                else:
                    field._count_mul(2 * max(exponent.bit_length(), 1) * n)
                term = field.mul(term, values)
            result = field.add(result, term)
        return result

    def partial_degree(self, index: int) -> int:
        """Maximum exponent of variable ``index`` across all terms."""
        if not 0 <= index < self.arity:
            raise FieldError(f"variable index {index} out of range")
        if not self.terms:
            return 0
        return max(exps[index] for exps in self.terms)

    # -- dunder ------------------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.arity, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if not self.terms:
            return "MultivariatePolynomial(0)"
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = [str(coeff)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return "MultivariatePolynomial(" + " + ".join(parts) + ")"
