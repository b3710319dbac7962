"""Sparse multivariate polynomials over a finite field.

CSM supports state-transition functions that are multivariate polynomials of
constant total degree ``d`` in the components of the state and the input
command.  This module is the algebra the machine library and the Appendix A
Boolean compiler build them with (variables, constants, sums, products,
scaling); :class:`~repro.machine.polynomial_machine.PolynomialTransition`
compiles the result into the table it evaluates.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import FieldError
from repro.gf.field import Field


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
