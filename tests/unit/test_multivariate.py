"""Unit tests for sparse multivariate polynomials, the builder algebra of
transitions, and for the scalar evaluator that is the compiled transition's
oracle."""

import numpy as np
import pytest

from reference.machine import evaluate
from repro.exceptions import FieldError
from repro.gf.multivariate import MultivariatePolynomial
from repro.machine.polynomial_machine import PolynomialTransition


class TestConstruction:
    def test_zero_coefficient_terms_dropped(self, small_field):
        poly = MultivariatePolynomial(small_field, 2, {(1, 0): 0, (0, 1): 3})
        assert poly.terms == {(0, 1): 3}

    def test_duplicate_exponents_merged(self, small_field):
        poly = MultivariatePolynomial(small_field, 1, [((1,), 3), ((1,), 5)])
        assert poly.terms == {(1,): 8}

    def test_wrong_arity_exponent_rejected(self, small_field):
        with pytest.raises(FieldError):
            MultivariatePolynomial(small_field, 2, {(1,): 1})

    def test_variable_and_constant(self, small_field):
        x1 = MultivariatePolynomial.variable(small_field, 3, 1)
        assert evaluate(x1, [10, 20, 30]) == 20
        c = MultivariatePolynomial.constant(small_field, 3, 7)
        assert evaluate(c, [1, 2, 3]) == 7

    def test_variable_out_of_range(self, small_field):
        with pytest.raises(FieldError):
            MultivariatePolynomial.variable(small_field, 2, 5)

    def test_monomials_roundtrip(self, small_field):
        poly = MultivariatePolynomial(small_field, 2, {(1, 1): 2, (2, 0): 3})
        rebuilt = MultivariatePolynomial(small_field, 2, list(poly.terms.items()))
        assert rebuilt.terms == poly.terms

    def test_random_has_requested_total_degree(self, small_field, rng):
        for degree in (1, 2, 4):
            poly = MultivariatePolynomial.random(small_field, 3, degree, rng)
            assert poly.total_degree == degree

    def test_monomial_total_degree(self, small_field):
        assert MultivariatePolynomial(small_field, 3, {(1, 2, 0): 5}).total_degree == 3


class TestArithmeticAndEvaluation:
    def test_degree(self, small_field):
        poly = MultivariatePolynomial(small_field, 2, {(2, 1): 1, (0, 1): 4})
        assert poly.total_degree == 3
        assert MultivariatePolynomial.zero(small_field, 2).total_degree == 0

    def test_addition_and_subtraction(self, small_field):
        a = MultivariatePolynomial(small_field, 2, {(1, 0): 2})
        b = MultivariatePolynomial(small_field, 2, {(1, 0): 95, (0, 1): 1})
        total = a + b
        assert total.terms == {(0, 1): 1}
        assert (total + b.scale(-1)).terms == a.terms

    def test_multiplication(self, small_field):
        x = MultivariatePolynomial.variable(small_field, 2, 0)
        y = MultivariatePolynomial.variable(small_field, 2, 1)
        product = (x + y) * (x + y)
        assert product.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_evaluate_matches_direct_computation(self, small_field):
        # f(x, y) = 3x^2 y + 5y + 7
        poly = MultivariatePolynomial(
            small_field, 2, {(2, 1): 3, (0, 1): 5, (0, 0): 7}
        )
        x, y = 4, 9
        expected = (3 * x * x * y + 5 * y + 7) % 97
        assert evaluate(poly, [x, y]) == expected

    def test_evaluate_wrong_arity_raises(self, small_field):
        poly = MultivariatePolynomial.variable(small_field, 2, 0)
        with pytest.raises(FieldError):
            evaluate(poly, [1])

    def test_evaluate_batch_matches_scalar(self, small_field, rng):
        poly = MultivariatePolynomial.random(small_field, 3, 2, rng)
        transition = PolynomialTransition(small_field, 1, 2, [poly], [poly])
        points = rng.integers(0, 97, size=(11, 3))
        batch = transition.evaluate_result_vectors(points[:, :1], points[:, 1:])
        assert list(batch[:, 0]) == [evaluate(poly, list(p)) for p in points]

    def test_scale(self, small_field):
        poly = MultivariatePolynomial(small_field, 1, {(1,): 2})
        assert poly.scale(3).terms == {(1,): 6}
        assert poly.scale(0).terms == {}
