"""Unit tests for dense univariate polynomials."""

import numpy as np
import pytest

from repro.exceptions import FieldError
from repro.gf.polynomial import Poly


class TestConstruction:
    def test_trailing_zero_coefficients_trimmed(self, small_field):
        poly = Poly(small_field, [1, 2, 0, 0])
        assert poly.degree == 1
        assert poly.coeffs == [1, 2]

    def test_zero_polynomial_degree_minus_one(self, small_field):
        assert Poly.zero(small_field).degree == -1
        assert Poly(small_field, [0, 0]).is_zero

    def test_monomial(self, small_field):
        poly = Poly.monomial(small_field, 3, coefficient=5)
        assert poly.coefficient(3) == 5
        assert poly.degree == 3

    def test_monomial_negative_degree_raises(self, small_field):
        with pytest.raises(FieldError):
            Poly.monomial(small_field, -1)

    def test_from_roots(self, small_field):
        poly = Poly.from_roots(small_field, [2, 5])
        assert poly.evaluate(2) == 0
        assert poly.evaluate(5) == 0
        assert poly.degree == 2
        assert poly.leading_coefficient() == 1

    def test_random_has_exact_degree(self, small_field, rng):
        for degree in (0, 1, 5):
            assert Poly.random(small_field, degree, rng).degree == degree

    def test_coefficient_array_padding(self, small_field):
        poly = Poly(small_field, [1, 2])
        assert list(poly.coefficient_array(4)) == [1, 2, 0, 0]
        with pytest.raises(FieldError):
            poly.coefficient_array(1)


class TestArithmetic:
    def test_add_sub_roundtrip(self, small_field, rng):
        a = Poly.random(small_field, 4, rng)
        b = Poly.random(small_field, 6, rng)
        assert (a + b) - b == a

    def test_mul_degree_adds(self, small_field, rng):
        a = Poly.random(small_field, 3, rng)
        b = Poly.random(small_field, 4, rng)
        assert (a * b).degree == 7

    def test_mul_by_zero(self, small_field, rng):
        a = Poly.random(small_field, 3, rng)
        assert (a * Poly.zero(small_field)).is_zero

    def test_scale(self, small_field):
        poly = Poly(small_field, [1, 2, 3])
        assert Poly(small_field, [2, 4, 6]) == poly.scale(2)
        assert poly.scale(0).is_zero

    def test_shift(self, small_field):
        poly = Poly(small_field, [1, 2])
        assert poly.shift(2).coeffs == [0, 0, 1, 2]

    def test_divmod_reconstructs(self, small_field, rng):
        numerator = Poly.random(small_field, 9, rng)
        divisor = Poly.random(small_field, 4, rng)
        quotient, remainder = numerator.divmod(divisor)
        assert quotient * divisor + remainder == numerator
        assert remainder.degree < divisor.degree

    def test_division_by_zero_raises(self, small_field):
        with pytest.raises(FieldError):
            Poly(small_field, [1]).divmod(Poly.zero(small_field))

    def test_mod_of_multiple_is_zero(self, small_field, rng):
        a = Poly.random(small_field, 3, rng)
        b = Poly.random(small_field, 2, rng)
        assert ((a * b) % a).is_zero

    def test_monic(self, small_field):
        poly = Poly(small_field, [4, 0, 2])
        assert poly.monic().leading_coefficient() == 1

    def test_derivative(self, small_field):
        poly = Poly(small_field, [7, 3, 5, 2])  # 7 + 3z + 5z^2 + 2z^3
        assert poly.derivative().coeffs == [3, 10, 6]

    def test_cross_field_operations_rejected(self, small_field, big_field):
        with pytest.raises(FieldError):
            Poly(small_field, [1]) + Poly(big_field, [1])


class TestEvaluation:
    def test_evaluate_matches_manual_horner(self, small_field):
        poly = Poly(small_field, [1, 2, 3])  # 1 + 2z + 3z^2
        assert poly.evaluate(5) == (1 + 10 + 75) % 97

    def test_evaluate_many_matches_scalar(self, small_field, rng):
        poly = Poly.random(small_field, 6, rng)
        points = list(range(10))
        vectorised = poly.evaluate_many(points)
        assert list(vectorised) == [poly.evaluate(p) for p in points]

    def test_call_dispatches_on_type(self, small_field):
        poly = Poly(small_field, [1, 1])
        assert poly(3) == 4
        assert list(poly([1, 2, 3])) == [2, 3, 4]

    def test_compose(self, small_field):
        outer = Poly(small_field, [0, 0, 1])       # z^2
        inner = Poly(small_field, [1, 1])          # z + 1
        composed = outer.compose(inner)            # (z+1)^2
        assert composed.coeffs == [1, 2, 1]

    def test_zero_polynomial_evaluates_to_zero(self, small_field):
        assert Poly.zero(small_field).evaluate(12) == 0


class TestEuclid:
    def test_gcd_of_multiples(self, small_field, rng):
        g = Poly.random(small_field, 2, rng).monic()
        a = g * Poly.random(small_field, 3, rng)
        b = g * Poly.random(small_field, 4, rng)
        gcd = a.gcd(b)
        assert (a % gcd).is_zero and (b % gcd).is_zero
        assert gcd.degree >= g.degree
