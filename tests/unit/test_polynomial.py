"""Unit tests for the coefficient-array polynomial helpers.

:func:`horner` and :func:`long_division` replaced the ``Poly`` object on the
shipped decode path, so on every input they must return what the reference
``Poly`` returns, and the charge they return must be what the counting
oracle overhears them and ``Poly`` spend: up to the degree, never for
trailing zero coefficients.
"""

import numpy as np
import pytest

from reference.counting import counted
from reference.polynomial import Poly
from repro.coding.reed_solomon import horner, long_division
from repro.exceptions import FieldError


def padded(field, rng, degree, zeros):
    """Random canonical coefficients of exactly ``degree``, then ``zeros`` zeros."""
    poly = Poly.random(field, degree, rng)
    return poly.coefficient_array(max(degree, -1) + 1 + zeros)


@pytest.fixture(params=["small_field", "big_field", "gf256"])
def field(request):
    return request.getfixturevalue(request.param)


class TestConstruction:
    def test_trailing_zero_coefficients_trimmed(self, small_field):
        # Padding neither changes a result nor shows up in it.
        quotient, remainder, _ = long_division(small_field, [1, 2, 0, 3, 0, 0], [5, 1, 0])
        assert quotient.tolist() == Poly(small_field, [1, 2, 0, 3]).divmod(
            Poly(small_field, [5, 1])
        )[0].coeffs
        assert remainder.size <= 1
        padded_values, padded_charge = horner(small_field, [1, 2, 0, 0], [3, 4])
        values, charge = horner(small_field, [1, 2], [3, 4])
        assert padded_values.tolist() == values.tolist()
        assert padded_charge == charge

    def test_zero_polynomial_degree_minus_one(self, small_field):
        # The zero polynomial is the empty array: degree -1.
        quotient, remainder, _ = long_division(small_field, [0, 0], [4, 1])
        assert quotient.size == 0 and remainder.size == 0


class TestEvaluation:
    def test_evaluate_matches_manual_horner(self, small_field):
        # 1 + 2z + 3z^2 at z = 5
        assert horner(small_field, [1, 2, 3], [5])[0].tolist() == [(1 + 10 + 75) % 97]

    def test_evaluate_many_matches_scalar(self, small_field, rng):
        poly = Poly.random(small_field, 6, rng)
        points = list(range(10))
        vectorised, _ = horner(small_field, poly.coefficient_array(), points)
        assert vectorised.tolist() == [poly.evaluate(p) for p in points]

    def test_zero_polynomial_evaluates_to_zero(self, small_field):
        (values, charge), count = counted(small_field, horner, small_field, [0, 0, 0], [12, 13])
        assert values.tolist() == [0, 0]
        assert charge == count.total == 0

    def test_matches_reference_values_and_charges(self, field, rng):
        points = field.distinct_points(9)
        for degree in (-1, 0, 1, 4, 7):
            for zeros in (0, 1, 5):
                coeffs = padded(field, rng, degree, zeros)
                poly = Poly(field, coeffs)
                (values, charge), count = counted(field, horner, field, coeffs, points)
                want, want_count = counted(field, poly.evaluate_many, points)
                assert values.tolist() == want.tolist()
                assert count == want_count
                assert charge == count.total


class TestArithmetic:
    def test_divmod_reconstructs(self, small_field, rng):
        numerator = Poly.random(small_field, 9, rng)
        divisor = Poly.random(small_field, 4, rng)
        quotient, remainder, _ = long_division(
            small_field, numerator.coefficient_array(), divisor.coefficient_array()
        )
        rebuilt = Poly(small_field, quotient) * divisor + Poly(small_field, remainder)
        assert rebuilt == numerator
        assert remainder.size < divisor.degree + 1

    def test_division_by_zero_raises(self, small_field):
        with pytest.raises(FieldError):
            long_division(small_field, [1], [0, 0])

    def test_mod_of_multiple_is_zero(self, small_field, rng):
        a = Poly.random(small_field, 3, rng)
        b = Poly.random(small_field, 2, rng)
        quotient, remainder, _ = long_division(
            small_field, (a * b).coefficient_array(), a.coefficient_array()
        )
        assert remainder.size == 0
        assert Poly(small_field, quotient) == b

    def test_matches_reference_values_and_charges(self, field, rng):
        cases = []
        for num_degree, div_degree in ((9, 4), (3, 5), (6, 0), (-1, 2), (7, 7)):
            for zeros in (0, 3):
                cases.append(
                    (padded(field, rng, num_degree, zeros), padded(field, rng, div_degree, zeros))
                )
        # An exact multiple, padded: the remainder is zero.
        divisor = Poly.random(field, 3, rng)
        multiple = divisor * Poly.random(field, 5, rng)
        cases.append((multiple.coefficient_array(12), divisor.coefficient_array()))
        # A numerator with interior zeros: zero leading terms are skipped uncharged.
        cases.append((np.array([1, 0, 0, 0, 0, 1, 0, 0]), np.array([1, 1])))
        for numerator, divisor in cases:
            (*got, charge), count = counted(field, long_division, field, numerator, divisor)
            want, want_count = counted(
                field, Poly(field, numerator).divmod, Poly(field, divisor)
            )
            assert [part.tolist() for part in got] == [part.coeffs for part in want]
            assert count == want_count
            assert charge == count.total
