"""Unit tests for the Lagrange coefficient matrix, finite-field linear
algebra, the Vandermonde matrix and the encode/decode matrix cache."""

import numpy as np
import pytest

from reference.counting import counting
from reference.interpolation import lagrange_coefficient_matrix, lagrange_interpolate
from reference.polynomial import Poly
from repro.exceptions import FieldError
from repro.gf.linalg import gf_inverse_matrix, gf_matvec, gf_solve
from repro.gf.matrix_cache import (
    cached_interpolation_matrix,
    cached_transfer_matrix,
    cached_vandermonde,
    clear_matrix_cache,
    matrix_cache_info,
)
from repro.gf.vandermonde import vandermonde_matrix
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.scheme import LagrangeScheme


def _invertible(field, rng, size):
    """A random ``size x size`` matrix that is invertible over ``field``."""
    while True:
        matrix = rng.integers(0, field.order, size=(size, size))
        try:
            gf_inverse_matrix(field, matrix)
        except FieldError:
            continue
        return matrix


class TestLagrange:
    def test_interpolation_recovers_polynomial(self, small_field, rng):
        poly = Poly.random(small_field, 5, rng)
        xs = small_field.distinct_points(6)
        ys = [poly.evaluate(x) for x in xs]
        assert lagrange_interpolate(small_field, xs, ys) == poly

    def test_interpolation_through_given_points(self, small_field):
        xs, ys = [1, 2, 3], [10, 20, 40]
        poly = lagrange_interpolate(small_field, xs, ys)
        assert [poly.evaluate(x) for x in xs] == ys

    def test_duplicate_points_rejected(self, small_field):
        with pytest.raises(FieldError):
            lagrange_interpolate(small_field, [1, 1], [2, 3])

    def test_alpha_at_omega_gives_identity_rows(self, small_field):
        # A node placed at an interpolation point gets the indicator row:
        # it stores that machine's true value.
        scheme = LagrangeScheme(
            small_field, 4, 6, omegas=[1, 2, 3, 4], alphas=[30, 2, 31, 4, 1, 32]
        )
        matrix = scheme.coefficient_matrix
        assert matrix[1].tolist() == [0, 1, 0, 0]
        assert matrix[3].tolist() == [0, 0, 0, 1]
        assert matrix[4].tolist() == [1, 0, 0, 0]

    def test_coefficient_matrix_encodes_interpolant(self, small_field, rng):
        omegas = [1, 2, 3]
        alphas = [10, 11, 12, 13, 14]
        scheme = LagrangeScheme(small_field, 3, 5, omegas=omegas, alphas=alphas)
        values = [5, 9, 21]
        poly = lagrange_interpolate(small_field, omegas, values)
        encoded = gf_matvec(small_field, scheme.coefficient_matrix, np.array(values))
        assert list(encoded) == [poly.evaluate(a) for a in alphas]

    def test_coefficient_matrix_at_omegas_is_identity(self, small_field):
        # A node placed at omega_k holds exactly the k-th true value.
        omegas = [3, 8, 20, 41]
        scheme = LagrangeScheme(small_field, 4, 4, omegas=omegas, alphas=omegas)
        assert scheme.coefficient_matrix.tolist() == np.eye(4, dtype=int).tolist()

    @pytest.mark.parametrize("num_nodes, num_machines", [(5, 3), (32, 9), (64, 38)])
    def test_coefficient_matrix_matches_scalar_oracle(
        self, big_field, num_nodes, num_machines
    ):
        scheme = LagrangeScheme(big_field, num_machines, num_nodes)
        expected = lagrange_coefficient_matrix(big_field, scheme.omegas, scheme.alphas)
        assert scheme.coefficient_matrix.tolist() == expected.tolist()

    def test_coefficient_matrix_matches_scalar_oracle_over_gf256(self, gf256):
        scheme = LagrangeScheme(gf256, 5, 17)
        expected = lagrange_coefficient_matrix(gf256, scheme.omegas, scheme.alphas)
        assert scheme.coefficient_matrix.tolist() == expected.tolist()


class TestLinalg:
    def test_matvec_matches_numpy_mod_p(self, small_field, rng):
        matrix = rng.integers(0, 97, size=(4, 6))
        vector = rng.integers(0, 97, size=6)
        expected = (matrix @ vector) % 97
        assert list(gf_matvec(small_field, matrix, vector)) == list(expected)

    def test_matmul_matches_numpy_mod_p(self, small_field, rng):
        a = rng.integers(0, 97, size=(3, 4))
        b = rng.integers(0, 97, size=(4, 5))
        expected = (a @ b) % 97
        assert small_field.matmul(a, b).tolist() == expected.tolist()

    def test_solve_unique_system(self, small_field, rng):
        matrix = _invertible(small_field, rng, 5)
        x = rng.integers(0, 97, size=5)
        rhs = gf_matvec(small_field, matrix, x)
        solution, _ = gf_solve(small_field, matrix, rhs)
        assert list(solution) == list(small_field.array(x))

    def test_solve_inconsistent_raises(self, small_field):
        matrix = np.array([[1, 0], [1, 0]])
        with pytest.raises(FieldError):
            gf_solve(small_field, matrix, np.array([1, 2]))

    def test_solve_underdetermined(self, small_field):
        matrix = np.array([[1, 1]])
        with pytest.raises(FieldError):
            gf_solve(small_field, matrix, np.array([5]))
        solution, _ = gf_solve(
            small_field, matrix, np.array([5]), allow_underdetermined=True
        )
        assert (int(solution[0]) + int(solution[1])) % 97 == 5

    def test_inverse_matrix(self, small_field, rng):
        matrix = _invertible(small_field, rng, 4)
        inverse = gf_inverse_matrix(small_field, matrix)
        assert small_field.matmul(matrix, inverse).tolist() == np.eye(4, dtype=int).tolist()

    def test_inverse_of_singular_raises(self, small_field):
        with pytest.raises(FieldError):
            gf_inverse_matrix(small_field, np.array([[1, 2], [2, 4]]))

    def test_matvec_shape_mismatch_raises(self, small_field):
        with pytest.raises(FieldError):
            gf_matvec(small_field, np.ones((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64))

    def test_solve_shape_mismatch_raises(self, small_field):
        with pytest.raises(FieldError):
            gf_solve(small_field, np.eye(3, dtype=np.int64), np.ones(2, dtype=np.int64))

    def test_inverse_requires_square_matrix(self, small_field):
        with pytest.raises(FieldError):
            gf_inverse_matrix(small_field, np.ones((2, 3), dtype=np.int64))

    def test_solve_over_binary_extension_field(self, gf256, rng):
        matrix = _invertible(gf256, rng, 4)
        x = rng.integers(0, 256, size=4)
        rhs = gf_matvec(gf256, matrix, x)
        assert list(gf_solve(gf256, matrix, rhs)[0]) == list(gf256.array(x))

    def test_inverse_over_binary_extension_field(self, gf256, rng):
        matrix = _invertible(gf256, rng, 3)
        inverse = gf_inverse_matrix(gf256, matrix)
        assert gf256.matmul(matrix, inverse).tolist() == np.eye(3, dtype=int).tolist()


class TestVandermonde:
    def test_matrix_entries(self, small_field):
        matrix = vandermonde_matrix(small_field, [2, 3], 3)
        assert matrix.tolist() == [[1, 2, 4], [1, 3, 9]]

    def test_zero_columns_rejected(self, small_field):
        with pytest.raises(FieldError):
            vandermonde_matrix(small_field, [2, 3], 0)

    def test_matvec_evaluates_polynomial(self, small_field, rng):
        poly = Poly.random(small_field, 4, rng)
        points = small_field.distinct_points(9)
        matrix = vandermonde_matrix(small_field, points, 5)
        evaluations = gf_matvec(small_field, matrix, poly.coefficient_array(5))
        assert list(evaluations) == list(poly.evaluate_many(points))

    def test_square_matrix_of_repeated_points_is_singular(self, small_field):
        matrix = vandermonde_matrix(small_field, [4, 7, 4], 3)
        with pytest.raises(FieldError):
            gf_inverse_matrix(small_field, matrix)


class TestMatrixCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        clear_matrix_cache()
        yield
        clear_matrix_cache()

    def test_vandermonde_entry_is_shared_and_read_only(self, small_field):
        points = [2, 3, 5]
        matrix = cached_vandermonde(small_field, points, 3)
        assert matrix.tolist() == vandermonde_matrix(small_field, points, 3).tolist()
        assert not matrix.flags.writeable
        # Non-canonical representatives of the same points share the entry.
        assert cached_vandermonde(small_field, [2 + 97, 3, 5 - 97], 3) is matrix
        assert matrix_cache_info() == {"vandermonde": 1}

    def test_interpolation_matrix_recovers_coefficients(self, small_field, rng):
        poly = Poly.random(small_field, 5, rng)
        points = small_field.distinct_points(6, start=10)
        inverse = cached_interpolation_matrix(small_field, points)
        coefficients = gf_matvec(small_field, inverse, poly.evaluate_many(points))
        assert list(coefficients) == list(poly.coefficient_array(6))

    def test_transfer_matrix_re_evaluates_polynomial(self, small_field, rng):
        poly = Poly.random(small_field, 3, rng)
        from_points = [1, 2, 3, 4]
        to_points = [30, 31, 32, 33, 34, 35, 36]
        transfer = cached_transfer_matrix(small_field, from_points, to_points)
        assert transfer.shape == (7, 4)
        moved = gf_matvec(small_field, transfer, poly.evaluate_many(from_points))
        assert list(moved) == list(poly.evaluate_many(to_points))

    def test_scheme_matrix_is_the_omega_to_alpha_transfer(self, small_field):
        omegas, alphas = [1, 2, 3], [10, 11, 12, 13, 14]
        scheme = LagrangeScheme(small_field, 3, 5, omegas=omegas, alphas=alphas)
        assert scheme.coefficient_matrix is cached_transfer_matrix(
            small_field, omegas, alphas
        )
        assert not scheme.coefficient_matrix.flags.writeable
        assert matrix_cache_info() == {"transfer": 1}

    def test_builds_are_not_charged_to_the_attached_counter(self, small_field, rng):
        # A build is one-off work charged to no round: a decode that builds
        # its pivot matrices returns the charge of one that finds them
        # cached, which is all the oracle overhears when nothing is built.
        scheme = LagrangeScheme(small_field, 3, 8)
        results = small_field.matmul(scheme.coefficient_matrix, rng.integers(0, 97, (3, 2)))
        clear_matrix_cache()
        cold = CodedResultDecoder(scheme, transition_degree=1).decode_fast(results)
        assert matrix_cache_info() == {"interpolation": 1, "transfer": 2}
        with counting(small_field) as count:
            warm = CodedResultDecoder(scheme, transition_degree=1).decode_fast(results)
        assert cold.ops == warm.ops == count.total > 0

    def test_info_counts_kinds_and_clear_empties(self, small_field):
        cached_vandermonde(small_field, [1, 2], 2)
        cached_vandermonde(small_field, [1, 2], 1)
        cached_interpolation_matrix(small_field, [1, 2])
        cached_transfer_matrix(small_field, [1, 2], [3, 4])
        assert matrix_cache_info() == {
            "vandermonde": 2,
            "interpolation": 1,
            "transfer": 1,
        }
        clear_matrix_cache()
        assert matrix_cache_info() == {}
