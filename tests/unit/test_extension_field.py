"""Unit tests for GF(2**m) and the Appendix A bit embedding."""

import numpy as np
import pytest

from repro.exceptions import FieldError
from reference.counting import counted
from repro.gf import charges
from repro.gf.extension_field import BinaryExtensionField


class TestConstruction:
    def test_order(self):
        assert BinaryExtensionField(8).order == 256

    def test_characteristic_is_two(self):
        assert BinaryExtensionField(4).characteristic == 2

    def test_unsupported_degree_raises(self):
        with pytest.raises(FieldError):
            BinaryExtensionField(40)

    def test_for_network_size_picks_smallest_sufficient_degree(self):
        assert BinaryExtensionField.for_network_size(5).degree == 3
        assert BinaryExtensionField.for_network_size(200).degree == 8


class TestArithmetic:
    def test_addition_is_xor(self, gf256):
        assert gf256.add(0b1010, 0b0110) == 0b1100

    def test_subtraction_equals_addition(self, gf256):
        assert gf256.sub(0b1010, 0b0110) == gf256.add(0b1010, 0b0110)

    def test_negation_is_identity(self, gf256):
        assert gf256.neg(123) == 123

    def test_aes_multiplication_known_value(self, gf256):
        # 0x57 * 0x83 = 0xC1 in the AES field (standard worked example).
        assert gf256.mul(0x57, 0x83) == 0xC1

    def test_multiplicative_identity(self, gf256):
        for value in (1, 7, 200, 255):
            assert gf256.mul(value, 1) == value

    def test_every_nonzero_element_has_inverse_gf16(self):
        field = BinaryExtensionField(4)
        for value in range(1, 16):
            assert field.mul(value, field.inv(value)) == 1

    def test_inverse_of_zero_raises(self, gf256):
        with pytest.raises(FieldError):
            gf256.inv(0)

    def test_pow_matches_repeated_multiplication(self, gf256):
        value = 0x53
        expected = 1
        for exponent in range(6):
            assert gf256.pow(value, exponent) == expected
            expected = gf256.mul(expected, value)

    def test_fermat_exponent_is_identity(self, gf256):
        # a**(2**m - 1) == 1 for every non-zero a.
        for value in (1, 2, 77, 255):
            assert gf256.pow(value, gf256.order - 1) == 1

    def test_vector_operations(self, gf256):
        a = gf256.array([1, 2, 3])
        b = gf256.array([3, 2, 1])
        assert list(gf256.add(a, b)) == [2, 0, 2]
        products = gf256.mul(a, b)
        assert list(products) == [gf256.mul(1, 3), gf256.mul(2, 2), gf256.mul(3, 1)]
        inverses = gf256.inv(gf256.array([5, 9]))
        assert gf256.mul(int(inverses[0]), 5) == 1
        assert gf256.mul(int(inverses[1]), 9) == 1

    def test_distributivity_spot_checks(self, gf256, rng):
        for _ in range(25):
            a, b, c = (int(rng.integers(0, 256)) for _ in range(3))
            left = gf256.mul(a, gf256.add(b, c))
            right = gf256.add(gf256.mul(a, b), gf256.mul(a, c))
            assert left == right


class TestMatmul:
    """The generic rank-1 ``Field.matmul`` against its per-element definition."""

    @staticmethod
    def _per_element(field, a, b):
        # Output (i, j) is the dot product of row i of a and column j of b.
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                out[i, j] = field.dot(a[i, :], b[:, j])
        return out

    @pytest.mark.parametrize("degree", [4, 8])
    @pytest.mark.parametrize(
        "rows, inner, cols",
        [(3, 5, 4), (1, 1, 1), (4, 1, 3), (2, 7, 1), (0, 3, 2), (2, 0, 3)],
    )
    def test_matches_per_element_values_and_counts(self, degree, rows, inner, cols, rng):
        field = BinaryExtensionField(degree)
        a = field.random_array(rng, (rows, inner))
        b = field.random_array(rng, (inner, cols))
        expected, expected_count = counted(field, self._per_element, field, a, b)
        got, count = counted(field, lambda: field.matmul(a, b))
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        assert count == expected_count
        assert count.multiplications == rows * inner * cols
        assert count.additions == rows * max(inner - 1, 0) * cols
        assert count.total == charges.matmul(rows, inner, cols)

    def test_shape_mismatch_raises(self, gf256):
        with pytest.raises(FieldError):
            gf256.matmul(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))


class TestEmbedding:
    def test_embed_bit_values(self, gf256):
        assert gf256.embed_bit(0) == 0
        assert gf256.embed_bit(1) == 1

    def test_embed_bit_rejects_non_bits(self, gf256):
        with pytest.raises(FieldError):
            gf256.embed_bit(2)

    def test_project_bit_roundtrip(self, gf256):
        assert gf256.project_bit(gf256.embed_bit(1)) == 1
        assert gf256.project_bit(gf256.embed_bit(0)) == 0

    def test_project_bit_rejects_non_embeddings(self, gf256):
        with pytest.raises(FieldError):
            gf256.project_bit(5)

    def test_polynomial_value_invariant_under_embedding(self, gf256):
        # x*y + z over GF(2) agrees with the same expression over GF(2**m)
        # when the inputs are embedded bits (Appendix A invariance).
        for x in (0, 1):
            for y in (0, 1):
                for z in (0, 1):
                    gf2_value = (x * y + z) % 2
                    embedded = gf256.add(gf256.mul(x, y), z)
                    assert embedded == gf2_value
