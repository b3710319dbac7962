"""Unit tests for the Reed–Solomon code container and its decoders."""

import numpy as np
import pytest

from reference.polynomial import Poly
from repro.exceptions import DecodingError, FieldError
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.erasure import ErasureDecoder
from repro.coding.radius import (
    composite_degree,
    max_dimension_for_errors,
    max_errors_correctable,
    max_faults_partially_synchronous,
    max_faults_synchronous,
    max_machines_partially_synchronous,
    max_machines_synchronous,
    required_length,
)
from repro.coding.reed_solomon import ReedSolomonCode
from repro.gf.linalg import gf_solve


@pytest.fixture
def code(small_field):
    return ReedSolomonCode(small_field, small_field.distinct_points(15), 5)


class TestCodeContainer:
    def test_length_dimension_distance(self, code):
        assert code.length == 15
        assert code.dimension == 5
        assert code.minimum_distance == 11
        assert code.correction_radius == 5

    def test_duplicate_points_rejected(self, small_field):
        with pytest.raises(FieldError):
            ReedSolomonCode(small_field, [1, 1, 2], 2)

    def test_dimension_larger_than_length_rejected(self, small_field):
        with pytest.raises(FieldError):
            ReedSolomonCode(small_field, [1, 2, 3], 4)

    def test_field_too_small_rejected(self, small_field):
        with pytest.raises(FieldError):
            ReedSolomonCode(small_field, list(range(97)), 3)

    def test_encode_matches_polynomial_evaluation(self, code, small_field):
        poly = Poly(small_field, [1, 2, 3, 4, 5])
        codeword = code.encode([1, 2, 3, 4, 5])[0]
        assert list(codeword) == [poly.evaluate(x) for x in code.evaluation_points]

    def test_encode_wrong_length_rejected(self, code):
        with pytest.raises(FieldError):
            code.encode([1, 2, 3])

    def test_encoding_matrix_matches_encode(self, code, small_field):
        message = [9, 8, 7, 6, 5]
        matrix = code.encoding_matrix
        assert matrix.shape == (code.length, code.dimension)
        encoded = small_field.matmul(matrix, np.array(message).reshape(-1, 1)).ravel()
        assert encoded.tolist() == code.encode(message)[0].tolist()


class _ErasureFreeDecoder:
    """The erasure decoder fed a word with nothing erased.

    With no erasures the punctured code is the code itself, so the erasure
    path must reach the full error radius of the plain decoder.
    """

    def __init__(self, code):
        self.decoder = ErasureDecoder(code)

    def decode(self, received):
        return self.decoder.decode_with_erasures([int(v) for v in received])


@pytest.mark.parametrize(
    "decoder_cls",
    [BerlekampWelchDecoder, _ErasureFreeDecoder],
    ids=["BerlekampWelchDecoder", "ErasureDecoder"],
)
class TestErrorDecoders:
    def test_decodes_clean_codeword(self, code, decoder_cls):
        message = [3, 1, 4, 1, 5]
        result = decoder_cls(code).decode(code.encode(message)[0])
        assert result.coefficients.tolist() == message
        assert result.num_errors == 0

    def test_corrects_up_to_radius(self, code, decoder_cls, rng):
        message = [int(v) for v in rng.integers(0, 97, size=5)]
        codeword = code.encode(message)[0]
        corrupted = codeword.copy()
        error_positions = rng.choice(code.length, size=code.correction_radius, replace=False)
        for pos in error_positions:
            corrupted[pos] = (corrupted[pos] + int(rng.integers(1, 97))) % 97
        result = decoder_cls(code).decode(corrupted)
        assert result.coefficients.tolist() == message
        assert set(result.error_positions) <= set(int(p) for p in error_positions)

    def test_fails_beyond_radius(self, code, decoder_cls, rng):
        message = [int(v) for v in rng.integers(0, 97, size=5)]
        codeword = code.encode(message)[0]
        corrupted = codeword.copy()
        # radius + 1 structured errors that do not form another codeword
        for pos in range(code.correction_radius + 1):
            corrupted[pos] = (corrupted[pos] + 1 + pos) % 97
        with pytest.raises(DecodingError):
            decoder_cls(code).decode(corrupted)

    def test_coefficients_zero_padded_to_dimension(self, code, decoder_cls):
        # A message of degree 1 still comes back as all k coefficients.
        result = decoder_cls(code).decode(code.encode([3, 1, 0, 0, 0])[0])
        assert result.coefficients.tolist() == [3, 1, 0, 0, 0]
        assert result.coefficients.dtype == np.int64

    def test_word_of_degree_k_rejected(self, code, decoder_cls, small_field):
        # z**k is one degree too many: its word is no codeword of the code,
        # nor within the radius of one.
        word = Poly(small_field, [0, 0, 0, 0, 0, 1]).evaluate_many(code.evaluation_points)
        with pytest.raises(DecodingError):
            decoder_cls(code).decode(word)

    def test_error_positions_reported(self, code, decoder_cls):
        codeword = code.encode([1, 2, 3, 4, 5])[0]
        corrupted = codeword.copy()
        corrupted[2] = (corrupted[2] + 11) % 97
        corrupted[9] = (corrupted[9] + 22) % 97
        result = decoder_cls(code).decode(corrupted)
        assert set(result.error_positions) == {2, 9}

    def test_wrong_length_rejected(self, code, decoder_cls):
        with pytest.raises(DecodingError):
            decoder_cls(code).decode([1, 2, 3])


class TestBerlekampWelchSpecifics:
    def test_fewer_errors_than_radius(self, code, rng):
        # One error at radius 5: the radius-sized key equation is
        # underdetermined, and any of its solutions divides to the message.
        message = [int(v) for v in rng.integers(0, 97, size=5)]
        corrupted = code.encode(message)[0]
        corrupted[1] = (corrupted[1] + 3) % 97
        result = BerlekampWelchDecoder(code).decode(corrupted)
        assert result.coefficients.tolist() == message
        assert result.error_positions == (1,)

    @pytest.mark.parametrize("num_errors", [0, 2, 5, 6, 9])
    def test_one_key_equation_solve_per_decode(self, code, rng, monkeypatch, num_errors):
        # Within the radius and past it alike, one solve at e = radius decides
        # the word; a failing decode does not retry smaller error counts.
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(args[1].shape)
            return gf_solve(*args, **kwargs)

        monkeypatch.setattr("repro.coding.berlekamp_welch.gf_solve", counting_solve)
        corrupted = code.encode([int(v) for v in rng.integers(0, 97, size=5)])[0]
        for pos in range(num_errors):
            corrupted[pos] = (corrupted[pos] + 1 + pos) % 97
        if num_errors <= code.correction_radius:
            assert BerlekampWelchDecoder(code).decode(corrupted).num_errors == num_errors
        else:
            with pytest.raises(DecodingError):
                BerlekampWelchDecoder(code).decode(corrupted)
        radius = code.correction_radius
        assert calls == [(code.length, code.dimension + 2 * radius)]

    def test_decodes_over_binary_extension_field(self, gf256):
        # The Appendix A Boolean machines run over GF(2**8); Berlekamp-Welch
        # must correct errors there with the same elimination routines.
        code = ReedSolomonCode(gf256, gf256.distinct_points(12), 4)
        message = [0x57, 0x83, 0x01, 0xC1]
        corrupted = code.encode(message)[0].copy()
        corrupted[0] ^= 0x10
        corrupted[5] ^= 0xFF
        result = BerlekampWelchDecoder(code).decode(corrupted)
        assert result.coefficients.tolist() == message
        assert set(result.error_positions) == {0, 5}

    def test_trivial_code(self, small_field):
        code = ReedSolomonCode(small_field, [5], 1)
        result = BerlekampWelchDecoder(code).decode([42])
        assert result.coefficients.tolist() == [42]

    def test_programming_error_in_solver_propagates(self, code, monkeypatch):
        # Only an inconsistent system (FieldError) means "no codeword at this
        # error count"; any other exception is a bug and must not be turned
        # into a DecodingError the engine would count as a beyond-radius round.
        def broken_solve(*args, **kwargs):
            raise TypeError("solver bug")

        monkeypatch.setattr("repro.coding.berlekamp_welch.gf_solve", broken_solve)
        with pytest.raises(TypeError, match="solver bug"):
            BerlekampWelchDecoder(code).decode(code.encode([1, 2, 3, 4, 5])[0])


def puncture(received, missing):
    """Mark the given positions of a received word as erased."""
    word = [int(v) for v in received]
    for index in missing:
        word[int(index)] = None
    return word


class TestErasureDecoder:
    def test_erasures_only(self, code, rng):
        message = [int(v) for v in rng.integers(0, 97, size=5)]
        word = puncture(code.encode(message)[0], [0, 4, 8, 12])
        result = ErasureDecoder(code).decode_with_erasures(word)
        assert result.coefficients.tolist() == message
        assert result.error_positions == ()

    def test_erasures_plus_errors(self, code, rng):
        message = [int(v) for v in rng.integers(0, 97, size=5)]
        codeword = code.encode(message)[0]
        word = puncture(codeword, [1, 6])          # 2 erasures -> 13 survivors
        word[3] = (int(word[3]) + 7) % 97            # plus errors within radius
        word[10] = (int(word[10]) + 7) % 97
        result = ErasureDecoder(code).decode_with_erasures(word)
        assert result.coefficients.tolist() == message
        assert set(result.error_positions) == {3, 10}

    def test_erasures_only_detects_inconsistency(self, code):
        # 9 erasures leave 6 survivors at K=5: room to detect one error but
        # not to correct it, so a corrupted survivor must raise.
        word = puncture(code.encode([1, 2, 3, 4, 5])[0], list(range(9)))
        word[12] = (int(word[12]) + 1) % 97
        with pytest.raises(DecodingError):
            ErasureDecoder(code).decode_with_erasures(word)

    def test_solves_once_on_the_survivors(self, code, monkeypatch):
        # 2 erasures leave 13 survivors at k=5, radius 4: five errors are one
        # too many, and the punctured system is solved once, at e = 4.
        shapes = []

        def counting_solve(*args, **kwargs):
            shapes.append(args[1].shape)
            return gf_solve(*args, **kwargs)

        monkeypatch.setattr("repro.coding.berlekamp_welch.gf_solve", counting_solve)
        word = puncture(code.encode([1, 2, 3, 4, 5])[0], [0, 1])
        for pos in range(2, 7):
            word[pos] = (word[pos] + pos) % 97
        with pytest.raises(DecodingError):
            ErasureDecoder(code).decode_with_erasures(word)
        assert shapes == [(13, 5 + 2 * 4)]

    def test_too_few_survivors_rejected(self, code):
        word = puncture(code.encode([1, 2, 3, 4, 5])[0], list(range(12)))
        with pytest.raises(DecodingError):
            ErasureDecoder(code).decode_with_erasures(word)


class TestRadiusFormulas:
    def test_max_errors(self):
        assert max_errors_correctable(15, 5) == 5
        assert max_errors_correctable(16, 5) == 5
        with pytest.raises(ValueError):
            max_errors_correctable(4, 5)

    def test_max_dimension(self):
        assert max_dimension_for_errors(15, 5) == 5
        assert max_dimension_for_errors(10, 6) == 0

    def test_required_length(self):
        assert required_length(5, 5) == 15

    def test_composite_degree(self):
        assert composite_degree(4, 2) == 6
        with pytest.raises(ValueError):
            composite_degree(0, 2)

    def test_table2_machine_bounds(self):
        # N = 16, b = 3, d = 1:  K <= (16 - 7) / 1 + 1 = 10  (sync uses 2b)
        assert max_machines_synchronous(16, 3, 1) == 10
        # partial sync uses 3b: K <= (16 - 10) / 1 + 1 = 7
        assert max_machines_partially_synchronous(16, 3, 1) == 7

    def test_table2_fault_bounds(self):
        assert max_faults_synchronous(16, 4, 1) == 6   # (16 - 3 - 1) / 2
        assert max_faults_partially_synchronous(16, 4, 1) == 4  # (16 - 3 - 1) / 3

    def test_fault_bounds_infeasible(self):
        assert max_faults_synchronous(4, 8, 2) == -1
