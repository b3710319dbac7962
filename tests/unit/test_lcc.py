"""Unit tests for the Lagrange coded computing layer."""

import numpy as np
import pytest

from reference.counting import counted as overheard
from reference.interpolation import interpolation_polynomials
from reference.machine import evaluate
from reference.polynomial import compose
from repro.exceptions import ConfigurationError, DecodingError, FieldError
from repro.gf.multivariate import MultivariatePolynomial
from repro.gf.prime_field import PrimeField
from repro.lcc import decoder as decoder_module
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme


@pytest.fixture
def scheme(big_field):
    return LagrangeScheme(big_field, num_machines=4, num_nodes=16)


class TestScheme:
    def test_points_are_distinct(self, scheme):
        assert len(set(scheme.omegas)) == 4
        assert len(set(scheme.alphas)) == 16
        assert not set(scheme.omegas) & set(scheme.alphas)

    def test_coefficient_matrix_shape(self, scheme):
        assert scheme.coefficient_matrix.shape == (16, 4)

    def test_coefficient_rows_sum_to_one(self, scheme, big_field):
        # Lagrange basis functions sum to 1 at every evaluation point.
        matrix = scheme.coefficient_matrix
        for i in range(scheme.num_nodes):
            assert big_field.sum(matrix[i, :]) == 1

    def test_encode_scalars_matches_matrix(self, scheme, big_field, rng):
        values = rng.integers(0, 1000, size=4)
        encoded = scheme.encode_scalars(values)
        expected = [(int(np.dot(scheme.coefficient_matrix[i].astype(object), values)) % big_field.order)
                    for i in range(16)]
        assert list(encoded) == expected

    def test_encode_vectors_componentwise(self, scheme, rng):
        values = rng.integers(0, 1000, size=(4, 3))
        encoded = scheme.encode_vectors(values)
        assert encoded.shape == (16, 3)
        for component in range(3):
            assert list(encoded[:, component]) == list(
                scheme.encode_scalars(values[:, component])
            )

    def test_invalid_configurations_rejected(self, big_field):
        with pytest.raises(ConfigurationError):
            LagrangeScheme(big_field, num_machines=0, num_nodes=4)
        with pytest.raises(ConfigurationError):
            LagrangeScheme(big_field, num_machines=5, num_nodes=4)
        small = PrimeField(7)
        with pytest.raises(ConfigurationError):
            LagrangeScheme(small, num_machines=3, num_nodes=5)

    def test_custom_points_must_be_distinct(self, big_field, small_field):
        with pytest.raises(ConfigurationError):
            LagrangeScheme(big_field, 2, 4, omegas=[1, 1])
        with pytest.raises(ConfigurationError):
            LagrangeScheme(big_field, 2, 4, alphas=[10, 11, 10, 12])
        # Equal mod p is equal: GF(97) sees one point twice.
        with pytest.raises(ConfigurationError):
            LagrangeScheme(small_field, 2, 2, alphas=[10, 10 + 97])
        with pytest.raises(ConfigurationError):
            LagrangeScheme(small_field, 2, 2, omegas=[1, 1 + 97])

    def test_degree_bookkeeping(self, scheme):
        assert scheme.composite_degree(2) == 6
        assert scheme.decoding_dimension(2) == 7
        assert scheme.max_correctable_errors(2) == (16 - 7) // 2

    def test_encode_wrong_row_count_rejected(self, scheme):
        with pytest.raises(FieldError):
            scheme.encode_vectors(np.zeros((3, 2), dtype=np.int64))


class TestEncoder:
    def test_matrix_and_interpolation_paths_agree(self, scheme, rng):
        # Coded value i is the interpolant through (omega_k, value_k) at alpha_i.
        encoder = CodedStateEncoder(scheme)
        values = rng.integers(0, 10_000, size=(4, 5))
        polys = interpolation_polynomials(scheme, values)
        expected = [[poly.evaluate(alpha) for poly in polys] for alpha in scheme.alphas]
        assert encoder.encode(values).tolist() == expected

    def test_coded_value_at_omega_recovers_original(self, scheme, rng):
        # Evaluating the interpolant at omega_k gives back machine k's value.
        values = rng.integers(0, 10_000, size=(4, 2))
        polys = interpolation_polynomials(scheme, values)
        for k, omega in enumerate(scheme.omegas):
            assert polys[0].evaluate(omega) == int(values[k, 0])
            assert polys[1].evaluate(omega) == int(values[k, 1])

    def test_one_dimensional_input_promoted(self, scheme, rng):
        encoder = CodedStateEncoder(scheme)
        values = rng.integers(0, 100, size=4)
        assert encoder.encode(values).shape == (16, 1)


class TestDecoder:
    def _coded_results(self, scheme, states, commands, polys):
        encoder = CodedStateEncoder(scheme)
        coded_states = encoder.encode(states)
        coded_commands = encoder.encode(commands)
        results = np.zeros((scheme.num_nodes, len(polys)), dtype=np.int64)
        for i in range(scheme.num_nodes):
            assignment = [int(v) for v in coded_states[i]] + [
                int(v) for v in coded_commands[i]
            ]
            for j, poly in enumerate(polys):
                results[i, j] = evaluate(poly, assignment)
        return results

    def _expected(self, states, commands, polys):
        out = np.zeros((states.shape[0], len(polys)), dtype=np.int64)
        for k in range(states.shape[0]):
            assignment = [int(v) for v in states[k]] + [int(v) for v in commands[k]]
            for j, poly in enumerate(polys):
                out[k, j] = evaluate(poly, assignment)
        return out

    @pytest.fixture
    def workload(self, scheme, big_field, rng):
        states = rng.integers(0, 1000, size=(4, 2))
        commands = rng.integers(0, 1000, size=(4, 2))
        polys = [
            MultivariatePolynomial(big_field, 4, {(1, 0, 1, 0): 1, (0, 1, 0, 0): 2}),
            MultivariatePolynomial(big_field, 4, {(0, 0, 1, 1): 3, (1, 0, 0, 0): 1}),
        ]
        return states, commands, polys

    def test_decode_without_errors(self, scheme, workload):
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        decoded = decoder.decode_fast(results)
        assert np.array_equal(decoded.outputs, self._expected(states, commands, polys))
        assert decoded.error_nodes == ()

    def test_decode_corrects_up_to_max_errors(self, scheme, workload, rng):
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        bad = list(rng.choice(scheme.num_nodes, size=decoder.max_errors, replace=False))
        for i in bad:
            results[i] = rng.integers(0, 10_000, size=results.shape[1])
        decoded = decoder.decode_fast(results)
        assert np.array_equal(decoded.outputs, self._expected(states, commands, polys))
        assert set(decoded.error_nodes) <= set(int(b) for b in bad)

    def test_decode_fails_beyond_max_errors(self, scheme, workload):
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        for i in range(decoder.max_errors + 1):
            results[i] = (results[i] + 1 + i)
        with pytest.raises(DecodingError):
            decoder.decode_fast(results)

    def test_decode_partial_with_silent_and_wrong_nodes(self, scheme, workload, rng):
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        entries: list = [row.copy() for row in results]
        # Partially synchronous worst case: b silent, b wrong, 3b+1 <= N - d(K-1)
        # With N=16, d(K-1)=6 -> b <= 3.
        entries[0] = None
        entries[1] = None
        entries[2] = None
        entries[5] = rng.integers(0, 100, size=results.shape[1])
        entries[6] = rng.integers(0, 100, size=results.shape[1])
        entries[7] = rng.integers(0, 100, size=results.shape[1])
        decoded = decoder.decode_fast(entries)
        assert np.array_equal(decoded.outputs, self._expected(states, commands, polys))
        assert set(decoded.error_nodes) == {5, 6, 7}

    def test_repeated_pivot_reuses_its_matrices(self, scheme, workload, monkeypatch):
        # The second decode with the same pivot takes the three matrices from
        # the decoder itself: no further transfer-matrix lookup, while its
        # outputs and the operations it charges are those of the first.
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        lookups = []
        real_lookup = decoder_module.cached_transfer_matrix

        def counted(*args):
            lookups.append(args[1:])
            return real_lookup(*args)

        monkeypatch.setattr(decoder_module, "cached_transfer_matrix", counted)

        def decode():
            decoded, count = overheard(scheme.field, decoder.decode_fast, results)
            assert decoded.ops == count.total
            return decoded.outputs.tolist(), count

        first = decode()
        assert len(lookups) == 2  # to_all and to_omegas
        second = decode()
        assert len(lookups) == 2
        assert second == first
        assert first[0] == self._expected(states, commands, polys).tolist()

    def test_coefficients_are_the_composite_polynomials(self, scheme, workload, rng):
        # Node 0 sits in the first pivot: component 0 falls back to
        # Berlekamp-Welch, component 1 re-pivots and decodes fast.  Both
        # columns of the one (D, width) array are the coefficients of
        # h_j(z) = f_j(u(z), v(z)), zero-padded to D = d(K - 1) + 1.
        states, commands, polys = workload
        decoder = CodedResultDecoder(scheme, transition_degree=2)
        results = self._coded_results(scheme, states, commands, polys)
        results[0] = rng.integers(0, 10_000, size=results.shape[1])
        decoded = decoder.decode_fast(results)
        inner = interpolation_polynomials(scheme, states) + interpolation_polynomials(
            scheme, commands
        )
        dimension = decoder.code.dimension
        expected = np.stack(
            [compose(poly, inner).coefficient_array(dimension) for poly in polys], axis=1
        )
        assert decoded.coefficients.shape == (dimension, len(polys))
        assert decoded.coefficients.tolist() == expected.tolist()
        assert decoded.error_nodes == (0,)

    def test_wrong_result_count_rejected(self, scheme):
        decoder = CodedResultDecoder(scheme, transition_degree=1)
        with pytest.raises(DecodingError):
            decoder.decode_fast(np.zeros((3, 1), dtype=np.int64))
