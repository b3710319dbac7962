"""Property tests for the batched encode/decode pipeline.

Every batch API must agree *element for element* with the scalar path it
amortises — across random fields, batch sizes, and erasure/error mixes sat
exactly on the decoding-radius boundary from :mod:`repro.coding.radius`.
The batched fast paths take a different route through the linear algebra
(cached Vandermonde products instead of per-round interpolation /
Berlekamp–Welch systems), so these tests pin the bit-identity contract the
execution engine and the benchmarks rely on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coding.erasure import ErasureDecoder, puncture
from repro.coding.reed_solomon import ReedSolomonCode
from repro.exceptions import DecodingError
from repro.gf.prime_field import PrimeField
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme

#: Random fields: every modulus gives different canonical arithmetic, so any
#: accidental int64 overflow or missing reduction in the vectorised paths
#: shows up as a bit difference against the scalar path.
FIELDS = [PrimeField(p) for p in (101, 257, 65_537, 2_147_483_647)]

relaxed = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _code(field: PrimeField, length: int, dimension: int) -> ReedSolomonCode:
    return ReedSolomonCode(field, list(range(1, length + 1)), dimension)


class TestEncodeBatch:
    @relaxed
    @given(
        field_index=st.integers(0, len(FIELDS) - 1),
        batch=st.integers(1, 5),
        num_machines=st.integers(1, 5),
        dim=st.integers(1, 4),
        data=st.data(),
    )
    def test_lcc_encode_batch_matches_scalar(
        self, field_index, batch, num_machines, dim, data
    ):
        field = FIELDS[field_index]
        scheme = LagrangeScheme(field, num_machines, num_machines + 3)
        encoder = CodedStateEncoder(scheme)
        values = np.array(
            [
                [
                    [
                        data.draw(st.integers(0, min(field.order, 10**6) - 1))
                        for _ in range(dim)
                    ]
                    for _ in range(num_machines)
                ]
                for _ in range(batch)
            ],
            dtype=np.int64,
        )
        coded = encoder.encode_batch(values)
        assert coded.shape == (batch, scheme.num_nodes, dim)
        for round_index in range(batch):
            np.testing.assert_array_equal(
                coded[round_index], encoder.encode(values[round_index])
            )


class TestErasureRadiusBoundary:
    def test_erasure_failure_reports_budget(self):
        """One error past the radius: the DecodingError names the budget."""
        field = PrimeField(257)
        code = _code(field, 10, 4)
        decoder = ErasureDecoder(code)
        word = code.encode([1, 2, 3, 4])
        # Erase down to 6 survivors (budget e <= 1), then corrupt 2 survivors.
        received = puncture(word, [0, 1, 2, 3])
        received[4] = field.add(int(received[4]), 7)
        received[5] = field.add(int(received[5]), 9)
        with pytest.raises(DecodingError) as excinfo:
            decoder.decode_with_erasures(received)
        message = str(excinfo.value)
        assert "6 survivors" in message
        assert "K=4" in message
        assert "2e <= survivors - K = 2" in message


class TestDecodeFastAgainstScalarRounds:
    @relaxed
    @given(
        field_index=st.integers(0, len(FIELDS) - 1),
        num_machines=st.integers(1, 4),
        extra=st.integers(2, 8),
        result_dim=st.integers(1, 3),
        data=st.data(),
    )
    def test_decode_fast_full_and_partial(
        self, field_index, num_machines, extra, result_dim, data
    ):
        field = FIELDS[field_index]
        num_nodes = num_machines + extra
        scheme = LagrangeScheme(field, num_machines, num_nodes)
        decoder = CodedResultDecoder(scheme, transition_degree=1)
        dimension = decoder.code.dimension
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
        # Random codeword matrix: each column is a degree < dimension poly.
        coeffs = rng.integers(0, field.order, size=(dimension, result_dim))
        results = field.matmul(decoder.code.encoding_matrix, coeffs)
        # Corrupt whole node rows up to the full-presence radius.
        radius = decoder.code.correction_radius
        num_bad = int(rng.integers(0, radius + 1))
        bad = rng.choice(num_nodes, size=num_bad, replace=False)
        corrupted = results.copy()
        for node in bad:
            corrupted[node] = rng.integers(0, field.order, size=result_dim)
        scalar = decoder.decode(corrupted)
        fast = decoder.decode_fast(corrupted, set())
        np.testing.assert_array_equal(scalar.outputs, fast.outputs)
        assert scalar.error_nodes == fast.error_nodes
        assert scalar.polynomials == fast.polynomials

        # Partially synchronous: silence some healthy rows, keep the bound
        # 2 * errors <= present - dimension satisfied.
        max_silent = (num_nodes - dimension) - 2 * num_bad
        if max_silent > 0:
            healthy = [i for i in range(num_nodes) if i not in set(bad)]
            num_silent = int(rng.integers(1, max_silent + 1))
            silent = set(
                int(i) for i in rng.choice(healthy, size=min(num_silent, len(healthy)), replace=False)
            )
            reported = [
                None if i in silent else corrupted[i] for i in range(num_nodes)
            ]
            scalar_partial = decoder.decode_partial(reported)
            fast_partial = decoder.decode_fast(reported, set())
            np.testing.assert_array_equal(
                scalar_partial.outputs, fast_partial.outputs
            )
            assert scalar_partial.error_nodes == fast_partial.error_nodes

    @relaxed
    @given(
        field_index=st.integers(0, len(FIELDS) - 1),
        num_machines=st.integers(1, 4),
        batch=st.integers(1, 5),
        data=st.data(),
    )
    def test_decode_batch_shares_suspects_across_rounds(
        self, field_index, num_machines, batch, data
    ):
        field = FIELDS[field_index]
        num_nodes = num_machines + 4
        scheme = LagrangeScheme(field, num_machines, num_nodes)
        decoder = CodedResultDecoder(scheme, transition_degree=1)
        dimension = decoder.code.dimension
        radius = decoder.code.correction_radius
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
        num_bad = min(int(rng.integers(0, radius + 1)), radius)
        bad = set(int(i) for i in rng.choice(num_nodes, size=num_bad, replace=False))
        rounds = []
        for _ in range(batch):
            coeffs = rng.integers(0, field.order, size=(dimension, 2))
            results = field.matmul(decoder.code.encoding_matrix, coeffs)
            for node in bad:
                results[node] = rng.integers(0, field.order, size=2)
            rounds.append(results)
        suspects: set[int] = set()
        fast_rounds = decoder.decode_batch(
            np.stack(rounds) if rounds else rounds, suspects
        )
        for matrix, fast in zip(rounds, fast_rounds):
            scalar = decoder.decode(matrix)
            np.testing.assert_array_equal(scalar.outputs, fast.outputs)
            assert scalar.error_nodes == fast.error_nodes
        # Every node caught erring must have been learnt as a suspect.
        observed = set()
        for fast in fast_rounds:
            observed.update(fast.error_nodes)
        assert observed <= suspects

    def test_decode_batch_mid_batch_fault_onset(self):
        """A mid-batch onset falls back to the scalar decoder for the onset
        round only: later rounds keep decoding through the fast path with
        the offender excluded from the pivot."""
        field = FIELDS[-1]
        scheme = LagrangeScheme(field, 3, 12)
        decoder = CodedResultDecoder(scheme, transition_degree=1)
        dimension = decoder.code.dimension
        rng = np.random.default_rng(11)
        rounds = []
        for b in range(6):
            coeffs = rng.integers(0, field.order, size=(dimension, 2))
            results = field.matmul(decoder.code.encoding_matrix, coeffs)
            if b >= 3:
                results[0] = rng.integers(0, field.order, size=2)  # pivot member
            rounds.append(results)
        suspects: set[int] = set()
        stacked = decoder.decode_batch(rounds, suspects)
        reference = [decoder.decode(matrix) for matrix in rounds]
        for a, b in zip(reference, stacked):
            np.testing.assert_array_equal(a.outputs, b.outputs)
            assert a.error_nodes == b.error_nodes
        assert 0 in suspects
