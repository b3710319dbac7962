"""Property-based tests (hypothesis) for the core algebraic invariants.

These cover the invariants every higher layer relies on:

* field axioms of GF(p) and GF(2**m);
* interpolation/evaluation round trips;
* Reed–Solomon decoding correcting any error pattern within the radius;
* the CSM encode -> coded-execute -> decode pipeline recovering the exact
  uncoded results for arbitrary polynomial machines, states and commands;
* INTERMIX never accepting a wrong product and never rejecting a right one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference.interpolation import lagrange_interpolate
from reference.machine import result_vector
from reference.polynomial import Poly
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.reed_solomon import ReedSolomonCode, horner, long_division
from repro.gf.extension_field import BinaryExtensionField
from repro.gf.linalg import gf_matvec
from repro.gf.prime_field import PrimeField
from repro.intermix.protocol import IntermixProtocol
from repro.intermix.worker import WorkerStrategy
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme
from repro.machine.library import random_polynomial_machine

FIELD = PrimeField(2_147_483_647)
SMALL = PrimeField(97)
GF16 = BinaryExtensionField(4)

elements = st.integers(min_value=0, max_value=96)
big_elements = st.integers(min_value=0, max_value=FIELD.order - 1)
gf16_elements = st.integers(min_value=0, max_value=15)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFieldAxioms:
    @relaxed
    @given(a=elements, b=elements, c=elements)
    def test_gfp_ring_axioms(self, a, b, c):
        assert SMALL.add(a, b) == SMALL.add(b, a)
        assert SMALL.mul(a, b) == SMALL.mul(b, a)
        assert SMALL.mul(a, SMALL.add(b, c)) == SMALL.add(SMALL.mul(a, b), SMALL.mul(a, c))
        assert SMALL.add(SMALL.add(a, b), c) == SMALL.add(a, SMALL.add(b, c))
        assert SMALL.add(a, SMALL.neg(a)) == 0

    @relaxed
    @given(a=elements.filter(lambda x: x != 0))
    def test_gfp_inverse(self, a):
        assert SMALL.mul(a, SMALL.inv(a)) == 1

    @relaxed
    @given(a=gf16_elements, b=gf16_elements, c=gf16_elements)
    def test_gf2m_ring_axioms(self, a, b, c):
        assert GF16.add(a, b) == GF16.add(b, a)
        assert GF16.mul(a, b) == GF16.mul(b, a)
        assert GF16.mul(a, GF16.add(b, c)) == GF16.add(GF16.mul(a, b), GF16.mul(a, c))
        assert GF16.add(a, a) == 0  # characteristic 2

    @relaxed
    @given(a=gf16_elements.filter(lambda x: x != 0))
    def test_gf2m_inverse(self, a):
        assert GF16.mul(a, GF16.inv(a)) == 1


class TestPolynomialProperties:
    @relaxed
    @given(coeffs=st.lists(elements, min_size=1, max_size=8), point=elements)
    def test_evaluation_is_ring_homomorphism(self, coeffs, point):
        # Horner on coefficient arrays commutes with the oracle's + and *.
        a = Poly(SMALL, coeffs)
        b = Poly(SMALL, list(reversed(coeffs)))

        def at(poly):
            return int(horner(SMALL, poly.coefficient_array(), [point])[0][0])

        assert at(a + b) == SMALL.add(at(a), at(b))
        assert at(a * b) == SMALL.mul(at(a), at(b))

    @relaxed
    @given(values=st.lists(elements, min_size=1, max_size=12))
    def test_interpolation_round_trip(self, values):
        xs = SMALL.distinct_points(len(values))
        poly = lagrange_interpolate(SMALL, xs, values)
        assert poly.degree < len(values)
        assert [poly.evaluate(x) for x in xs] == [v % 97 for v in values]

    @relaxed
    @given(
        coeffs=st.lists(elements, min_size=1, max_size=6),
        divisor=st.lists(elements, min_size=2, max_size=4),
    )
    def test_division_invariant(self, coeffs, divisor):
        a = Poly(SMALL, coeffs)
        b = Poly(SMALL, divisor)
        if b.is_zero:
            return
        q, r, _ = long_division(SMALL, coeffs, divisor)
        assert Poly(SMALL, q) * b + Poly(SMALL, r) == a
        assert r.size - 1 < b.degree


class TestReedSolomonProperties:
    @relaxed
    @given(
        message=st.lists(big_elements, min_size=4, max_size=4),
        error_data=st.lists(
            st.tuples(st.integers(0, 14), st.integers(1, FIELD.order - 1)),
            min_size=0, max_size=5,
        ),
    )
    def test_any_error_pattern_within_radius_is_corrected(self, message, error_data):
        code = ReedSolomonCode(FIELD, FIELD.distinct_points(15), 4)
        codeword = code.encode(message)[0]
        corrupted = codeword.copy()
        positions = {}
        for pos, offset in error_data:
            positions[pos] = offset
        positions = dict(list(positions.items())[: code.correction_radius])
        for pos, offset in positions.items():
            corrupted[pos] = FIELD.add(int(corrupted[pos]), offset)
        result = BerlekampWelchDecoder(code).decode(corrupted)
        assert result.coefficients.tolist() == [
            m % FIELD.order for m in message
        ]
        assert set(result.error_positions) == set(positions)

    @relaxed
    @given(message=st.lists(big_elements, min_size=3, max_size=3))
    def test_reencoding_decoded_word_is_idempotent(self, message):
        code = ReedSolomonCode(FIELD, FIELD.distinct_points(9), 3)
        codeword = code.encode(message)[0]
        result = BerlekampWelchDecoder(code).decode(codeword)
        assert code.encode(result.coefficients)[0].tolist() == codeword.tolist()
        assert result.error_positions == ()


class TestCSMPipelineProperties:
    @relaxed
    @given(
        data=st.data(),
        degree=st.integers(min_value=1, max_value=3),
        num_machines=st.integers(min_value=2, max_value=4),
    )
    def test_coded_execution_equals_uncoded_execution(self, data, degree, num_machines):
        """For random machines/states/commands and any fault set within the
        radius, decoding the coded results reproduces the uncoded outputs."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        machine = random_polynomial_machine(FIELD, 2, 2, degree=degree, rng=rng)
        composite_degree = degree * (num_machines - 1)
        num_nodes = composite_degree + 1 + 2 * 2  # radius exactly 2
        scheme = LagrangeScheme(FIELD, num_machines, num_nodes)
        encoder = CodedStateEncoder(scheme)
        decoder = CodedResultDecoder(scheme, transition_degree=degree)

        states = rng.integers(0, FIELD.order, size=(num_machines, 2))
        commands = rng.integers(0, FIELD.order, size=(num_machines, 2))
        coded_states = encoder.encode(states)
        coded_commands = encoder.encode(commands)
        results = np.zeros(
            (num_nodes, machine.transition.result_dim), dtype=np.int64
        )
        for i in range(num_nodes):
            results[i] = result_vector(
                machine.transition, coded_states[i], coded_commands[i]
            )
        faulty = data.draw(
            st.sets(st.integers(0, num_nodes - 1), min_size=0, max_size=2)
        )
        for i in faulty:
            results[i] = rng.integers(0, FIELD.order, size=results.shape[1])
        decoded = decoder.decode_fast(results)
        for k in range(num_machines):
            expected = result_vector(machine.transition, states[k], commands[k])
            assert decoded.outputs[k].tolist() == expected.tolist()

    @relaxed
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_machines=st.integers(min_value=2, max_value=5),
    )
    def test_encoding_is_linear(self, seed, num_machines):
        """C(aX + bY) = a C(X) + b C(Y) — linearity that the state-update step
        (re-encoding decoded states) silently relies on."""
        rng = np.random.default_rng(seed)
        scheme = LagrangeScheme(FIELD, num_machines, num_machines + 4)
        x = rng.integers(0, FIELD.order, size=num_machines)
        y = rng.integers(0, FIELD.order, size=num_machines)
        a, b = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        combined = FIELD.add(FIELD.mul(x, a), FIELD.mul(y, b))
        left = scheme.encode_scalars(combined)
        right = FIELD.add(
            FIELD.mul(scheme.encode_scalars(x), a), FIELD.mul(scheme.encode_scalars(y), b)
        )
        assert left.tolist() == right.tolist()


class TestIntermixProperties:
    @relaxed
    @given(
        seed=st.integers(0, 2**32 - 1),
        cols=st.integers(min_value=2, max_value=32),
        strategy=st.sampled_from(
            [WorkerStrategy.HONEST, WorkerStrategy.CORRUPT_RESULT, WorkerStrategy.CONSISTENT_LIAR]
        ),
    )
    def test_accept_iff_worker_honest(self, seed, cols, strategy):
        rng = np.random.default_rng(seed)
        node_ids = [f"n{i}" for i in range(8)]
        protocol = IntermixProtocol(
            FIELD, node_ids, fault_fraction=0.25, rng=rng,
            worker_strategies={n: strategy for n in node_ids},
        )
        matrix = rng.integers(0, FIELD.order, size=(8, cols))
        vector = rng.integers(0, FIELD.order, size=cols)
        outcome = protocol.run(matrix, vector)
        if strategy is WorkerStrategy.HONEST:
            assert outcome.accepted
            assert outcome.result.tolist() == gf_matvec(FIELD, matrix, vector).tolist()
        else:
            assert not outcome.accepted
