"""Unit tests for the state machine abstraction, the machine library, and the
Appendix A Boolean-function compiler."""

import numpy as np
import pytest

from reference.counting import counted
from reference.machine import evaluate, result_vector, run, step
from reference.polynomial import Poly, composite_polynomials
from repro.exceptions import ConfigurationError
from repro.gf.extension_field import BinaryExtensionField
from repro.gf.multivariate import MultivariatePolynomial
from repro.machine.boolean import (
    BooleanTransitionCompiler,
    boolean_function_to_polynomial,
    embed_bits,
    project_bits,
)
from repro.machine.interface import StateMachine
from repro.machine.library import (
    affine_kv_machine,
    bank_account_machine,
    counter_machine,
    dot_product_machine,
    quadratic_market_machine,
    random_polynomial_machine,
)
from repro.machine.polynomial_machine import PolynomialTransition


class TestPolynomialTransition:
    def test_degree_is_max_over_components(self, big_field):
        linear = MultivariatePolynomial(big_field, 2, {(1, 0): 1})
        quadratic = MultivariatePolynomial(big_field, 2, {(1, 1): 1})
        transition = PolynomialTransition(big_field, 1, 1, [linear], [quadratic])
        assert transition.degree == 2
        assert transition.result_dim == 2

    def test_step_and_result_vector_agree(self, big_field):
        machine = quadratic_market_machine(big_field)
        state = np.array([[5, 3]])
        command = np.array([[2, 4]])
        next_state, output = machine.transition.step_batch(state, command)
        combined = machine.transition.evaluate_result_vectors(state, command)
        assert combined.shape == (1, machine.transition.result_dim)
        assert list(combined[0, :2]) == list(next_state[0])
        assert list(combined[0, 2:]) == list(output[0])
        assert combined[0].tolist() == result_vector(
            machine.transition, state[0], command[0]
        ).tolist()

    def test_step_batch_matches_per_row_steps(self, big_field, rng):
        machine = quadratic_market_machine(big_field)
        states = rng.integers(0, 1000, size=(7, 2))
        commands = rng.integers(0, 1000, size=(7, 2))
        batch_states, batch_outputs = machine.transition.step_batch(states, commands)
        for i in range(7):
            next_state, output = step(machine, states[i], commands[i])
            assert batch_states[i].tolist() == next_state.tolist()
            assert batch_outputs[i].tolist() == output.tolist()
        stacked = machine.transition.evaluate_result_vectors(states, commands)
        assert stacked.shape == (7, machine.transition.result_dim)
        for i in range(7):
            assert stacked[i].tolist() == result_vector(
                machine.transition, states[i], commands[i]
            ).tolist()

    def test_step_batch_validates_shapes(self, big_field):
        machine = quadratic_market_machine(big_field)
        with pytest.raises(ConfigurationError):
            machine.transition.step_batch(np.ones((3, 1), dtype=int), np.ones((3, 2), dtype=int))
        with pytest.raises(ConfigurationError):
            machine.transition.step_batch(np.ones((3, 2), dtype=int), np.ones((2, 2), dtype=int))

    def test_step_batch_counts_match_scalar_per_row(self, big_field):
        """A batch of n rows is charged n x the per-row cost, and the per-row
        cost is what a scalar evaluation spends — the property the execution
        engine's per-node accounting relies on."""
        machine = quadratic_market_machine(big_field)
        states = np.arange(10).reshape(5, 2) + 1
        commands = np.arange(10).reshape(5, 2) + 3
        additions, multiplications = machine.transition.row_cost
        for i in range(5):
            _, count = counted(big_field, step, machine, states[i], commands[i])
            assert (count.additions, count.multiplications) == (additions, multiplications)
        next_states, outputs = machine.transition.step_batch(states, commands)
        assert next_states.shape == (5, 2) and outputs.shape[0] == 5

    def test_compose_matches_coded_evaluation(self, big_field, rng):
        # The composite polynomial h(z) = f(u(z), v(z)) evaluated at a point
        # equals f applied to the coded (evaluated) state and command.
        machine = quadratic_market_machine(big_field)
        state_polys = [Poly.random(big_field, 3, rng) for _ in range(2)]
        command_polys = [Poly.random(big_field, 3, rng) for _ in range(2)]
        composites = composite_polynomials(machine.transition, state_polys, command_polys)
        assert max(h.degree for h in composites) <= machine.degree * 3
        points = range(5, 12)
        coded_states = np.array([[p.evaluate(z) for p in state_polys] for z in points])
        coded_commands = np.array([[p.evaluate(z) for p in command_polys] for z in points])
        direct = machine.transition.evaluate_result_vectors(coded_states, coded_commands)
        via_composite = [[h.evaluate(z) for h in composites] for z in points]
        assert direct.tolist() == via_composite

    def test_dimension_validation(self, big_field):
        linear = MultivariatePolynomial(big_field, 2, {(1, 0): 1})
        with pytest.raises(ConfigurationError):
            PolynomialTransition(big_field, 2, 1, [linear], [linear])  # arity mismatch
        with pytest.raises(ConfigurationError):
            PolynomialTransition(big_field, 1, 1, [linear], [])  # no outputs


class TestStateMachine:
    def test_initial_state_dimension_checked(self, big_field):
        machine = counter_machine(big_field)
        with pytest.raises(ConfigurationError):
            StateMachine(
                field=big_field,
                transition=machine.transition,
                initial_state=np.array([1, 2]),
            )

    def test_step_validates_dimensions(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        with pytest.raises(ConfigurationError):
            machine.step_batch(np.array([[1]]), np.array([[1, 2]]))
        with pytest.raises(ConfigurationError):
            machine.step_batch(np.array([[1, 2]]), np.array([[1]]))
        with pytest.raises(ConfigurationError):
            machine.step_batch(np.array([1, 2]), np.array([1, 2]))

    def test_machine_step_batch_delegates_and_validates(self, big_field, rng):
        machine = bank_account_machine(big_field, num_accounts=2)
        states = rng.integers(0, 100, size=(4, 2))
        commands = rng.integers(0, 100, size=(4, 2))
        next_states, outputs = machine.step_batch(states, commands)
        for i in range(4):
            expected_state, expected_output = step(machine, states[i], commands[i])
            assert next_states[i].tolist() == expected_state.tolist()
            assert outputs[i].tolist() == expected_output.tolist()
        with pytest.raises(ConfigurationError):
            machine.step_batch(states[:, :1], commands)

    def test_run_sequence(self, big_field):
        machine = counter_machine(big_field)
        final_state, outputs = run(machine, np.array([[1], [2], [3]]))
        assert final_state.tolist() == [6]
        assert outputs.reshape(-1).tolist() == [1, 3, 6]


class TestLibraryMachines:
    def test_bank_account_is_linear(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=3)
        assert machine.degree == 1
        state, output = step(machine, np.array([10, 20, 30]), np.array([1, 2, 3]))
        assert state.tolist() == [11, 22, 33]
        assert output.tolist() == [11, 22, 33]

    def test_bank_account_withdrawal_uses_additive_inverse(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        withdrawal = big_field.neg(5)
        state, _ = step(machine, np.array([20]), np.array([withdrawal]))
        assert state.tolist() == [15]

    def test_affine_kv(self, big_field):
        machine = affine_kv_machine(big_field, num_keys=2, scale=3)
        assert machine.degree == 1
        state, output = step(machine, np.array([4, 5]), np.array([1, 2]))
        assert state.tolist() == [13, 17]
        assert output.tolist() == [4, 5]  # outputs report the old values

    def test_quadratic_market_degree_and_semantics(self, big_field):
        machine = quadratic_market_machine(big_field)
        assert machine.degree == 2
        state, output = step(machine, np.array([100, 7]), np.array([3, 2]))
        assert state.tolist() == [103, 13]          # inventory+q, price+q*a
        assert output.tolist() == [21, 13]          # trade value = price*q

    def test_dot_product_machine(self, big_field):
        machine = dot_product_machine(big_field, vector_dim=3)
        assert machine.degree == 2
        state = np.array([0, 2, 3, 4])              # acc=0, weights (2,3,4)
        command = np.array([1, 1, 1])
        next_state, output = step(machine, state, command)
        assert output.tolist() == [9]
        assert next_state.tolist() == [9, 2, 3, 4]

    def test_random_machine_degree(self, big_field, rng):
        machine = random_polynomial_machine(big_field, 2, 2, degree=3, rng=rng)
        assert machine.degree == 3

    def test_invalid_library_arguments(self, big_field, rng):
        with pytest.raises(ConfigurationError):
            bank_account_machine(big_field, num_accounts=0)
        with pytest.raises(ConfigurationError):
            random_polynomial_machine(big_field, 1, 1, degree=0, rng=rng)


class TestBooleanCompiler:
    def test_and_function_polynomial(self):
        field = BinaryExtensionField(4)
        poly = boolean_function_to_polynomial(field, 2, lambda bits: bits[0] & bits[1])
        for a in (0, 1):
            for b in (0, 1):
                assert evaluate(poly, [a, b]) == (a & b)

    def test_xor_and_majority_functions(self):
        field = BinaryExtensionField(4)
        xor = boolean_function_to_polynomial(field, 2, lambda bits: bits[0] ^ bits[1])
        majority = boolean_function_to_polynomial(
            field, 3, lambda bits: 1 if sum(bits) >= 2 else 0
        )
        for a in (0, 1):
            for b in (0, 1):
                assert evaluate(xor, [a, b]) == (a ^ b)
                for c in (0, 1):
                    assert evaluate(majority, [a, b, c]) == (1 if a + b + c >= 2 else 0)

    def test_degree_at_most_num_inputs(self, rng):
        field = BinaryExtensionField(8)
        for n in (2, 3, 4):
            table = {tuple(map(int, np.binary_repr(i, n))): int(rng.integers(0, 2))
                     for i in range(2**n)}
            poly = boolean_function_to_polynomial(field, n, lambda bits: table[tuple(bits)])
            assert poly.total_degree <= n

    def test_embed_project_roundtrip(self):
        field = BinaryExtensionField(8)
        bits = [1, 0, 1, 1]
        assert project_bits(field, embed_bits(field, bits)).tolist() == bits

    def test_compiled_machine_matches_reference(self, rng):
        # A 2-bit counter with a carry output, compiled via Appendix A.
        field = BinaryExtensionField(8)

        def next_low(bits):
            low, high, inc = bits
            return low ^ inc

        def next_high(bits):
            low, high, inc = bits
            return high ^ (low & inc)

        def carry_out(bits):
            low, high, inc = bits
            return high & low & inc

        compiler = BooleanTransitionCompiler(
            field,
            state_bits=2,
            command_bits=1,
            next_state_functions=[next_low, next_high],
            output_functions=[carry_out],
        )
        machine = compiler.compile_machine([0, 0])
        assert machine.degree <= 3
        state_bits = [0, 0]
        state = embed_bits(field, state_bits)
        for _ in range(6):
            command_bits = [1]
            expected_state, expected_output = compiler.reference_step(
                state_bits, command_bits
            )
            state, output = step(machine, state, embed_bits(field, command_bits))
            assert project_bits(field, state).tolist() == expected_state
            assert project_bits(field, output).tolist() == expected_output
            state_bits = expected_state

    def test_compiler_validation(self):
        field = BinaryExtensionField(4)
        with pytest.raises(ConfigurationError):
            BooleanTransitionCompiler(field, 2, 1, [lambda b: 0], [lambda b: 0])
        compiler = BooleanTransitionCompiler(
            field, 1, 1, [lambda b: b[0]], [lambda b: b[0]]
        )
        with pytest.raises(ConfigurationError):
            compiler.compile_machine([0, 1])
