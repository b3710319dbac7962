"""The compiled transition evaluates ``f`` exactly as the scalar oracle does.

:meth:`~repro.machine.polynomial_machine.PolynomialTransition.\
evaluate_result_vectors` builds every monomial once per row and multiplies
the feature matrix into the compiled coefficient matrix in one field matrix
product; evaluating ``rows`` rows is charged ``rows`` times its per-row cost
:attr:`row_cost`.  Over GF(97), GF(2**31 - 1) and GF(2**8), on random
transitions of degree 1 to 4 — with zero components, constant terms,
exponents of 3 and more, and variables that appear in no term — every row
must equal the oracle's (:mod:`reference.machine`), and ``rows`` times
:attr:`row_cost` must equal, additions and multiplications each, what the
counting oracle overhears the scalar evaluations spend.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference.counting import counted
from reference.machine import result_vector
from repro.exceptions import ConfigurationError
from repro.gf.extension_field import BinaryExtensionField
from repro.gf.multivariate import MultivariatePolynomial
from repro.gf.prime_field import PrimeField
from repro.machine.polynomial_machine import PolynomialTransition

FIELDS = {
    "GF(97)": PrimeField(97),
    "GF(2^31-1)": PrimeField(),
    "GF(2^8)": BinaryExtensionField(8),
}
ROWS = (1, 33)
MAX_DEGREE = 4


def check_against_oracle(transition, states, commands):
    field = transition.field
    rows = states.shape[0]
    values = transition.evaluate_result_vectors(states, commands)
    expected = np.zeros_like(values)
    oracle = [0, 0]
    for i in range(rows):
        expected[i], count = counted(
            field, result_vector, transition, states[i], commands[i]
        )
        oracle[0] += count.additions
        oracle[1] += count.multiplications
    assert values.shape == (rows, transition.result_dim)
    assert values.tolist() == expected.tolist()
    assert (rows * transition.row_cost[0], rows * transition.row_cost[1]) == tuple(oracle)
    next_states, outputs = transition.step_batch(states, commands)
    assert next_states.tolist() == expected[:, : transition.state_dim].tolist()
    assert outputs.tolist() == expected[:, transition.state_dim :].tolist()


@st.composite
def transitions(draw):
    """A random transition over one of the three fields.

    A term is up to ``MAX_DEGREE`` variable draws: none is a constant term,
    a repeated variable is a higher exponent.  A component may have no
    terms (the zero polynomial).
    """
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    state_dim = draw(st.integers(1, 3))
    command_dim = draw(st.integers(1, 2))
    output_dim = draw(st.integers(1, 2))
    arity = state_dim + command_dim
    term = st.tuples(
        st.lists(st.integers(0, arity - 1), max_size=MAX_DEGREE),
        st.integers(1, field.order - 1),
    )

    def component():
        terms = {}
        for variables, coefficient in draw(st.lists(term, max_size=4)):
            exponents = [0] * arity
            for v in variables:
                exponents[v] += 1
            terms[tuple(exponents)] = coefficient
        return MultivariatePolynomial(field, arity, terms)

    next_state = [component() for _ in range(state_dim)]
    outputs = [component() for _ in range(output_dim)]
    transition = PolynomialTransition(field, state_dim, command_dim, next_state, outputs)
    rows = draw(st.sampled_from(ROWS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    states = rng.integers(0, field.order, size=(rows, state_dim))
    commands = rng.integers(0, field.order, size=(rows, command_dim))
    return transition, states, commands


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(transitions())
def test_compiled_evaluation_matches_scalar_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_edge_case_at_once(name, rows):
    """A zero component, a constant term, exponents 3 and 4, a variable in no
    term (``x_2``), and a monomial shared by two components."""
    field = FIELDS[name]
    arity = 4

    def poly(terms):
        return MultivariatePolynomial(field, arity, terms)

    next_state = [
        poly({(3, 0, 0, 1): 5, (0, 0, 0, 0): 7}),
        poly({}),
    ]
    outputs = [poly({(1, 4, 0, 0): 2, (0, 0, 0, 1): 3, (3, 0, 0, 1): 9})]
    transition = PolynomialTransition(field, 2, 2, next_state, outputs)
    assert transition.degree == 5
    # One addition per term; 2 * bitlen(e) + 1 multiplications per factor.
    assert transition.row_cost == (5, (5 + 3) + (3 + 7) + 3 + (5 + 3))
    rng = np.random.default_rng(rows)
    states = rng.integers(0, field.order, size=(rows, 2))
    commands = rng.integers(0, field.order, size=(rows, 2))
    check_against_oracle(transition, states, commands)


def test_all_zero_transition_evaluates_to_zero():
    field = FIELDS["GF(97)"]
    zero = MultivariatePolynomial.zero(field, 2)
    transition = PolynomialTransition(field, 1, 1, [zero], [zero])
    assert transition.row_cost == (0, 0)
    ones = np.ones((3, 1), dtype=np.int64)
    check_against_oracle(transition, ones, ones)


def test_shape_mismatches_raise_configuration_error():
    field = FIELDS["GF(97)"]
    x = MultivariatePolynomial.variable(field, 3, 0)
    transition = PolynomialTransition(field, 1, 2, [x], [x])
    with pytest.raises(ConfigurationError):
        transition.evaluate_result_vectors(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        transition.evaluate_result_vectors(np.ones((2, 1)), np.ones((3, 2)))
    with pytest.raises(ConfigurationError):
        transition.step_batch(np.ones(1), np.ones(2))
