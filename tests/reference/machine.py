"""Scalar evaluation of ``f``: the oracle for the compiled transition.

:class:`~repro.machine.polynomial_machine.PolynomialTransition` compiles its
component polynomials into one monomial table and evaluates a batch of rows
as one feature build and one field matrix product, charging ``rows`` times
its per-row cost.  Here ``f`` is evaluated one row and one component at a
time, the way the paper counts ``c(f)``: every term is one addition into the
sum, and every factor ``x_v ** e`` is a :meth:`~repro.gf.field.Field.pow`
(``2 * bitlen(e)`` multiplications) times the running term (one more).  Tests
compare the compiled path's values and charged counts with these.

* :func:`evaluate` — one component polynomial at one point;
* :func:`result_vector` — ``(next_state || output)`` of one state/command row;
* :func:`step` — one application of ``f``: ``(next_state, output)``;
* :func:`run` — a command sequence from the machine's initial state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, FieldError
from repro.gf.multivariate import MultivariatePolynomial
from repro.machine.interface import StateMachine
from repro.machine.polynomial_machine import PolynomialTransition


def evaluate(poly: MultivariatePolynomial, assignment: Sequence[int]) -> int:
    """``poly`` at a point given as ``arity`` field elements, term by term."""
    if len(assignment) != poly.arity:
        raise FieldError(
            f"assignment of length {len(assignment)} does not match arity {poly.arity}"
        )
    field = poly.field
    values = [field.element(int(v)) for v in assignment]
    result = 0
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, exponent in zip(values, exps):
            if exponent:
                term = field.mul(term, field.pow(value, exponent))
        result = field.add(result, term)
    return result


def result_vector(
    transition: PolynomialTransition, state: np.ndarray, command: np.ndarray
) -> np.ndarray:
    """The concatenated result ``(next_state || output)`` of one row.

    On a node's coded state and command this is the node's coded result: the
    composite polynomials evaluated at the node's point.
    """
    field = transition.field
    state_vec = field.array(state).reshape(-1)
    command_vec = field.array(command).reshape(-1)
    if state_vec.shape[0] != transition.state_dim:
        raise ConfigurationError(
            f"state has dimension {state_vec.shape[0]}, expected {transition.state_dim}"
        )
    if command_vec.shape[0] != transition.command_dim:
        raise ConfigurationError(
            f"command has dimension {command_vec.shape[0]}, "
            f"expected {transition.command_dim}"
        )
    assignment = [int(v) for v in state_vec] + [int(v) for v in command_vec]
    components = transition.next_state_polys + transition.output_polys
    return np.array([evaluate(p, assignment) for p in components], dtype=np.int64)


def step(
    machine: StateMachine, state: np.ndarray, command: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One application of ``f`` to a plain state/command pair."""
    result = result_vector(machine.transition, state, command)
    return result[: machine.state_dim], result[machine.state_dim :]


def run(
    machine: StateMachine, commands: np.ndarray, initial_state: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Execute ``(T, command_dim)`` commands; returns ``(final_state, outputs)``."""
    state = machine.initial_state if initial_state is None else initial_state
    commands_arr = machine.field.array(commands).reshape(-1, machine.command_dim)
    outputs = np.zeros((commands_arr.shape[0], machine.output_dim), dtype=np.int64)
    for t, command in enumerate(commands_arr):
        state, outputs[t] = step(machine, state, command)
    return machine.field.array(state).reshape(-1), outputs
