"""Polynomial state-transition functions.

A :class:`PolynomialTransition` packages one multivariate polynomial per
next-state component and per output component.  All polynomials share the
same variable ordering: the first ``state_dim`` variables are the state
components, the remaining ``command_dim`` variables are the command
components.  The total degree ``d`` of the transition is the maximum total
degree across all component polynomials — the quantity that enters every
bound in the paper (``K <= (1 - 2*mu) N / d + 1 - 1/d`` etc.).

Feeding a node's coded state and command to ``f`` evaluates the composite
polynomial ``h_j(z) = f_j(u_1(z), ..., u_s(z), v_1(z), ..., v_c(z))`` at the
node's point, of degree at most ``d * (K - 1)``: the correctness argument of
the coded execution phase.  Nothing here builds ``h_j`` itself; the decoder
recovers its coefficients from the nodes' results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field
from repro.gf.multivariate import MultivariatePolynomial


class PolynomialTransition:
    """A transition function given componentwise as multivariate polynomials."""

    def __init__(
        self,
        field: Field,
        state_dim: int,
        command_dim: int,
        next_state_polys: Sequence[MultivariatePolynomial],
        output_polys: Sequence[MultivariatePolynomial],
    ) -> None:
        if state_dim < 1 or command_dim < 1:
            raise ConfigurationError(
                f"state_dim and command_dim must be positive, got {state_dim}, {command_dim}"
            )
        arity = state_dim + command_dim
        for poly in list(next_state_polys) + list(output_polys):
            if poly.field != field:
                raise ConfigurationError("component polynomial over a different field")
            if poly.arity != arity:
                raise ConfigurationError(
                    f"component polynomial has arity {poly.arity}, expected {arity}"
                )
        if len(next_state_polys) != state_dim:
            raise ConfigurationError(
                f"expected {state_dim} next-state polynomials, got {len(next_state_polys)}"
            )
        if not output_polys:
            raise ConfigurationError("transition needs at least one output polynomial")
        self.field = field
        self.state_dim = int(state_dim)
        self.command_dim = int(command_dim)
        self.next_state_polys = list(next_state_polys)
        self.output_polys = list(output_polys)
        self.output_dim = len(self.output_polys)

    # -- properties -----------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self.state_dim + self.command_dim

    @property
    def degree(self) -> int:
        """Total degree ``d`` of the transition (at least 1)."""
        degrees = [p.total_degree for p in self.next_state_polys + self.output_polys]
        return max(max(degrees), 1)

    @property
    def result_dim(self) -> int:
        """Dimension of the full coded result vector (next state + output)."""
        return self.state_dim + self.output_dim

    # -- execution ---------------------------------------------------------------------
    def step(self, state: np.ndarray, command: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``f`` to a plain (uncoded) state/command pair."""
        assignment = self._assignment(state, command)
        next_state = np.array(
            [p.evaluate(assignment) for p in self.next_state_polys], dtype=np.int64
        )
        output = np.array(
            [p.evaluate(assignment) for p in self.output_polys], dtype=np.int64
        )
        return next_state, output

    def evaluate_result_vector(self, state: np.ndarray, command: np.ndarray) -> np.ndarray:
        """Return the concatenated result ``(next_state || output)``.

        This is exactly what a CSM node computes on its *coded* state and
        command: because ``f`` is a polynomial, feeding coded inputs produces
        the evaluation of the composite polynomial at the node's point.
        """
        next_state, output = self.step(state, command)
        return np.concatenate([next_state, output])

    def step_batch(
        self, states: np.ndarray, commands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``f`` to ``n`` state/command rows in one vectorised pass.

        ``states`` has shape ``(n, state_dim)`` and ``commands`` shape
        ``(n, command_dim)``; returns ``(next_states, outputs)`` of shapes
        ``(n, state_dim)`` and ``(n, output_dim)``.  Each component polynomial
        is evaluated once over the stacked assignment matrix, so the per-row
        values — and, when an operation counter is attached, the per-row
        operation counts — are identical to ``n`` scalar :meth:`step` calls.
        """
        # The assignment matrix is canonical after validation; the internal
        # evaluation entry skips each component's redundant re-reduction.
        assignments = self._assignment_batch(states, commands)
        next_states = np.stack(
            [p._evaluate_batch_canonical(assignments) for p in self.next_state_polys],
            axis=1,
        )
        outputs = np.stack(
            [p._evaluate_batch_canonical(assignments) for p in self.output_polys],
            axis=1,
        )
        return next_states, outputs

    def evaluate_result_vectors(
        self, states: np.ndarray, commands: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`evaluate_result_vector`: ``(n, result_dim)`` rows.

        Row ``i`` is what node ``i`` computes on its coded state/command pair;
        the coded execution engine uses this to evaluate every node's coded
        transition in one stacked pass instead of a per-node Python loop.
        """
        next_states, outputs = self.step_batch(states, commands)
        return np.concatenate([next_states, outputs], axis=1)

    def _assignment_batch(self, states: np.ndarray, commands: np.ndarray) -> np.ndarray:
        """Canonical ``(n, state_dim + command_dim)`` rows of a batched step."""
        states_arr = self.field.array(states)
        commands_arr = self.field.array(commands)
        if states_arr.ndim != 2 or states_arr.shape[1] != self.state_dim:
            raise ConfigurationError(
                f"expected states of shape (n, {self.state_dim}), got {states_arr.shape}"
            )
        if commands_arr.ndim != 2 or commands_arr.shape[1] != self.command_dim:
            raise ConfigurationError(
                f"expected commands of shape (n, {self.command_dim}), "
                f"got {commands_arr.shape}"
            )
        if states_arr.shape[0] != commands_arr.shape[0]:
            raise ConfigurationError(
                f"state batch of {states_arr.shape[0]} rows does not match "
                f"command batch of {commands_arr.shape[0]} rows"
            )
        return np.concatenate([states_arr, commands_arr], axis=1)

    def _assignment(self, state: np.ndarray, command: np.ndarray) -> list[int]:
        state_vec = self.field.array(state).reshape(-1)
        command_vec = self.field.array(command).reshape(-1)
        if state_vec.shape[0] != self.state_dim:
            raise ConfigurationError(
                f"state dimension {state_vec.shape[0]} does not match {self.state_dim}"
            )
        if command_vec.shape[0] != self.command_dim:
            raise ConfigurationError(
                f"command dimension {command_vec.shape[0]} does not match {self.command_dim}"
            )
        return [int(v) for v in state_vec] + [int(v) for v in command_vec]

    def split_result(self, result: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a concatenated result vector back into ``(next_state, output)``."""
        vec = self.field.array(result).reshape(-1)
        if vec.shape[0] != self.result_dim:
            raise ConfigurationError(
                f"result vector has dimension {vec.shape[0]}, expected {self.result_dim}"
            )
        return vec[: self.state_dim].copy(), vec[self.state_dim :].copy()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PolynomialTransition(state_dim={self.state_dim}, "
            f"command_dim={self.command_dim}, output_dim={self.output_dim}, "
            f"degree={self.degree})"
        )
