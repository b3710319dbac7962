"""Polynomial state-transition functions.

A :class:`PolynomialTransition` packages one multivariate polynomial per
next-state component and per output component.  All polynomials share the
same variable ordering: the first ``state_dim`` variables are the state
components, the remaining ``command_dim`` variables are the command
components.  The total degree ``d`` of the transition is the maximum total
degree across all component polynomials — the quantity that enters every
bound in the paper (``K <= (1 - 2*mu) N / d + 1 - 1/d`` etc.).

The components are compiled once into a table of their distinct monomials
and a ``(monomials, result_dim)`` coefficient matrix, so evaluating ``f`` on
``n`` rows is one feature build (each monomial at each row) and one field
matrix product.  Its cost is charged by the paper's count of ``c(f)``, not by
how the product is computed: per row, one addition per term and
``2 * bitlen(e) + 1`` multiplications per factor ``x_v ** e`` (a
square-and-multiply power times the running term).

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
from repro.gf import charges
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
        components = self.next_state_polys + self.output_polys
        terms = [exps for poly in components for exps in poly.terms]
        monomials = sorted(set(terms))
        row_of = {exps: row for row, exps in enumerate(monomials)}
        self._coefficients = np.zeros((len(monomials), len(components)), dtype=np.int64)
        for column, poly in enumerate(components):
            for exps, coeff in poly.terms.items():
                self._coefficients[row_of[exps], column] = coeff
        self._coefficients.setflags(write=False)
        # Each monomial as its factors ``(variable, exponent)``, and every
        # distinct factor once: a power is computed once per batch.
        self._factors = [
            tuple((v, e) for v, e in enumerate(exps) if e) for exps in monomials
        ]
        self._powers = sorted({factor for factors in self._factors for factor in factors})
        #: Field operations of one evaluation of ``f``, ``(additions,
        #: multiplications)``: the paper's ``c(f)``, charged per row.
        self.row_cost = (
            len(terms),
            sum(charges.power(e) + 1 for exps in terms for e in exps if e),
        )

    # -- properties -----------------------------------------------------------------
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
    def step_batch(
        self, states: np.ndarray, commands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``f`` to ``n`` state/command rows: ``(next_states, outputs)``.

        ``states`` has shape ``(n, state_dim)`` and ``commands`` shape
        ``(n, command_dim)``; the results have shapes ``(n, state_dim)`` and
        ``(n, output_dim)``.
        """
        results = self.evaluate_result_vectors(states, commands)
        return results[:, : self.state_dim], results[:, self.state_dim :]

    def evaluate_result_vectors(
        self, states: np.ndarray, commands: np.ndarray
    ) -> np.ndarray:
        """The ``(n, result_dim)`` rows ``(next_state || output)`` of ``f``.

        Row ``i`` is what node ``i`` computes on its coded state/command
        pair.  The monomials are built once per row (each distinct power of
        a variable once per batch) and multiplied into the coefficient
        matrix in one product.  However it is computed, evaluating ``n``
        rows costs ``n`` times :attr:`row_cost`, which the engines charge.
        """
        points = self._assignment_batch(states, commands)
        field = self.field
        powers = {
            (v, e): points[:, v] if e == 1 else field.pow(points[:, v], e)
            for v, e in self._powers
        }
        features = np.ones((points.shape[0], len(self._factors)), dtype=np.int64)
        for column, factors in enumerate(self._factors):
            if factors:
                feature = powers[factors[0]]
                for factor in factors[1:]:
                    feature = field.mul(feature, powers[factor])
                features[:, column] = feature
        return field.matmul(features, self._coefficients)

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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PolynomialTransition(state_dim={self.state_dim}, "
            f"command_dim={self.command_dim}, output_dim={self.output_dim}, "
            f"degree={self.degree})"
        )
