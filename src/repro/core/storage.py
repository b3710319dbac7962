"""Coded state storage.

Each CSM node stores exactly one coded state vector ``S~_i(t)`` whose size
equals a single machine's state (this is what gives ``gamma = K``).  The
store keeps the vector, knows how to refresh it after a round — either by
re-encoding the decoded next states locally (``chi_i`` in the paper, eq. (1))
or by accepting a coded state pushed by the delegated worker — and records a
small amount of history for the audit tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field


class CodedStateStore:
    """Storage of one node's coded state across rounds."""

    def __init__(self, field: Field, node_index: int, coded_state: np.ndarray) -> None:
        """Hold ``coded_state``; a canonical ``int64`` vector is adopted, not copied.

        The execution engine hands each node a row of its resident
        ``(N, state_dim)`` coded-state bank.  Every update below writes in
        place, so the bank and the per-node stores are one copy of the coded
        states: the engine's stacked rounds read the bank directly, its
        speculation writes it in bulk (:meth:`note_refresh` on confirmation),
        resolved rounds go through :meth:`replace` and the scalar path through
        :meth:`update_from_decoded`, and none ever synchronises with another.
        Any other input is stored as a canonical copy.
        """
        self.field = field
        self.node_index = int(node_index)
        canonical = field.array(coded_state).reshape(-1)
        adopt = (
            isinstance(coded_state, np.ndarray)
            and coded_state.dtype == np.int64
            and coded_state.ndim == 1
            and np.array_equal(coded_state, canonical)
        )
        self._coded_state = coded_state if adopt else canonical
        self._round = 0

    # -- accessors -----------------------------------------------------------------
    @property
    def coded_state(self) -> np.ndarray:
        """The current coded state ``S~_i(t)`` (a copy)."""
        return self._coded_state.copy()

    @property
    def state_dim(self) -> int:
        return int(self._coded_state.shape[0])

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def storage_elements(self) -> int:
        """Number of field elements stored — the denominator of ``gamma``."""
        return self.state_dim

    # -- updates ----------------------------------------------------------------------
    def note_refresh(self) -> None:
        """Count a confirmed speculative round, whose refresh the engine had
        already written straight into the bank."""
        self._round += 1

    def replace(self, coded_state: np.ndarray) -> None:
        """Install a new coded state (delegated-worker update path)."""
        new_state = self.field.array(coded_state).reshape(-1)
        if new_state.shape[0] != self.state_dim:
            raise ConfigurationError(
                f"coded state dimension changed from {self.state_dim} to {new_state.shape[0]}"
            )
        self._coded_state[:] = new_state
        self._round += 1

    def update_from_decoded(
        self, coefficient_row: np.ndarray, decoded_states: np.ndarray
    ) -> None:
        """Recompute ``S~_i(t+1) = sum_k c_ik S^_k(t+1)`` from decoded states.

        This is the local update ``chi_i`` of equation (1): the node has just
        decoded all ``K`` next states and re-encodes them with its own fixed
        coefficient row.
        """
        states = self.field.array(decoded_states)
        if states.ndim != 2:
            raise ConfigurationError("decoded states must be a (K, state_dim) array")
        if states.shape[1] != self.state_dim:
            raise ConfigurationError(
                f"decoded state dimension {states.shape[1]} does not match stored "
                f"dimension {self.state_dim}"
            )
        row = self.field.array(coefficient_row).reshape(-1)
        if row.shape[0] != states.shape[0]:
            raise ConfigurationError(
                f"coefficient row length {row.shape[0]} does not match K={states.shape[0]}"
            )
        new_state = np.zeros(self.state_dim, dtype=np.int64)
        for component in range(self.state_dim):
            new_state[component] = self.field.dot(row, states[:, component])
        self._coded_state[:] = new_state
        self._round += 1
