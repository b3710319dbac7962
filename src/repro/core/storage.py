"""Coded state storage.

Each CSM node stores exactly one coded state vector ``S~_i(t)`` whose size
equals a single machine's state (this is what gives ``gamma = K``).  The
store keeps the vector, which the execution engine refreshes in place after
every decoded round (``chi_i`` in the paper, eq. (1)) or replaces on a
resync's state transfer, and counts the rounds it has been refreshed.
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
        states: the engine's stacked rounds read the bank directly and
        refresh it in bulk (:meth:`note_refresh` counts the round), state
        transfer goes through :meth:`replace`, and neither ever synchronises
        with the other.
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
        """Count a round whose refresh the engine wrote straight into the bank."""
        self._round += 1

    def replace(self, coded_state: np.ndarray) -> None:
        """Install a new coded state (state transfer on resync)."""
        new_state = self.field.array(coded_state).reshape(-1)
        if new_state.shape[0] != self.state_dim:
            raise ConfigurationError(
                f"coded state dimension changed from {self.state_dim} to {new_state.shape[0]}"
            )
        self._coded_state[:] = new_state
        self._round += 1
