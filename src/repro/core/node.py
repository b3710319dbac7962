"""A single CSM compute node.

Each node ``i`` owns:

* its evaluation point ``alpha_i`` and the Lagrange coefficient row
  ``(c_i1, ..., c_iK)``;
* a :class:`~repro.core.storage.CodedStateStore` holding ``S~_i(t)``;
* a Byzantine behaviour (honest by default).

Per round the node: encodes the agreed commands into its coded command
``X~_i(t)`` (``rho_i``), evaluates the transition polynomial on
``(S~_i, X~_i)`` producing the coded result ``g_i``, optionally decodes the
results received from all nodes (``psi_i``), and updates its coded state
(``chi_i``).  Operation counts for each of these are recorded so the
throughput experiments can reproduce the paper's accounting.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field, OperationCounter
from repro.machine.polynomial_machine import PolynomialTransition
from repro.net.byzantine import ByzantineBehavior, HonestBehavior
from repro.core.storage import CodedStateStore


class CSMNode:
    """One compute node participating in CSM."""

    def __init__(
        self,
        node_id: str,
        node_index: int,
        field: Field,
        transition: PolynomialTransition,
        coefficient_row: np.ndarray,
        initial_coded_state: np.ndarray,
        behavior: ByzantineBehavior | None = None,
    ) -> None:
        self.node_id = str(node_id)
        self.node_index = int(node_index)
        self.field = field
        self.transition = transition
        self.coefficient_row = field.array(coefficient_row).reshape(-1)
        self.storage = CodedStateStore(field, node_index, initial_coded_state)
        self.behavior = behavior or HonestBehavior()
        self.counter = OperationCounter()
        if self.storage.state_dim != transition.state_dim:
            raise ConfigurationError(
                f"coded state dimension {self.storage.state_dim} does not match the "
                f"transition's state dimension {transition.state_dim}"
            )

    # -- properties -------------------------------------------------------------------
    @property
    def is_faulty(self) -> bool:
        return self.behavior.is_faulty

    @property
    def coded_state(self) -> np.ndarray:
        return self.storage.coded_state

    def reset_counter(self) -> None:
        self.counter = OperationCounter()

    # -- per-round operations ------------------------------------------------------------
    def encode_command(self, commands: np.ndarray) -> np.ndarray:
        """``rho_i`` part 1: form the coded command ``X~_i = sum_k c_ik X_k``."""
        arr = self.field.array(commands)
        if arr.ndim != 2 or arr.shape[0] != self.coefficient_row.shape[0]:
            raise ConfigurationError(
                f"expected commands of shape (K={self.coefficient_row.shape[0]}, dim), "
                f"got {arr.shape}"
            )
        self.field.attach_counter(self.counter)
        try:
            coded = np.zeros(arr.shape[1], dtype=np.int64)
            for component in range(arr.shape[1]):
                coded[component] = self.field.dot(self.coefficient_row, arr[:, component])
        finally:
            self.field.attach_counter(None)
        return coded

    def execute_coded(self, coded_command: np.ndarray) -> np.ndarray:
        """``rho_i`` part 2: the honest coded computation ``g_i = f(S~_i, X~_i)``.

        The returned vector concatenates the coded next-state components and
        the coded output components.  Faulty behaviour is applied *by the
        execution engine* when the result is sent, not here, so tests can
        always inspect the true value.
        """
        self.field.attach_counter(self.counter)
        try:
            result = self.transition.evaluate_result_vector(
                self.storage.coded_state, coded_command
            )
        finally:
            self.field.attach_counter(None)
        return result

    def update_coded_state(self, decoded_next_states: np.ndarray) -> None:
        """``chi_i``: refresh the stored coded state from the decoded states."""
        self.field.attach_counter(self.counter)
        try:
            self.storage.update_from_decoded(self.coefficient_row, decoded_next_states)
        finally:
            self.field.attach_counter(None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CSMNode(id={self.node_id!r}, index={self.node_index}, "
            f"faulty={self.is_faulty})"
        )
