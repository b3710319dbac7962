"""A single CSM compute node.

Each node ``i`` owns:

* its evaluation point ``alpha_i`` and the Lagrange coefficient row
  ``(c_i1, ..., c_iK)``;
* a :class:`~repro.core.storage.CodedStateStore` holding ``S~_i(t)``;
* a Byzantine behaviour (honest by default).

Per round the node's part is to encode the agreed commands into its coded
command ``X~_i(t)`` (``rho_i``), evaluate the transition polynomial on
``(S~_i, X~_i)`` producing the coded result ``g_i``, decode the results
received from all nodes (``psi_i``) and refresh its coded state
(``chi_i``).  The execution engine performs those steps for every node at
once over its coded-state bank and charges each node its own share of the
operations; a node object holds the node's identity, storage and conduct.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field
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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CSMNode(id={self.node_id!r}, index={self.node_index}, "
            f"faulty={self.is_faulty})"
        )
