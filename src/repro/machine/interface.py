"""The deterministic state machine abstraction of Section 2.

A state machine is a tuple ``(X, Y, S, f)`` of input alphabet, output
alphabet, state space and deterministic transition function.  In this
reproduction the alphabets and state space are vector spaces over a finite
field, represented as fixed-length numpy vectors of canonical field elements,
and ``f`` is a :class:`~repro.machine.polynomial_machine.PolynomialTransition`
— the only kind of transition there is.  CSM executes polynomial machines
(a node evaluates ``f`` on coded data); every library machine and the
Appendix A Boolean compiler build one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field
from repro.machine.polynomial_machine import PolynomialTransition

#: Type aliases used throughout the protocol layers.
MachineState = np.ndarray
TransitionOutput = tuple[np.ndarray, np.ndarray]


@dataclass
class StateMachine:
    """A deterministic state machine over a finite field.

    Attributes
    ----------
    field:
        The field over which states, commands and outputs live.
    transition:
        The transition function ``f``: CSM executes polynomial machines
        only, since a node evaluates ``f`` on coded data.
    initial_state:
        The state ``S(0)`` the machine starts from.
    name:
        Optional human-readable label used by examples and reports.
    noop:
        Optional explicit no-op command (see :meth:`noop_command`).
    """

    field: Field
    transition: PolynomialTransition
    initial_state: np.ndarray
    name: str = "state-machine"
    noop: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.initial_state = self.field.array(self.initial_state).reshape(-1)
        if self.initial_state.shape[0] != self.transition.state_dim:
            raise ConfigurationError(
                f"initial state has dimension {self.initial_state.shape[0]}, "
                f"transition expects {self.transition.state_dim}"
            )
        if self.noop is not None:
            self.noop = self.field.array(self.noop).reshape(-1)
            if self.noop.shape[0] != self.transition.command_dim:
                raise ConfigurationError(
                    f"noop command has dimension {self.noop.shape[0]}, "
                    f"transition expects {self.transition.command_dim}"
                )

    # -- structural properties ------------------------------------------------------
    @property
    def state_dim(self) -> int:
        return self.transition.state_dim

    @property
    def command_dim(self) -> int:
        return self.transition.command_dim

    @property
    def output_dim(self) -> int:
        return self.transition.output_dim

    @property
    def degree(self) -> int:
        """Total degree ``d`` of the transition polynomial."""
        return self.transition.degree

    def noop_command(self) -> np.ndarray:
        """The command used to pad machines that have no pending traffic.

        The round scheduler (:mod:`repro.service`) pads machines whose queues
        are empty with this command so a round no longer requires one real
        command per machine.  The contract is that the no-op induces the
        *identity* state transition (``f(S, noop) = (S, .)``); the machine
        library configures an explicit identity command wherever one exists
        (for the linear ledger/counter machines and the degree-2 machines in
        :mod:`repro.machine.library` the all-zero command is an identity).
        Machines without a configured ``noop`` fall back to the all-zero
        command, which advances the state deterministically like any other
        command — callers relying on idle machines being frozen should set
        :attr:`noop` explicitly.
        """
        if self.noop is not None:
            return self.noop.copy()
        return np.zeros(self.command_dim, dtype=np.int64)

    # -- execution ---------------------------------------------------------------------
    def step_batch(
        self, states: np.ndarray, commands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``f`` to ``n`` independent state/command rows at once.

        Returns ``(next_states, outputs)`` of shapes ``(n, state_dim)`` and
        ``(n, output_dim)``, through the transition's compiled evaluation
        (:meth:`PolynomialTransition.step_batch`), which canonicalises and
        validates the inputs.  One row is a batch of one.
        """
        return self.transition.step_batch(states, commands)
