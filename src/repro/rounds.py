"""Shared round-protocol surface: the per-round record and the driver interface.

The client-session service (:mod:`repro.service`) must be able to drive any
round-executing backend — the coded :class:`~repro.core.protocol.CSMProtocol`
and the replication baselines behind
:class:`~repro.replication.protocol.ReplicationProtocol` — through one
interface.  :class:`RoundProtocol` is that interface, extracted from the
parts ``CSMProtocol`` and :mod:`repro.replication.base` used to duplicate:

* :class:`ProtocolRound` — the per-round history record (consensus decision
  plus execution result);
* verified output delivery (outputs of a round that failed verification are
  never handed to clients; the failure is recorded instead);
* the reporting helpers (``all_rounds_correct``, ``failed_rounds``,
  ``measured_throughput``).

Backends implement :meth:`RoundProtocol.run_rounds_batched`, which accepts
``B`` pre-grouped rounds of exactly one command per machine, plus (new in
this interface) the per-round client identities, so the service can attribute
each delivered output to the :class:`~repro.service.tickets.CommandTicket`
that submitted it instead of relying on reused ``client:k`` labels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.machine.interface import StateMachine
    from repro.replication.base import RoundResult


@dataclass
class ProtocolRound:
    """One completed protocol round: the consensus decision plus execution result."""

    round_index: int
    commands: np.ndarray
    clients: list[str]
    result: RoundResult
    consensus_views: int = 0

    @property
    def correct(self) -> bool:
        return self.result.correct


class RoundProtocol(ABC):
    """A backend that executes pre-grouped rounds of one command per machine.

    Subclasses must set :attr:`machine` (the template
    :class:`~repro.machine.interface.StateMachine`), call
    :meth:`_init_round_state` during construction, and implement
    :meth:`num_machines` and :meth:`run_rounds_batched`.  Everything a client
    of the round history needs — verified delivery, failure book-keeping and
    the throughput report — is shared here.
    """

    machine: StateMachine

    def _init_round_state(self) -> None:
        """Initialise the shared history/delivery state (call from __init__)."""
        self.history: list[ProtocolRound] = []
        self.delivered_outputs: dict[str, list[np.ndarray]] = {}
        # Rounds whose verification failed never reach the clients; they are
        # recorded here (client id -> failed round indices) instead.
        self.failed_deliveries: dict[str, list[int]] = {}

    # -- backend surface ----------------------------------------------------------------
    @property
    @abstractmethod
    def num_machines(self) -> int:
        """``K`` — the number of logical state machines the backend hosts."""

    @abstractmethod
    def run_rounds_batched(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list[ProtocolRound]:
        """Execute ``B`` rounds of one command per machine, in order.

        ``client_rounds[b][k]`` names the client whose command occupies
        machine ``k`` in round ``b``; when omitted, backends fall back to the
        legacy ``client:k`` labels.  Returns the appended
        :class:`ProtocolRound` records.
        """

    def _canonical_batches(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None,
    ) -> tuple[list[np.ndarray], Sequence[Sequence[str]]]:
        """Validate a run of rounds before any of them executes.

        Every batch is shaped by :meth:`_canonical_round` first, so a
        malformed batch anywhere in the run fails fast instead of leaving
        earlier rounds decided or half-recorded.  Without ``client_rounds``
        every round gets the legacy ``client:k`` labels.  An empty run comes
        back as ``([], ...)``: backends return ``[]`` on it before touching
        any state (no election, no consensus, no rng draw).
        """
        batches = [self._canonical_round(batch) for batch in command_batches]
        if client_rounds is None:
            labels = [f"client:{k}" for k in range(self.num_machines)]
            client_rounds = [labels] * len(batches)
        elif len(client_rounds) != len(batches):
            raise ConfigurationError(
                f"{len(batches)} command rounds but {len(client_rounds)} client "
                "rounds"
            )
        return batches, client_rounds

    def _canonical_round(self, commands: np.ndarray) -> np.ndarray:
        """One round as a field-canonical ``(K, command_dim)`` array.

        A flat array of exactly ``K * command_dim`` elements is accepted as
        the row-major round, and so is a batch of one, ``(1, K, command_dim)``.
        """
        arr = self.machine.field.array(commands)
        expected = (self.num_machines, self.machine.command_dim)
        if arr.size == expected[0] * expected[1] and (
            arr.ndim == 1 or (arr.ndim == 3 and arr.shape[0] == 1)
        ):
            arr = arr.reshape(expected)
        if arr.shape != expected:
            raise ConfigurationError(
                f"round commands have shape {arr.shape}, expected {expected}"
            )
        return arr

    def run_rounds_pipelined(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list[ProtocolRound]:
        """Execute ``B`` rounds with speculative decode/execute pipelining.

        Backends with a speculative fast path (the coded
        :class:`~repro.core.protocol.CSMProtocol`) override this to overlap
        the verified decode of round ``t`` with the execution of round
        ``t + 1``; the recorded history must stay bit-identical to
        :meth:`run_rounds_batched`.  The default simply delegates to the
        batched path, so replication baselines and other backends satisfy
        the contract trivially and the service layer can request
        ``pipeline=True`` against any backend.
        """
        return self.run_rounds_batched(command_batches, client_rounds)

    def freeze_failed_rounds(self) -> None:
        """Ask the backend to leave state unadvanced when a round fails.

        The retry-enabled service calls this once at construction: a backend
        whose failed rounds would otherwise advance state must freeze it so
        re-driving the same commands is idempotent.  The default is a no-op
        for backends where failed rounds already leave state untouched (the
        delegated-verification backend voids the round at genesis;
        replication baselines never fail verification).
        """

    # -- shared history/delivery --------------------------------------------------------
    def _record_round(
        self,
        commands: np.ndarray,
        clients: Sequence[str],
        result: RoundResult,
        view: int = 0,
    ) -> ProtocolRound:
        """Append the round record and deliver (only) verified outputs."""
        record = ProtocolRound(
            round_index=len(self.history),
            commands=commands,
            clients=list(clients),
            result=result,
            consensus_views=view,
        )
        self.history.append(record)
        if result.correct:
            for k, client_id in enumerate(record.clients):
                self.delivered_outputs.setdefault(client_id, []).append(
                    result.outputs[k].copy()
                )
        else:
            # A failed round must not hand unverified values to clients; it
            # is recorded so clients can observe the gap and resubmit.
            for client_id in record.clients:
                self.failed_deliveries.setdefault(client_id, []).append(
                    record.round_index
                )
        return record

    # -- reporting ----------------------------------------------------------------------
    @property
    def consensus_fast_path_disabled(self) -> int:
        """Rounds this backend decided on a consensus slow path.

        Backends driven by a :class:`~repro.consensus.interface.\
ConsensusProtocol` surface its ``fast_path_disabled`` counter here (rounds
        that fell back from the vectorised message plane to the sequential
        oracle); backends without a consensus layer report ``0``.  Experiment
        reports include the value so a silently disabled fast path shows up
        in the rows instead of only in the wall-clock.
        """
        consensus = getattr(self, "consensus", None)
        return int(getattr(consensus, "fast_path_disabled", 0))

    @property
    def all_rounds_correct(self) -> bool:
        return all(record.correct for record in self.history)

    @property
    def failed_rounds(self) -> int:
        """Number of completed rounds whose verification failed."""
        return sum(1 for record in self.history if not record.correct)

    def measured_throughput(self) -> float:
        """Average commands per unit per-node operation across completed rounds.

        A round that failed verification delivered *zero* commands to the
        clients, so it contributes ``0.0`` to the mean — not the throughput
        its operation count would have bought had it verified.  (Averaging
        failed rounds at their would-be throughput inflated the measure
        exactly when faults bite, disagreeing with the measurement harness,
        which keeps failed rounds in the operation denominator but never in
        the delivered-command numerator.)  Verified rounds with a non-finite
        throughput (degenerate zero-operation rounds) are excluded; if no
        round contributed at all the result is ``0.0`` — never ``inf``,
        which would poison downstream averages.
        """
        if not self.history:
            return 0.0
        throughputs: list[float] = []
        for record in self.history:
            if not record.correct:
                throughputs.append(0.0)
                continue
            value = record.result.throughput(self.num_machines)
            if np.isfinite(value):
                throughputs.append(value)
        return float(np.mean(throughputs)) if throughputs else 0.0
