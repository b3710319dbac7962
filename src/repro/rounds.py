"""Shared round surface: the per-round records and the driver interface.

The client-session service (:mod:`repro.service`) must be able to drive any
round-executing backend — the coded :class:`~repro.core.protocol.CSMProtocol`
and the replication baselines behind
:class:`~repro.replication.protocol.ReplicationProtocol` — through one
interface.  :class:`RoundProtocol` is that interface:

* :class:`RoundResult` — what every execution engine (coded, full or
  partial replication, delegated) reports for one round;
* :class:`ProtocolRound` — the per-round history record (consensus decision
  plus execution result);
* :class:`RoundHistory` — the reports read off the history, shared with the
  service's merged history; a round that failed verification is reported as
  failed, never as delivered.

Backends implement :meth:`RoundProtocol.run_rounds_batched`, which accepts
``B`` pre-grouped rounds of exactly one command per machine, plus the
per-round client identities, so the service can attribute each delivered
output to the :class:`~repro.service.tickets.CommandTicket` that submitted
it instead of relying on reused ``client:k`` labels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.machine.interface import StateMachine


@dataclass
class RoundResult:
    """Outcome of executing one round under some scheme.

    Attributes
    ----------
    round_index:
        Round number.
    outputs:
        Array of shape ``(K, output_dim)`` with the outputs accepted by the
        clients (zeros when the round failed).
    states:
        Array of shape ``(K, state_dim)`` with the states the scheme's nodes
        hold after the round (for CSM the decoded states, for replication
        each machine's honest replica); a failed round reports them
        unadvanced.
    correct:
        True when every client could accept an output: the coded round
        decoded within the decoding radius, or every replication client
        reached its matching-replies threshold.  It is what the nodes and
        clients observe, not a comparison with the true machines: past the
        fault bound a wrong output can be accepted with ``correct`` True,
        and :func:`repro.analysis.safety.replay_rounds` is what flags it.  A
        failed round advances no state.
    ops_per_node:
        Mapping from node id to the number of field operations that node
        performed in the execution phase (the ``c(rho) + c(psi) + c(chi)`` of
        the throughput definition).
    diagnostics:
        Free-form per-scheme details (decoded error positions, consensus
        view numbers, delegation audit outcomes, ...).
    """

    round_index: int
    outputs: np.ndarray
    states: np.ndarray
    correct: bool
    ops_per_node: dict[str, int] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return int(sum(self.ops_per_node.values()))

    @property
    def mean_ops_per_node(self) -> float:
        if not self.ops_per_node:
            return 0.0
        return self.total_ops / len(self.ops_per_node)

    def throughput(self, num_machines: int) -> float:
        """Commands processed per unit per-node operation (the paper's lambda).

        ``lambda = K / (sum_i ops_i / N)``; larger is better.
        """
        if self.mean_ops_per_node == 0:
            return float("inf")
        return num_machines / self.mean_ops_per_node


def command_batch(machine: StateMachine, num_machines: int, commands_batch) -> np.ndarray:
    """Canonicalise an engine's command batch to ``(B, K, command_dim)``.

    A single ``(K, command_dim)`` round is promoted to a batch of one.  The
    one batch check of every execution engine's ``execute_rounds``.
    """
    arr = machine.field.array(commands_batch)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    expected = (num_machines, machine.command_dim)
    if arr.ndim != 3 or arr.shape[1:] != expected:
        raise ConfigurationError(
            f"expected a command batch of shape (B, {expected[0]}, {expected[1]}), "
            f"got {arr.shape}"
        )
    return arr


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


class RoundHistory:
    """Reports over a list of :class:`ProtocolRound` records.

    Every member is read off :attr:`history` when asked; nothing is stored
    beside it.  Each round is charged at ``len(record.clients)`` — the
    commands it carried, one per machine (``K``, or a shard's ``K_s`` in a
    sharded service's merged history).
    """

    history: Sequence[ProtocolRound]

    @property
    def all_rounds_correct(self) -> bool:
        return all(record.correct for record in self.history)

    @property
    def failed_rounds(self) -> int:
        """Number of completed rounds whose verification failed."""
        return sum(1 for record in self.history if not record.correct)

    @property
    def delivered_outputs(self) -> dict[str, list[np.ndarray]]:
        """Per-client outputs (copies) of the verified rounds, in round order."""
        delivered: dict[str, list[np.ndarray]] = {}
        for record in self.history:
            if record.correct:
                for k, client_id in enumerate(record.clients):
                    delivered.setdefault(client_id, []).append(
                        record.result.outputs[k].copy()
                    )
        return delivered

    @property
    def failed_deliveries(self) -> dict[str, list[int]]:
        """Per-client indices of the rounds whose verification failed.

        A failed round must not hand unverified values to clients; it is
        reported here so clients can observe the gap and resubmit.
        """
        failed: dict[str, list[int]] = {}
        for record in self.history:
            if not record.correct:
                for client_id in record.clients:
                    failed.setdefault(client_id, []).append(record.round_index)
        return failed

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
        throughputs: list[float] = []
        for record in self.history:
            if not record.correct:
                throughputs.append(0.0)
                continue
            value = record.result.throughput(len(record.clients))
            if np.isfinite(value):
                throughputs.append(value)
        return float(np.mean(throughputs)) if throughputs else 0.0


class RoundProtocol(RoundHistory, ABC):
    """A backend that executes pre-grouped rounds of one command per machine.

    Subclasses must set :attr:`machine` (the template
    :class:`~repro.machine.interface.StateMachine`), call
    :meth:`_init_round_state` during construction, and implement
    :meth:`num_machines` and :meth:`run_rounds_batched`.  Every report a
    client of the round history needs comes from :class:`RoundHistory`.
    """

    machine: StateMachine

    def _init_round_state(self) -> None:
        """Initialise the round history (call from __init__)."""
        self.history: list[ProtocolRound] = []

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
        every round gets the legacy ``client:k`` labels; with them, every
        client round must name exactly ``K`` clients.  An empty run comes
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
        for b, clients in enumerate(client_rounds):
            if len(clients) != self.num_machines:
                raise ConfigurationError(
                    f"client round {b} names {len(clients)} clients for "
                    f"{self.num_machines} machines"
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

        The coded :class:`~repro.core.protocol.CSMProtocol` overrides this to
        overlap the verified decode of round ``t`` with the execution of
        round ``t + 1``; the recorded history must stay bit-identical to
        :meth:`run_rounds_batched`.  The default simply delegates to the
        batched path, so replication baselines and other backends satisfy
        the contract trivially and the service layer can request
        ``pipeline=True`` against any backend.
        """
        return self.run_rounds_batched(command_batches, client_rounds)

    # -- shared history -----------------------------------------------------------------
    def _record_round(
        self,
        commands: np.ndarray,
        clients: Sequence[str],
        result: RoundResult,
        view: int = 0,
    ) -> ProtocolRound:
        """Append the round record to the history."""
        record = ProtocolRound(
            round_index=len(self.history),
            commands=commands,
            clients=list(clients),
            result=result,
            consensus_views=view,
        )
        self.history.append(record)
        return record

    # -- reporting ----------------------------------------------------------------------
    @property
    def consensus_fast_path_disabled(self) -> int:
        """Rounds this backend decided while a network link fault was live.

        Backends driven by a :class:`~repro.consensus.interface.\
ConsensusProtocol` surface its ``fast_path_disabled`` counter here (rounds
        decided under a live drop, partition or added delay; the message
        plane applies those faults itself); backends without a consensus
        layer report ``0``.  Experiment reports include the value so rounds
        run over a faulty network show up in the rows.
        """
        consensus = getattr(self, "consensus", None)
        return int(getattr(consensus, "fast_path_disabled", 0))
