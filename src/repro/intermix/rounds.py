"""Delegated-verification rounds behind the shared :class:`RoundProtocol` API.

:class:`DelegationRoundProtocol` runs the paper's Section 6.2 workload — all
coding operations of a CSM round performed by one elected worker and merely
*verified* by the network — as a round-driving backend the client-session
service (:mod:`repro.service`) can serve like any other.  One round is:

1. **encode** — the round's commands are encoded at the worker
   (``X~ = C X`` per command component) and INTERMIX-verified;
2. **execute** — every node applies the transition polynomial to its coded
   state/command row (one vectorised ``step_batch`` across all ``N`` rows);
3. **decode** — the coded next states and outputs are decoded at the worker
   through the cached fast-path decoder and verified via equations (9)/(8);
4. **update** — the decoded next states are re-encoded at the worker
   (INTERMIX-verified), refreshing the coded states for the next round.

A committee is elected once per batch and reused across its rounds; every
INTERMIX verification inside a round runs through
:meth:`~repro.intermix.protocol.IntermixProtocol.run_batch` — one stacked
matrix product for the worker and all auditors per operation, and one
verdict table whose per-role operation vectors the round's
:class:`~repro.intermix.delegation.DelegatedRoundReport` adds up; auditor
bisections and commoner checks run only for the columns someone disputes.

A round whose verification confirms fraud is recorded with
``correct=False`` and ``diagnostics["confirmed_fraud"]=True``: no output is
delivered, the coded states do not advance (the round reports the last
decoded states, as every engine's failed round does), and the service
resolves the round's tickets ``FAILED`` with
:attr:`~repro.service.tickets.FailureReason.DELEGATION_FRAUD`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.intermix.delegation import DelegatedCodingService, DelegatedRoundReport
from repro.intermix.committee import Committee
from repro.intermix.worker import WorkerStrategy
from repro.lcc.scheme import LagrangeScheme
from repro.machine.interface import StateMachine
from repro.rng import default_stream
from repro.rounds import ProtocolRound, RoundProtocol, RoundResult


class DelegationRoundProtocol(RoundProtocol):
    """Executes service rounds whose coding work is delegated and verified.

    Parameters
    ----------
    machine:
        The template :class:`~repro.machine.interface.StateMachine` every
        hosted machine runs (its transition must be polynomial, as the coded
        execution evaluates it on coded rows).
    num_machines:
        ``K`` — how many logical machines the backend hosts.
    node_ids:
        The ``N`` network nodes committees are elected from.
    fault_fraction:
        ``mu`` — the assumed fraction of faulty nodes, which sizes the
        auditor committee ``J = ceil(log eps / log mu)``.
    rng:
        Deterministic stream for committee election and cheating workers.
    worker_strategies / corrupt_decoder_workers / dishonest_auditors:
        Adversary configuration, passed through to the delegation service.
    """

    def __init__(
        self,
        machine: StateMachine,
        num_machines: int,
        node_ids: Sequence[str],
        fault_fraction: float = 0.2,
        rng: np.random.Generator | None = None,
        worker_strategies: dict[str, WorkerStrategy] | None = None,
        corrupt_decoder_workers: set[str] | None = None,
        dishonest_auditors: set[str] | None = None,
        failure_probability: float = 1e-6,
    ) -> None:
        if num_machines < 1:
            raise ConfigurationError(
                f"need at least one machine, got {num_machines}"
            )
        self.machine = machine
        self.node_ids = [str(node) for node in node_ids]
        self.rng = rng if rng is not None else default_stream()
        self.scheme = LagrangeScheme(machine.field, num_machines, len(self.node_ids))
        self.delegation = DelegatedCodingService(
            self.scheme,
            machine.degree,
            self.node_ids,
            fault_fraction=fault_fraction,
            rng=self.rng,
            worker_strategies=worker_strategies,
            corrupt_decoder_workers=corrupt_decoder_workers,
            failure_probability=failure_probability,
            dishonest_auditors=dishonest_auditors,
        )
        initial_states = np.tile(
            machine.field.array(machine.initial_state).reshape(1, -1),
            (num_machines, 1),
        )
        # The last decoded states: what a void round reports.
        self._states = initial_states
        # The genesis encoding is public setup, not delegated round work.
        self._coded_states = self.scheme.encode_vectors(initial_states)
        # Workers convicted of fraud are banned from the worker role in
        # later elections (the paper's banning of cheaters), so a retried
        # batch lands on a different worker instead of the same cheater.
        self.convicted_workers: set[str] = set()
        self.current_worker: str | None = None
        self._init_round_state()

    # -- RoundProtocol surface ---------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.scheme.num_machines

    def run_rounds_batched(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list[ProtocolRound]:
        rounds, client_rounds = self._canonical_batches(command_batches, client_rounds)
        if not rounds:
            return []
        # One election (a single rng permutation draw) serves the whole batch
        # — unless a round convicts its worker, which bans the cheater and
        # re-elects mid-batch so the batch's remaining rounds (and any later
        # retry) land on a different worker.  With no convictions the rng
        # stream is bit-identical to the single-election batch.
        committee = self.delegation.elect_committee(exclude=self.convicted_workers)
        self.current_worker = committee.worker
        records: list[ProtocolRound] = []
        for index, commands in enumerate(rounds):
            clients = [str(c) for c in client_rounds[index]]
            record = self._execute_round(commands, clients, committee)
            records.append(record)
            if record.result.diagnostics.get("confirmed_fraud"):
                self.convicted_workers.add(committee.worker)
                if len(self.convicted_workers) >= len(self.node_ids):
                    # Every node stands convicted: the ban list is moot, so
                    # reset it rather than electing from an empty pool.
                    self.convicted_workers.clear()
                if index + 1 < len(rounds):
                    committee = self.delegation.elect_committee(
                        exclude=self.convicted_workers
                    )
                    self.current_worker = committee.worker
        return records

    def resolve_fault_target(self, target: str, round_index: int) -> str:
        """Resolve ``"@worker"`` (the currently elected worker) or a literal id."""
        if target == "@worker":
            if self.current_worker is None:
                raise ConfigurationError(
                    "no committee elected yet; '@worker' resolves only after "
                    "the first batch"
                )
            return self.current_worker
        if target.startswith("@"):
            raise ConfigurationError(
                f"unknown adaptive fault target {target!r}; the delegation "
                "backend resolves only '@worker'"
            )
        if target not in self.node_ids:
            raise ConfigurationError(f"unknown fault target node {target!r}")
        return target

    # -- internals ---------------------------------------------------------------------
    def _execute_round(
        self,
        commands: np.ndarray,
        clients: Sequence[str],
        committee: Committee,
    ) -> ProtocolRound:
        state_dim = self.machine.state_dim
        outputs = np.zeros((self.num_machines, self.machine.output_dim), dtype=np.int64)
        coded_commands, report = self.delegation.encode_vectors_verified(
            commands, committee=committee
        )
        if report.accepted:
            next_coded, output_coded = self.machine.step_batch(
                self._coded_states, coded_commands
            )
            stacked = np.concatenate([next_coded, output_coded], axis=1)
            decoded, decode_report = self.delegation.decode_results_verified_fast(
                stacked, committee=committee
            )
            report.merge(decode_report)
            if report.accepted:
                next_states = decoded[:, :state_dim]
                outputs = decoded[:, state_dim:]
                new_coded_states, update_report = (
                    self.delegation.encode_vectors_verified(
                        next_states, committee=committee, operation="update-states"
                    )
                )
                report.merge(update_report)
                if report.accepted:
                    self._coded_states = new_coded_states
                    self._states = next_states
        if not report.accepted:
            # The round is void: withhold the outputs and keep the states
            # where they were so resubmission is safe.
            outputs = np.zeros_like(outputs)
        result = RoundResult(
            round_index=len(self.history),
            outputs=outputs,
            states=self._states.copy(),
            correct=report.accepted,
            ops_per_node=self._ops_per_node(report),
            diagnostics={
                "scheme": "delegated",
                "worker": committee.worker,
                "confirmed_fraud": not report.accepted,
                "rejected_operations": report.rejected_operations,
                "max_non_worker_operations": report.max_non_worker_operations,
            },
        )
        return self._record_round(commands, clients, result)

    def _ops_per_node(self, report: DelegatedRoundReport) -> dict[str, int]:
        committee = report.committee
        ops = {node: 0 for node in self.node_ids}
        ops[committee.worker] += report.worker_operations
        for node, count in zip(committee.auditors, report.auditor_operations.tolist()):
            ops[node] += count
        for node in committee.commoners:
            ops[node] += report.commoner_operations
        return ops
