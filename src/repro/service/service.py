"""The client-session service: the canonical client-facing CSM API.

:class:`CSMService` wraps any round-driving backend — the coded
:class:`~repro.core.protocol.CSMProtocol` or a replication baseline behind
:class:`~repro.replication.protocol.ReplicationProtocol` — via the shared
:class:`~repro.rounds.RoundProtocol` interface, and accepts arbitrary ragged
command streams instead of pre-grouped lockstep rounds:

>>> service = CSMService(protocol)                       # doctest: +SKIP
>>> session = service.connect("alice")                   # doctest: +SKIP
>>> ticket = session.submit(2, [100, 50])                # doctest: +SKIP
>>> service.drain()                                      # doctest: +SKIP
>>> ticket.state, ticket.result()                        # doctest: +SKIP

Commands land in an ingress :class:`~repro.consensus.command_pool.CommandPool`
as :class:`~repro.service.tickets.CommandTicket`\\ s; the
:class:`~repro.service.scheduler.RoundScheduler` drains them into adaptive
dense batches (idle machines padded with the machine's no-op command) and
drives the backend's batched round pipeline.  Outputs come back through the
ticket lifecycle — ``PENDING -> COMMITTED -> EXECUTED | FAILED`` — so a
client observes exactly which of *its* commands executed with which output,
rather than digging through a dict keyed by reused ``client:k`` labels.

The service is built over one or more *shards*: a shard is one backend with
its own ingress pool, scheduler, fault injector, retry backlog and health.
:class:`CSMService` is the one-shard deployment and
:class:`~repro.service.sharding.ShardedCSMService` the same service over
``S`` shards; everything global — the :class:`~repro.service.tickets.\
LogicalClock` (advanced once per :meth:`CSMService.drive` tick and stamped
on every ticket lifecycle edge), the submission sequences, the sessions and
their queue caps, the ticket index, the QoS and retry counters, the merged
round history and the reports — exists once, whatever the shard count.

A :class:`~repro.service.qos.QosPolicy` layers production traffic policies on
top: per-session queue caps and shard admission control turn overload into
``THROTTLED`` tickets instead of unbounded pool growth, and a weighted-fair
selection policy arbitrates machine slots across sessions.  With the policy
absent (or default-constructed) every run is bit-identical to the plain
service.  A shard whose rounds keep failing is marked
:attr:`ShardHealth.DEGRADED` and sheds new admissions while its backlog
probes for recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.consensus.command_pool import CommandPool, SequenceAllocator
from repro.exceptions import ConfigurationError, ConsensusError, ServiceError
from repro.faults import FaultInjector, FaultReport, FaultSchedule
from repro.rounds import ProtocolRound, RoundHistory, RoundProtocol
from repro.service.qos import QosPolicy
from repro.service.retry import RetryPolicy
from repro.service.scheduler import RoundScheduler, ScheduledRound
from repro.service.tickets import (
    CommandTicket,
    FailureReason,
    LogicalClock,
    ThrottleReason,
    TicketState,
)

#: ``faults=``: one schedule applied to every shard, or schedules by shard.
Faults = FaultSchedule | Mapping[int, FaultSchedule] | None


class ShardHealth(enum.Enum):
    """Per-shard health, tracked from the shard's round outcomes.

    A shard is ``DEGRADED`` after ``degraded_after`` consecutive failed
    rounds; while degraded (and still backlogged) new submissions to its
    machines are shed as ``ADMISSION_SHED`` throttles.  The backlogged
    traffic keeps being driven as probe rounds, and the first verified
    round restores the shard to ``HEALTHY``.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"


@dataclass
class ShardedRound(ProtocolRound):
    """A shard's round re-indexed into the service's global history.

    ``round_index`` is the *global* index (position in the merged history);
    ``shard_index`` / ``shard_round_index`` locate the underlying record in
    its shard.
    """

    shard_index: int = 0
    shard_round_index: int = 0


class ClientSession:
    """A connected client: submits commands, tracks its own tickets."""

    def __init__(self, service: "CSMService", client_id: str) -> None:
        self.service = service
        self.client_id = client_id
        self.tickets: list[CommandTicket] = []

    def submit(self, machine_index: int, command) -> CommandTicket:
        """Queue one command for ``machine_index``; returns its ticket.

        Under an active :class:`~repro.service.qos.QosPolicy` (or while the
        machine's shard is degraded) the ticket may come back already
        ``THROTTLED`` — check :attr:`~repro.service.tickets.CommandTicket.\
state` before relying on eventual execution.
        """
        ticket = self.service._submit(self.client_id, machine_index, command)
        self.tickets.append(ticket)
        return ticket

    def outputs(self) -> list[np.ndarray]:
        """Delivered outputs (copies) of executed tickets, in order."""
        return [
            ticket.result()
            for ticket in self.tickets
            if ticket.state is TicketState.EXECUTED
        ]

    def pending(self) -> list[CommandTicket]:
        """Tickets not yet in a terminal state."""
        return [ticket for ticket in self.tickets if not ticket.done]

    def throttled(self) -> list[CommandTicket]:
        """Tickets the QoS policy rejected at submit time."""
        return [
            ticket
            for ticket in self.tickets
            if ticket.state is TicketState.THROTTLED
        ]


@dataclass(eq=False)
class _Shard:
    """One backend and the per-shard machinery that feeds it.

    Shard ``index`` owns the global machine range starting at ``offset``.
    ``retry_queue`` holds failed-but-retryable tickets as ``(ready tick,
    ticket, local machine index)`` until their backoff elapses.
    """

    index: int
    offset: int
    backend: RoundProtocol
    pool: CommandPool
    scheduler: RoundScheduler
    injector: FaultInjector | None
    retry_queue: list[tuple[int, CommandTicket, int]] = field(default_factory=list)
    consecutive_failures: int = 0
    health: ShardHealth = ShardHealth.HEALTHY

    def report(self) -> dict[str, object]:
        return {
            "machines": self.backend.num_machines,
            "pending": self.pool.total_pending(),
            "retry_backlog": len(self.retry_queue),
        }


class CSMService(RoundHistory):
    """Serves ragged client traffic over a round-driving backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.rounds.RoundProtocol` implementation.
    max_batch_rounds:
        Most rounds one :meth:`drive` call hands a shard's batched pipeline
        (the batch the cached-matrix path amortises over).
    min_fill:
        Fewest machines that must have a real pending command before a
        round is formed (adaptive batching); :meth:`drive` with
        ``flush=True`` and :meth:`drain` override it.  At most the
        service's machine count; a wider value than a shard's machine count
        is clamped to it.
    max_wait_ticks:
        Starvation bound: after this many consecutive below-``min_fill``
        :meth:`drive` ticks, pending commands are flushed anyway
        (``None`` disables the override).
    pipeline:
        When True, :meth:`drive` runs each tick's batches through the
        backend's :meth:`~repro.rounds.RoundProtocol.run_rounds_pipelined`
        (the speculative decode/execute overlap) instead of the plain
        batched path — on shards with neither retry nor a fault schedule;
        those run the batched path either way.  The recorded history and
        every ticket outcome are bit-identical either way; overlapping
        scheduler ticks simply spend less wall-clock in the execution phase.
    qos:
        Optional :class:`~repro.service.qos.QosPolicy`.  ``None`` (or a
        default-constructed, disabled policy) reproduces the plain service
        bit-identically; an enabled policy adds per-session queue caps
        (counted across every shard), per-shard admission shedding and the
        configured slot-selection policy.
    retry:
        Optional :class:`~repro.service.retry.RetryPolicy`.  When enabled
        (``max_attempts > 1``) a round that fails with a retryable cause
        re-enqueues its commands after ``backoff_ticks`` logical ticks
        instead of terminally failing the tickets.  A failed round advances
        no backend state, so the retry replays against the state the round
        started from.  ``None`` or a disabled
        policy is bit-identical to fail-fast behaviour.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` applied to every
        shard (shard backends share the node naming, so one schedule models
        correlated faults), or a mapping ``{shard_index: FaultSchedule}``.
        Each schedule is wrapped in a :class:`~repro.faults.FaultInjector`
        over its shard's backend; scheduled events fire at exact backend
        round boundaries while :meth:`drive` runs, and an empty schedule is
        bit-identical to no fault plane at all.
    """

    #: Consecutive failed rounds before a shard turns ``DEGRADED``.
    degraded_after = 3

    def __init__(
        self,
        backend: RoundProtocol,
        max_batch_rounds: int = 8,
        min_fill: int = 1,
        max_wait_ticks: int | None = RoundScheduler.DEFAULT_MAX_WAIT_TICKS,
        pipeline: bool = False,
        qos: QosPolicy | None = None,
        retry: RetryPolicy | None = None,
        faults: Faults = None,
    ) -> None:
        self._build(
            [backend], max_batch_rounds, min_fill, max_wait_ticks, pipeline, qos, retry, faults
        )

    def _build(
        self,
        backends: Sequence[RoundProtocol],
        max_batch_rounds: int,
        min_fill: int,
        max_wait_ticks: int | None,
        pipeline: bool,
        qos: QosPolicy | None,
        retry: RetryPolicy | None,
        faults: Faults,
    ) -> None:
        if not backends:
            raise ConfigurationError("need at least one shard backend")
        for shard_index, backend in enumerate(backends):
            if not isinstance(backend, RoundProtocol):
                raise ConfigurationError(
                    f"backend {type(backend).__name__} does not implement RoundProtocol"
                )
            template = backends[0].machine
            if backend.machine.field != template.field:
                raise ConfigurationError(
                    f"shard {shard_index}'s machine is over the field "
                    f"{backend.machine.field!r}, shard 0's over {template.field!r}"
                )
            if backend.machine.command_dim != template.command_dim:
                raise ConfigurationError(
                    f"shard {shard_index}'s machine has command_dim "
                    f"{backend.machine.command_dim}, shard 0's has "
                    f"{template.command_dim}: clients size every command row alike"
                )
        if qos is not None and not isinstance(qos, QosPolicy):
            raise ConfigurationError(f"qos {type(qos).__name__} is not a QosPolicy")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(f"retry {type(retry).__name__} is not a RetryPolicy")
        if faults is None:
            schedules: dict[int, FaultSchedule] = {}
        elif isinstance(faults, FaultSchedule):
            schedules = dict.fromkeys(range(len(backends)), faults)
        elif isinstance(faults, Mapping):
            schedules = {int(s): schedule for s, schedule in faults.items()}
            for shard_index in schedules:
                if not 0 <= shard_index < len(backends):
                    raise ConfigurationError(
                        f"fault schedule targets shard {shard_index}, but "
                        f"there are only {len(backends)} shards"
                    )
        else:
            raise ConfigurationError(
                f"faults {type(faults).__name__} is neither a FaultSchedule "
                "nor a mapping of shard index to FaultSchedule"
            )
        self.num_machines = sum(backend.num_machines for backend in backends)
        if not 1 <= min_fill <= self.num_machines:
            raise ConfigurationError(
                f"min_fill must be in [1, {self.num_machines}], got {min_fill}"
            )
        self.command_dim = template.command_dim
        self.pipeline = bool(pipeline)
        self.qos = qos if qos is not None else QosPolicy()
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = LogicalClock()
        self.sequence_source = SequenceAllocator()
        self.shards: list[_Shard] = []
        # Global machine index -> (shard, local slot).
        self._slots: list[tuple[_Shard, int]] = []
        for shard_index, backend in enumerate(backends):
            schedule = schedules.get(shard_index)
            injector = None if schedule is None else FaultInjector(backend, schedule)
            pool = CommandPool(
                num_machines=backend.num_machines, sequence_source=self.sequence_source
            )
            scheduler = RoundScheduler(
                pool,
                backend.machine,
                max_batch_rounds=max_batch_rounds,
                min_fill=min(int(min_fill), backend.num_machines),
                max_wait_ticks=max_wait_ticks,
                selector=self.qos.build_selector(),
            )
            shard = _Shard(shard_index, len(self._slots), backend, pool, scheduler, injector)
            self.shards.append(shard)
            self._slots.extend((shard, local) for local in range(backend.num_machines))
        self._sessions: dict[str, ClientSession] = {}
        # Every ticket by sequence.  Sequences are allocated at submit time
        # and inserted at once, so insertion order is submission order.
        self._tickets: dict[int, CommandTicket] = {}
        # Retry resubmissions draw fresh pool sequences, mapped back to the
        # original ticket so ``tickets()`` never shows duplicates.
        self._retry_sequences: dict[int, CommandTicket] = {}
        self._open_by_client: dict[str, int] = {}
        self.throttled_session = 0
        self.throttled_admission = 0
        self.retried_commands = 0
        self.recovered_tickets = 0
        self.exhausted_tickets = 0
        self.history: list[ShardedRound] = []
        self._health_timeline: list[dict[str, object]] = []

    # -- client surface -----------------------------------------------------------------
    @property
    def backend(self) -> RoundProtocol:
        """The backend of a one-shard service."""
        return self._only_shard("backend").backend

    @property
    def scheduler(self) -> RoundScheduler:
        """The round scheduler of a one-shard service."""
        return self._only_shard("scheduler").scheduler

    def _only_shard(self, what: str) -> _Shard:
        if len(self.shards) != 1:
            raise ServiceError(
                f"a {len(self.shards)}-shard service has one {what} per shard"
            )
        return self.shards[0]

    def shard_of(self, machine_index: int) -> tuple[int, int]:
        """Map a global machine index to ``(shard_index, local_index)``."""
        shard, local = self._route(machine_index)
        return shard.index, local

    def shard_health(self, shard_index: int) -> ShardHealth:
        """Current health of one shard (see :class:`ShardHealth`)."""
        return self.shards[int(shard_index)].health

    def connect(self, client_id: str) -> ClientSession:
        """Open (or re-join) the session for ``client_id``."""
        client_id = str(client_id)
        session = self._sessions.get(client_id)
        if session is None:
            session = ClientSession(self, client_id)
            self._sessions[client_id] = session
        return session

    def tickets(self) -> list[CommandTicket]:
        """Every ticket the service has issued, in submission order."""
        return list(self._tickets.values())

    def pending_commands(self) -> int:
        """Commands queued (in any shard) but not yet scheduled into a round."""
        return sum(shard.pool.total_pending() for shard in self.shards)

    def open_tickets(self, client_id: str) -> int:
        """Unresolved (non-terminal) tickets currently held by a session.

        The quantity the per-session queue cap bounds, across every shard: it
        counts accepted tickets from submission until they reach ``EXECUTED``
        or ``FAILED`` (throttled tickets never count — they were rejected at
        the door).
        """
        return self._open_by_client.get(str(client_id), 0)

    def qos_report(self) -> dict[str, object]:
        """Deterministic QoS/backpressure snapshot, one schema for any shape.

        ``pending`` is the ingress queue depth over every shard,
        ``open_tickets`` the total unresolved tickets across sessions, and
        the ``throttled_*`` counters classify every rejected submit by cause.
        ``shards[s]`` is shard ``s``'s width, queue depth (what its admission
        watermark watches) and retry backlog; ``shard_health`` and
        ``health_timeline`` track degradation.  Every key is present (zero
        counters, a disabled policy view) whatever is configured, so report
        consumers need no branching.
        """
        return {
            "policy": self.qos.describe(),
            "pending": self.pending_commands(),
            "open_tickets": sum(self._open_by_client.values()),
            "throttled_session": self.throttled_session,
            "throttled_admission": self.throttled_admission,
            "tick": self.clock.now,
            "shards": [shard.report() for shard in self.shards],
            "retry": self.retry.describe(),
            "retried_commands": self.retried_commands,
            "recovered_tickets": self.recovered_tickets,
            "exhausted_tickets": self.exhausted_tickets,
            "retry_backlog": self._retry_backlog(),
            "shard_health": [shard.health.value for shard in self.shards],
            "health_timeline": list(self._health_timeline),
            "faults": self.fault_report().to_dict(),
        }

    def fault_report(self) -> FaultReport:
        """The shards' fault-plane records merged, plus the retry response.

        Fully populated (all-zero) even without an injector or retry policy,
        so report consumers need no branching.
        """
        report = FaultReport.merge(
            shard.injector.report() for shard in self.shards if shard.injector is not None
        )
        report.retried_commands = self.retried_commands
        report.recovered_tickets = self.recovered_tickets
        report.exhausted_tickets = self.exhausted_tickets
        report.retry_backlog = self._retry_backlog()
        return report

    # -- scheduling / driving -----------------------------------------------------------
    def drive(self, flush: bool = False) -> list[ProtocolRound]:
        """One scheduler tick: every shard plans adaptive batches and runs them.

        Returns the tick's rounds as :class:`ShardedRound` records under
        their global indices, in the order they joined :attr:`history`
        (shard order, then shard-local order); ``[]`` on an empty or
        below-``min_fill`` tick.  Tickets scheduled into the tick move to
        ``COMMITTED`` and then ``EXECUTED`` (verified round), ``RETRYING``
        or ``FAILED`` (unverified round); if a backend raises mid-drive that
        shard's scheduled tickets are failed before the error propagates, so
        no ticket is silently lost.  Every call advances the logical clock
        by one tick, including empty ticks — open-loop harnesses count
        ticks, not rounds.
        """
        self.clock.advance()
        driven: list[ProtocolRound] = []
        for shard in self.shards:
            self._requeue_ready_retries(shard)
            planned = shard.scheduler.plan(flush=flush)
            if planned:
                records = self._run(shard, planned)
                self._observe_health(shard, records)
                driven.extend(self._merge(shard, records))
        return driven

    def drain(self) -> list[ProtocolRound]:
        """Drive until every queued command (and retry backlog) resolves.

        Empty ticks are tolerated while a retry backlog waits out its
        backoff — the clock advances each drive, so the backlog drains and
        the loop terminates (attempts per ticket are bounded by the policy).
        """
        records: list[ProtocolRound] = []
        while self.pending_commands() or self._retry_backlog():
            driven = self.drive(flush=True)
            if not driven and self.pending_commands():  # pragma: no cover - defensive
                raise ServiceError("scheduler made no progress while draining")
            records.extend(driven)
        return records

    # -- merged reporting ---------------------------------------------------------------
    # The RoundHistory reports read the merged history: global round indices,
    # each round charged at its own shard's width.
    @property
    def consensus_fast_path_disabled(self) -> int:
        """Backend rounds decided under a live link fault, over every shard
        (see :attr:`repro.rounds.RoundProtocol.consensus_fast_path_disabled`)."""
        return sum(shard.backend.consensus_fast_path_disabled for shard in self.shards)

    # -- submission ---------------------------------------------------------------------
    def _route(self, machine_index: int) -> tuple[_Shard, int]:
        index = int(machine_index)
        if not 0 <= index < self.num_machines:
            raise ConfigurationError(
                f"machine index {index} out of range for {self.num_machines} machines"
            )
        return self._slots[index]

    def _submit(self, client_id: str, machine_index: int, command) -> CommandTicket:
        shard, local = self._route(machine_index)
        row = np.asarray(command).reshape(-1)
        if row.shape[0] != self.command_dim:
            raise ConfigurationError(
                f"command has dimension {row.shape[0]}, machine expects {self.command_dim}"
            )
        throttle = self._throttle_cause(client_id, shard)
        if throttle is None:
            entry = shard.pool.submit(local, client_id, row)
            sequence, payload = entry.sequence, entry.command
        else:
            sequence = self.sequence_source.allocate()
            payload = tuple(int(v) for v in row)
        ticket = CommandTicket(
            client_id=client_id,
            machine_index=shard.offset + local,
            command=payload,
            sequence=sequence,
            submitted_tick=self.clock.now,
        )
        self._tickets[sequence] = ticket
        if throttle is None:
            self._open_by_client[client_id] = self._open_by_client.get(client_id, 0) + 1
            return ticket
        # A rejected submission still draws a sequence, so tickets stay
        # ordered by submission across throttled attempts.
        reason, cause = throttle
        ticket._throttle(reason, cause, tick=self.clock.now)
        if cause is ThrottleReason.SESSION_QUEUE_FULL:
            self.throttled_session += 1
        else:
            self.throttled_admission += 1
        return ticket

    def _throttle_cause(
        self, client_id: str, shard: _Shard
    ) -> tuple[str, ThrottleReason] | None:
        """Why this submit is rejected, or ``None`` to accept it.

        Checked in order: the session's queue cap across every shard, the
        target shard's health, the target shard's admission watermark.
        """
        cap = self.qos.max_session_pending
        if cap is not None and self._open_by_client.get(client_id, 0) >= cap:
            return (
                f"session {client_id!r} already holds {cap} unresolved "
                "tickets (per-session queue cap); retry after they resolve",
                ThrottleReason.SESSION_QUEUE_FULL,
            )
        # A degraded shard that still has a backlog (pending pool or retry
        # queue — its probe traffic) sheds new admissions; once the backlog
        # is gone, new submissions are admitted as probes so a verified
        # round can restore the shard (no permanent degradation).
        if shard.health is ShardHealth.DEGRADED and (
            shard.pool.total_pending() or shard.retry_queue
        ):
            return (
                f"shard {shard.index} is degraded ({shard.consecutive_failures} "
                "consecutive failed rounds) and is shedding load while its "
                "backlog probes for recovery",
                ThrottleReason.ADMISSION_SHED,
            )
        watermark = self.qos.admission_watermark
        if watermark is not None and shard.pool.total_pending() >= watermark:
            return (
                f"ingress queue depth {shard.pool.total_pending()} at the "
                f"admission watermark {watermark}; shard is shedding load",
                ThrottleReason.ADMISSION_SHED,
            )
        return None

    def _retry_backlog(self) -> int:
        """Tickets across all shards waiting out a retry backoff."""
        return sum(len(shard.retry_queue) for shard in self.shards)

    def _requeue_ready_retries(self, shard: _Shard) -> None:
        """Resubmit a shard's retry-backlog commands whose backoff has elapsed.

        Resubmission bypasses the throttle checks — the ticket still holds
        its session queue-cap slot from the original submit — and draws a
        fresh pool sequence, mapped back to the original ticket.
        """
        if not shard.retry_queue:
            return
        now = self.clock.now
        ready = [item for item in shard.retry_queue if item[0] <= now]
        if not ready:
            return
        shard.retry_queue = [item for item in shard.retry_queue if item[0] > now]
        for _, ticket, local in ready:
            entry = shard.pool.submit(local, ticket.client_id, np.asarray(ticket.command))
            self._retry_sequences[entry.sequence] = ticket

    # -- one shard's tick ---------------------------------------------------------------
    def _run(self, shard: _Shard, planned: list[ScheduledRound]) -> list[ProtocolRound]:
        """Run a shard's planned rounds and resolve their tickets."""
        backend = shard.backend
        speculate = self.pipeline and not self.retry.enabled and shard.injector is None
        runner = backend.run_rounds_pipelined if speculate else backend.run_rounds_batched
        try:
            commands = [round_.commands for round_ in planned]
            clients = [round_.clients for round_ in planned]
            if shard.injector is not None:
                records = shard.injector.run(runner, commands, clients)
            else:
                records = runner(commands, client_rounds=clients)
        except Exception as exc:
            self._fail_rounds(
                shard, planned, f"backend error: {exc}", FailureReason.BACKEND_ERROR
            )
            raise
        try:
            if len(records) != len(planned):
                raise ServiceError(
                    f"backend returned {len(records)} round records for "
                    f"{len(planned)} scheduled rounds"
                )
            for round_, record in zip(planned, records):
                self._resolve_round(shard, round_, record)
        except Exception as exc:
            # A resolution abort (decided-command mismatch, record-count
            # mismatch) must not strand the tick's remaining tickets in a
            # non-terminal state: fail everything still open, then raise.
            self._fail_rounds(
                shard,
                planned,
                f"round resolution aborted: {exc}",
                FailureReason.RESOLUTION_ABORTED,
            )
            raise
        return records

    def _ticket_for_sequence(self, sequence: int) -> CommandTicket:
        """The ticket owning a scheduled pool entry (retries map back to
        their original ticket, issued under an earlier sequence)."""
        ticket = self._tickets.get(sequence)
        if ticket is None:
            ticket = self._retry_sequences[sequence]
        return ticket

    def _resolve_round(
        self, shard: _Shard, planned: ScheduledRound, record: ProtocolRound
    ) -> None:
        now = self.clock.now
        for k, entry in enumerate(planned.entries):
            if entry is None:
                continue  # noop padding owns no ticket
            ticket = self._ticket_for_sequence(entry.sequence)
            decided = tuple(int(v) for v in np.asarray(record.commands[k]))
            if decided != ticket.command:
                self._finish_fail(
                    ticket,
                    f"consensus decided {decided} for machine {k}, not the "
                    f"scheduled command {ticket.command}",
                    FailureReason.CONSENSUS_MISMATCH,
                )
                raise ConsensusError(
                    f"round {record.round_index} decided a different command for "
                    f"machine {k} than the scheduler submitted"
                )
            ticket._commit(record.round_index, tick=now)
            if record.correct:
                ticket._execute(record.result.outputs[k], tick=now)
                if ticket.attempts > 1:
                    self.recovered_tickets += 1
                self._release(ticket)
            elif record.result.diagnostics.get("confirmed_fraud"):
                # Delegated-verification backends convict their worker in the
                # round diagnostics; surface the distinct cause so clients can
                # branch (resubmit immediately — a fresh election replaces the
                # worker) without parsing prose.
                self._finish_round_failure(
                    shard,
                    ticket,
                    k,
                    f"round {record.round_index} rejected: confirmed "
                    "delegated-verification fraud; output withheld",
                    FailureReason.DELEGATION_FRAUD,
                )
            else:
                self._finish_round_failure(
                    shard,
                    ticket,
                    k,
                    f"round {record.round_index} failed verification; output "
                    "withheld",
                    FailureReason.VERIFICATION_FAILED,
                )

    def _finish_round_failure(
        self,
        shard: _Shard,
        ticket: CommandTicket,
        local: int,
        reason: str,
        cause: FailureReason,
    ) -> None:
        """Fail a committed ticket — or, under the retry policy, re-enqueue it
        on its shard's local slot ``local``."""
        policy = self.retry
        if policy.enabled and cause in policy.retry_on:
            if ticket.attempts < policy.max_attempts:
                ticket._retry()
                shard.retry_queue.append(
                    (self.clock.now + policy.backoff_ticks, ticket, local)
                )
                self.retried_commands += 1
                return
            self.exhausted_tickets += 1
            self._finish_fail(
                ticket,
                f"{reason} (attempt {ticket.attempts} of {policy.max_attempts}; "
                "retries exhausted)",
                FailureReason.RETRY_EXHAUSTED,
            )
            return
        self._finish_fail(ticket, reason, cause)

    def _fail_rounds(
        self,
        shard: _Shard,
        planned: list[ScheduledRound],
        reason: str,
        failure_reason: FailureReason,
    ) -> None:
        for round_ in planned:
            for entry in round_.entries:
                if entry is None:
                    continue
                ticket = self._ticket_for_sequence(entry.sequence)
                if ticket.done:
                    continue
                if ticket.state is TicketState.RETRYING:
                    # The aborted tick may have just re-enqueued this ticket
                    # (or be failing its resubmission); either way its backlog
                    # entry must go, or a later tick would resubmit a failed
                    # ticket.
                    shard.retry_queue = [
                        item for item in shard.retry_queue if item[1] is not ticket
                    ]
                self._finish_fail(ticket, reason, failure_reason)

    def _finish_fail(
        self, ticket: CommandTicket, reason: str, cause: FailureReason
    ) -> None:
        ticket._fail(reason, cause, tick=self.clock.now)
        self._release(ticket)

    def _release(self, ticket: CommandTicket) -> None:
        """Give the session's queue-cap slot back once a ticket resolves."""
        remaining = self._open_by_client.get(ticket.client_id, 0)
        if remaining > 0:
            self._open_by_client[ticket.client_id] = remaining - 1

    def _observe_health(self, shard: _Shard, records: Sequence[ProtocolRound]) -> None:
        """Update the shard's health from its newly completed rounds."""
        for record in records:
            if record.correct:
                shard.consecutive_failures = 0
                if shard.health is ShardHealth.DEGRADED:
                    self._set_health(shard, ShardHealth.HEALTHY)
            else:
                shard.consecutive_failures += 1
                if (
                    shard.health is ShardHealth.HEALTHY
                    and shard.consecutive_failures >= self.degraded_after
                ):
                    self._set_health(shard, ShardHealth.DEGRADED)

    def _set_health(self, shard: _Shard, health: ShardHealth) -> None:
        shard.health = health
        self._health_timeline.append(
            {"tick": self.clock.now, "shard": shard.index, "state": health.value}
        )

    def _merge(self, shard: _Shard, records: Sequence[ProtocolRound]) -> list[ShardedRound]:
        """Append a shard's new rounds to the global history, in order."""
        merged = [
            ShardedRound(
                round_index=len(self.history) + i,
                commands=record.commands,
                clients=record.clients,
                result=record.result,
                consensus_views=record.consensus_views,
                shard_index=shard.index,
                shard_round_index=record.round_index,
            )
            for i, record in enumerate(records)
        ]
        self.history.extend(merged)
        return merged
