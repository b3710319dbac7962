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

A :class:`~repro.service.qos.QosPolicy` layers production traffic policies on
top: per-session queue caps and shard admission control turn overload into
``THROTTLED`` tickets instead of unbounded pool growth, and a weighted-fair
selection policy arbitrates machine slots across sessions.  With the policy
absent (or default-constructed) every run is bit-identical to the plain
service.  Every drive tick advances a :class:`~repro.service.tickets.\
LogicalClock`, and every ticket lifecycle edge is stamped with the tick it
happened on — the substrate for commit/execute latency percentiles under
the open-loop traffic harness (:mod:`repro.service.traffic`).
"""

from __future__ import annotations

import numpy as np

from repro.consensus.command_pool import CommandPool, SequenceAllocator
from repro.exceptions import ConfigurationError, ConsensusError, ServiceError
from repro.faults import FaultInjector, FaultReport, FaultSchedule
from repro.rounds import ProtocolRound, RoundProtocol
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


class ClientSession:
    """A connected client: submits commands, tracks its own tickets."""

    def __init__(self, service: "CSMService", client_id: str) -> None:
        self.service = service
        self.client_id = client_id
        self.tickets: list[CommandTicket] = []

    def submit(self, machine_index: int, command) -> CommandTicket:
        """Queue one command for ``machine_index``; returns its ticket.

        Under an active :class:`~repro.service.qos.QosPolicy` the ticket may
        come back already ``THROTTLED`` (session cap or admission shed) —
        check :attr:`~repro.service.tickets.CommandTicket.state` before
        relying on eventual execution.
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


class CSMService:
    """Serves ragged client traffic over a round-driving backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.rounds.RoundProtocol` implementation.
    max_batch_rounds:
        Most rounds one :meth:`drive` call hands to the backend's batched
        pipeline (the batch the cached-matrix path amortises over).
    min_fill:
        Fewest machines that must have a real pending command before a
        round is formed (adaptive batching); :meth:`drive` with
        ``flush=True`` and :meth:`drain` override it.
    max_wait_ticks:
        Starvation bound: after this many consecutive below-``min_fill``
        :meth:`drive` ticks, pending commands are flushed anyway
        (``None`` disables the override).
    sequence_source:
        Optional shared :class:`~repro.consensus.command_pool.\
SequenceAllocator` for the ingress pool — the sharded façade passes one
        allocator to every shard so ticket sequences stay globally unique.
    pipeline:
        When True, :meth:`drive` runs each tick's batches through the
        backend's :meth:`~repro.rounds.RoundProtocol.run_rounds_pipelined`
        (the speculative decode/execute overlap) instead of the plain
        batched path.  The recorded history and every ticket outcome are
        bit-identical either way; overlapping scheduler ticks simply spend
        less wall-clock in the execution phase.
    qos:
        Optional :class:`~repro.service.qos.QosPolicy`.  ``None`` (or a
        default-constructed, disabled policy) reproduces today's behaviour
        bit-identically; an enabled policy adds per-session queue caps,
        admission shedding and the configured slot-selection policy.
    clock:
        Optional shared :class:`~repro.service.tickets.LogicalClock`.  When
        omitted the service owns its own clock and advances it once per
        :meth:`drive` tick; the sharded façade passes one shared clock to
        every shard and advances it at the façade tick instead.
    retry:
        Optional :class:`~repro.service.retry.RetryPolicy`.  When enabled
        (``max_attempts > 1``) a round that fails with a retryable cause
        re-enqueues its commands after ``backoff_ticks`` logical ticks
        instead of terminally failing the tickets; the backend is asked to
        :meth:`~repro.rounds.RoundProtocol.freeze_failed_rounds` so the
        retry replays against unadvanced state.  ``None`` or a disabled
        policy is bit-identical to today's fail-fast behaviour.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` (wrapped in a
        :class:`~repro.faults.FaultInjector` over ``backend``) or a
        pre-built injector.  Scheduled events fire at exact backend round
        boundaries while :meth:`drive` runs; an empty schedule is
        bit-identical to no fault plane at all.
    """

    def __init__(
        self,
        backend: RoundProtocol,
        max_batch_rounds: int = 8,
        min_fill: int = 1,
        max_wait_ticks: int | None = RoundScheduler.DEFAULT_MAX_WAIT_TICKS,
        sequence_source: SequenceAllocator | None = None,
        pipeline: bool = False,
        qos: QosPolicy | None = None,
        clock: LogicalClock | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultSchedule | FaultInjector | None = None,
    ) -> None:
        if not isinstance(backend, RoundProtocol):
            raise ConfigurationError(
                f"backend {type(backend).__name__} does not implement RoundProtocol"
            )
        if qos is not None and not isinstance(qos, QosPolicy):
            raise ConfigurationError(
                f"qos {type(qos).__name__} is not a QosPolicy"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(
                f"retry {type(retry).__name__} is not a RetryPolicy"
            )
        if faults is None:
            self.fault_injector: FaultInjector | None = None
        elif isinstance(faults, FaultSchedule):
            self.fault_injector = FaultInjector(backend, faults)
        elif isinstance(faults, FaultInjector):
            if faults.backend is not backend:
                raise ConfigurationError(
                    "fault injector was built over a different backend than "
                    "the service's"
                )
            self.fault_injector = faults
        else:
            raise ConfigurationError(
                f"faults {type(faults).__name__} is neither a FaultSchedule "
                "nor a FaultInjector"
            )
        self.backend = backend
        self.pipeline = bool(pipeline)
        self.qos = qos
        self.retry = retry
        if (retry is not None and retry.enabled) or self.fault_injector is not None:
            # Failed rounds must leave the backend's state unadvanced: a
            # retry must replay against the same state, and an injected
            # fault burst must not desync the honest coded rows from the
            # reference states (which would leave every post-burst round
            # undecodable).  With no failed rounds this is a no-op, so the
            # empty-schedule path stays bit-identical.
            backend.freeze_failed_rounds()
        self._owns_clock = clock is None
        self.clock = clock if clock is not None else LogicalClock()
        self.pool = CommandPool(
            num_machines=backend.num_machines, sequence_source=sequence_source
        )
        self.scheduler = RoundScheduler(
            self.pool,
            backend.machine,
            max_batch_rounds=max_batch_rounds,
            min_fill=min_fill,
            max_wait_ticks=max_wait_ticks,
            selector=qos.build_selector() if qos is not None else None,
        )
        self._sessions: dict[str, ClientSession] = {}
        self._tickets_by_sequence: dict[int, CommandTicket] = {}
        self._open_by_client: dict[str, int] = {}
        self.throttled_session = 0
        self.throttled_admission = 0
        # Retry machinery: failed-but-retryable tickets wait here as
        # (ready tick, ticket, machine index) until the backoff elapses;
        # their resubmissions draw fresh pool sequences, mapped back to the
        # original ticket so ``tickets()`` never shows duplicates.
        self._retry_queue: list[tuple[int, CommandTicket, int]] = []
        self._retry_sequences: dict[int, CommandTicket] = {}
        self.retried_commands = 0
        self.recovered_tickets = 0
        self.exhausted_tickets = 0

    # -- client surface -----------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.backend.num_machines

    @property
    def command_dim(self) -> int:
        """Width of one command row for the backend's machine."""
        return self.backend.machine.command_dim

    @property
    def consensus_fast_path_disabled(self) -> int:
        """Backend rounds decided on a consensus slow path (see
        :attr:`repro.rounds.RoundProtocol.consensus_fast_path_disabled`)."""
        return self.backend.consensus_fast_path_disabled

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
        return [
            self._tickets_by_sequence[seq]
            for seq in sorted(self._tickets_by_sequence)
        ]

    def pending_commands(self) -> int:
        """Commands queued but not yet scheduled into a round."""
        return self.pool.total_pending()

    def open_tickets(self, client_id: str) -> int:
        """Unresolved (non-terminal) tickets currently held by a session.

        The quantity the per-session queue cap bounds: it counts accepted
        tickets from submission until they reach ``EXECUTED`` or ``FAILED``
        (throttled tickets never count — they were rejected at the door).
        """
        return self._open_by_client.get(str(client_id), 0)

    def qos_report(self) -> dict[str, object]:
        """Deterministic QoS/backpressure snapshot for this service.

        ``pending`` is the ingress queue depth (the value admission control
        watches), ``open_tickets`` the total unresolved tickets across
        sessions, and the ``throttled_*`` counters classify every rejected
        submit by cause.  Present (with zero counters and a disabled policy
        view) even when no :class:`~repro.service.qos.QosPolicy` is set, so
        report consumers need no branching.
        """
        policy = self.qos.describe() if self.qos is not None else QosPolicy().describe()
        retry = (
            self.retry.describe() if self.retry is not None else RetryPolicy().describe()
        )
        return {
            "policy": policy,
            "pending": self.pool.total_pending(),
            "open_tickets": sum(self._open_by_client.values()),
            "throttled_session": self.throttled_session,
            "throttled_admission": self.throttled_admission,
            "tick": self.clock.now,
            "retry": retry,
            "retried_commands": self.retried_commands,
            "recovered_tickets": self.recovered_tickets,
            "exhausted_tickets": self.exhausted_tickets,
            "retry_backlog": len(self._retry_queue),
            "faults": self.fault_report().to_dict(),
        }

    def fault_report(self) -> FaultReport:
        """The fault plane's record plus this service's retry response.

        Fully populated (all-zero) even without an injector or retry policy,
        so report consumers and the sharded merge need no branching.
        """
        report = (
            self.fault_injector.report()
            if self.fault_injector is not None
            else FaultReport()
        )
        report.retried_commands = self.retried_commands
        report.recovered_tickets = self.recovered_tickets
        report.exhausted_tickets = self.exhausted_tickets
        report.retry_backlog = len(self._retry_queue)
        return report

    # -- scheduling / driving -----------------------------------------------------------
    def drive(self, flush: bool = False) -> list[ProtocolRound]:
        """One scheduler tick: plan adaptive batches and run them.

        Returns the backend's round records for the rounds driven this tick
        (``[]`` on an empty or below-``min_fill`` tick).  Tickets scheduled
        into the tick move to ``COMMITTED`` and then ``EXECUTED`` (verified
        round) or ``FAILED`` (unverified round); if the backend raises
        mid-drive the scheduled tickets are failed before the error
        propagates, so no ticket is silently lost.  Every call advances the
        service's logical clock by one tick (when the service owns its
        clock), including empty ticks — open-loop harnesses count ticks,
        not rounds.
        """
        if self._owns_clock:
            self.clock.advance()
        self._requeue_ready_retries()
        planned = self.scheduler.plan(flush=flush)
        if not planned:
            return []
        runner = (
            self.backend.run_rounds_pipelined
            if self.pipeline
            else self.backend.run_rounds_batched
        )
        try:
            commands = [round_.commands for round_ in planned]
            clients = [round_.clients for round_ in planned]
            if self.fault_injector is not None:
                records = self.fault_injector.run(runner, commands, clients)
            else:
                records = runner(commands, client_rounds=clients)
        except Exception as exc:
            for round_ in planned:
                self._fail_round(
                    round_, f"backend error: {exc}", FailureReason.BACKEND_ERROR
                )
            raise
        try:
            if len(records) != len(planned):
                raise ServiceError(
                    f"backend returned {len(records)} round records for "
                    f"{len(planned)} scheduled rounds"
                )
            for round_, record in zip(planned, records):
                self._resolve_round(round_, record)
        except Exception as exc:
            # A resolution abort (decided-command mismatch, record-count
            # mismatch) must not strand the tick's remaining tickets in a
            # non-terminal state: fail everything still open, then raise.
            for round_ in planned:
                self._fail_round(
                    round_,
                    f"round resolution aborted: {exc}",
                    FailureReason.RESOLUTION_ABORTED,
                )
            raise
        return records

    def drain(self) -> list[ProtocolRound]:
        """Drive until every queued command (and retry backlog) resolves.

        Empty ticks are tolerated while the retry backlog waits out its
        backoff — the clock advances each drive, so the backlog drains and
        the loop terminates (attempts per ticket are bounded by the policy).
        """
        records: list[ProtocolRound] = []
        while self.pool.total_pending() or self._retry_queue:
            driven = self.drive(flush=True)
            if driven:
                records.extend(driven)
                continue
            if self.pool.total_pending():  # pragma: no cover - defensive
                raise ServiceError("scheduler made no progress while draining")
            if not self._owns_clock:  # pragma: no cover - defensive
                raise ServiceError(
                    "retry backlog cannot wait out its backoff on a shared "
                    "clock; drain through the owning facade instead"
                )
        return records

    # -- internals ----------------------------------------------------------------------
    def _canonical_command(self, command) -> np.ndarray:
        """Validate one command row against the backend machine's width."""
        row = np.asarray(command).reshape(-1)
        if row.shape[0] != self.backend.machine.command_dim:
            raise ConfigurationError(
                f"command has dimension {row.shape[0]}, machine expects "
                f"{self.backend.machine.command_dim}"
            )
        return row

    def _throttle_cause(self, client_id: str) -> tuple[str, ThrottleReason] | None:
        """The QoS rejection this submit would hit, or ``None`` to accept."""
        qos = self.qos
        if qos is None:
            return None
        cap = qos.max_session_pending
        if cap is not None and self._open_by_client.get(client_id, 0) >= cap:
            return (
                f"session {client_id!r} already holds {cap} unresolved "
                "tickets (per-session queue cap); retry after they resolve",
                ThrottleReason.SESSION_QUEUE_FULL,
            )
        watermark = qos.admission_watermark
        if watermark is not None and self.pool.total_pending() >= watermark:
            return (
                f"ingress queue depth {self.pool.total_pending()} at the "
                f"admission watermark {watermark}; shard is shedding load",
                ThrottleReason.ADMISSION_SHED,
            )
        return None

    def _make_throttled(
        self,
        client_id: str,
        machine_index: int,
        row: np.ndarray,
        reason: str,
        cause: ThrottleReason,
    ) -> CommandTicket:
        """Issue a ``THROTTLED`` ticket without touching the ingress pool.

        The rejected submission still draws a sequence from the (possibly
        shared) allocator, so tickets stay globally ordered by submission
        even across throttled attempts.
        """
        assert self.pool.sequence_source is not None
        ticket = CommandTicket(
            client_id=str(client_id),
            machine_index=int(machine_index),
            command=tuple(int(v) for v in row),
            sequence=self.pool.sequence_source.allocate(),
            submitted_tick=self.clock.now,
        )
        ticket._throttle(reason, cause, tick=self.clock.now)
        self._tickets_by_sequence[ticket.sequence] = ticket
        if cause is ThrottleReason.SESSION_QUEUE_FULL:
            self.throttled_session += 1
        else:
            self.throttled_admission += 1
        return ticket

    def _submit(self, client_id: str, machine_index: int, command) -> CommandTicket:
        row = self._canonical_command(command)
        throttle = self._throttle_cause(client_id)
        if throttle is not None:
            return self._make_throttled(client_id, machine_index, row, *throttle)
        entry = self.pool.submit(machine_index, client_id, row)
        ticket = CommandTicket(
            client_id=client_id,
            machine_index=entry.machine_index,
            command=entry.command,
            sequence=entry.sequence,
            submitted_tick=self.clock.now,
        )
        self._tickets_by_sequence[entry.sequence] = ticket
        self._open_by_client[client_id] = self._open_by_client.get(client_id, 0) + 1
        return ticket

    def _release(self, ticket: CommandTicket) -> None:
        """Give the session's queue-cap slot back once a ticket resolves."""
        remaining = self._open_by_client.get(ticket.client_id, 0)
        if remaining > 0:
            self._open_by_client[ticket.client_id] = remaining - 1

    def _ticket_for_sequence(self, sequence: int) -> CommandTicket:
        """The ticket owning a scheduled pool entry (retries map back to
        their original ticket, issued under an earlier sequence)."""
        ticket = self._tickets_by_sequence.get(sequence)
        if ticket is None:
            ticket = self._retry_sequences[sequence]
        return ticket

    def _requeue_ready_retries(self) -> None:
        """Resubmit retry-backlog commands whose backoff has elapsed.

        Resubmission bypasses the QoS throttle checks — the ticket still
        holds its session queue-cap slot from the original submit — and
        draws a fresh pool sequence, mapped back to the original ticket.
        """
        if not self._retry_queue:
            return
        now = self.clock.now
        ready = [item for item in self._retry_queue if item[0] <= now]
        if not ready:
            return
        self._retry_queue = [item for item in self._retry_queue if item[0] > now]
        for _, ticket, machine_index in ready:
            entry = self.pool.submit(
                machine_index, ticket.client_id, np.asarray(ticket.command)
            )
            self._retry_sequences[entry.sequence] = ticket

    def _finish_execute(self, ticket: CommandTicket, output: np.ndarray) -> None:
        ticket._execute(output, tick=self.clock.now)
        if ticket.attempts > 1:
            self.recovered_tickets += 1
        self._release(ticket)

    def _finish_fail(
        self, ticket: CommandTicket, reason: str, cause: FailureReason
    ) -> None:
        ticket._fail(reason, cause, tick=self.clock.now)
        self._release(ticket)

    def _finish_round_failure(
        self,
        ticket: CommandTicket,
        machine_index: int,
        reason: str,
        cause: FailureReason,
    ) -> None:
        """Fail a committed ticket — or, under the retry policy, re-enqueue it.

        ``machine_index`` is the *local* machine slot the command occupied
        (the retry must resubmit to the same slot; the ticket's own
        ``machine_index`` may have been rewritten to a global index by the
        sharded facade).
        """
        policy = self.retry
        if policy is not None and policy.enabled and cause in policy.retry_on:
            if ticket.attempts < policy.max_attempts:
                ticket._retry()
                self._retry_queue.append(
                    (self.clock.now + policy.backoff_ticks, ticket, machine_index)
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

    def _resolve_round(self, planned: ScheduledRound, record: ProtocolRound) -> None:
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
            ticket._commit(record.round_index, tick=self.clock.now)
            if record.correct:
                self._finish_execute(ticket, record.result.outputs[k])
            elif record.result.diagnostics.get("confirmed_fraud"):
                # Delegated-verification backends convict their worker in the
                # round diagnostics; surface the distinct cause so clients can
                # branch (resubmit immediately — a fresh election replaces the
                # worker) without parsing prose.
                self._finish_round_failure(
                    ticket,
                    k,
                    f"round {record.round_index} rejected: confirmed "
                    "delegated-verification fraud; output withheld",
                    FailureReason.DELEGATION_FRAUD,
                )
            else:
                self._finish_round_failure(
                    ticket,
                    k,
                    f"round {record.round_index} failed verification; output "
                    "withheld",
                    FailureReason.VERIFICATION_FAILED,
                )

    def _fail_round(
        self,
        planned: ScheduledRound,
        reason: str,
        failure_reason: FailureReason,
    ) -> None:
        for entry in planned.entries:
            if entry is None:
                continue
            ticket = self._ticket_for_sequence(entry.sequence)
            if ticket.done:
                continue
            if ticket.state is TicketState.RETRYING:
                # The aborted tick may have just re-enqueued this ticket (or
                # be failing its resubmission); either way its backlog entry
                # must go, or a later tick would resubmit a failed ticket.
                self._retry_queue = [
                    item for item in self._retry_queue if item[1] is not ticket
                ]
            self._finish_fail(ticket, reason, failure_reason)
