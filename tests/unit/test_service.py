"""Unit tests for the client-session service: tickets, scheduler, facades.

Covers the redesigned client API end to end at small scale: ragged traffic
(idle machines padded with noop commands, bursty multi-command clients),
adaptive batching (``min_fill`` deferral, empty scheduler ticks), the
``PENDING -> COMMITTED -> EXECUTED | FAILED`` ticket lifecycle including
``FAILED`` on unverified rounds, and the replication facade behind the same
:class:`~repro.rounds.RoundProtocol` interface as the coded protocol.
"""

import numpy as np
import pytest

from reference.machine import step
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError, ServiceError
from repro.machine.library import affine_kv_machine, bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior, SilentBehavior, WindowedBehavior
from repro.replication import FullReplicationSMR, PartialReplicationSMR, ReplicationProtocol
from repro.rounds import RoundProtocol
from repro.service import (
    NOOP_CLIENT,
    CSMService,
    CommandTicket,
    FailureReason,
    QosPolicy,
    RetryPolicy,
    RoundScheduler,
    ThrottleReason,
    TicketState,
)


def _csm_protocol(field, num_machines=3, num_nodes=12, seed=7, behaviors=None):
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=1,
    )
    return CSMProtocol(
        config, machine, behaviors, rng=np.random.default_rng(seed)
    )


def _replication_backend(field, num_machines=3, num_nodes=4, behaviors=None, seed=0):
    machine = bank_account_machine(field, num_accounts=2)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    engine = FullReplicationSMR(
        machine, num_machines, node_ids, behaviors, np.random.default_rng(seed)
    )
    return ReplicationProtocol(engine)


class TestTicketLifecycle:
    def test_executed_path_records_every_state(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        session = service.connect("alice")
        ticket = session.submit(1, [10, 20])
        assert ticket.state is TicketState.PENDING
        assert not ticket.done
        with pytest.raises(ServiceError):
            ticket.result()  # no output before execution
        records = service.drive(flush=True)
        assert len(records) == 1
        assert ticket.state is TicketState.EXECUTED
        assert ticket.round_index == 0
        assert ticket.state_history == [
            TicketState.PENDING,
            TicketState.COMMITTED,
            TicketState.EXECUTED,
        ]
        np.testing.assert_array_equal(ticket.result(), [10, 20])
        assert session.outputs() and session.pending() == []

    def test_failed_on_unverified_round(self, big_field):
        # 3 of 4 replicas report garbage: no output can gather b+1 honest
        # matches, the round fails verification, and the ticket must FAIL
        # without ever exposing an output.
        node_ids = [f"node-{i}" for i in range(4)]
        behaviors = {n: RandomGarbageBehavior() for n in node_ids[:3]}
        backend = _replication_backend(big_field, behaviors=behaviors)
        service = CSMService(backend)
        ticket = service.connect("carol").submit(0, [5, 5])
        service.drain()
        assert ticket.state is TicketState.FAILED
        assert ticket.state_history == [
            TicketState.PENDING,
            TicketState.COMMITTED,
            TicketState.FAILED,
        ]
        assert ticket.output is None
        assert "failed verification" in ticket.error
        assert ticket.failure_reason is FailureReason.VERIFICATION_FAILED
        with pytest.raises(ServiceError):
            ticket.result()
        assert backend.failed_rounds == 1
        assert "carol" in backend.failed_deliveries

    def test_illegal_transitions_raise(self):
        ticket = CommandTicket(
            client_id="a", machine_index=0, command=(1,), sequence=0
        )
        with pytest.raises(ServiceError):
            ticket._execute(np.array([1]))  # cannot execute before commit
        ticket._commit(0)
        ticket._execute(np.array([1]))
        with pytest.raises(ServiceError):
            # terminal states are final
            ticket._fail("too late", FailureReason.BACKEND_ERROR)
        assert ticket.failure_reason is None  # the illegal edge set nothing

    def test_scheduler_abort_fails_pending_tickets(self, big_field):
        backend = _replication_backend(big_field)

        class ExplodingBackend(RoundProtocol):
            machine = backend.machine

            def __init__(self):
                self._init_round_state()

            @property
            def num_machines(self):
                return backend.num_machines

            def run_rounds_batched(self, command_batches, client_rounds=None):
                raise RuntimeError("backend down")

        service = CSMService(ExplodingBackend())
        ticket = service.connect("dave").submit(0, [1, 1])
        with pytest.raises(RuntimeError):
            service.drive(flush=True)
        assert ticket.state is TicketState.FAILED
        assert "backend down" in ticket.error
        assert ticket.failure_reason is FailureReason.BACKEND_ERROR

    def test_consensus_mismatch_and_abort_failure_reasons(self, big_field):
        from repro.exceptions import ConsensusError

        inner = _replication_backend(big_field)

        class LyingBackend(RoundProtocol):
            """Executes honestly but reports tampered decided commands."""

            machine = inner.machine

            def __init__(self):
                self._init_round_state()

            @property
            def num_machines(self):
                return inner.num_machines

            def run_rounds_batched(self, command_batches, client_rounds=None):
                tampered = [np.asarray(b).copy() for b in command_batches]
                for batch in tampered:
                    batch[0] += 1  # machine 0's decided command is a lie
                return inner.run_rounds_batched(tampered, client_rounds)

        service = CSMService(LyingBackend())
        victim = service.connect("alice").submit(0, [1, 1])
        bystander = service.connect("bob").submit(1, [2, 2])
        with pytest.raises(ConsensusError, match="different command"):
            service.drive(flush=True)
        assert victim.state is TicketState.FAILED
        assert victim.failure_reason is FailureReason.CONSENSUS_MISMATCH
        # The sibling slot never got resolved before the abort: it is failed
        # with the abort reason instead of being stranded mid-lifecycle.
        assert bystander.state is TicketState.FAILED
        assert bystander.failure_reason is FailureReason.RESOLUTION_ABORTED


class TestRaggedTraffic:
    def test_idle_machines_are_noop_padded(self, big_field):
        protocol = _csm_protocol(big_field)
        service = CSMService(protocol)
        service.connect("alice").submit(0, [7, 7])
        records = service.drive(flush=True)
        (record,) = records
        assert record.clients == ["alice", NOOP_CLIENT, NOOP_CLIENT]
        noop = protocol.machine.noop_command()
        np.testing.assert_array_equal(record.commands[1], noop)
        np.testing.assert_array_equal(record.commands[2], noop)
        # The noop is an identity transition: idle ledgers did not move.
        np.testing.assert_array_equal(record.result.states[1], [0, 0])
        np.testing.assert_array_equal(record.result.states[2], [0, 0])
        np.testing.assert_array_equal(record.result.states[0], [7, 7])

    def test_multi_command_client_spans_rounds(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        session = service.connect("burst")
        tickets = [session.submit(2, [i, i]) for i in range(1, 4)]
        records = service.drain()
        # One machine queue of depth 3 becomes 3 FIFO rounds.
        assert len(records) == 3
        assert [t.round_index for t in tickets] == [0, 1, 2]
        np.testing.assert_array_equal(tickets[-1].result(), [6, 6])  # 1+2+3
        assert [len(o) for o in session.outputs()] == [2, 2, 2]

    def test_empty_tick_runs_nothing(self, big_field):
        protocol = _csm_protocol(big_field)
        service = CSMService(protocol)
        assert service.drive() == []
        assert service.drive(flush=True) == []
        assert service.drain() == []
        assert protocol.history == []

    def test_min_fill_defers_until_enough_traffic(self, big_field):
        service = CSMService(_csm_protocol(big_field), min_fill=2)
        service.connect("alice").submit(0, [1, 1])
        assert service.drive() == []  # 1 of 3 machines filled: below min_fill
        assert service.pending_commands() == 1
        service.connect("bob").submit(2, [2, 2])
        records = service.drive()
        assert len(records) == 1 and records[0].clients[1] == NOOP_CLIENT
        # flush overrides min_fill for the stragglers.
        service.connect("alice").submit(0, [3, 3])
        assert service.drive() == []
        assert len(service.drive(flush=True)) == 1

    def test_max_batch_rounds_caps_one_drive(self, big_field):
        service = CSMService(_csm_protocol(big_field), max_batch_rounds=2)
        session = service.connect("burst")
        for i in range(5):
            session.submit(1, [i, i])
        assert len(service.drive(flush=True)) == 2
        assert service.pending_commands() == 3
        assert len(service.drain()) == 3  # loops drive() until the pool is dry
        assert service.pending_commands() == 0

    def test_scheduler_validates_configuration(self, big_field):
        backend = _replication_backend(big_field)
        with pytest.raises(ConfigurationError):
            CSMService(backend, max_batch_rounds=0)
        with pytest.raises(ConfigurationError):
            CSMService(backend, min_fill=0)
        with pytest.raises(ConfigurationError):
            CSMService(backend, min_fill=backend.num_machines + 1)
        with pytest.raises(ConfigurationError):
            CSMService(backend, max_wait_ticks=0)
        with pytest.raises(ConfigurationError):
            CSMService(object())  # not a RoundProtocol

    def test_stale_commands_flush_after_max_wait_ticks(self, big_field):
        # Regression: below-min_fill traffic with no flush ever arriving
        # used to sit PENDING forever (scheduler starvation deadlock).
        service = CSMService(
            _csm_protocol(big_field), min_fill=3, max_wait_ticks=3
        )
        ticket = service.connect("alice").submit(0, [1, 1])
        assert service.drive() == []  # deferred tick 1
        assert service.drive() == []  # deferred tick 2
        records = service.drive()     # tick 3: stale override fires
        assert len(records) == 1
        assert ticket.state is TicketState.EXECUTED
        np.testing.assert_array_equal(ticket.result(), [1, 1])

    def test_stale_override_age_resets_on_progress(self, big_field):
        service = CSMService(
            _csm_protocol(big_field), min_fill=2, max_wait_ticks=2
        )
        service.connect("alice").submit(0, [1, 1])
        assert service.drive() == []          # deferred tick 1
        service.connect("bob").submit(1, [2, 2])
        assert len(service.drive()) == 1      # min_fill reached: normal round
        late = service.connect("alice").submit(0, [3, 3])
        assert service.drive() == []          # fresh deferral count: tick 1
        assert late.state is TicketState.PENDING
        assert len(service.drive()) == 1      # tick 2: override fires again
        assert late.state is TicketState.EXECUTED

    def test_max_wait_ticks_none_preserves_pure_deferral(self, big_field):
        service = CSMService(
            _csm_protocol(big_field), min_fill=3, max_wait_ticks=None
        )
        ticket = service.connect("alice").submit(0, [1, 1])
        for _ in range(30):
            assert service.drive() == []
        assert ticket.state is TicketState.PENDING
        assert len(service.drive(flush=True)) == 1  # flush still drains

    def test_submit_validates_command_shape(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        with pytest.raises(ConfigurationError):
            service.connect("alice").submit(0, [1, 2, 3])
        with pytest.raises(ConfigurationError):
            service.connect("alice").submit(9, [1, 2])

    def test_connect_is_idempotent(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        session = service.connect("alice")
        assert service.connect("alice") is session


class TestReplicationFacade:
    def test_partial_replication_backend(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(6)]
        engine = PartialReplicationSMR(
            machine, 3, node_ids, rng=np.random.default_rng(0)
        )
        service = CSMService(ReplicationProtocol(engine))
        tickets = [
            service.connect("alice").submit(0, [1, 1]),
            service.connect("bob").submit(2, [2, 2]),
        ]
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in tickets)
        assert engine.round_index == 1  # one padded round served both

    def test_facade_matches_direct_engine_execution(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(4)]
        batches = [
            np.arange(1, 7).reshape(3, 2),
            np.arange(7, 13).reshape(3, 2),
        ]
        direct = FullReplicationSMR(machine, 3, node_ids, rng=np.random.default_rng(1))
        direct_results = direct.execute_rounds(np.stack(batches))
        facade = ReplicationProtocol(
            FullReplicationSMR(machine, 3, node_ids, rng=np.random.default_rng(1))
        )
        records = facade.run_rounds_batched(batches)
        assert [r.clients for r in records] == [
            ["client:0", "client:1", "client:2"]
        ] * 2
        for record, result in zip(records, direct_results):
            np.testing.assert_array_equal(record.result.outputs, result.outputs)
            np.testing.assert_array_equal(record.result.states, result.states)
            assert record.correct == result.correct
        assert facade.all_rounds_correct
        assert facade.measured_throughput() > 0

    def test_facade_rejects_malformed_rounds(self, big_field):
        facade = _replication_backend(big_field)
        with pytest.raises(ConfigurationError):
            facade.run_rounds_batched([np.ones((2, 2))])
        with pytest.raises(ConfigurationError):
            facade.run_rounds_batched(
                [np.ones((3, 2))], client_rounds=[["a"] * 3, ["b"] * 3]
            )
        assert facade.run_rounds_batched([]) == []

    def test_retry_replays_a_failed_round_against_frozen_state(self, big_field):
        # node-0 and node-1 are silent in round 0 only, so group 0's lone
        # honest reply misses the majority.  The retry must replay the
        # command once against unadvanced state, not apply it twice.
        machine = bank_account_machine(big_field, num_accounts=2)
        behaviors = {
            f"node-{i}": WindowedBehavior(SilentBehavior(), 0, 1) for i in (0, 1)
        }
        engine = PartialReplicationSMR(
            machine, 2, [f"node-{i}" for i in range(6)], behaviors,
            rng=np.random.default_rng(0),
        )
        service = CSMService(
            ReplicationProtocol(engine),
            retry=RetryPolicy(max_attempts=3, backoff_ticks=1),
        )
        ticket = service.connect("alice").submit(0, [3, 4])
        service.drain()
        assert ticket.state is TicketState.EXECUTED
        assert ticket.result().tolist() == [3, 4]
        assert [r.correct for r in service.history] == [False, True]
        assert not service.history[0].result.states.any()
        assert engine.states.tolist() == [[3, 4], [0, 0]]

    @pytest.mark.parametrize("width", [1, 4])
    def test_facade_rejects_client_rounds_of_the_wrong_width(self, big_field, width):
        # K = 3: a short round used to drop the unnamed machines' outputs
        # silently, a long one to raise IndexError after the round was recorded.
        facade = _replication_backend(big_field)
        with pytest.raises(ConfigurationError, match=f"names {width} clients for 3"):
            facade.run_rounds_batched(
                [np.ones((3, 2))], client_rounds=[["a", "b", "c", "d"][:width]]
            )
        assert facade.history == []
        assert facade.engine.round_index == 0  # nothing executed


class TestNoopCommands:
    def test_library_machines_declare_identity_noops(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=3)
        state = np.array([4, 5, 6])
        next_state, _ = step(machine, state, machine.noop_command())
        np.testing.assert_array_equal(next_state, state)

    def test_affine_machine_only_identity_at_scale_one(self, big_field):
        scaled = affine_kv_machine(big_field, num_keys=2, scale=3)
        assert scaled.noop is None  # no identity command exists
        unit = affine_kv_machine(big_field, num_keys=2, scale=1)
        state = np.array([8, 9])
        next_state, _ = step(unit, state, unit.noop_command())
        np.testing.assert_array_equal(next_state, state)

    def test_noop_dimension_validated(self, big_field):
        with pytest.raises(ConfigurationError):
            machine = bank_account_machine(big_field, num_accounts=2)
            type(machine)(
                field=machine.field,
                transition=machine.transition,
                initial_state=machine.initial_state,
                noop=np.zeros(5, dtype=np.int64),
            )

    def test_all_noop_round_leaves_states_unchanged(self, big_field):
        backend = _replication_backend(big_field)
        noop_round = np.tile(backend.machine.noop_command(), (3, 1))
        first, idle = backend.run_rounds_batched([np.ones((3, 2)), noop_round])
        assert idle.correct
        np.testing.assert_array_equal(idle.result.states, first.result.states)


class TestPipelineFlag:
    def test_pipeline_drive_matches_batched_drive(self, big_field):
        """pipeline=True must change only how the backend executes, not what
        any ticket or history record contains."""
        rng = np.random.default_rng(4)
        batches = [rng.integers(1, 1000, size=(3, 2)) for _ in range(4)]

        def run(pipeline):
            protocol = _csm_protocol(big_field)
            service = CSMService(
                protocol, max_batch_rounds=4, min_fill=3, pipeline=pipeline
            )
            sessions = [service.connect(f"client:{k}") for k in range(3)]
            for batch in batches:
                for k in range(3):
                    sessions[k].submit(k, batch[k])
            service.drain()
            return protocol, service

        batched_protocol, batched_service = run(False)
        pipelined_protocol, pipelined_service = run(True)
        assert len(batched_protocol.history) == len(pipelined_protocol.history)
        for bat, pip in zip(batched_protocol.history, pipelined_protocol.history):
            np.testing.assert_array_equal(bat.commands, pip.commands)
            assert bat.clients == pip.clients
            np.testing.assert_array_equal(bat.result.outputs, pip.result.outputs)
            assert bat.result.correct == pip.result.correct
        for bat, pip in zip(batched_service.tickets(), pipelined_service.tickets()):
            assert bat.sequence == pip.sequence and bat.state is pip.state

    def test_pipeline_flag_works_on_replication_backends(self, big_field):
        """Backends without a speculative path fall back to the batched drive
        through the RoundProtocol default — same outcomes, no errors."""
        service = CSMService(
            _replication_backend(big_field), max_batch_rounds=2, pipeline=True
        )
        session = service.connect("alice")
        ticket = session.submit(0, [5, 5])
        service.drain()
        assert ticket.state is TicketState.EXECUTED

    def test_run_lockstep_pipeline_matches_default(self, big_field):
        """The no-client lockstep drivers: pipelined history equals batched."""
        rng = np.random.default_rng(11)
        batches = [rng.integers(1, 1000, size=(3, 2)) for _ in range(3)]
        batched = _csm_protocol(big_field).run_rounds_batched(batches)
        pipelined = _csm_protocol(big_field).run_rounds_pipelined(batches)
        assert len(batched) == len(pipelined) == 3
        for bat, pip in zip(batched, pipelined):
            np.testing.assert_array_equal(bat.commands, pip.commands)
            assert bat.clients == pip.clients == [f"client:{k}" for k in range(3)]
            np.testing.assert_array_equal(bat.result.outputs, pip.result.outputs)
            assert bat.result.correct == pip.result.correct


class TestThrottledTicketEdges:
    def test_pending_to_throttled_is_legal_and_terminal(self):
        ticket = CommandTicket(
            client_id="a", machine_index=0, command=(1,), sequence=0
        )
        ticket._throttle(
            "session queue full", ThrottleReason.SESSION_QUEUE_FULL, tick=4
        )
        assert ticket.state is TicketState.THROTTLED
        assert ticket.done
        assert ticket.throttle_reason is ThrottleReason.SESSION_QUEUE_FULL
        assert ticket.resolved_tick == 4
        assert ticket.state_history == [
            TicketState.PENDING,
            TicketState.THROTTLED,
        ]
        with pytest.raises(ServiceError):
            ticket.result()  # a shed command never has an output

    def test_no_transitions_out_of_throttled(self):
        ticket = CommandTicket(
            client_id="a", machine_index=0, command=(1,), sequence=0
        )
        ticket._throttle("shed", ThrottleReason.ADMISSION_SHED)
        with pytest.raises(ServiceError):
            ticket._commit(0)
        with pytest.raises(ServiceError):
            ticket._execute(np.array([1]))
        with pytest.raises(ServiceError):
            ticket._fail("nope", FailureReason.BACKEND_ERROR)
        with pytest.raises(ServiceError):
            ticket._throttle("again", ThrottleReason.SESSION_QUEUE_FULL)
        # The illegal edges left no trace on the terminal ticket.
        assert ticket.state is TicketState.THROTTLED
        assert ticket.failure_reason is None
        assert ticket.round_index is None

    def test_committed_ticket_cannot_be_throttled(self):
        ticket = CommandTicket(
            client_id="a", machine_index=0, command=(1,), sequence=0
        )
        ticket._commit(0)
        with pytest.raises(ServiceError):
            ticket._throttle("late", ThrottleReason.SESSION_QUEUE_FULL)

    def test_backpressure_releases_capacity_after_resolution(self, big_field):
        service = CSMService(
            _csm_protocol(big_field), qos=QosPolicy(max_session_pending=1)
        )
        session = service.connect("alice")
        session.submit(0, [1, 1])
        assert session.submit(0, [2, 2]).state is TicketState.THROTTLED
        service.drive(flush=True)  # resolves the open ticket
        assert session.submit(0, [2, 2]).state is TicketState.PENDING


class TestDeferralAgeAcrossCappedTicks:
    def test_leftovers_of_a_capped_tick_keep_their_age(self, big_field):
        # Regression: a tick that forms rounds but leaves commands behind
        # (max_batch_rounds exhausted) used to reset the deferral age, so the
        # leftover's starvation clock restarted from zero and the max_wait
        # override fired one tick late.  The age must follow the oldest
        # still-pending command.
        service = CSMService(
            _csm_protocol(big_field),
            max_batch_rounds=1,
            min_fill=2,
            max_wait_ticks=3,
        )
        alice = service.connect("alice")
        first = alice.submit(0, [1, 1])
        leftover = alice.submit(0, [2, 2])
        other = service.connect("bob").submit(1, [3, 3])

        # Tick 1: two machines pending (>= min_fill) forms one capped round;
        # the second machine-0 command stays behind and is now 1 tick old.
        assert len(service.drive()) == 1
        assert first.state is TicketState.EXECUTED
        assert other.state is TicketState.EXECUTED
        assert leftover.state is TicketState.PENDING

        # Tick 2: below min_fill, deferred — the leftover is 2 ticks old.
        assert service.drive() == []
        assert leftover.state is TicketState.PENDING

        # Tick 3: the override fires at age 3.  Resetting the age on the
        # capped tick would have deferred here and flushed only on tick 4.
        assert len(service.drive()) == 1
        assert leftover.state is TicketState.EXECUTED


class TestLogicalTimestamps:
    def test_ticks_stamped_through_the_lifecycle(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        ticket = service.connect("alice").submit(0, [1, 1])
        assert ticket.submitted_tick == 0
        assert ticket.commit_latency is None
        assert ticket.execute_latency is None
        service.drive(flush=True)
        assert ticket.submitted_tick == 0
        assert ticket.committed_tick == 1
        assert ticket.resolved_tick == 1
        assert ticket.commit_latency == 1
        assert ticket.execute_latency == 1

    def test_clock_advances_on_empty_ticks(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        service.drive()
        service.drive()
        assert service.clock.now == 2
        ticket = service.connect("alice").submit(0, [1, 1])
        assert ticket.submitted_tick == 2

    def test_throttled_ticket_resolves_at_its_submit_tick(self, big_field):
        service = CSMService(
            _csm_protocol(big_field), qos=QosPolicy(max_session_pending=1)
        )
        session = service.connect("alice")
        session.submit(0, [1, 1])
        service.drive()  # advances the clock without resolving (min_fill met?)
        shed = session.submit(0, [2, 2])
        if shed.state is TicketState.PENDING:
            shed = session.submit(0, [3, 3])
        assert shed.state is TicketState.THROTTLED
        assert shed.submitted_tick == shed.resolved_tick == service.clock.now
        assert shed.commit_latency is None
        assert shed.execute_latency is None

    def test_deferred_commit_accrues_latency(self, big_field):
        service = CSMService(
            _csm_protocol(big_field), min_fill=3, max_wait_ticks=3
        )
        ticket = service.connect("alice").submit(0, [1, 1])
        service.drive()  # deferred
        service.drive()  # deferred
        service.drive()  # stale override executes it at tick 3
        assert ticket.state is TicketState.EXECUTED
        assert ticket.commit_latency == 3
        assert ticket.execute_latency == 3


class TestRetryPolicy:
    """The self-healing layer: failed rounds re-enqueue instead of failing."""

    def _corrupt_burst(self, at, until=None, nodes=5):
        # Five corrupt rows exceed the N=12, K=3 decode radius (4), so the
        # burst rounds fail verification while consensus still decides.
        from repro.faults import FaultSchedule

        schedule = FaultSchedule()
        for i in range(nodes):
            schedule.behavior(f"node-{i}", "corrupt", at=at, until=until)
        return schedule

    def test_policy_validation(self):
        from repro.service import RetryPolicy

        assert not RetryPolicy().enabled
        assert RetryPolicy(max_attempts=2).enabled
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ticks=-1)

    def test_burst_failures_recover_within_max_attempts(self, big_field):
        from repro.service import RetryPolicy

        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol,
            retry=RetryPolicy(max_attempts=4, backoff_ticks=1),
            faults=self._corrupt_burst(at=1, until=3),
        )
        session = service.connect("alice")
        tickets = [
            session.submit(k, [10 + r, k]) for r in range(4) for k in range(3)
        ]
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in tickets)
        retried = [t for t in tickets if t.attempts > 1]
        assert retried, "the burst rounds' tickets must have retried"
        for ticket in retried:
            assert TicketState.RETRYING in ticket.state_history
        report = service.qos_report()
        assert report["retried_commands"] == len(retried)
        assert report["recovered_tickets"] == len(retried)
        assert report["exhausted_tickets"] == 0
        assert report["retry_backlog"] == 0

    def test_exhausted_retries_fail_with_distinct_reason(self, big_field):
        from repro.service import RetryPolicy

        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol,
            retry=RetryPolicy(max_attempts=2, backoff_ticks=1),
            faults=self._corrupt_burst(at=0),  # permanent corruption
        )
        ticket = service.connect("alice").submit(0, [5, 5])
        service.drain()
        assert ticket.state is TicketState.FAILED
        assert ticket.failure_reason is FailureReason.RETRY_EXHAUSTED
        assert ticket.attempts == 2
        assert "retries exhausted" in ticket.error
        assert service.qos_report()["exhausted_tickets"] == 1

    def test_disabled_policy_fails_fast(self, big_field):
        from repro.service import RetryPolicy

        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol,
            retry=RetryPolicy(max_attempts=1),
            faults=self._corrupt_burst(at=0, until=2),
        )
        ticket = service.connect("alice").submit(0, [5, 5])
        service.drain()
        assert ticket.state is TicketState.FAILED
        assert ticket.failure_reason is FailureReason.VERIFICATION_FAILED
        assert ticket.attempts == 1

    def test_backoff_holds_the_retry_in_the_backlog(self, big_field):
        from repro.service import RetryPolicy

        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol,
            retry=RetryPolicy(max_attempts=3, backoff_ticks=4),
            faults=self._corrupt_burst(at=0, until=1),
        )
        ticket = service.connect("alice").submit(0, [5, 5])
        service.drive(flush=True)  # tick 1: the burst round fails, re-enqueue
        assert ticket.state is TicketState.RETRYING
        assert service.qos_report()["retry_backlog"] == 1
        # ready at tick 1 + 4 = 5: ticks 2..4 only wait out the backoff
        for _ in range(3):
            assert service.drive(flush=True) == []
            assert ticket.state is TicketState.RETRYING
        service.drain()  # tick 5 resubmits and executes
        assert ticket.state is TicketState.EXECUTED
        assert ticket.attempts == 2

    def test_report_blocks_present_without_policy(self, big_field):
        service = CSMService(_csm_protocol(big_field))
        report = service.qos_report()
        assert report["retry"]["enabled"] is False
        assert report["retried_commands"] == 0
        assert report["faults"]["injected_events"] == 0


class TestOneShardCase:
    """The unsharded service is the one-shard case of the sharded one."""

    def _corrupt_burst(self, at, until):
        # Five corrupt rows exceed the N=12, K=3 decode radius (4).
        from repro.faults import FaultSchedule

        schedule = FaultSchedule()
        for i in range(5):
            schedule.behavior(f"node-{i}", "corrupt", at=at, until=until)
        return schedule

    def test_unsharded_service_degrades_sheds_and_probes_back(self, big_field):
        from repro.service import RetryPolicy, ShardHealth

        service = CSMService(
            _csm_protocol(big_field),
            retry=RetryPolicy(max_attempts=5, backoff_ticks=1),
            faults=self._corrupt_burst(at=0, until=3),
        )
        session = service.connect("alice")
        doomed = [session.submit(0, [10 + r, 0]) for r in range(3)]
        service.drive(flush=True)  # three failed rounds back to back
        assert service.shard_health(0) is ShardHealth.DEGRADED
        # while the retry backlog probes, new admissions are shed
        shed = session.submit(1, [1, 1])
        assert shed.throttle_reason is ThrottleReason.ADMISSION_SHED
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in doomed)
        assert service.shard_health(0) is ShardHealth.HEALTHY
        timeline = service.qos_report()["health_timeline"]
        assert [(entry["shard"], entry["state"]) for entry in timeline] == [
            (0, "degraded"),
            (0, "healthy"),
        ]
        # with the backlog gone, a submission is admitted again
        assert session.submit(1, [1, 1]).state is TicketState.PENDING

    def test_both_shapes_report_one_schema(self, big_field):
        from repro.service import ShardedCSMService

        plain = CSMService(_csm_protocol(big_field)).qos_report()
        sharded = ShardedCSMService(
            [_replication_backend(big_field, seed=s) for s in range(2)]
        ).qos_report()
        assert set(plain) == set(sharded)
        assert len(plain["shards"]) == 1 and len(sharded["shards"]) == 2
        assert plain["shard_health"] == ["healthy"]
        assert plain["health_timeline"] == []

    def test_min_fill_is_checked_against_the_total_machine_count(self, big_field):
        from repro.service import ShardedCSMService

        def backends():
            return [_replication_backend(big_field, num_machines=2, seed=s) for s in range(2)]

        with pytest.raises(ConfigurationError, match="min_fill"):
            ShardedCSMService(backends(), min_fill=5)
        # wider than a shard but not than the service: clamped per shard
        service = ShardedCSMService(backends(), min_fill=3)
        ticket = service.connect("alice").submit(3, [4, 4])
        service.drain()
        assert ticket.state is TicketState.EXECUTED

    def test_prebuilt_fault_injector_is_rejected(self, big_field):
        from repro.faults import FaultInjector, FaultSchedule

        protocol = _csm_protocol(big_field)
        with pytest.raises(ConfigurationError, match="FaultSchedule"):
            CSMService(protocol, faults=FaultInjector(protocol, FaultSchedule.empty()))
