"""Unit tests for the sharded service.

Covers the partition/routing surface (global machine indices to per-shard
local slots, balanced contiguous partitions, homogeneous shard machines),
the global-uniqueness of ticket sequences across shard pools, per-shard
failure isolation (a failed round on one shard must not touch another
shard's tickets), the merged reporting view (global round indices,
per-shard throughput widths), every shard advancing on every tick, and
per-shard health.
"""

import numpy as np
import pytest

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.replication import FullReplicationSMR, ReplicationProtocol
from repro.service import (
    CSMService,
    FailureReason,
    ShardedCSMService,
    TicketState,
)
from repro.service.sharding import partition_machines


def _replication_backend(field, num_machines=2, num_nodes=4, behaviors=None, seed=0):
    machine = bank_account_machine(field, num_accounts=2)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    engine = FullReplicationSMR(
        machine, num_machines, node_ids, behaviors, np.random.default_rng(seed)
    )
    return ReplicationProtocol(engine)


def _csm_backend(field, num_machines=2, num_nodes=8, seed=3):
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=1,
    )
    return CSMProtocol(config, machine, rng=np.random.default_rng(seed))


def _sharded(field, shard_sizes=(2, 2), **kwargs):
    backends = [
        _replication_backend(field, num_machines=size, seed=i)
        for i, size in enumerate(shard_sizes)
    ]
    return ShardedCSMService(backends, **kwargs)


class TestPartition:
    def test_balanced_contiguous_sizes(self):
        assert partition_machines(6, 2) == [3, 3]
        assert partition_machines(7, 3) == [3, 2, 2]
        assert partition_machines(3, 3) == [1, 1, 1]

    def test_invalid_partitions_raise(self):
        with pytest.raises(ConfigurationError):
            partition_machines(4, 0)
        with pytest.raises(ConfigurationError):
            partition_machines(2, 3)  # a shard would be empty

    def test_from_partition_checks_backend_width(self, big_field):
        with pytest.raises(ConfigurationError, match="partition requires"):
            ShardedCSMService.from_partition(
                4, 2, lambda s, size: _replication_backend(big_field, size + 1)
            )
        service = ShardedCSMService.from_partition(
            5, 2, lambda s, size: _replication_backend(big_field, size, seed=s)
        )
        assert service.num_machines == 5
        assert [entry["machines"] for entry in service.qos_report()["shards"]] == [3, 2]

    def test_configuration_validation(self, big_field):
        with pytest.raises(ConfigurationError):
            ShardedCSMService([])
        with pytest.raises(ConfigurationError):
            ShardedCSMService([object()])

    def test_heterogeneous_shard_machines_are_rejected(self, big_field, small_field):
        # Clients size command rows from service.command_dim: every shard's
        # machine must agree on it, and on the field the rows live in.
        wide = FullReplicationSMR(
            bank_account_machine(big_field, num_accounts=3),
            2,
            [f"node-{i}" for i in range(4)],
            rng=np.random.default_rng(1),
        )
        with pytest.raises(ConfigurationError, match="command_dim"):
            ShardedCSMService(
                [_replication_backend(big_field), ReplicationProtocol(wide)]
            )
        with pytest.raises(ConfigurationError, match="field"):
            ShardedCSMService(
                [_replication_backend(big_field), _replication_backend(small_field)]
            )


class TestRouting:
    def test_global_indices_route_to_owning_shard(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 3))
        assert service.num_machines == 5
        assert service.shard_of(0) == (0, 0)
        assert service.shard_of(1) == (0, 1)
        assert service.shard_of(2) == (1, 0)
        assert service.shard_of(4) == (1, 2)
        with pytest.raises(ConfigurationError):
            service.shard_of(5)
        with pytest.raises(ConfigurationError):
            service.shard_of(-1)

    def test_ticket_reports_global_machine_index(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        ticket = service.connect("alice").submit(3, [7, 7])
        assert ticket.machine_index == 3  # not the shard-local slot 1
        service.drain()
        assert ticket.state is TicketState.EXECUTED
        np.testing.assert_array_equal(ticket.result(), [7, 7])

    def test_submission_lands_in_one_shard_only(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("alice").submit(2, [1, 1])
        shards = service.qos_report()["shards"]
        assert [entry["pending"] for entry in shards] == [0, 1]
        assert service.pending_commands() == 1


class TestSequenceUniqueness:
    def test_sequences_unique_and_submission_ordered_across_shards(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        session = service.connect("alice")
        # Interleave submissions across both shards.
        tickets = [session.submit(m, [m, m]) for m in (0, 2, 1, 3, 2, 0)]
        sequences = [t.sequence for t in tickets]
        assert sequences == list(range(6))  # globally unique AND ordered
        assert [t.sequence for t in service.tickets()] == sequences

    def test_shared_allocator_spans_every_shard_pool(self, big_field):
        # Accepted, throttled and retried submissions on any shard all draw
        # from the service's one allocator.
        from repro.faults import FaultSchedule
        from repro.service import QosPolicy, RetryPolicy

        burst = FaultSchedule()
        for i in range(4):
            burst.behavior(f"node-{i}", "corrupt", at=0, until=1)
        service = ShardedCSMService(
            [_csm_backend(big_field, num_machines=1, seed=s) for s in range(3)],
            qos=QosPolicy(max_session_pending=1),
            retry=RetryPolicy(max_attempts=2, backoff_ticks=1),
            faults={2: burst},
        )
        accepted = service.connect("a").submit(0, [1, 1])
        throttled = service.connect("a").submit(1, [2, 2])
        retried = service.connect("b").submit(2, [3, 3])
        assert throttled.state is TicketState.THROTTLED
        assert [accepted.sequence, throttled.sequence, retried.sequence] == [0, 1, 2]
        service.drain()
        assert retried.attempts == 2 and retried.state is TicketState.EXECUTED
        # the retry's resubmission drew sequence 3, yet maps back to its ticket
        assert service.sequence_source.issued == 4
        assert [t.sequence for t in service.tickets()] == [0, 1, 2]


class TestFailureIsolation:
    def test_failed_shard_round_spares_other_shards(self, big_field):
        # Shard 1's replicas are mostly Byzantine: its round cannot verify.
        # Shard 0 is healthy — its ticket must execute untouched.
        node_ids = [f"node-{i}" for i in range(4)]
        bad = {n: RandomGarbageBehavior() for n in node_ids[:3]}
        backends = [
            _replication_backend(big_field, num_machines=2, seed=0),
            _replication_backend(big_field, num_machines=2, behaviors=bad, seed=1),
        ]
        service = ShardedCSMService(backends)
        healthy = service.connect("alice").submit(0, [5, 5])
        doomed = service.connect("bob").submit(2, [9, 9])
        service.drain()
        assert healthy.state is TicketState.EXECUTED
        np.testing.assert_array_equal(healthy.result(), [5, 5])
        assert doomed.state is TicketState.FAILED
        assert doomed.failure_reason is FailureReason.VERIFICATION_FAILED
        assert service.failed_rounds == 1
        assert not service.all_rounds_correct
        # The merged failure ledger names the global round index of the
        # failed shard round, and only bob's round is in it.
        assert "bob" in service.failed_deliveries
        assert "alice" not in service.failed_deliveries

    def test_exploding_shard_fails_only_its_tickets(self, big_field):
        class ExplodingBackend(ReplicationProtocol):
            def run_rounds_batched(self, command_batches, client_rounds=None):
                raise RuntimeError("shard 1 down")

        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(4)]
        backends = [
            _replication_backend(big_field, num_machines=2, seed=0),
            ExplodingBackend(
                FullReplicationSMR(
                    machine, 2, node_ids, rng=np.random.default_rng(1)
                )
            ),
        ]
        service = ShardedCSMService(backends)
        healthy = service.connect("alice").submit(1, [3, 3])
        doomed = service.connect("bob").submit(2, [4, 4])
        with pytest.raises(RuntimeError, match="shard 1 down"):
            service.drive(flush=True)
        # Shard 0 was driven before shard 1 raised; its ticket executed.
        assert healthy.state is TicketState.EXECUTED
        assert doomed.state is TicketState.FAILED
        assert doomed.failure_reason is FailureReason.BACKEND_ERROR


class TestMergedReporting:
    def test_global_round_indices_are_deterministic(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        session = service.connect("alice")
        # Shard 1 gets a deeper queue than shard 0: global history must
        # interleave per tick in shard order, shard-local order within.
        session.submit(0, [1, 1])
        session.submit(2, [2, 2])
        session.submit(2, [3, 3])
        records = service.drain()
        assert [r.round_index for r in records] == [0, 1, 2]
        assert [r.round_index for r in service.history] == [0, 1, 2]
        assert [(r.shard_index, r.shard_round_index) for r in records] == [
            (0, 0),
            (1, 0),
            (1, 1),
        ]

    def test_merged_delivery_and_throughput_views(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("alice").submit(0, [1, 1])
        service.connect("bob").submit(3, [2, 2])
        service.drain()
        delivered = service.delivered_outputs
        np.testing.assert_array_equal(delivered["alice"][0], [1, 1])
        np.testing.assert_array_equal(delivered["bob"][0], [2, 2])
        assert service.failed_rounds == 0
        assert service.all_rounds_correct
        assert service.measured_throughput() > 0

    def test_throughput_charges_each_round_at_shard_width(self, big_field):
        # Unequal shard widths: the merged mean must use each round's own
        # K_s, reproducing the mean of the per-shard reports.
        service = _sharded(big_field, shard_sizes=(1, 3))
        for m in range(4):
            service.connect("c").submit(m, [1, 1])
        service.drain()
        per_round = []
        for record in service.history:
            width = service.shards[record.shard_index].backend.num_machines
            per_round.append(record.result.throughput(width))
        assert service.measured_throughput() == pytest.approx(
            float(np.mean(per_round))
        )


class TestTickModes:
    """Every drive tick advances every shard."""

    def test_all_mode_advances_every_shard_per_tick(self, big_field):
        service = _sharded(big_field, shard_sizes=(2, 2))
        service.connect("a").submit(0, [1, 1])
        service.connect("b").submit(2, [2, 2])
        records = service.drive(flush=True)
        assert len(records) == 2
        assert {r.shard_index for r in records} == {0, 1}

    def test_single_shard_is_a_pass_through(self, big_field):
        backend = _csm_backend(big_field)
        sharded = ShardedCSMService([backend])
        ticket = sharded.connect("alice").submit(1, [8, 8])
        records = sharded.drain()
        assert ticket.state is TicketState.EXECUTED
        assert len(records) == 1 and records[0].shard_index == 0
        assert sharded.measured_throughput() == backend.measured_throughput()
        # And an identically-built unsharded service agrees bit for bit.
        unsharded = CSMService(_csm_backend(big_field))
        unsharded.connect("alice").submit(1, [8, 8])
        (plain,) = unsharded.drain()
        np.testing.assert_array_equal(records[0].commands, plain.commands)
        assert records[0].clients == plain.clients
        np.testing.assert_array_equal(
            records[0].result.outputs, plain.result.outputs
        )


class TestShardedPipeline:
    def test_pipeline_flag_forwarded_to_every_shard(self, big_field):
        backends = [_csm_backend(big_field, seed=3), _csm_backend(big_field, seed=4)]
        calls = []
        for backend in backends:
            def pipelined(batches, client_rounds=None, backend=backend):
                calls.append(backend)
                return type(backend).run_rounds_pipelined(backend, batches, client_rounds)

            backend.run_rounds_pipelined = pipelined
        sharded = ShardedCSMService(backends, pipeline=True)
        assert sharded.pipeline
        sharded.connect("a").submit(0, [1, 1])
        sharded.connect("b").submit(2, [2, 2])
        sharded.drain()
        assert calls == backends
        assert not _sharded(big_field).pipeline

    def test_pipelined_sharded_drive_matches_batched(self, big_field):
        rng = np.random.default_rng(6)
        commands = [rng.integers(1, 1000, size=(4, 2)) for _ in range(3)]

        def run(pipeline):
            backends = [_csm_backend(big_field, seed=3), _csm_backend(big_field, seed=4)]
            service = ShardedCSMService(backends, max_batch_rounds=3, pipeline=pipeline)
            sessions = [service.connect(f"client:{i}") for i in range(4)]
            for round_commands in commands:
                for i in range(4):
                    sessions[i].submit(i, round_commands[i])
                service.drive()
            service.drain()
            return service

        batched = run(False)
        pipelined = run(True)
        assert len(batched.history) == len(pipelined.history)
        for bat, pip in zip(batched.history, pipelined.history):
            assert bat.shard_index == pip.shard_index
            np.testing.assert_array_equal(bat.commands, pip.commands)
            np.testing.assert_array_equal(bat.result.outputs, pip.result.outputs)
            assert bat.result.correct == pip.result.correct
        for bat, pip in zip(batched.tickets(), pipelined.tickets()):
            assert bat.sequence == pip.sequence and bat.state is pip.state


class TestShardHealth:
    """Per-shard health tracking: degradation, shedding, probe recovery."""

    def _burst(self, at, until, nodes=4):
        # Four corrupt rows exceed the N=8, K=2 decode radius (3).
        from repro.faults import FaultSchedule

        schedule = FaultSchedule()
        for i in range(nodes):
            schedule.behavior(f"node-{i}", "corrupt", at=at, until=until)
        return schedule

    def test_degraded_shard_sheds_then_probes_back_to_health(self, big_field):
        from repro.service import RetryPolicy, ShardHealth

        service = ShardedCSMService(
            [_csm_backend(big_field, seed=0), _csm_backend(big_field, seed=1)],
            retry=RetryPolicy(max_attempts=5, backoff_ticks=1),
            faults={1: self._burst(at=0, until=3)},
            degraded_after=2,
        )
        session = service.connect("alice")
        doomed = [session.submit(2, [10 + r, 0]) for r in range(3)]
        service.drive(flush=True)  # shard 1 fails rounds 0..2 consecutively
        assert service.shard_health(0) is ShardHealth.HEALTHY
        assert service.shard_health(1) is ShardHealth.DEGRADED
        # while the retry backlog probes, new admissions to shard 1 are shed
        shed = session.submit(2, [99, 0])
        assert shed.state is TicketState.THROTTLED
        # ...but shard 0 still admits
        fine = session.submit(0, [7, 7])
        assert fine.state is TicketState.PENDING
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in doomed)
        assert fine.state is TicketState.EXECUTED
        assert service.shard_health(1) is ShardHealth.HEALTHY
        timeline = service.qos_report()["health_timeline"]
        assert [entry["state"] for entry in timeline if entry["shard"] == 1] == [
            "degraded",
            "healthy",
        ]

    def test_degraded_shard_without_backlog_admits_probes(self, big_field):
        from repro.service import ShardHealth

        node_ids = [f"node-{i}" for i in range(4)]
        bad = {n: RandomGarbageBehavior() for n in node_ids[:3]}
        service = ShardedCSMService(
            [
                _replication_backend(big_field, seed=0),
                _replication_backend(big_field, behaviors=bad, seed=1),
            ],
            degraded_after=1,
        )
        doomed = service.connect("bob").submit(2, [9, 9])
        service.drain()
        assert doomed.state is TicketState.FAILED
        assert service.shard_health(1) is ShardHealth.DEGRADED
        # no backlog is left, so the next submission is admitted as a probe
        probe = service.connect("bob").submit(2, [4, 4])
        assert probe.state is TicketState.PENDING

    def test_facade_merges_shard_fault_reports(self, big_field):
        from repro.service import RetryPolicy

        schedule = self._burst(at=0, until=1)
        service = ShardedCSMService(
            [_csm_backend(big_field, seed=0), _csm_backend(big_field, seed=1)],
            retry=RetryPolicy(max_attempts=3, backoff_ticks=1),
            faults={1: schedule},
        )
        session = service.connect("alice")
        tickets = [session.submit(k, [5, k]) for k in range(4)]
        service.drain()
        assert all(t.state is TicketState.EXECUTED for t in tickets)
        report = service.fault_report()
        assert report.injected_events == len(schedule.events)
        assert report.applied_events == len(schedule.events)
        assert report.recovered_tickets >= 1
        merged = service.qos_report()
        assert merged["faults"]["injected_events"] == report.injected_events
        assert merged["shard_health"] == ["healthy", "healthy"]
