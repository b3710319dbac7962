"""Pinned-digest replay net for refactors of the service layer.

Three fixed-seed service scenarios, each hashed over everything a service
refactor could move: every ticket (sequence, client, machine index, command,
state history, round index, submitted/committed/resolved tick, attempts,
throttle and failure reason, delivered output), the service's round history
(round index, shard, commands, clients, views, outputs, correctness) and
the values of every ``qos_report()`` key the service reported before its
unsharded and sharded shapes became one implementation.

The ``GOLDEN_DIGESTS`` were recorded at commit a87152c, while
``ShardedCSMService`` was still a façade over one ``CSMService`` per shard.
``qos_report()["shards"]`` enters as its length only: its per-shard entries
used to be whole per-shard reports and became per-shard views of the one
service report.  Each scenario also asserts that it still reaches the branch
it exists for (both throttle causes, weighted-fair selection, a failed and
recovered round, a view change, rounds decided under a live link fault, a global session cap
hit across shards, a degraded shard shedding and probing back to health), so
a digest cannot stay green by silently leaving its path.

``qos_bursty_pbft`` and ``sharded_pipeline_health`` were re-recorded once,
when one consensus instance began deciding a whole block of rounds: their
ticks schedule several rounds, so the recorded consensus views moved.  The
same hash without the views was equal before and after that change.
``retry_chaos_broadcast`` schedules one round per tick and held unedited.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.faults import FaultSchedule
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine
from repro.rng import default_stream
from repro.service import (
    BurstyProcess,
    CSMService,
    OpenLoopDriver,
    QosPolicy,
    RetryPolicy,
    ShardedCSMService,
    ThrottleReason,
    TicketState,
)

GOLDEN_DIGESTS = {
    "qos_bursty_pbft": "2e5c1e3e77cf599a93457e019e240cdac0d25588fa228519ac04fcc178a9e6c2",
    "retry_chaos_broadcast": "0117406eb5f48734b7f2e48453abb8969860180198cd7f566d1d0c37b21a84d7",
    "sharded_pipeline_health": "e27976051be79a8b0ed1fe4b991312904cebfabb4c300927cbc4266a60f7ee86",
}

FIELD = PrimeField()
COMMAND_SEED = 2718

#: ``qos_report()`` keys of both service shapes, and the ones only the
#: sharded shape reported.
REPORT_KEYS = (
    "policy",
    "pending",
    "open_tickets",
    "throttled_session",
    "throttled_admission",
    "tick",
    "retry",
    "retried_commands",
    "recovered_tickets",
    "exhausted_tickets",
    "retry_backlog",
    "faults",
)
SHARDED_REPORT_KEYS = ("shard_health", "health_timeline")


def _protocol(num_nodes, num_machines, num_faults, psync=False, seed=11):
    machine = bank_account_machine(FIELD, num_accounts=2)
    config = CSMConfig(
        FIELD,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=num_faults,
        partially_synchronous=psync,
    )
    return CSMProtocol(config, machine, rng=default_stream(seed))


def _digest(tickets, history, report, sharded):
    h = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    for ticket in tickets:
        feed(
            ticket.sequence,
            ticket.client_id,
            ticket.machine_index,
            ticket.command,
            [state.value for state in ticket.state_history],
            ticket.round_index,
            ticket.submitted_tick,
            ticket.committed_tick,
            ticket.resolved_tick,
            ticket.attempts,
            ticket.throttle_reason,
            ticket.failure_reason,
            None if ticket.output is None else ticket.output.tolist(),
        )
    for record in history:
        feed(
            record.round_index,
            getattr(record, "shard_index", None),
            np.asarray(record.commands).tolist(),
            list(record.clients),
            record.consensus_views,
            np.asarray(record.result.outputs).tolist(),
            record.correct,
        )
    for key in REPORT_KEYS + (SHARDED_REPORT_KEYS if sharded else ()):
        feed(key, report[key])
    if sharded:
        feed(len(report["shards"]))
    return h.hexdigest()


def _reasons(tickets):
    return {t.throttle_reason for t in tickets} | {t.failure_reason for t in tickets}


def qos_bursty_pbft():
    protocol = _protocol(16, 4, 3, psync=True)
    qos = QosPolicy(
        max_session_pending=4,
        admission_watermark=10,
        selection="weighted_fair",
        session_weights={"traffic:0": 2},
    )
    service = CSMService(protocol, max_batch_rounds=2, qos=qos)
    driver = OpenLoopDriver(
        service,
        BurstyProcess(on_rate=3.0, off_rate=0.25, p_on_off=0.3, p_off_on=0.3),
        num_sessions=6,
        rng=default_stream(COMMAND_SEED),
    )
    driver.run(ticks=20)
    tickets = service.tickets()
    assert len(tickets) == sum(len(session.tickets) for session in driver.sessions)
    assert type(protocol.consensus).__name__ == "PBFTConsensus"
    reasons = _reasons(tickets)
    assert ThrottleReason.SESSION_QUEUE_FULL in reasons
    assert ThrottleReason.ADMISSION_SHED in reasons
    assert all(t.done for t in tickets)
    return tickets, protocol.history, service.qos_report(), False


def retry_chaos_broadcast():
    protocol = _protocol(16, 4, 3)
    schedule = (
        FaultSchedule()
        .crash("node-5", at=2, until=5)
        .crash("@primary", at=6, until=8)
        .drop_link("node-1", "node-2", at=9, until=11)
    )
    # Seven corrupt rows are one past the N=16, K=4 decoding radius (6).
    for i in range(8, 15):
        schedule.behavior(f"node-{i}", "corrupt", at=12, until=13)
    service = CSMService(
        protocol,
        retry=RetryPolicy(max_attempts=3, backoff_ticks=1),
        faults=schedule,
    )
    sessions = [service.connect(name) for name in ("alice", "bob")]
    rng = np.random.default_rng(COMMAND_SEED)
    tickets = []
    for tick in range(16):
        for k in range(protocol.num_machines):
            session = sessions[(tick + k) % 2]
            tickets.append(session.submit(k, rng.integers(1, 1000, size=2)))
        service.drive(flush=True)
    service.drain()
    assert type(protocol.consensus).__name__ == "AuthenticatedBroadcastConsensus"
    assert protocol.failed_rounds == 1
    assert any(t.attempts > 1 for t in tickets)
    assert all(t.state is TicketState.EXECUTED for t in tickets)
    assert any(record.consensus_views > 0 for record in protocol.history)
    assert protocol.consensus.fast_path_disabled > 0
    return tickets, protocol.history, service.qos_report(), False


def sharded_pipeline_health():
    backends = [
        _protocol(8, size, 1, seed=21 + shard) for shard, size in enumerate((2, 2, 1))
    ]
    # Four corrupt rows exceed the N=8, K=2 decoding radius (3): shard 1
    # fails rounds 1..7, degrading on the first tick and recovering on the
    # second, once its retries run past the burst.
    burst = FaultSchedule()
    for i in range(4):
        burst.behavior(f"node-{i}", "corrupt", at=1, until=8)
    service = ShardedCSMService(
        backends,
        pipeline=True,
        qos=QosPolicy(max_session_pending=3),
        retry=RetryPolicy(max_attempts=6, backoff_ticks=1),
        faults={1: burst},
    )
    sessions = [service.connect(name) for name in ("alice", "bob", "carol")]
    rng = np.random.default_rng(COMMAND_SEED)
    tickets = []
    capped_across_shards = False
    for tick in range(10):
        if tick == 0:
            # A backlog on shard 1 (machines 2 and 3) spans the burst.
            backlog = service.connect("dave")
            for _ in range(3):
                tickets.append(backlog.submit(2, rng.integers(1, 1000, size=2)))
        for s, session in enumerate(sessions):
            # Four submits two machines apart: the fourth meets the global
            # cap while the session's open tickets sit on several shards.
            for j in range(4):
                machine_index = (tick + s + 2 * j) % service.num_machines
                open_shards = {
                    service.shard_of(t.machine_index)[0] for t in session.pending()
                }
                ticket = session.submit(machine_index, rng.integers(1, 1000, size=2))
                if ticket.throttle_reason is ThrottleReason.SESSION_QUEUE_FULL:
                    capped_across_shards |= len(open_shards) > 1
                tickets.append(ticket)
        service.drive()
    service.drain()
    report = service.qos_report()
    assert [entry["state"] for entry in report["health_timeline"]] == [
        "degraded",
        "healthy",
    ]
    assert {entry["shard"] for entry in report["health_timeline"]} == {1}
    shed = [t for t in tickets if t.throttle_reason is ThrottleReason.ADMISSION_SHED]
    assert shed and {service.shard_of(t.machine_index)[0] for t in shed} == {1}
    assert capped_across_shards
    assert report["recovered_tickets"] > 0
    assert all(t.done for t in tickets)
    assert service.tickets() == tickets
    return tickets, service.history, report, True


SCENARIOS = (qos_bursty_pbft, retry_chaos_broadcast, sharded_pipeline_health)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_digest_matches_pre_merge_service(scenario):
    assert _digest(*scenario()) == GOLDEN_DIGESTS[scenario.__name__]
