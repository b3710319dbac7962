"""The six workloads: deployment, traffic shape, run length, coverage checks.

Each workload makes one layer do most of the work and leaves another idle,
so an optimisation has one workload that exercises it and one that bypasses
it (README.md has the table of why each exists).  Deployments are built only
from public constructors; the program's own randomness (network delays,
garbage rows) is seeded with fixed constants — ``--seed`` varies the
*inputs* only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.metrics import csm_supported_machines
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol
from repro.faults import FaultSchedule
from repro.gf.prime_field import PrimeField
from repro.intermix.rounds import DelegationRoundProtocol
from repro.machine.interface import StateMachine
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.replication.protocol import ReplicationProtocol
from repro.rng import default_stream
from repro.service import (
    ArrivalProcess,
    BurstyProcess,
    CSMService,
    PoissonProcess,
    QosPolicy,
    RetryPolicy,
    ShardedCSMService,
)

NUM_SESSIONS = 16
MAX_BATCH_ROUNDS = 8
FAULT_FRACTION = 0.2

#: Fault-schedule period of ``chaos_bcast_n32`` in backend rounds, and how
#: many periods are scheduled (events past the rounds driven stay pending).
CHAOS_PERIOD = 80
CHAOS_PERIODS = 40


def session_id(index: int) -> str:
    return f"session-{index}"


def machine() -> StateMachine:
    """The machine every workload serves (a fresh instance per call)."""
    return bank_account_machine(PrimeField(), num_accounts=2)


def _config(num_nodes: int, num_machines: int, psync: bool = False) -> CSMConfig:
    """A coded deployment provisioned for ``mu = 0.2`` Byzantine nodes."""
    template = machine()
    return CSMConfig(
        field=template.field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=template.degree,
        num_faults=int(FAULT_FRACTION * num_nodes),
        partially_synchronous=psync,
    )


def _csm(num_nodes: int, num_machines: int, psync: bool, seed: int = 0) -> CSMProtocol:
    """A fault-free coded protocol (consensus + coded execution)."""
    return CSMProtocol(
        _config(num_nodes, num_machines, psync), machine(), rng=default_stream(seed)
    )


def _bursty_qos() -> QosPolicy:
    return QosPolicy(
        max_session_pending=10,
        selection="weighted_fair",
        session_weights={session_id(0): 2},
    )


BURSTY_ON_RATE, BURSTY_OFF_RATE = 12.0, 0.25


def _bursty() -> ArrivalProcess:
    # An on-session offers 12 commands/tick against a cap of 10 unresolved
    # tickets, so bursts trip the cap (~22% of submissions are shed) while a
    # machine rarely gets more than its 8 slots/tick: under 1% of tickets
    # wait a second tick.  That keeps lat_p95_ms inside the one-tick group;
    # at cap 12 / rate 16 the two-tick tickets plus the ~3% resolved by
    # GC-paused ticks straddled the 95th percentile, which then flipped
    # between one and two ticks from seed to seed.
    return BurstyProcess(
        on_rate=BURSTY_ON_RATE, off_rate=BURSTY_OFF_RATE, p_on_off=0.25, p_off_on=0.25
    )


def _build_dense_bcast_n32() -> CSMService:
    return CSMService(
        _csm(32, 9, psync=False), max_batch_rounds=MAX_BATCH_ROUNDS, pipeline=True
    )


def _build_bursty_pbft_n64() -> CSMService:
    return CSMService(
        _csm(64, 16, psync=True),
        max_batch_rounds=MAX_BATCH_ROUNDS,
        pipeline=True,
        qos=_bursty_qos(),
    )


def _build_sharded4_pbft_n64() -> ShardedCSMService:
    return ShardedCSMService(
        [_csm(16, 4, psync=True, seed=shard) for shard in range(4)],
        max_batch_rounds=MAX_BATCH_ROUNDS,
        pipeline=True,
        qos=_bursty_qos(),
    )


EXEC_ONLY_MACHINES = csm_supported_machines(64, FAULT_FRACTION, 1)


def _build_exec_only_n64() -> CSMService:
    config = _config(64, EXEC_ONLY_MACHINES)
    behaviors = {
        f"node-{63 - i}": RandomGarbageBehavior() for i in range(config.num_faults)
    }
    engine = CodedExecutionEngine(
        config, machine(), behaviors=behaviors, rng=default_stream(0)
    )
    return CSMService(ReplicationProtocol(engine), max_batch_rounds=MAX_BATCH_ROUNDS)


def _build_delegated_n32() -> CSMService:
    backend = DelegationRoundProtocol(
        machine(),
        8,
        [f"node-{i}" for i in range(32)],
        fault_fraction=FAULT_FRACTION,
        rng=default_stream(0),
    )
    return CSMService(backend, max_batch_rounds=MAX_BATCH_ROUNDS)


def chaos_schedule() -> FaultSchedule:
    """Periodic faults: crashes, a crashed primary, a dead link, a corrupt burst.

    The decoding radius at N=32, K=9 is 11, so the 12-node corrupt burst is
    one past it: that round fails verification and its commands retry.  The
    burst lasts one round so that every tick it lands in holds exactly one
    failed round (~70 ms of scalar decoding): a three-round burst straddled
    tick boundaries at random, and ``lat_p95_ms``, which sits among those
    ticks, moved by 14% between seeds.
    """
    schedule = FaultSchedule()
    for period in range(CHAOS_PERIODS):
        base = period * CHAOS_PERIOD
        for node in range(20, 24):
            schedule.crash(f"node-{node}", at=base + 5, until=base + 15)
        schedule.crash("@primary", at=base + 25, until=base + 30)
        schedule.drop_link("node-1", "node-2", at=base + 40, until=base + 44)
        for node in range(8, 20):
            schedule.behavior(f"node-{node}", "corrupt", at=base + 55, until=base + 56)
    return schedule


def _build_chaos_bcast_n32() -> CSMService:
    return CSMService(
        _csm(32, 9, psync=False),
        max_batch_rounds=MAX_BATCH_ROUNDS,
        pipeline=True,
        retry=RetryPolicy(max_attempts=4, backoff_ticks=1),
        faults=chaos_schedule(),
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``offered`` is the mean arrivals per tick over all sessions, which
    ``process`` must match.  ``ticks`` (warm-up included) sizes one timed
    region at >= 4 s on the seed commit (the sharded one; its unsharded twin
    shares the stream and is faster).  ``coverage`` lists ``(metric, op,
    value)`` expectations that fail the run when the workload stops
    exercising the layer it exists for.
    """

    name: str
    build: Callable[[], CSMService | ShardedCSMService]
    num_machines: int
    offered: float
    process: Callable[[], ArrivalProcess]
    ticks: int
    coverage: tuple[tuple[str, str, float], ...]


def _dense(
    name: str,
    build: Callable[[], CSMService],
    num_machines: int,
    ticks: int,
    coverage: tuple[tuple[str, str, float], ...],
    load: float = 0.9,
) -> Workload:
    """Poisson arrivals filling ``load`` of the ``8 * K`` slots per tick."""
    offered = load * MAX_BATCH_ROUNDS * num_machines
    return Workload(
        name=name,
        build=build,
        num_machines=num_machines,
        offered=offered,
        process=lambda: PoissonProcess(offered / NUM_SESSIONS),
        ticks=ticks,
        coverage=coverage,
    )


def _bursty_pair(name: str, build: Callable[[], CSMService | ShardedCSMService]) -> Workload:
    """Same ticks, K and process: one seed gives both a byte-identical stream."""
    return Workload(
        name=name,
        build=build,
        num_machines=16,
        # Each session is on half the time.
        offered=NUM_SESSIONS * (BURSTY_ON_RATE + BURSTY_OFF_RATE) / 2,
        process=_bursty,
        ticks=196,
        coverage=(("service.throttled", ">", 0), ("service.fail_frac", ">", 0)),
    )


_NO_FAILURES = ("service.fail_frac", "==", 0)
_NO_CONSENSUS = ("consensus.rounds", "==", 0)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _dense(
            "dense_bcast_n32",
            _build_dense_bcast_n32,
            num_machines=9,
            ticks=250,
            coverage=(
                ("core.pipelined_calls", ">", 0),
                ("core.batched_calls", "==", 0),
                _NO_FAILURES,
            ),
        ),
        _bursty_pair("bursty_pbft_n64", _build_bursty_pbft_n64),
        _bursty_pair("sharded4_pbft_n64", _build_sharded4_pbft_n64),
        _dense(
            "exec_only_n64",
            _build_exec_only_n64,
            num_machines=EXEC_ONLY_MACHINES,
            ticks=380,
            coverage=(_NO_CONSENSUS, _NO_FAILURES),
        ),
        _dense(
            "delegated_n32",
            _build_delegated_n32,
            num_machines=8,
            ticks=290,
            coverage=(_NO_CONSENSUS, _NO_FAILURES),
        ),
        _dense(
            "chaos_bcast_n32",
            _build_chaos_bcast_n32,
            num_machines=9,
            ticks=200,
            load=0.5,
            coverage=(
                ("core.batched_calls", ">", 0),
                ("core.failed_rounds", ">", 0),
                ("service.recovered_tickets", ">", 0),
                ("coding.scalar_decodes", ">", 0),
                ("consensus.slow_path_rounds", ">", 0),
                ("consensus.views_per_round", ">", 1),
                _NO_FAILURES,
            ),
        ),
    )
}
