"""Pinned-digest replay net for refactors of the replication baselines.

Fixed-seed :class:`FullReplicationSMR` / :class:`PartialReplicationSMR`
scenarios driven through :class:`ReplicationProtocol`, each hashed over
everything a refactor of the baselines could move: every round's commands,
clients, accepted outputs, states, correctness, per-node operation counts
and diagnostics, the engine's states and round index, and the final rng
state (garbage replicas draw from it).  A last scenario hashes the
measured rows of Table 1, which run both baselines through
:mod:`repro.analysis.measurement`.

The ``GOLDEN_DIGESTS`` were recorded at commit f8302b2, while each baseline
still ran a per-node, per-machine Python loop with one ``OutputCollector``
per machine — *before* both became layouts of one array round — so a digest
that moves means observable behaviour moved.  Each scenario also asserts
that it still reaches the branch it exists for (a tolerated minority, a
too-silent majority, a broken group, a wrong value accepted from stale
replicas), so a digest cannot stay green by silently leaving its path.

Three were re-recorded once, when the engines stopped running reference
machines.  A round is now correct when every client reaches its threshold,
a failed round advances no replica, and ``engine.states`` reads the honest
replicas.  The partial layout's ``accepted_correct`` diagnostic became
``accepted``.  For ``full_silent_majority`` and
``partial_garbage_breaks_one_group``, the same hash without the failed
rounds' outputs and states, ``engine.states`` and that key was equal before
and after.  ``partial_stale_replicas_outvote_honest`` was rewritten: its
silent replicas now freeze every round, so its wrong value is now pushed
through by two colluding corrupt replicas.  On the old engines that scenario
had the same hash without the correctness flags, ``engine.states`` and the
renamed key; every round was incorrect there and is correct now.

``table1_measured_rows`` was re-recorded once more when the measurement
harness lost its ``batched=`` switch.  It used to hash the rows of both
settings; it now hashes one pass.  Before the change, the hash over only
the ``batched=False`` rows and the hash over only the ``batched=True`` rows
were both equal to the new digest.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.safety import replay_rounds
from repro.experiments import table1
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import CorruptResultBehavior, RandomGarbageBehavior, SilentBehavior
from repro.replication import (
    FullReplicationSMR,
    PartialReplicationSMR,
    ReplicationProtocol,
)
from repro.rng import default_stream

GOLDEN_DIGESTS = {
    "full_silent_and_garbage_minority": "39345b514d15c3bce2983847c7dc1151c02ac9788d9e09209a2254a74cd1dd2f",
    "full_silent_majority": "28abbcf8866389815e31c92f8453872938413ed4e7e9a5235feec25ff339ab6a",
    "partial_garbage_breaks_one_group": "1f1db439f8ee31f40042a5623977d2d870d4e7d3b89f53f96775a575597a58fa",
    "partial_stale_replicas_outvote_honest": "e55241ae77e80c1b46548e96903100800545f3fa2492fde9acc3e506b3b4cb70",
    "table1_measured_rows": "ab973f5802764efd217da596319dd5847b864e0035b77064b54f1ec935e0be52",
}

FIELD = PrimeField()
COMMAND_SEED = 4321


def _node_ids(num_nodes):
    return [f"node-{i}" for i in range(num_nodes)]


def _batches(protocol, num_rounds):
    rng = np.random.default_rng(COMMAND_SEED)
    shape = (protocol.num_machines, protocol.machine.command_dim)
    return [rng.integers(1, 1000, size=shape) for _ in range(num_rounds)]


def _clients(protocol, num_rounds):
    return [
        [f"client-{b}-{k}" for k in range(protocol.num_machines)]
        for b in range(num_rounds)
    ]


def _drive(protocol, num_rounds, split=2):
    batches = _batches(protocol, num_rounds)
    clients = _clients(protocol, num_rounds)
    for start in range(0, num_rounds, split):
        protocol.run_rounds_batched(
            batches[start:start + split], clients[start:start + split]
        )
    return protocol


def _digest_parts(protocol):
    parts = []
    for record in protocol.history:
        result = record.result
        parts.append(
            (
                record.round_index,
                record.commands.tolist(),
                record.clients,
                record.consensus_views,
                result.round_index,
                result.correct,
                np.asarray(result.outputs).tolist(),
                np.asarray(result.states).tolist(),
                sorted(result.ops_per_node.items()),
                sorted(result.diagnostics.items()),
            )
        )
    engine = protocol.engine
    parts.append((engine.round_index, engine.states.tolist()))
    parts.append(engine.rng.bit_generator.state["state"])
    return parts


def _hash(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def full_silent_and_garbage_minority():
    behaviors = {"node-1": SilentBehavior(), "node-4": RandomGarbageBehavior()}
    engine = FullReplicationSMR(
        bank_account_machine(FIELD, num_accounts=2), 3, _node_ids(7), behaviors,
        default_stream(11),
    )
    protocol = _drive(ReplicationProtocol(engine), 6)
    assert protocol.all_rounds_correct
    assert protocol.history[0].result.diagnostics["threshold"] == 3
    return _digest_parts(protocol)


def full_silent_majority():
    behaviors = {f"node-{i}": SilentBehavior() for i in (0, 2, 3)}
    behaviors["node-4"] = RandomGarbageBehavior()
    engine = FullReplicationSMR(
        quadratic_market_machine(FIELD), 2, _node_ids(6), behaviors,
        default_stream(12),
    )
    protocol = _drive(ReplicationProtocol(engine), 4)
    # Two honest responses never reach the b + 1 = 5 threshold.
    assert protocol.failed_rounds == 4
    assert not np.asarray(protocol.history[0].result.outputs).any()
    return _digest_parts(protocol)


def partial_garbage_breaks_one_group():
    behaviors = {
        "node-0": RandomGarbageBehavior(),
        "node-1": RandomGarbageBehavior(),
        "node-5": SilentBehavior(),
        "node-9": RandomGarbageBehavior(),
    }
    engine = PartialReplicationSMR(
        bank_account_machine(FIELD, num_accounts=2), 4, _node_ids(12), behaviors,
        default_stream(13),
    )
    protocol = _drive(ReplicationProtocol(engine), 5)
    groups = protocol.history[0].result.diagnostics["groups"]
    assert [g["accepted"] for g in groups] == [False, True, True, True]
    assert protocol.failed_rounds == 5
    return _digest_parts(protocol)


def partial_stale_replicas_outvote_honest():
    # node-0 and node-1 corrupt by the same offset from replicas that, being
    # faulty, never advance: both report the same wrong value and outvote
    # node-2 in group 0.  Every client reaches its threshold, so every round
    # is correct; only the replay of the true machines flags machine 0.
    behaviors = {f"node-{i}": CorruptResultBehavior(offset=1) for i in (0, 1)}
    engine = PartialReplicationSMR(
        bank_account_machine(FIELD, num_accounts=2), 3, _node_ids(9), behaviors,
        default_stream(14),
    )
    protocol = _drive(ReplicationProtocol(engine), 5)
    records = protocol.history
    assert [r.correct for r in records] == [True] * 5
    report = replay_rounds(engine.machine, [(r.commands, r.result) for r in records])
    assert report.flagged_rounds == list(range(5))
    assert report.wrong[:, 0].all() and not report.wrong[:, 1:].any()
    return _digest_parts(protocol)


def table1_measured_rows():
    rows = []
    for num_nodes, degree in ((12, 1), (16, 2)):
        rows.extend(table1.run(num_nodes=num_nodes, degree=degree, rounds=2, seed=3))
    measured = [
        row for row in rows
        if row["kind"] == "measured" and row["scheme"] != "coded-state-machine"
    ]
    # Full replication holds at b = N / 4; partial replication, with the
    # same faults piled on group 0, does not — as the replaying checker
    # behind the "correct" column finds.
    assert {(row["scheme"], row["correct"]) for row in measured} == {
        ("full-replication", True),
        ("partial-replication", False),
    }
    return [sorted(row.items()) for row in measured]


SCENARIOS = (
    full_silent_and_garbage_minority,
    full_silent_majority,
    partial_garbage_breaks_one_group,
    partial_stale_replicas_outvote_honest,
    table1_measured_rows,
)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_digest_matches_recorded(scenario):
    assert _hash(scenario()) == GOLDEN_DIGESTS[scenario.__name__]
