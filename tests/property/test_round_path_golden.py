"""Pinned-digest replay net for refactors of the round path.

Five fixed-seed ``CSMProtocol`` scenarios, each hashed over everything a
round-path refactor could move: the round history (commands, clients, views,
outputs, states, correctness, per-node operation counts, diagnostics), the
decoder's suspect set, every node's coded state and ``storage.round_index``,
the engine and consensus rng states, and the consensus/network counters.

The ``GOLDEN_DIGESTS`` were recorded at commit dda2aa4 — *before* the engine
moved to one resident coded-state bank and the consensus drivers were hoisted
into ``ConsensusProtocol`` — so a digest that moves means observable
behaviour moved, whichever sibling path the existing path-vs-path identity
tests would have compared it with.  Each scenario also asserts that it still
reaches the branch it exists for (rollback + replay, the freeze fallback, a
view change, the consensus slow path), so a digest cannot stay green by
silently leaving its path.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine
from repro.net.byzantine import (
    EquivocatingBehavior,
    FaultOnsetBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
)
from repro.rng import default_stream

GOLDEN_DIGESTS = {
    "fault_free_pipelined": "0c52676c7d6e39651366f2b6814cdca04ea15fdfa0b1efe28948c12378ebab0b",
    "onset_rollback_replay": "f7ae8d532abe7e16efb8c1cb1b597fdbae8bdab36764fe43a0361c88f0238884",
    "freeze_burst_fallback": "8862b213b310a7cc7bbb482da7757bb0d47d0b52de0c43f16da545a2c227e30c",
    "pbft_silent_primary": "de53cc4f6b30abd47015b7a593799daf36d7884be337baf03347c2563b225692",
    "broadcast_equivocating_leader_slow_path": "09692f649efd5441a2e99bdd56970fd20dd9314dd1b8d4b8e998c0aec4a4b731",
}

FIELD = PrimeField()
COMMAND_SEED = 4321


def _protocol(num_nodes, num_machines, num_faults, behaviors=None, psync=False, seed=11):
    machine = bank_account_machine(FIELD, num_accounts=2)
    config = CSMConfig(
        FIELD,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=num_faults,
        partially_synchronous=psync,
    )
    return CSMProtocol(config, machine, behaviors, rng=default_stream(seed))


def _batches(protocol, num_rounds):
    rng = np.random.default_rng(COMMAND_SEED)
    shape = (protocol.num_machines, protocol.machine.command_dim)
    return [rng.integers(1, 1000, size=shape) for _ in range(num_rounds)]


def _digest(protocol):
    h = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    for record in protocol.history:
        result = record.result
        feed(
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
    engine = protocol.engine
    feed(sorted(engine._suspects), engine.round_index, engine.states.tolist())
    for node in engine.nodes:
        feed(node.storage.round_index, node.storage.coded_state.tolist())
    feed(engine.rng.bit_generator.state["state"])
    feed(protocol.rng.bit_generator.state["state"])
    feed(
        protocol.consensus.fast_path_disabled,
        protocol.network.messages_sent,
        protocol.network.rejected_signatures,
        protocol.network.faults.dropped_messages,
        sorted(protocol.failed_deliveries.items()),
    )
    return h.hexdigest()


def _speculations(protocol):
    return [r.result.diagnostics.get("speculation") for r in protocol.history]


def fault_free_pipelined():
    protocol = _protocol(16, 4, 3)
    protocol.run_rounds_pipelined(_batches(protocol, 24))
    assert protocol.all_rounds_correct
    assert set(_speculations(protocol)) == {"confirmed"}
    return protocol


def onset_rollback_replay():
    # node-0 sits in the trusted pivot until round 5, so its first garbage
    # row invalidates a verification window that is already several rounds
    # deep: one rollback round, then a replayed suffix.
    behaviors = {"node-0": FaultOnsetBehavior(RandomGarbageBehavior(), 5)}
    protocol = _protocol(16, 4, 3, behaviors)
    protocol.run_rounds_pipelined(_batches(protocol, 12))
    speculations = _speculations(protocol)
    assert "rollback" in speculations and "replayed" in speculations
    assert 0 in protocol.engine._suspects
    return protocol


def freeze_burst_fallback():
    # Retry mode: the pipelined entry point falls back to the batched path,
    # a one-round burst past the decoding radius fails and freezes its
    # round, and resynced nodes carry the next rounds.
    protocol = _protocol(16, 4, 3)
    protocol.freeze_failed_rounds()
    batches = _batches(protocol, 7)
    protocol.run_rounds_pipelined(batches[:3])
    burst = [f"node-{i}" for i in range(2, 11)]
    for node_id in burst:
        protocol.set_node_behavior(node_id, RandomGarbageBehavior())
    protocol.run_rounds_pipelined(batches[3:4])
    for node_id in burst:
        protocol.set_node_behavior(node_id, None)
        protocol.resync_node(node_id)
    protocol.run_rounds_pipelined(batches[3:])
    flags = [r.correct for r in protocol.history]
    assert flags == [True, True, True, False] + [True] * 4
    assert protocol.history[3].result.diagnostics["state_frozen"] is True
    assert all("pipelined" not in r.result.diagnostics for r in protocol.history)
    return protocol


def pbft_silent_primary():
    behaviors = {"node-0": SilentBehavior()}
    protocol = _protocol(10, 2, 2, behaviors, psync=True)
    protocol.run_rounds_pipelined(_batches(protocol, 6))
    assert type(protocol.consensus).__name__ == "PBFTConsensus"
    assert protocol.history[0].consensus_views == 1
    assert protocol.consensus.fast_path_disabled == 0
    return protocol


def broadcast_equivocating_leader_slow_path():
    # A live link fault keeps every round on the sequential oracle.  node-1
    # leads round 1 and equivocates (the echo step exposes the forged half,
    # so the genuine proposal still decides in view 0); node-3 leads round 3
    # and stays silent, which costs a view change.
    behaviors = {"node-1": EquivocatingBehavior(), "node-3": SilentBehavior()}
    protocol = _protocol(10, 3, 2, behaviors)
    protocol.network.faults.dropped_links.add(("node-2", "node-4"))
    protocol.run_rounds_batched(_batches(protocol, 5))
    assert type(protocol.consensus).__name__ == "AuthenticatedBroadcastConsensus"
    assert protocol.consensus.fast_path_disabled == 5
    assert [r.consensus_views for r in protocol.history] == [0, 0, 0, 1, 0]
    assert protocol.network.faults.dropped_messages > 0
    return protocol


SCENARIOS = (
    fault_free_pipelined,
    onset_rollback_replay,
    freeze_burst_fallback,
    pbft_silent_primary,
    broadcast_equivocating_leader_slow_path,
)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_digest_matches_parent_commit(scenario):
    assert _digest(scenario()) == GOLDEN_DIGESTS[scenario.__name__]
