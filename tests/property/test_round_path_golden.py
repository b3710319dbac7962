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
reaches the branch it exists for (rollback + replay, a frozen failed round, a
view change, rounds decided under a live link fault), so a digest cannot stay
green by silently leaving its path.

All five were re-recorded once, when one consensus instance began deciding a
whole block of rounds: fewer instances move the consensus views, the protocol
rng state and the network counters.  The same hash with those fields left
out was equal before and after that change, on the scenarios as written here
(``broadcast_equivocating_leader_slow_path`` now drives three blocks so its
equivocating and silent leaders each lead one).

``freeze_burst_fallback`` was re-recorded once more, when the engine stopped
running uncoded reference machines beside the coded ones.  A round is now
correct when it decodes, and every failed round freezes, so the scenario runs
on the batched driver with no freeze switch to set.  Its failed round reports
the unadvanced states and carries no ``state_frozen`` flag.  The same hash
with the failed round's states and outputs, that flag and ``engine.states``
left out was equal before and after.  ``engine.states`` now holds the last
decoded states rather than the reference states.  It is hashed unchanged in
the other four digests, which did not move.

``freeze_burst_fallback`` was re-recorded a third time when Berlekamp–Welch
began deciding every word with one key-equation solve at the correction
radius, instead of retrying each smaller error count after a failure.  Only
the frozen round's ``decode_ops`` moved (36,938 -> 10,744); the same hash
with that one diagnostic left out was equal before and after.

``onset_rollback_replay`` and ``broadcast_equivocating_leader_slow_path``
were re-recorded when a successful Berlekamp–Welch decode stopped
re-encoding its result a second time (``DecodingResult`` no longer carries
the codeword).  Only the scalar-decoded rounds' ``decode_ops`` and the
``ops_per_node`` that include them moved (8,769 -> 8,641 and 2,703 -> 2,589);
the same hash with those two fields left out was equal before and after.
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
    "fault_free_pipelined": "b9c33e04e59947df0c2ed85ed1a4ecc2ea38d286bd7fccb92b26a518f1931a16",
    "onset_rollback_replay": "7031fbc9153011ca10ab489415391005a3d8ff36a71a43818ad7dd6ef01e0149",
    "freeze_burst_fallback": "5bd1182748117db52fd4e15d9e25b450cee5031b6e674589fc313281e3459893",
    "pbft_silent_primary": "c8209c1194ac2f2dc6fef25ed025a532f04ed1278bc345fff2e3562f700bd046",
    "broadcast_equivocating_leader_slow_path": "4d6294c42fee9089edfe02aa6c942340854e87fb876dc2ad8b04a9b6edf92f75",
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


def _freeze_burst(run):
    # A one-round burst past the decoding radius fails and freezes its
    # round, and resynced nodes carry the next rounds.
    protocol = _protocol(16, 4, 3)
    batches = _batches(protocol, 7)
    run(protocol, batches[:3])
    burst = [f"node-{i}" for i in range(2, 11)]
    for node_id in burst:
        protocol.set_node_behavior(node_id, RandomGarbageBehavior())
    run(protocol, batches[3:4])
    for node_id in burst:
        protocol.set_node_behavior(node_id, None)
        protocol.resync_node(node_id)
    run(protocol, batches[3:])
    return protocol


def _observed(record):
    result = record.result
    return (
        record.commands.tolist(),
        record.consensus_views,
        result.correct,
        np.asarray(result.outputs).tolist(),
        np.asarray(result.states).tolist(),
        result.diagnostics["error_nodes"],
    )


def freeze_burst_fallback():
    protocol = _freeze_burst(CSMProtocol.run_rounds_batched)
    flags = [r.correct for r in protocol.history]
    assert flags == [True, True, True, False] + [True] * 4
    frozen = protocol.history[3].result
    assert frozen.diagnostics["decoding_failed"] is True
    assert np.array_equal(frozen.states, protocol.history[2].result.states)
    # Speculating through the same burst records the same rounds.
    speculated = _freeze_burst(CSMProtocol.run_rounds_pipelined)
    assert [_observed(r) for r in speculated.history] == [
        _observed(r) for r in protocol.history
    ]
    assert "rollback" in _speculations(speculated)
    return protocol


def pbft_silent_primary():
    behaviors = {"node-0": SilentBehavior()}
    protocol = _protocol(10, 2, 2, behaviors, psync=True)
    protocol.run_rounds_pipelined(_batches(protocol, 6))
    assert type(protocol.consensus).__name__ == "PBFTConsensus"
    assert protocol.history[0].consensus_views == 1
    # The silent primary led the one block: every round paid the same view.
    assert {r.consensus_views for r in protocol.history} == {1}
    assert protocol.consensus.fast_path_disabled == 0
    return protocol


def broadcast_equivocating_leader_slow_path():
    # A live link fault: every block is decided on the message plane with
    # the link severed (the digest predates that and was recorded on the
    # per-copy oracle, which is bit-identical; the name keeps it).  Three
    # calls decide the blocks {0}, {1, 2} and {3, 4}: node-1 leads the second
    # and equivocates (the echo step exposes the forged half, so the genuine
    # proposal still decides in view 0); node-3 leads the third and stays
    # silent, which costs both of its rounds one view change.
    behaviors = {"node-1": EquivocatingBehavior(), "node-3": SilentBehavior()}
    protocol = _protocol(10, 3, 2, behaviors)
    protocol.network.faults.dropped_links.add(("node-2", "node-4"))
    batches = _batches(protocol, 5)
    for block in (batches[:1], batches[1:3], batches[3:]):
        protocol.run_rounds_batched(block)
    assert type(protocol.consensus).__name__ == "AuthenticatedBroadcastConsensus"
    assert protocol.consensus.fast_path_disabled == 5
    assert [r.consensus_views for r in protocol.history] == [0, 0, 0, 1, 1]
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
