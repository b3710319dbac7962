"""Unit tests for the consensus phase: command pool, authenticated broadcast,
and the simplified PBFT."""

import numpy as np
import pytest

from reference.consensus import decide_round, honest_nodes
from repro.exceptions import ConfigurationError, ConsensusError, LivenessError
from repro.consensus.broadcast import AuthenticatedBroadcastConsensus
from repro.consensus.command_pool import CommandPool
from repro.consensus.pbft import PBFTConsensus
from repro.net.byzantine import (
    EquivocatingBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
)
from repro.net.latency import PartiallySynchronousDelay, SynchronousDelay
from repro.net.network import SimulatedNetwork


class TestCommandPool:
    def test_submit_and_peek_fifo(self):
        pool = CommandPool(num_machines=2)
        pool.submit(0, "alice", [1, 2])
        pool.submit(0, "bob", [3, 4])
        assert pool.peek_next(0).client_id == "alice"
        assert pool.pending(0) == 2
        assert pool.peek_next(1) is None

    def test_submit_batch(self):
        pool = CommandPool(num_machines=3)
        entries = pool.submit_batch(np.array([[1], [2], [3]]))
        assert [e.machine_index for e in entries] == [0, 1, 2]
        assert pool.total_pending() == 3

    def test_mark_executed_removes_by_sequence(self):
        pool = CommandPool(num_machines=1)
        first = pool.submit(0, "alice", [1])
        # A resubmission of the same payload by the same client gets its own
        # sequence; removal must take the decided entry, not "any match".
        duplicate = pool.submit(0, "alice", [1])
        pool.mark_executed(0, duplicate)
        assert pool.peek_next(0).sequence == first.sequence
        assert pool.pending(0) == 1

    def test_mark_executed_unknown_command_raises(self):
        pool = CommandPool(num_machines=1)
        first = pool.submit(0, "alice", [1])
        pool.mark_executed(0, first)
        with pytest.raises(ConsensusError):
            pool.mark_executed(0, first)  # already removed: unknown decision

    def test_mark_executed_tampered_entry_raises(self):
        from dataclasses import replace

        pool = CommandPool(num_machines=1)
        entry = pool.submit(0, "alice", [1])
        forged = replace(entry, client_id="mallory")
        with pytest.raises(ConsensusError):
            pool.mark_executed(0, forged)
        assert pool.pending(0) == 1  # the real entry is untouched

    def test_shared_sequence_allocator_spans_pools(self):
        from repro.consensus.command_pool import SequenceAllocator

        allocator = SequenceAllocator()
        pools = [
            CommandPool(num_machines=1, sequence_source=allocator)
            for _ in range(2)
        ]
        a = pools[0].submit(0, "alice", [1])
        b = pools[1].submit(0, "bob", [2])
        c = pools[0].submit(0, "alice", [3])
        assert [a.sequence, b.sequence, c.sequence] == [0, 1, 2]
        assert allocator.issued == 3

    def test_deep_backlog_dequeue_is_linear_not_quadratic(self):
        """The FIFO queues must pop from the left in O(1).

        ``list.pop(0)`` made a full drain of a deep per-machine backlog
        quadratic: draining 100k entries cost ~5e9 element moves (tens of
        seconds).  With :class:`collections.deque` the same drain is linear
        — the generous wall-clock bound below fails by a wide margin if the
        queue representation ever regresses to a list.
        """
        import time

        pool = CommandPool(num_machines=1)
        depth = 100_000
        for i in range(depth):
            pool.submit(0, "alice", [i])
        start = time.perf_counter()
        for i in range(depth):
            entry = pool.dequeue_next(0)
            assert entry.sequence == i  # FIFO order preserved
        elapsed = time.perf_counter() - start
        assert pool.total_pending() == 0
        assert elapsed < 2.0, (
            f"draining a {depth}-deep backlog took {elapsed:.1f}s — "
            "dequeue_next is no longer O(1)"
        )

    def test_dequeue_next_pops_fifo(self):
        pool = CommandPool(num_machines=2)
        first = pool.submit(0, "alice", [1])
        pool.submit(0, "bob", [2])
        popped = pool.dequeue_next(0)
        assert popped.sequence == first.sequence
        assert pool.pending(0) == 1
        assert pool.dequeue_next(1) is None
        assert pool.pending_machines() == 1

    def test_peek_block_is_round_major(self):
        pool = CommandPool(num_machines=2)
        a0 = pool.submit(0, "alice", [1])
        a1 = pool.submit(0, "alice", [2])
        pool.submit(0, "alice", [3])
        b0 = pool.submit(1, "bob", [4])
        b1 = pool.submit(1, "bob", [5])
        # Entry b * K + k is machine k's b-th pending entry; deeper entries
        # stay out of the block, and peeking removes nothing.
        assert pool.peek_block(2) == [a0, b0, a1, b1]
        assert pool.peek_block(1) == [a0, b0]
        assert pool.total_pending() == 5

    def test_peek_block_needs_count_entries_per_machine(self):
        pool = CommandPool(num_machines=2)
        pool.submit(0, "alice", [1])
        pool.submit(0, "alice", [2])
        pool.submit(1, "bob", [3])
        with pytest.raises(LivenessError):
            pool.peek_block(2)

    def test_machine_index_validation(self):
        pool = CommandPool(num_machines=1)
        with pytest.raises(ConfigurationError):
            pool.submit(3, "alice", [1])
        with pytest.raises(ConfigurationError):
            CommandPool(num_machines=0)


def _sync_setup(
    num_nodes, num_machines, behaviors=None, seed=0, cls=AuthenticatedBroadcastConsensus
):
    rng = np.random.default_rng(seed)
    network = SimulatedNetwork(delay_model=SynchronousDelay(), rng=rng)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    pool = CommandPool(num_machines=num_machines)
    for k in range(num_machines):
        pool.submit(k, f"client:{k}", [10 * (k + 1)])
    protocol = cls(network, node_ids, pool, behaviors, rng)
    return protocol, pool


class TestAuthenticatedBroadcast:
    def test_honest_round_reaches_consistent_decision(self):
        protocol, pool = _sync_setup(5, 3)
        decisions = decide_round(protocol, 0)
        assert len(decisions) == 5
        tuples = {d.command_tuple() for d in decisions.values()}
        assert len(tuples) == 1
        assert decisions["node-0"].commands.tolist() == [[10], [20], [30]]
        assert pool.total_pending() == 0  # decided commands consumed

    def test_forged_sequence_proposal_is_invalid(self):
        # A payload whose commands/clients are genuine but whose sequences
        # were forged (or stripped) must fail validity — the leader cannot
        # steer which pool entries get removed, and honest nodes view-change
        # instead of crashing in mark_executed after deciding it.
        protocol, pool = _sync_setup(4, 2)
        selected = pool.peek_block(1)
        genuine = protocol._payload_from_selection(selected)
        assert protocol._is_valid_proposal(genuine, selected)
        forged = dict(genuine)
        forged["sequences"] = [s + 100 for s in genuine["sequences"]]
        assert not protocol._is_valid_proposal(forged, selected)
        stripped = {k: v for k, v in genuine.items() if k != "sequences"}
        assert not protocol._is_valid_proposal(stripped, selected)
        assert not protocol._is_valid_proposal(
            dict(genuine, clients=["client:1", "client:0"]), selected
        )

    def test_validity_decided_commands_were_submitted(self):
        protocol, pool = _sync_setup(4, 2)
        submitted = pool.peek_block(1)
        decisions = decide_round(protocol, 0)
        # The decision is exactly the entries the setup submitted: same
        # command, client and sequence per machine.
        assert decisions["node-0"].selected == submitted

    def test_silent_leader_triggers_view_change(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol, _ = _sync_setup(5, 2, behaviors)
        decisions = decide_round(protocol, 0)  # leader for round 0 is node-0
        assert all(d.view >= 1 for d in decisions.values())
        assert all(d.leader != "node-0" for d in decisions.values())
        tuples = {d.command_tuple() for d in decisions.values()}
        assert len(tuples) == 1

    def test_equivocating_leader_cannot_split_honest_nodes(self):
        behaviors = {"node-0": EquivocatingBehavior()}
        protocol, _ = _sync_setup(6, 2, behaviors)
        decisions = decide_round(protocol, 0)
        # Whatever the equivocating leader does, all honest nodes decide the
        # same, valid (i.e. actually submitted) command vector.
        assert len({d.command_tuple() for d in decisions.values()}) == 1
        assert next(iter(decisions.values())).commands.tolist() == [[10], [20]]

    def test_leader_proposing_unsubmitted_command_rejected(self):
        behaviors = {"node-0": RandomGarbageBehavior()}
        protocol, pool = _sync_setup(5, 2, behaviors)
        submitted = pool.peek_block(1)
        decisions = decide_round(protocol, 0)
        decision = next(iter(decisions.values()))
        assert decision.view >= 1
        # decided commands are the honest (originally submitted) ones
        assert decision.selected == submitted
        assert decision.commands.tolist() == [[10], [20]]

    def test_requires_pending_commands(self):
        rng = np.random.default_rng(0)
        network = SimulatedNetwork(rng=rng)
        pool = CommandPool(num_machines=1)
        protocol = AuthenticatedBroadcastConsensus(network, ["a", "b"], pool, rng=rng)
        with pytest.raises(LivenessError):
            decide_round(protocol, 0)

    def test_unconfigured_nodes_share_one_honest_behavior(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol, _ = _sync_setup(4, 1, behaviors)
        assert protocol.behavior_of("node-1") is protocol.behavior_of("node-2")
        assert not protocol.behavior_of("node-1").is_faulty
        assert protocol.behavior_of("node-0") is behaviors["node-0"]
        assert honest_nodes(protocol) == ["node-1", "node-2", "node-3"]

    def test_fault_tolerance_property(self):
        protocol, _ = _sync_setup(7, 1)
        assert protocol.fault_tolerance == 6

    def test_empty_node_list_rejected(self):
        with pytest.raises(ConsensusError):
            AuthenticatedBroadcastConsensus(
                SimulatedNetwork(), [], CommandPool(num_machines=1)
            )


def _pbft_setup(
    num_nodes, num_machines, behaviors=None, seed=0, gst=0.0, cls=PBFTConsensus
):
    rng = np.random.default_rng(seed)
    network = SimulatedNetwork(
        delay_model=PartiallySynchronousDelay(gst=gst, max_delay=1.0, pre_gst_extra=5.0),
        rng=rng,
    )
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    pool = CommandPool(num_machines=num_machines)
    for k in range(num_machines):
        pool.submit(k, f"client:{k}", [5 * (k + 1)])
    protocol = cls(network, node_ids, pool, behaviors, rng, max_views=64)
    return protocol


class TestPBFT:
    def test_honest_round_after_gst(self):
        protocol = _pbft_setup(4, 2, gst=0.0)
        decisions = decide_round(protocol, 0)
        assert set(decisions) == {f"node-{i}" for i in range(4)}
        assert len({d.command_tuple() for d in decisions.values()}) == 1
        assert decisions["node-0"].commands.tolist() == [[5], [10]]

    def test_tolerates_one_fault_with_four_nodes(self):
        behaviors = {"node-3": RandomGarbageBehavior()}
        protocol = _pbft_setup(4, 1, behaviors, gst=0.0)
        decisions = decide_round(protocol, 0)
        honest = {f"node-{i}" for i in range(3)}
        assert honest <= set(decisions)
        assert len({d.command_tuple() for d in decisions.values()}) == 1

    def test_silent_primary_view_change(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol = _pbft_setup(4, 1, behaviors, gst=0.0)
        decisions = decide_round(protocol, 0)
        assert all(d.view >= 1 for d in decisions.values())

    def test_equivocating_primary_cannot_split_decision(self):
        behaviors = {"node-0": EquivocatingBehavior()}
        protocol = _pbft_setup(7, 1, behaviors, gst=0.0)
        decisions = decide_round(protocol, 0)
        assert len({d.command_tuple() for d in decisions.values()}) == 1

    def test_liveness_after_gst(self):
        # With GST strictly positive some views may fail, but the protocol
        # keeps retrying views and eventually decides.
        protocol = _pbft_setup(4, 1, gst=3.0, seed=3)
        decisions = decide_round(protocol, 0)
        assert len(decisions) == 4

    def test_fault_tolerance_formula(self):
        protocol = _pbft_setup(7, 1)
        assert protocol.fault_tolerance == 2
        assert protocol.quorum == 5

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConsensusError):
            _pbft_setup(3, 1)


def _submit_rounds(pool, num_machines, rounds):
    for r in range(1, rounds):  # round 0's commands come from the setup helper
        for k in range(num_machines):
            pool.submit(k, f"client:{k}", [100 * r + k])


def _assert_same_decided_commands(seq_decisions, bat_decisions):
    """Equal per round in everything but the consensus side (view, leader)."""
    assert len(seq_decisions) == len(bat_decisions)
    for round_index, (seq_round, bat_round) in enumerate(
        zip(seq_decisions, bat_decisions)
    ):
        assert list(seq_round) == list(bat_round)
        for node_id in seq_round:
            seq, bat = seq_round[node_id], bat_round[node_id]
            assert seq.round_index == bat.round_index == round_index
            assert seq.command_tuple() == bat.command_tuple()
            assert seq.clients == bat.clients
            assert seq.selected == bat.selected


class TestDecideRounds:
    """One block instance decides what a per-round loop decides, in fewer views."""

    def test_broadcast_decide_rounds_matches_sequential(self):
        behaviors = {"node-0": SilentBehavior()}  # force a view change in round 0
        sequential, seq_pool = _sync_setup(5, 2, behaviors)
        batched, bat_pool = _sync_setup(5, 2, behaviors)
        _submit_rounds(seq_pool, 2, 3)
        _submit_rounds(bat_pool, 2, 3)
        seq_decisions = [decide_round(sequential, r) for r in range(3)]
        bat_decisions = batched.decide_rounds(0, 3)
        _assert_same_decided_commands(seq_decisions, bat_decisions)
        assert seq_pool.total_pending() == bat_pool.total_pending() == 0

    def test_pbft_decide_rounds_matches_sequential(self):
        sequential = _pbft_setup(4, 2, gst=0.0)
        batched = _pbft_setup(4, 2, gst=0.0)
        _submit_rounds(sequential.pool, 2, 2)
        _submit_rounds(batched.pool, 2, 2)
        seq_decisions = [decide_round(sequential, r) for r in range(2)]
        bat_decisions = batched.decide_rounds(0, 2)
        _assert_same_decided_commands(seq_decisions, bat_decisions)
        assert sequential.pool.total_pending() == batched.pool.total_pending() == 0

    @pytest.mark.parametrize("setup", ["bcast", "pbft"])
    def test_silent_block_leader_costs_one_view_for_every_round(self, setup):
        behaviors = {"node-0": SilentBehavior()}
        if setup == "bcast":
            protocol, pool = _sync_setup(5, 2, behaviors)
        else:
            protocol = _pbft_setup(5, 2, behaviors, gst=0.0)
            pool = protocol.pool
        _submit_rounds(pool, 2, 4)
        block = pool.peek_block(4)
        decisions = protocol.decide_rounds(0, 4)
        assert len(decisions) == 4
        for round_index, round_decisions in enumerate(decisions):
            assert set(round_decisions) == {f"node-{i}" for i in range(1, 5)}
            for decision in round_decisions.values():
                assert decision.round_index == round_index
                assert (decision.view, decision.leader) == (1, "node-1")
                assert decision.selected == block[2 * round_index : 2 * round_index + 2]
        assert pool.total_pending() == 0


_PAYLOAD_KEYS = ("commands", "clients", "sequences")


def _rows(payload):
    return [list(row) for row in zip(*(payload[key] for key in _PAYLOAD_KEYS))]


def _payload(rows):
    return {key: [row[i] for row in rows] for i, key in enumerate(_PAYLOAD_KEYS)}


def _entry_row(entry):
    return [list(entry.command), entry.client_id, entry.sequence]


def _swap(rows, a, b):
    rows[a], rows[b] = rows[b], rows[a]
    return rows


#: Block-leader proposals for a block of two rounds over K = 2 machines (row
#: ``b * 2 + k`` is machine k's b-th pending entry) whose every row is still
#: a genuine, pending submission — only its position is wrong.
BLOCK_TAMPERS = {
    "sequence_repeated_in_two_rows": lambda pool, rows: rows[:2] + rows[:1] + rows[3:],
    "two_rows_of_one_machine_swapped": lambda pool, rows: _swap(rows, 0, 2),
    "one_row_short": lambda pool, rows: rows[:-1],
    "one_row_long": lambda pool, rows: rows + [_entry_row(pool.peek_block(3)[4])],
}


def _tampering_leader(cls, tamper):
    """``cls`` whose default-Byzantine leader proposes ``tamper`` of the honest block."""

    class TamperingLeader(cls):
        def _forged_payload(self, payload):
            return _payload(tamper(self.pool, _rows(payload)))

    return TamperingLeader


def _tampered_block(setup, tamper, rounds, path, pin_oracle):
    """node-0 leads the block at round 0 and tampers; decide ``rounds - 1`` rounds."""
    behaviors = {"node-0": RandomGarbageBehavior()}
    if setup == "bcast":
        protocol, pool = _sync_setup(
            5, 2, behaviors, cls=_tampering_leader(AuthenticatedBroadcastConsensus, tamper)
        )
    else:
        protocol = _pbft_setup(
            4, 2, behaviors, cls=_tampering_leader(PBFTConsensus, tamper)
        )
        pool = protocol.pool
    _submit_rounds(pool, 2, rounds)
    count = rounds - 1
    block = pool.peek_block(count)
    if path == "oracle":
        pin_oracle(protocol)
    decisions = protocol.decide_rounds(0, count)
    assert len(decisions) == count
    for round_index, round_decisions in enumerate(decisions):
        assert round_decisions
        for decision in round_decisions.values():
            # The tampered view failed; the next leader decided the genuine block.
            assert (decision.view, decision.leader) == (1, "node-1")
            assert decision.selected == block[2 * round_index : 2 * round_index + 2]
    assert pool.total_pending() == 2  # the round left out of the block


@pytest.mark.parametrize("path", ["plane", "oracle"])
@pytest.mark.parametrize("setup", ["bcast", "pbft"])
class TestBlockValidity:
    """Validity binds every row of a block to its pool position.

    A proposal built from genuine pending entries in the wrong places is
    invalid — a view change — never a ``ConsensusError`` out of
    ``mark_executed`` after the decision.
    """

    @pytest.mark.parametrize("tamper", sorted(BLOCK_TAMPERS))
    def test_misplaced_rows_cost_a_view(self, setup, path, tamper, pin_oracle):
        _tampered_block(setup, BLOCK_TAMPERS[tamper], 3, path, pin_oracle)

    def test_forged_payload_coinciding_with_a_later_rounds_command(
        self, setup, path, pin_oracle
    ):
        # Every round is submitted before its block is decided, so round 1's
        # real commands are pending while round 0 is decided alone: a leader
        # proposing them for round 0 must not pass validity.
        def later_round(pool, rows):
            return [_entry_row(entry) for entry in pool.peek_block(2)[2:]]

        _tampered_block(setup, later_round, 2, path, pin_oracle)


class _ClientForgingEquivocator(AuthenticatedBroadcastConsensus):
    """An equivocating leader whose second payload differs in the clients only.

    Commands and sequences — the proposal's content key — are the honest
    ones, so the forged payload *collides* with the honest payload: a node
    holds whichever of the two it saw first, and only the honest one is
    valid.
    """

    def _proposal_actions(self, round_index, view, leader, selected):
        broadcasts, sends = super()._proposal_actions(round_index, view, leader, selected)
        forged = {}
        for message in sends[len(sends) // 2 :]:
            forged.setdefault(
                id(message.payload),
                dict(
                    self._payload_from_selection(selected),
                    clients=["client:forged"] * len(selected),
                ),
            )
            message.payload = forged[id(message.payload)]
        return broadcasts, sends


class TestPlaneTalliesAgainstOracle:
    def _pair(self, num_nodes, behaviors):
        protocols = []
        for _ in range(2):
            rng = np.random.default_rng(4)
            network = SimulatedNetwork(delay_model=SynchronousDelay(), rng=rng)
            pool = CommandPool(num_machines=2)
            for r in range(2):
                for k in range(2):
                    pool.submit(k, f"client:{k}", [10 * r + k + 1])
            protocols.append(
                _ClientForgingEquivocator(
                    network, [f"node-{i}" for i in range(num_nodes)], pool, behaviors, rng
                )
            )
        return protocols

    def test_colliding_content_keys_resolve_first_seen_like_the_oracle(
        self, record_deliveries, pin_oracle
    ):
        behaviors = {"node-0": EquivocatingBehavior()}
        oracle, plane = self._pair(8, behaviors)
        pin_oracle(oracle)
        with record_deliveries() as oracle_log:
            oracle_decisions = oracle.decide_rounds(0, 2)
        with record_deliveries() as plane_log:
            plane_decisions = plane.decide_rounds(0, 2)
        for orc, vec in zip(oracle_decisions, plane_decisions):
            assert list(orc) == list(vec)
            for node_id in orc:
                assert orc[node_id].command_tuple() == vec[node_id].command_tuple()
                assert orc[node_id].clients == vec[node_id].clients
                assert orc[node_id].view == vec[node_id].view
        # The second half holds the forged payload first and the colliding
        # honest echo adds nothing, so it sees no valid proposal: view change.
        assert plane_decisions[0]["node-1"].view == 1
        assert plane_decisions[0]["node-1"].clients == ["client:0", "client:1"]
        assert oracle.network.messages_sent == plane.network.messages_sent
        assert (
            oracle.rng.bit_generator.state["state"]
            == plane.rng.bit_generator.state["state"]
        )
        assert len(oracle_log) == len(plane_log) == plane.network.messages_sent
        for a, b in zip(oracle_log, plane_log):
            assert (a.message.sender, a.message.recipient) == (
                b.message.sender,
                b.message.recipient,
            )
            assert a.message.signature == b.message.signature
            assert a.message.payload == b.message.payload
            assert a.delivery_time == b.delivery_time


class _CountingHash:
    """A hashlib object that counts finished MACs (one ``hexdigest`` each)."""

    macs = 0

    def __init__(self, inner):
        self._inner = inner

    def copy(self):
        return _CountingHash(self._inner.copy())

    def update(self, data):
        self._inner.update(data)

    def digest(self):
        return self._inner.digest()

    def hexdigest(self):
        _CountingHash.macs += 1
        return self._inner.hexdigest()


class TestRoundComplexityPin:
    """A fault-free plane block costs O(N) MACs and O(1) canonicalisations.

    A block of eight rounds costs exactly what a block of one does.

    Counted, not timed: the hash constructor the registry keys its MAC states
    from and the payload normaliser are patched with counting stand-ins.
    """

    @pytest.fixture
    def counters(self, monkeypatch):
        import hashlib

        from repro.net import message, signatures

        counts = {"canonicalisations": 0, "depth": 0}
        normalise = message._normalise

        def counting_normalise(value):
            # _normalise recurses through the module global, i.e. through
            # this wrapper: only depth-0 calls are whole payloads.
            if counts["depth"] == 0:
                counts["canonicalisations"] += 1
            counts["depth"] += 1
            try:
                return normalise(value)
            finally:
                counts["depth"] -= 1

        monkeypatch.setattr(message, "_normalise", counting_normalise)
        monkeypatch.setattr(
            signatures, "sha256", lambda data=b"": _CountingHash(hashlib.sha256(data))
        )
        monkeypatch.setattr(_CountingHash, "macs", 0)
        return counts

    def _decide_block(self, protocol, counters, count):
        # Keys (and their MAC states) were issued through the patched
        # constructor at set-up; count the block alone.
        counters["canonicalisations"] = 0
        _CountingHash.macs = 0
        decisions = protocol.decide_rounds(0, count)
        assert len(decisions) == count
        for round_decisions in decisions:
            assert len(round_decisions) == protocol.num_nodes
            assert {d.view for d in round_decisions.values()} == {0}
        assert protocol.fast_path_disabled == 0
        assert protocol.pool.total_pending() == 0
        return counters["canonicalisations"], _CountingHash.macs

    def _broadcast_n32_k9(self, counters, count):
        protocol, pool = _sync_setup(32, 9)
        _submit_rounds(pool, 9, count)
        # One proposal and N echoes, each signed once and verified once; all
        # of them carry the one block payload, however many rounds it holds.
        assert self._decide_block(protocol, counters, count) == (1, 2 * (32 + 1))
        assert protocol.network.messages_sent == (32 + 1) * 31

    def _pbft_n16(self, counters, count):
        protocol = _pbft_setup(16, 4, gst=0.0)
        _submit_rounds(protocol.pool, 4, count)
        # One pre-prepare, N prepares, N commits; the block payload and the
        # one vote payload the prepares and commits share.
        assert self._decide_block(protocol, counters, count) == (2, 2 * (2 * 16 + 1))
        assert protocol.network.messages_sent == (2 * 16 + 1) * 15

    def test_broadcast_round_n32_k9(self, counters):
        self._broadcast_n32_k9(counters, 1)

    def test_broadcast_block_of_eight_costs_one_round_n32_k9(self, counters):
        self._broadcast_n32_k9(counters, 8)

    def test_pbft_round_n16(self, counters):
        self._pbft_n16(counters, 1)

    def test_pbft_block_of_eight_costs_one_round_n16(self, counters):
        self._pbft_n16(counters, 8)


class TestDeadLetters:
    """Copies that land after their round was decided must not pile up."""

    def _run(self, monkeypatch=None):
        if monkeypatch is not None:  # the behaviour before the fix
            monkeypatch.setattr(
                SimulatedNetwork, "discard_through", lambda self, *args: None
            )
        protocol = _pbft_setup(7, 2, gst=4.0, seed=1)
        _submit_rounds(protocol.pool, 2, 4)
        decisions = protocol.decide_rounds(0, 4)
        return protocol, decisions

    def test_no_mailbox_keeps_a_decided_round(self, monkeypatch, record_deliveries):
        with record_deliveries() as kept_log:
            protocol, decisions = self._run()
        assert max(d.view for d in decisions[0].values()) >= 1  # pre-GST view changes
        for box in protocol.network._mailboxes.values():
            assert [m.round_index for _, m in box.messages if m.round_index <= 3] == []
        with record_deliveries() as leaked_log:
            leaky, leaky_decisions = self._run(monkeypatch)
        stale = sum(len(box.messages) for box in leaky.network._mailboxes.values())
        assert stale > 0  # the run does produce dead letters when nothing drops them
        # Dropping them is unobservable: nothing could ever have collected them.
        for kept, leaked in zip(decisions, leaky_decisions):
            assert list(kept) == list(leaked)
            for node_id in kept:
                assert kept[node_id].command_tuple() == leaked[node_id].command_tuple()
                assert kept[node_id].view == leaked[node_id].view
        assert (
            protocol.rng.bit_generator.state["state"]
            == leaky.rng.bit_generator.state["state"]
        )
        assert protocol.network.messages_sent == leaky.network.messages_sent
        assert protocol.network.rejected_signatures == leaky.network.rejected_signatures
        assert protocol.network.now == leaky.network.now
        assert len(kept_log) == len(leaked_log) == leaky.network.messages_sent
        for a, b in zip(kept_log, leaked_log):
            assert (a.message.sender, a.message.recipient, a.message.signature) == (
                b.message.sender,
                b.message.recipient,
                b.message.signature,
            )
            assert (a.send_time, a.delivery_time, a.delivered) == (
                b.send_time,
                b.delivery_time,
                b.delivered,
            )

    def test_oracle_drops_them_too(self):
        protocol = _pbft_setup(7, 2, gst=4.0, seed=1)
        _submit_rounds(protocol.pool, 2, 4)
        for round_index in range(4):
            decide_round(protocol, round_index)
        for box in protocol.network._mailboxes.values():
            assert [m.round_index for _, m in box.messages if m.round_index <= 3] == []
