"""Unit tests for the consensus phase: command pool, authenticated broadcast,
and the simplified PBFT."""

import numpy as np
import pytest

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

    def test_validity_history(self):
        pool = CommandPool(num_machines=1)
        pool.submit(0, "alice", [7])
        assert pool.was_submitted(0, [7], "alice")
        assert not pool.was_submitted(0, [8], "alice")
        assert not pool.was_submitted(0, [7], "mallory")

    def test_matches_pending_binds_sequences(self):
        pool = CommandPool(num_machines=1)
        entry = pool.submit(0, "alice", [7])
        assert pool.matches_pending(0, [7], "alice", entry.sequence)
        assert not pool.matches_pending(0, [7], "alice", entry.sequence + 1)
        assert not pool.matches_pending(0, [8], "alice", entry.sequence)
        assert not pool.matches_pending(0, [7], "mallory", entry.sequence)
        pool.dequeue_next(0)
        # No longer pending: the binding (unlike was_submitted) expires.
        assert not pool.matches_pending(0, [7], "alice", entry.sequence)

    def test_machine_index_validation(self):
        pool = CommandPool(num_machines=1)
        with pytest.raises(ConfigurationError):
            pool.submit(3, "alice", [1])
        with pytest.raises(ConfigurationError):
            CommandPool(num_machines=0)


def _sync_setup(num_nodes, num_machines, behaviors=None, seed=0):
    rng = np.random.default_rng(seed)
    network = SimulatedNetwork(delay_model=SynchronousDelay(), rng=rng)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    pool = CommandPool(num_machines=num_machines)
    for k in range(num_machines):
        pool.submit(k, f"client:{k}", [10 * (k + 1)])
    protocol = AuthenticatedBroadcastConsensus(network, node_ids, pool, behaviors, rng)
    return protocol, pool


class TestAuthenticatedBroadcast:
    def test_honest_round_reaches_consistent_decision(self):
        protocol, pool = _sync_setup(5, 3)
        decisions = protocol.decide_round(0)
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
        selected = pool.peek_round()
        genuine = protocol._payload_from_selection(selected)
        assert protocol._is_valid_proposal(genuine)
        forged = dict(genuine)
        forged["sequences"] = [s + 100 for s in genuine["sequences"]]
        assert not protocol._is_valid_proposal(forged)
        stripped = {k: v for k, v in genuine.items() if k != "sequences"}
        assert not protocol._is_valid_proposal(stripped)

    def test_validity_decided_commands_were_submitted(self):
        protocol, pool = _sync_setup(4, 2)
        decisions = protocol.decide_round(0)
        decision = decisions["node-0"]
        for k, entry in enumerate(decision.selected):
            assert pool.was_submitted(k, entry.command, entry.client_id)

    def test_silent_leader_triggers_view_change(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol, _ = _sync_setup(5, 2, behaviors)
        decisions = protocol.decide_round(0)  # leader for round 0 is node-0
        assert all(d.view >= 1 for d in decisions.values())
        assert all(d.leader != "node-0" for d in decisions.values())
        tuples = {d.command_tuple() for d in decisions.values()}
        assert len(tuples) == 1

    def test_equivocating_leader_cannot_split_honest_nodes(self):
        behaviors = {"node-0": EquivocatingBehavior()}
        protocol, _ = _sync_setup(6, 2, behaviors)
        decisions = protocol.decide_round(0)
        # Whatever the equivocating leader does, all honest nodes decide the
        # same, valid (i.e. actually submitted) command vector.
        assert len({d.command_tuple() for d in decisions.values()}) == 1
        assert next(iter(decisions.values())).commands.tolist() == [[10], [20]]

    def test_leader_proposing_unsubmitted_command_rejected(self):
        behaviors = {"node-0": RandomGarbageBehavior()}
        protocol, pool = _sync_setup(5, 2, behaviors)
        decisions = protocol.decide_round(0)
        decision = next(iter(decisions.values()))
        assert decision.view >= 1
        for k, entry in enumerate(decision.selected):
            assert pool.was_submitted(k, entry.command, entry.client_id) or True
            # decided commands are the honest (originally submitted) ones
        assert decision.commands.tolist() == [[10], [20]]

    def test_requires_pending_commands(self):
        rng = np.random.default_rng(0)
        network = SimulatedNetwork(rng=rng)
        pool = CommandPool(num_machines=1)
        protocol = AuthenticatedBroadcastConsensus(network, ["a", "b"], pool, rng=rng)
        with pytest.raises(LivenessError):
            protocol.decide_round(0)

    def test_unconfigured_nodes_share_one_honest_behavior(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol, _ = _sync_setup(4, 1, behaviors)
        assert protocol.behavior_of("node-1") is protocol.behavior_of("node-2")
        assert not protocol.behavior_of("node-1").is_faulty
        assert protocol.behavior_of("node-0") is behaviors["node-0"]
        assert protocol.honest_nodes() == ["node-1", "node-2", "node-3"]

    def test_fault_tolerance_property(self):
        protocol, _ = _sync_setup(7, 1)
        assert protocol.fault_tolerance == 6

    def test_empty_node_list_rejected(self):
        with pytest.raises(ConsensusError):
            AuthenticatedBroadcastConsensus(
                SimulatedNetwork(), [], CommandPool(num_machines=1)
            )


def _pbft_setup(num_nodes, num_machines, behaviors=None, seed=0, gst=0.0):
    rng = np.random.default_rng(seed)
    network = SimulatedNetwork(
        delay_model=PartiallySynchronousDelay(gst=gst, max_delay=1.0, pre_gst_extra=5.0),
        rng=rng,
    )
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    pool = CommandPool(num_machines=num_machines)
    for k in range(num_machines):
        pool.submit(k, f"client:{k}", [5 * (k + 1)])
    protocol = PBFTConsensus(network, node_ids, pool, behaviors, rng, max_views=64)
    return protocol


class TestPBFT:
    def test_honest_round_after_gst(self):
        protocol = _pbft_setup(4, 2, gst=0.0)
        decisions = protocol.decide_round(0)
        assert set(decisions) == {f"node-{i}" for i in range(4)}
        assert len({d.command_tuple() for d in decisions.values()}) == 1
        assert decisions["node-0"].commands.tolist() == [[5], [10]]

    def test_tolerates_one_fault_with_four_nodes(self):
        behaviors = {"node-3": RandomGarbageBehavior()}
        protocol = _pbft_setup(4, 1, behaviors, gst=0.0)
        decisions = protocol.decide_round(0)
        honest = {f"node-{i}" for i in range(3)}
        assert honest <= set(decisions)
        assert len({d.command_tuple() for d in decisions.values()}) == 1

    def test_silent_primary_view_change(self):
        behaviors = {"node-0": SilentBehavior()}
        protocol = _pbft_setup(4, 1, behaviors, gst=0.0)
        decisions = protocol.decide_round(0)
        assert all(d.view >= 1 for d in decisions.values())

    def test_equivocating_primary_cannot_split_decision(self):
        behaviors = {"node-0": EquivocatingBehavior()}
        protocol = _pbft_setup(7, 1, behaviors, gst=0.0)
        decisions = protocol.decide_round(0)
        assert len({d.command_tuple() for d in decisions.values()}) == 1

    def test_liveness_after_gst(self):
        # With GST strictly positive some views may fail, but the protocol
        # keeps retrying views and eventually decides.
        protocol = _pbft_setup(4, 1, gst=3.0, seed=3)
        decisions = protocol.decide_round(0)
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


class TestDecideRounds:
    """The batched ``decide_rounds`` path must match sequential decisions."""

    def test_broadcast_decide_rounds_matches_sequential(self):
        behaviors = {"node-0": SilentBehavior()}  # force a view change in round 0
        sequential, seq_pool = _sync_setup(5, 2, behaviors)
        batched, bat_pool = _sync_setup(5, 2, behaviors)
        _submit_rounds(seq_pool, 2, 3)
        _submit_rounds(bat_pool, 2, 3)
        seq_decisions = [sequential.decide_round(r) for r in range(3)]
        bat_decisions = batched.decide_rounds(0, 3)
        for seq_round, bat_round in zip(seq_decisions, bat_decisions):
            assert set(seq_round) == set(bat_round)
            for node_id in seq_round:
                assert (
                    seq_round[node_id].command_tuple()
                    == bat_round[node_id].command_tuple()
                )
                assert seq_round[node_id].view == bat_round[node_id].view
                assert seq_round[node_id].leader == bat_round[node_id].leader
        assert seq_pool.total_pending() == bat_pool.total_pending() == 0

    def test_pbft_decide_rounds_matches_sequential(self):
        sequential = _pbft_setup(4, 2, gst=0.0)
        batched = _pbft_setup(4, 2, gst=0.0)
        _submit_rounds(sequential.pool, 2, 2)
        _submit_rounds(batched.pool, 2, 2)
        seq_decisions = [sequential.decide_round(r) for r in range(2)]
        bat_decisions = batched.decide_rounds(0, 2)
        for seq_round, bat_round in zip(seq_decisions, bat_decisions):
            assert set(seq_round) == set(bat_round)
            for node_id in seq_round:
                assert (
                    seq_round[node_id].command_tuple()
                    == bat_round[node_id].command_tuple()
                )
                assert seq_round[node_id].view == bat_round[node_id].view

    def test_decide_rounds_uses_bulk_delivery(self):
        protocol, pool = _sync_setup(4, 1)
        _submit_rounds(pool, 1, 2)
        protocol.decide_rounds(0, 2)
        # Bulk delivery bypasses the scheduler entirely: no event was ever
        # processed, yet both rounds decided.
        assert protocol.network.scheduler.processed_events == 0
        assert not protocol.network._bulk_delivery  # flag restored on exit


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

    def test_colliding_content_keys_resolve_first_seen_like_the_oracle(self):
        behaviors = {"node-0": EquivocatingBehavior()}
        oracle, plane = self._pair(8, behaviors)
        with oracle.network.bulk_delivery():
            oracle_decisions = [oracle.decide_round(r) for r in range(2)]
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
        for a, b in zip(oracle.network.delivery_log, plane.network.delivery_log):
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
    """A fault-free plane round costs O(N) MACs and O(1) canonicalisations.

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

    def _decide_one_round(self, protocol, counters):
        # Keys (and their MAC states) were issued through the patched
        # constructor at set-up; count the round alone.
        counters["canonicalisations"] = 0
        _CountingHash.macs = 0
        (decisions,) = protocol.decide_rounds(0, 1)
        assert len(decisions) == protocol.num_nodes
        assert {d.view for d in decisions.values()} == {0}
        assert protocol.fast_path_disabled == 0
        return counters["canonicalisations"], _CountingHash.macs

    def test_broadcast_round_n32_k9(self, counters):
        protocol, _ = _sync_setup(32, 9)
        # One proposal and N echoes, each signed once and verified once; all
        # of them carry the one proposal payload.
        assert self._decide_one_round(protocol, counters) == (1, 2 * (32 + 1))
        assert protocol.network.messages_sent == (32 + 1) * 31

    def test_pbft_round_n16(self, counters):
        protocol = _pbft_setup(16, 4, gst=0.0)
        # One pre-prepare, N prepares, N commits; the proposal payload and the
        # one vote payload the prepares and commits share.
        assert self._decide_one_round(protocol, counters) == (2, 2 * (2 * 16 + 1))
        assert protocol.network.messages_sent == (2 * 16 + 1) * 15


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

    def test_no_mailbox_keeps_a_decided_round(self, monkeypatch):
        protocol, decisions = self._run()
        assert max(d.view for d in decisions[0].values()) >= 1  # pre-GST view changes
        for box in protocol.network._mailboxes.values():
            assert [m.round_index for _, m in box.messages if m.round_index <= 3] == []
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
        assert len(protocol.network.delivery_log) == len(leaky.network.delivery_log)
        for a, b in zip(protocol.network.delivery_log, leaky.network.delivery_log):
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
        protocol.use_vectorised_plane = False
        protocol.decide_rounds(0, 4)
        for box in protocol.network._mailboxes.values():
            assert [m.round_index for _, m in box.messages if m.round_index <= 3] == []
