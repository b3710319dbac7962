"""Unit tests for the vectorised message-plane primitives.

The plane's correctness contract is *bit-identity with the per-copy paths*:
``DelayModel.sample_delays`` must consume the rng stream exactly as repeated
``sample_delay`` calls, ``KeyRegistry.sign_batch``/``verify_batch`` must
produce the signatures and verdicts the per-message ``sign``/``verify`` of
:mod:`reference.network` would, and ``MessagePlane.broadcast_phase`` and
``MessagePlane.send_targeted`` must leave the network (counters, rng,
collected messages, mailbox residue) in the state the per-copy
``broadcast`` and ``send`` of :mod:`reference.network` would have, having
made the same per-copy deliveries.
"""

import numpy as np
import pytest

from reference.network import broadcast, collect_all, messages_for, send, sign
from repro.consensus.broadcast import AuthenticatedBroadcastConsensus
from repro.consensus.command_pool import CommandPool
from repro.net.byzantine import EquivocatingBehavior
from repro.net.latency import PartiallySynchronousDelay, SynchronousDelay
from repro.net.message import Message, MessageKind, PayloadTable, PhaseBatch
from repro.net.network import MessagePlane, PhaseView, SimulatedNetwork
from repro.net.signatures import KeyRegistry


class TestSampleDelays:
    def test_synchronous_vector_matches_scalar_draws(self):
        model = SynchronousDelay()
        scalar_rng = np.random.default_rng(11)
        vector_rng = np.random.default_rng(11)
        scalar = [model.sample_delay(0.0, scalar_rng) for _ in range(20)]
        vector = model.sample_delays(0.0, vector_rng, 20)
        assert np.array_equal(np.array(scalar), vector)
        assert (
            scalar_rng.bit_generator.state["state"]
            == vector_rng.bit_generator.state["state"]
        )

    def test_psync_post_gst_vector_matches_scalar(self):
        model = PartiallySynchronousDelay(gst=2.0)
        scalar_rng = np.random.default_rng(7)
        vector_rng = np.random.default_rng(7)
        scalar = [model.sample_delay(5.0, scalar_rng) for _ in range(12)]
        vector = model.sample_delays(5.0, vector_rng, 12)
        assert np.array_equal(np.array(scalar), vector)
        assert (
            scalar_rng.bit_generator.state["state"]
            == vector_rng.bit_generator.state["state"]
        )

    def test_psync_pre_gst_loop_matches_scalar(self):
        # Pre-GST each message interleaves a uniform and an exponential draw,
        # so the batch helper must fall back to the scalar loop.
        model = PartiallySynchronousDelay(gst=10.0)
        scalar_rng = np.random.default_rng(3)
        vector_rng = np.random.default_rng(3)
        scalar = [model.sample_delay(0.0, scalar_rng) for _ in range(12)]
        vector = model.sample_delays(0.0, vector_rng, 12)
        assert np.array_equal(np.array(scalar), vector)
        assert (
            scalar_rng.bit_generator.state["state"]
            == vector_rng.bit_generator.state["state"]
        )

    def test_zero_count_consumes_no_randomness(self):
        for model in (SynchronousDelay(), PartiallySynchronousDelay(gst=2.0)):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state["state"]
            out = model.sample_delays(0.0, rng, 0)
            assert out.shape == (0,)
            assert rng.bit_generator.state["state"] == before


def _message(sender, payload, round_index=3, kind=MessageKind.CONSENSUS_PROPOSAL):
    return Message(
        sender=sender,
        recipient="*",
        kind=kind,
        round_index=round_index,
        payload=payload,
    )


class TestBatchSignatures:
    def test_sign_batch_matches_scalar_sign(self):
        scalar_keys = KeyRegistry()
        batch_keys = KeyRegistry()
        payloads = [{"commands": [i, i + 1]} for i in range(4)]
        scalar = [_message(f"node-{i}", payloads[i]) for i in range(4)]
        batch = [_message(f"node-{i}", payloads[i]) for i in range(4)]
        for message in scalar:
            sign(scalar_keys, message)
        batch_keys.sign_batch(batch, PayloadTable())
        for a, b in zip(scalar, batch):
            assert a.signature == b.signature
        assert all(batch_keys.verify_batch(batch, PayloadTable()))

    def test_verify_batch_flags_tampered_message(self):
        keys = KeyRegistry()
        table = PayloadTable()
        messages = [_message(f"node-{i}", {"value": i}) for i in range(3)]
        keys.sign_batch(messages, table)
        # The table keeps the replaced object alive, so the new payload cannot
        # alias its entry: it is interned afresh and the MAC no longer matches.
        messages[1].payload = {"value": 99}
        assert keys.verify_batch(messages, table) == [True, False, True]
        assert keys.verify_batch(messages) == [True, False, True]

    def test_table_is_shared_between_sign_and_verify(self):
        keys = KeyRegistry()
        table = PayloadTable()
        payload = {"commands": [1, 2, 3]}
        messages = [_message(f"node-{i}", payload) for i in range(3)]
        keys.sign_batch(messages, table)
        # One shared payload object -> one table entry.
        assert len(table) == 1
        assert keys.verify_batch(messages, table) == [True, True, True]
        assert len(table) == 1


def _network(seed=9, num_nodes=5, delay=None, keys=None):
    net = SimulatedNetwork(
        delay_model=delay or SynchronousDelay(),
        rng=np.random.default_rng(seed),
        key_registry=keys,
    )
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    for node_id in node_ids:
        net.register(node_id)
    return net, node_ids


class _RejectingRegistry(KeyRegistry):
    """Verifies honestly, except that ``rejected``'s MACs never verify."""

    def __init__(self, rejected):
        super().__init__()
        self.rejected = rejected

    def verify_batch(self, messages, table=None):
        verdicts = super().verify_batch(messages, table)
        return [m.sender != self.rejected and ok for m, ok in zip(messages, verdicts)]


class TestMessagePlaneParity:
    def _templates(self, node_ids, payloads):
        return [
            _message(node_id, payload)
            for node_id, payload in zip(node_ids, payloads)
        ]

    def test_broadcast_phase_matches_deliver_all(self, record_deliveries):
        """One phase batch makes the sends of one ``broadcast`` per template."""
        scalar_net, node_ids = _network()
        plane_net, _ = _network()
        payloads = [{"commands": [i]} for i in range(3)]

        with record_deliveries() as scalar_log:
            for template in self._templates(node_ids[:3], payloads):
                broadcast(scalar_net, template, node_ids)
        scalar_collected = collect_all(
            scalar_net, node_ids, MessageKind.CONSENSUS_PROPOSAL, 3
        )

        plane = MessagePlane(plane_net, node_ids)
        templates = self._templates(node_ids[:3], payloads)
        refs = [plane.register(t.payload) for t in templates]
        with record_deliveries() as plane_log:
            batch = plane.broadcast_phase(templates, refs)
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_PROPOSAL, 3)

        # Same sends: counters, rng stream and simulated clock agree.
        assert scalar_net.messages_sent == plane_net.messages_sent
        assert scalar_net.rejected_signatures == plane_net.rejected_signatures
        assert (
            scalar_net.rng.bit_generator.state["state"]
            == plane_net.rng.bit_generator.state["state"]
        )
        assert scalar_net.now == plane_net.now
        # Field-identical per-copy deliveries, in the same order.
        assert len(scalar_log) == len(plane_log) == plane_net.messages_sent
        for a, b in zip(scalar_log, plane_log):
            assert a.message.sender == b.message.sender
            assert a.message.recipient == b.message.recipient
            assert a.send_time == b.send_time
            assert a.delivery_time == b.delivery_time
            assert a.delivered == b.delivered
        # Every node observes the same (sender, payload) multiset in-window.
        for j, node_id in enumerate(node_ids):
            scalar_view = [
                (m.sender, tuple(m.payload["commands"]))
                for m in scalar_collected[node_id]
            ]
            plane_view = [
                (m.sender, tuple(plane.payload(ref)["commands"]))
                for m, ref in messages_for(view, j)
            ]
            assert sorted(scalar_view) == sorted(plane_view)

    def test_broadcast_phase_applies_live_link_faults(self, record_deliveries):
        """Drops, a partition and added delay sever and delay the same copies.

        ``node-0``'s MAC never verifies: its severed copies count as rejected,
        not dropped, exactly as in ``broadcast``.
        """

        def faulty_network():
            net, node_ids = _network(num_nodes=6, keys=_RejectingRegistry("node-0"))
            faults = net.faults
            faults.dropped_nodes.add("node-5")
            faults.dropped_links.update({("node-0", "node-1"), ("node-2", "node-3")})
            # node-3 and node-4 sit outside every group.
            faults.set_partition([["node-0", "node-2"], ["node-1", "client:0"]])
            # Pushes the slowest copies past the window, into the mailboxes.
            faults.extra_delay = 0.4
            return net, node_ids

        scalar_net, node_ids = faulty_network()
        plane_net, _ = faulty_network()
        payloads = [{"commands": [i]} for i in range(4)]
        with record_deliveries() as scalar_log:
            for template in self._templates(node_ids[:4], payloads):
                broadcast(scalar_net, template, node_ids)
        scalar_collected = collect_all(
            scalar_net, node_ids, MessageKind.CONSENSUS_PROPOSAL, 3
        )
        plane = MessagePlane(plane_net, node_ids)
        templates = self._templates(node_ids[:4], payloads)
        refs = [plane.register(t.payload) for t in templates]
        with record_deliveries() as plane_log:
            batch = plane.broadcast_phase(templates, refs)
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_PROPOSAL, 3)

        assert plane_net.faults.dropped_messages == scalar_net.faults.dropped_messages
        assert plane_net.faults.dropped_messages > 0
        assert scalar_net.rejected_signatures == plane_net.rejected_signatures == 5
        assert batch.delivered.shape == batch.delivery_time.shape
        assert len(scalar_log) == len(plane_log) == plane_net.messages_sent
        assert any(r.delivered for r in plane_log)
        assert any(r.delivery_time > plane_net.now for r in plane_log)
        for a, b in zip(scalar_log, plane_log):
            assert a.message.sender == b.message.sender
            assert a.message.recipient == b.message.recipient
            assert a.delivery_time == b.delivery_time
            assert a.delivered == b.delivered
        for j, node_id in enumerate(node_ids):
            scalar_view = [m.sender for m in scalar_collected[node_id]]
            plane_view = [m.sender for m, _ in messages_for(view, j)]
            assert sorted(scalar_view) == sorted(plane_view)
            # Late copies wait in the same mailboxes, stamped alike.
            assert [
                (time, m.sender) for time, m in scalar_net.mailbox(node_id).messages
            ] == [(time, m.sender) for time, m in plane_net.mailbox(node_id).messages]

    @pytest.mark.parametrize(
        "scenario", ["sync", "pre-gst", "link-faults", "rejected-under-link-faults"]
    )
    def test_send_targeted_matches_a_send_loop(self, scenario, record_deliveries):
        """An equivocating leader's proposal, as one list or one ``send`` per copy.

        The leader addresses a copy to itself as well: it draws a delay and
        takes the extra delay like every other copy, and link faults never
        sever it.
        """

        def leader_proposal():
            delay = (
                PartiallySynchronousDelay(gst=10.0)
                if scenario == "pre-gst"
                else SynchronousDelay()
            )
            keys = _RejectingRegistry("node-0") if scenario.startswith("rejected") else None
            net, node_ids = _network(num_nodes=8, delay=delay, keys=keys)
            if scenario.endswith("link-faults"):
                faults = net.faults
                faults.dropped_nodes.add("node-7")
                faults.dropped_links.update({("node-0", "node-1"), ("node-2", "node-0")})
                # node-4..6 sit outside every group.
                faults.set_partition([["node-0", "node-2"], ["node-3", "client:0"]])
                # Pushes some copies past the synchronous bound.
                faults.extra_delay = 0.4
            pool = CommandPool(num_machines=2)
            for k in range(2):
                pool.submit(k, f"client:{k}", [10 * (k + 1)])
            leader = AuthenticatedBroadcastConsensus(
                net, node_ids, pool, {"node-0": EquivocatingBehavior()}, net.rng
            )
            broadcasts, sends = leader._proposal_actions(0, 0, "node-0", pool.peek_block(1))
            assert broadcasts == [] and len(sends) == len(node_ids)
            return net, node_ids, sends

        scalar_net, node_ids, scalar_sends = leader_proposal()
        plane_net, _, plane_sends = leader_proposal()
        with record_deliveries() as scalar_log:
            for message in scalar_sends:
                send(scalar_net, message)
        with record_deliveries() as plane_log:
            MessagePlane(plane_net, node_ids).send_targeted(plane_sends)

        assert (
            scalar_net.rng.bit_generator.state["state"]
            == plane_net.rng.bit_generator.state["state"]
        )
        assert (
            scalar_net.messages_sent,
            scalar_net.rejected_signatures,
            scalar_net.faults.dropped_messages,
        ) == (
            plane_net.messages_sent,
            plane_net.rejected_signatures,
            plane_net.faults.dropped_messages,
        )
        assert plane_net.messages_sent == len(node_ids)
        assert len(scalar_log) == len(plane_log) == len(node_ids)
        for a, b in zip(scalar_log, plane_log):
            assert (a.message.sender, a.message.recipient) == (
                b.message.sender,
                b.message.recipient,
            )
            assert a.message.signature == b.message.signature
            assert a.message.payload == b.message.payload
            assert (a.send_time, a.delivery_time, a.delivered) == (
                b.send_time,
                b.delivery_time,
                b.delivered,
            )
        # The self copy drew a delay like the rest.
        assert plane_log[0].message.recipient == "node-0"
        assert plane_log[0].delivery_time > plane_net.now
        for node_id in node_ids:
            assert [
                (time, m.recipient, m.signature, m.payload)
                for time, m in scalar_net.mailbox(node_id).messages
            ] == [
                (time, m.recipient, m.signature, m.payload)
                for time, m in plane_net.mailbox(node_id).messages
            ]
        if scenario == "link-faults":
            assert plane_net.faults.dropped_messages > 0
            assert any(r.delivered for r in plane_log)
        if scenario == "rejected-under-link-faults":
            # The verdict comes first: a rejected copy never counts as dropped.
            assert plane_net.rejected_signatures == len(node_ids)
            assert plane_net.faults.dropped_messages == 0
        if scenario == "pre-gst":
            assert max(r.delivery_time for r in plane_log) > 1.0

    def test_empty_phase_is_a_noop(self):
        net, node_ids = _network()
        plane = MessagePlane(net, node_ids)
        state_before = net.rng.bit_generator.state["state"]
        batch = plane.broadcast_phase([], [])
        assert batch is None
        assert net.messages_sent == 0
        assert net.rng.bit_generator.state["state"] == state_before
        # Collecting an empty phase still advances the window clock, exactly
        # as a scalar collect over no messages would.
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_PROPOSAL, 0)
        assert net.now == net.delay_model.synchronous_bound
        for j in range(len(node_ids)):
            assert list(messages_for(view, j)) == []

    def test_payload_table_interns_by_identity(self):
        net, node_ids = _network()
        plane = MessagePlane(net, node_ids)
        payload = {"commands": [1, 2]}
        ref_a = plane.register(payload)
        ref_b = plane.register(payload)
        assert ref_a == ref_b
        assert plane.payload(ref_a) is payload
        # An equal-but-distinct object gets its own ref (identity interning).
        assert plane.register({"commands": [1, 2]}) != ref_a

    def test_content_key_memoised_per_ref(self):
        net, node_ids = _network()
        plane = MessagePlane(net, node_ids)
        ref = plane.register({"commands": [4, 5]})
        calls = []

        def key_fn(payload):
            calls.append(payload)
            return tuple(payload["commands"])

        assert plane.content_key(ref, key_fn) == (4, 5)
        assert plane.content_key(ref, key_fn) == (4, 5)
        assert len(calls) == 1


class TestFastPathCounter:
    """Rounds decided under a live link fault stay on the plane, and count."""

    def _protocol(self, dropped_link=False):
        from repro.core.config import CSMConfig
        from repro.core.protocol import CSMProtocol
        from repro.gf.prime_field import PrimeField
        from repro.machine.library import bank_account_machine

        field = PrimeField()
        machine = bank_account_machine(field, num_accounts=2)
        config = CSMConfig(
            field, num_nodes=6, num_machines=2, degree=machine.degree, num_faults=0
        )
        protocol = CSMProtocol(config, machine, rng=np.random.default_rng(1))
        if dropped_link:
            protocol.network.faults.dropped_links.add(("node-0", "node-1"))
        return protocol, machine

    @staticmethod
    def _batches(machine):
        return [
            np.random.default_rng(2).integers(1, 100, size=(2, machine.command_dim))
            for _ in range(3)
        ]

    def test_live_link_fault_counts_rounds(self):
        protocol, machine = self._protocol(dropped_link=True)
        protocol.run_rounds_batched(self._batches(machine))
        assert protocol.consensus.fast_path_disabled == 3
        assert protocol.consensus_fast_path_disabled == 3
        assert protocol.network.faults.dropped_messages > 0
        # Once the link heals, later rounds do not count.
        protocol.network.faults.clear()
        protocol.run_rounds_batched(self._batches(machine))
        assert protocol.consensus_fast_path_disabled == 3
        assert protocol.all_rounds_correct

    def test_live_link_fault_never_takes_the_per_copy_path(self, monkeypatch):
        protocol, machine = self._protocol(dropped_link=True)
        plane_copies = []
        broadcast_phase = MessagePlane.broadcast_phase

        def counting_broadcast_phase(plane, templates, payload_refs):
            batch = broadcast_phase(plane, templates, payload_refs)
            if batch is not None:
                plane_copies.append(batch.num_actions * (len(plane.node_ids) - 1))
            return batch

        monkeypatch.setattr(MessagePlane, "broadcast_phase", counting_broadcast_phase)
        records = protocol.run_rounds_batched(self._batches(machine))
        assert [r.round_index for r in records] == [0, 1, 2]
        # Every copy the faulty network carried went out as a plane phase.
        assert sum(plane_copies) == protocol.network.messages_sent > 0
        assert protocol.consensus_fast_path_disabled == 3
        assert protocol.network.faults.dropped_messages > 0
        assert protocol.all_rounds_correct

    def test_enabled_plane_never_counts(self):
        protocol, machine = self._protocol()
        protocol.run_rounds_batched(self._batches(machine))
        assert protocol.consensus_fast_path_disabled == 0

    def test_service_surfaces_backend_counter(self):
        from repro.service import CSMService

        protocol, machine = self._protocol(dropped_link=True)
        service = CSMService(protocol, max_batch_rounds=2, min_fill=2)
        sessions = [service.connect(f"client:{k}") for k in range(2)]
        commands = np.random.default_rng(4).integers(
            1, 100, size=(2, 2, machine.command_dim)
        )
        for batch in commands:
            for k, session in enumerate(sessions):
                session.submit(k, batch[k])
        service.drain()
        assert service.consensus_fast_path_disabled == 2


def _random_phase(rng, plane, pool, num_actions):
    """A random phase: batch columns, visibility grid and per-node stragglers.

    Payloads come from ``pool`` — several objects per content key ``p["k"]``,
    so refs collide under the key — and straggler payloads may also be fresh
    objects the table has never seen.
    """
    node_ids = plane.node_ids
    num_nodes = len(node_ids)

    def message(payload):
        return Message(
            sender=node_ids[rng.integers(num_nodes)],
            recipient="*",
            kind=MessageKind.CONSENSUS_VOTE,
            round_index=0,
            payload=payload,
            metadata={
                "view": int(rng.integers(2)),
                "leader": node_ids[rng.integers(min(2, num_nodes))],
            },
        )

    templates = [message(pool[rng.integers(len(pool))]) for _ in range(num_actions)]
    batch = None
    visible = None
    if templates:
        batch = PhaseBatch(
            kind=MessageKind.CONSENSUS_VOTE,
            round_index=0,
            send_time=0.0,
            templates=templates,
            sender_index=np.array([plane.node_index[m.sender] for m in templates]),
            views=np.array([m.metadata["view"] for m in templates]),
            payload_ref=np.array([plane.register(m.payload) for m in templates]),
            valid=np.ones(num_actions, dtype=bool),
            delivery_time=np.zeros((num_actions, num_nodes)),
            delivered=np.ones((num_actions, 1), dtype=bool),
        )
        visible = rng.random((num_actions, num_nodes)) < 0.6
    stragglers = []
    for _ in range(num_nodes):
        count = int(rng.integers(3)) if rng.random() < 0.4 else 0
        stragglers.append(
            [
                message(
                    pool[rng.integers(len(pool))]
                    if rng.random() < 0.5
                    else {"k": int(rng.integers(3)), "fresh": True}
                )
                for _ in range(count)
            ]
        )
    return PhaseView(plane, batch, visible, stragglers)


class TestPhaseViewQueries:
    """The array queries against the literal per-node ``messages_for`` walk."""

    @staticmethod
    def _key(payload):
        return payload["k"]

    def _walk_first_refs(self, view, node, match, seen):
        """What the per-node loops did: first ref per content key, in walk order."""
        for message, ref in messages_for(view, node):
            if match(message):
                seen.setdefault(view.plane.content_key(ref, self._key), ref)
        return seen

    @pytest.mark.parametrize("seed", range(60))
    def test_queries_match_the_per_node_walk(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 8))
        net, node_ids = _network(num_nodes=num_nodes)
        plane = MessagePlane(net, node_ids)
        # Keys 0..2, up to three distinct payload objects per key.
        pool = [{"k": k, "salt": s} for k in range(3) for s in range(int(rng.integers(1, 4)))]
        first = _random_phase(rng, plane, pool, int(rng.integers(0, 3)))
        second = _random_phase(rng, plane, pool, int(rng.integers(0, 9)))
        view_number = int(rng.integers(2))
        leader = node_ids[0]

        def match(m):
            return m.metadata["view"] == view_number and m.metadata["leader"] == leader

        def mask(view):
            return np.array([match(m) for m in view.templates], dtype=bool)

        nodes = rng.random(num_nodes) < 0.7
        chained = second.first_refs(
            mask(second), self._key, match, first.first_refs(mask(first), self._key, match)
        )
        alone = second.first_refs(mask(second), self._key, match)
        counts = second.match_counts(mask(second), match)
        sightings = second.sightings(mask(second), match, nodes)
        expected_sightings = []
        for j in range(num_nodes):
            walked = self._walk_first_refs(second, j, match, {})
            assert {k: int(r[j]) for k, r in alone.items() if r[j] >= 0} == walked
            walked = self._walk_first_refs(
                second, j, match, self._walk_first_refs(first, j, match, {})
            )
            assert {k: int(r[j]) for k, r in chained.items() if r[j] >= 0} == walked
            matching = [(m, ref) for m, ref in messages_for(second, j) if match(m)]
            assert counts[j] == len(matching)
            if nodes[j]:
                expected_sightings += [(j, id(m), ref) for m, ref in matching]
        assert [(j, id(m), ref) for j, m, ref in sightings] == expected_sightings
        # actions() is the mask the protocols build their filters from.
        in_view = [m.metadata["view"] == view_number for m in second.templates]
        assert second.actions(view_number).tolist() == in_view
        by_first_node = [
            ok and m.sender == node_ids[0] for ok, m in zip(in_view, second.templates)
        ]
        assert second.actions(view_number, sender=0).tolist() == by_first_node

    @pytest.mark.parametrize("seed", range(20))
    def test_supporter_counts_match_sender_sets(self, seed):
        rng = np.random.default_rng(1000 + seed)
        num_nodes = int(rng.integers(2, 8))
        net, node_ids = _network(num_nodes=num_nodes)
        plane = MessagePlane(net, node_ids)
        pool = [{"k": k, "salt": 0} for k in range(2)]
        view = _random_phase(rng, plane, pool, int(rng.integers(0, 9)))
        ref = plane.register(pool[0])

        def match(m):
            return m.metadata["view"] == 1 and m.payload is pool[0]

        counts = view.supporter_counts(1, ref, match)
        for j in range(num_nodes):
            senders = {m.sender for m, r in messages_for(view, j) if match(m)}
            assert counts[j] == len(senders)
