"""Unit tests for the vectorised message-plane primitives.

The plane's correctness contract is *bit-identity with the scalar paths*:
``DelayModel.sample_delays`` must consume the rng stream exactly as repeated
``sample_delay`` calls, ``KeyRegistry.sign_batch``/``verify_batch`` must
produce the signatures the scalar ``sign``/``verify`` would, and
``MessagePlane.broadcast_phase`` must leave the network (counters, delivery
log, rng, collected messages) in the state ``deliver_all`` would have.
"""

import numpy as np
import pytest

from repro.net.latency import PartiallySynchronousDelay, SynchronousDelay
from repro.net.message import Message, MessageKind, PayloadTable, PhaseBatch
from repro.net.network import DeliveryRecord, MessagePlane, PhaseView, SimulatedNetwork
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
            scalar_keys.sign(message)
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


def _network(seed=9, num_nodes=5, delay=None):
    net = SimulatedNetwork(
        delay_model=delay or SynchronousDelay(), rng=np.random.default_rng(seed)
    )
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    for node_id in node_ids:
        net.register(node_id)
    return net, node_ids


class TestMessagePlaneParity:
    def _templates(self, node_ids, payloads):
        return [
            _message(node_id, payload)
            for node_id, payload in zip(node_ids, payloads)
        ]

    def test_broadcast_phase_matches_deliver_all(self):
        scalar_net, node_ids = _network()
        plane_net, _ = _network()
        payloads = [{"commands": [i]} for i in range(3)]

        for template in self._templates(node_ids[:3], payloads):
            scalar_net.deliver_all(template, node_ids)
        scalar_collected = scalar_net.collect_all(
            node_ids, MessageKind.CONSENSUS_PROPOSAL, 3
        )

        plane = MessagePlane(plane_net, node_ids)
        templates = self._templates(node_ids[:3], payloads)
        refs = [plane.register(t.payload) for t in templates]
        batch = plane.broadcast_phase(templates, refs)
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_PROPOSAL, 3)

        # Same sends: counters, rng stream and simulated clock agree.
        assert scalar_net.messages_sent == plane_net.messages_sent
        assert scalar_net.rejected_signatures == plane_net.rejected_signatures
        assert (
            scalar_net.rng.bit_generator.state["state"]
            == plane_net.rng.bit_generator.state["state"]
        )
        assert scalar_net.scheduler.now == plane_net.scheduler.now
        # Field-identical delivery log, in the same order.
        assert len(scalar_net.delivery_log) == len(plane_net.delivery_log)
        for a, b in zip(scalar_net.delivery_log, plane_net.delivery_log):
            assert isinstance(b, DeliveryRecord)
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
                for m, ref in view.messages_for(j)
            ]
            assert sorted(scalar_view) == sorted(plane_view)

    def test_empty_phase_is_a_noop(self):
        net, node_ids = _network()
        plane = MessagePlane(net, node_ids)
        state_before = net.rng.bit_generator.state["state"]
        batch = plane.broadcast_phase([], [])
        assert batch is None
        assert net.messages_sent == 0
        assert len(net.delivery_log) == 0
        assert net.rng.bit_generator.state["state"] == state_before
        # Collecting an empty phase still advances the window clock, exactly
        # as a scalar collect over no messages would.
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_PROPOSAL, 0)
        assert net.scheduler.now == net.delay_model.synchronous_bound
        for j in range(len(node_ids)):
            assert list(view.messages_for(j)) == []

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


class TestDeliveryLogLaziness:
    def test_scalar_appends_behave_like_a_list(self):
        net, node_ids = _network()
        message = _message("node-0", {"value": 1})
        message.recipient = "node-1"
        net.send(message)
        assert len(net.delivery_log) == 1
        assert net.delivery_log[0].message.sender == "node-0"
        assert [r.message.recipient for r in net.delivery_log] == ["node-1"]

    def test_phase_entries_expand_without_per_copy_appends(self):
        net, node_ids = _network()
        plane = MessagePlane(net, node_ids)
        templates = [_message("node-0", {"commands": [1]})]
        plane.broadcast_phase(templates, [plane.register(templates[0].payload)])
        # One broadcast to N nodes: N-1 non-self copies in the log.
        assert len(net.delivery_log) == len(node_ids) - 1
        recipients = [r.message.recipient for r in net.delivery_log]
        assert recipients == [n for n in node_ids if n != "node-0"]
        # Indexing and slicing work across the materialised view.
        assert net.delivery_log[-1].message.sender == "node-0"
        assert all(r.delivered for r in net.delivery_log)


class TestFastPathCounter:
    def _protocol(self, vectorised):
        from repro.core.config import CSMConfig
        from repro.core.protocol import CSMProtocol
        from repro.gf.prime_field import PrimeField
        from repro.machine.library import bank_account_machine

        field = PrimeField()
        machine = bank_account_machine(field, num_accounts=2)
        config = CSMConfig(
            field, num_nodes=6, num_machines=2, degree=machine.degree, num_faults=0
        )
        return CSMProtocol(
            config,
            machine,
            rng=np.random.default_rng(1),
            vectorised_consensus=vectorised,
        ), machine

    def test_disabled_plane_counts_fallback_rounds(self):
        protocol, machine = self._protocol(vectorised=False)
        batches = [
            np.random.default_rng(2).integers(
                1, 100, size=(2, machine.command_dim)
            )
            for _ in range(3)
        ]
        protocol.run_rounds_batched(batches)
        assert protocol.consensus.fast_path_disabled == 3
        assert protocol.consensus_fast_path_disabled == 3

    def test_enabled_plane_never_counts(self):
        protocol, machine = self._protocol(vectorised=True)
        batches = [
            np.random.default_rng(2).integers(
                1, 100, size=(2, machine.command_dim)
            )
            for _ in range(3)
        ]
        protocol.run_rounds_batched(batches)
        assert protocol.consensus_fast_path_disabled == 0

    def test_service_surfaces_backend_counter(self):
        from repro.service import CSMService

        protocol, machine = self._protocol(vectorised=False)
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
        for message, ref in view.messages_for(node):
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
            matching = [(m, ref) for m, ref in second.messages_for(j) if match(m)]
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
            senders = {m.sender for m, r in view.messages_for(j) if match(m)}
            assert counts[j] == len(senders)
