"""Unit tests for the network substrate: messages, signatures, delay models,
the per-copy network the message plane is matched against, and the Byzantine
behaviours."""

import numpy as np
import pytest

from reference.network import (
    SignatureError,
    broadcast,
    collect,
    collect_all,
    require_valid,
    send,
    sign,
    sign_as,
    stats,
    verify,
)
from repro.net.byzantine import (
    CorruptResultBehavior,
    DelayingBehavior,
    EquivocatingBehavior,
    FaultOnsetBehavior,
    HonestBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
    behavior_from_name,
    faulty_reports,
)
from repro.net.latency import PartiallySynchronousDelay, SynchronousDelay
from repro.net.message import Message, MessageKind
from repro.net.network import SimulatedNetwork
from repro.net.signatures import KeyRegistry


class TestMessagesAndSignatures:
    def _message(self, payload=None):
        return Message(
            sender="node-1",
            recipient="node-2",
            kind=MessageKind.CODED_RESULT,
            round_index=3,
            payload=payload if payload is not None else {"value": 7},
        )

    def test_sign_and_verify(self):
        keys = KeyRegistry()
        message = sign(keys, self._message())
        assert verify(keys, message)

    def test_unsigned_message_fails_verification(self):
        keys = KeyRegistry()
        keys.register("node-1")
        assert not verify(keys, self._message())

    def test_tampered_payload_fails_verification(self):
        keys = KeyRegistry()
        message = sign(keys, self._message({"value": 7}))
        message.payload = {"value": 8}
        assert not verify(keys, message)

    def test_forgery_is_detected(self):
        keys = KeyRegistry()
        keys.register("node-1")
        keys.register("victim")
        forged = sign_as(keys, self._message(), "victim")
        assert forged.sender == "victim"
        assert not verify(keys, forged)

    def test_signature_covers_numpy_payloads(self):
        keys = KeyRegistry()
        message = self._message(np.array([1, 2, 3]))
        sign(keys, message)
        assert verify(keys, message)
        message.payload = np.array([1, 2, 4])
        assert not verify(keys, message)

    def test_broadcast_copy_keeps_signature_valid(self):
        keys = KeyRegistry()
        message = sign(keys, self._message())
        copy = message.with_recipient("node-9")
        assert verify(keys, copy)

    def test_require_valid_raises(self):
        keys = KeyRegistry()
        with pytest.raises(SignatureError):
            require_valid(keys, self._message())


class TestDelayModels:
    def test_synchronous_delay_within_bounds(self, rng):
        model = SynchronousDelay(max_delay=2.0, min_delay=0.5)
        for _ in range(100):
            delay = model.sample_delay(0.0, rng)
            assert 0.5 <= delay <= 2.0
        assert model.synchronous_bound == 2.0
        assert model.is_synchronous_at(0.0)

    def test_synchronous_delay_validation(self):
        with pytest.raises(ValueError):
            SynchronousDelay(max_delay=1.0, min_delay=2.0)

    def test_partially_synchronous_before_and_after_gst(self, rng):
        model = PartiallySynchronousDelay(gst=10.0, max_delay=1.0, pre_gst_extra=100.0)
        post = [model.sample_delay(11.0, rng) for _ in range(100)]
        assert all(d <= 1.0 for d in post)
        pre = [model.sample_delay(0.0, rng) for _ in range(100)]
        assert max(pre) > 1.0  # some messages heavily delayed before GST
        assert not model.is_synchronous_at(5.0)
        assert model.is_synchronous_at(10.0)


class TestSimulatedNetwork:
    def _network(self):
        network = SimulatedNetwork(
            delay_model=SynchronousDelay(max_delay=1.0, min_delay=0.1),
            rng=np.random.default_rng(0),
        )
        for node in ("a", "b", "c"):
            network.register(node)
        return network

    def test_send_and_collect(self):
        network = self._network()
        send(network, Message("a", "b", MessageKind.CODED_RESULT, 0, {"x": 1}))
        received = collect(network, "b", kind=MessageKind.CODED_RESULT, round_index=0)
        assert len(received) == 1
        assert received[0].payload == {"x": 1}

    def test_collect_filters_round_and_kind(self):
        network = self._network()
        send(network, Message("a", "b", MessageKind.CODED_RESULT, 0, 1))
        send(network, Message("a", "b", MessageKind.CODED_RESULT, 1, 2))
        send(network, Message("a", "b", MessageKind.CONSENSUS_VOTE, 0, 3))
        received = collect(network, "b", kind=MessageKind.CODED_RESULT, round_index=0)
        assert [m.payload for m in received] == [1]

    def test_broadcast_reaches_everyone(self):
        network = self._network()
        broadcast(network, Message("a", "*", MessageKind.CONSENSUS_PROPOSAL, 0, "p"))
        received = collect_all(
            network, ["a", "b", "c"], kind=MessageKind.CONSENSUS_PROPOSAL
        )
        assert all(len(msgs) == 1 for msgs in received.values())

    def test_unknown_recipient_rejected(self):
        network = self._network()
        with pytest.raises(KeyError):
            send(network, Message("a", "zzz", MessageKind.CODED_RESULT, 0, 1))

    def test_forged_messages_dropped(self):
        network = self._network()
        forged = sign_as(
            network.keys, Message("a", "b", MessageKind.CODED_RESULT, 0, 1), "c"
        )
        send(network, forged, sign=False)
        received = collect(network, "b", kind=MessageKind.CODED_RESULT)
        assert received == []
        assert network.rejected_signatures == 1

    def test_stats(self):
        network = self._network()
        send(network, Message("a", "b", MessageKind.CODED_RESULT, 0, 1))
        counters = stats(network)
        assert counters["messages_sent"] == 1
        assert counters["rejected_signatures"] == 0

    def test_deliver_all_respects_collection_deadline(self):
        """A broadcast copy stays invisible until a deadline passes its delivery time."""
        network = SimulatedNetwork(
            delay_model=SynchronousDelay(max_delay=5.0, min_delay=4.0),
            rng=np.random.default_rng(0),
        )
        for node in ("a", "b"):
            network.register(node)
        broadcast(network, Message("a", "*", MessageKind.CODED_RESULT, 0, 1), ["b"])
        # Delay is at least 4.0: a 1.0-window collect must not see the copy...
        assert collect(network, "b", timeout=1.0) == []
        # ...but a later collect past the delivery time must.
        assert len(collect(network, "b", timeout=5.0)) == 1

    def test_deliver_all_drops_forged_messages(self):
        """A forged broadcast reaches nobody, and every copy counts as rejected."""
        network = self._network()
        forged = sign_as(
            network.keys, Message("a", "*", MessageKind.CODED_RESULT, 0, 1), "c"
        )
        broadcast(network, forged, ["a", "b"], sign=False)
        assert collect(network, "a") == [] and collect(network, "b") == []
        assert network.rejected_signatures == 2

    def test_send_settles_its_verdict_when_it_is_sent(self):
        network = self._network()
        forged = sign_as(
            network.keys, Message("a", "b", MessageKind.CODED_RESULT, 0, 1), "c"
        )
        record = send(network, forged, sign=False)
        # No collection has run yet: the verdict is already in.
        assert not record.delivered
        assert network.rejected_signatures == 1
        assert network.messages_sent == 1

    def test_forged_copy_on_a_dropped_link_counts_alike_through_send_and_broadcast(self):
        counts = {}
        for path in ("send", "broadcast"):
            network = self._network()
            network.faults.dropped_links.add(("c", "b"))
            forged = sign_as(
                network.keys, Message("a", "b", MessageKind.CODED_RESULT, 0, 1), "c"
            )
            if path == "send":
                record = send(network, forged, sign=False)
            else:
                (record,) = broadcast(network, forged, ["b"], sign=False)
            assert not record.delivered
            counts[path] = (
                network.messages_sent,
                network.rejected_signatures,
                network.faults.dropped_messages,
            )
        # The verdict comes before the link faults on both paths.
        assert counts == {"send": (1, 1, 0), "broadcast": (1, 1, 0)}

    def test_broadcast_to_an_unknown_recipient_leaves_no_trace(self):
        network = self._network()
        rng_state = network.rng.bit_generator.state
        message = Message("a", "*", MessageKind.CONSENSUS_PROPOSAL, 0, "p")
        with pytest.raises(KeyError):
            broadcast(network, message, ["a", "b", "zzz"])
        assert network.rng.bit_generator.state == rng_state
        assert (network.messages_sent, network.rejected_signatures) == (0, 0)
        assert message.signature is None
        received = collect_all(network, ["a", "b", "c"], timeout=100.0)
        assert all(messages == [] for messages in received.values())


class TestByzantineBehaviors:
    def test_honest_behavior_returns_value_unchanged(self, big_field, rng):
        value = np.array([1, 2, 3])
        result = HonestBehavior().transform_result(big_field, "n", value, rng)
        assert result.tolist() == [1, 2, 3]
        assert not HonestBehavior().is_faulty

    def test_corrupt_behavior_changes_every_component(self, big_field, rng):
        value = np.array([1, 2, 3])
        result = CorruptResultBehavior(offset=5).transform_result(big_field, "n", value, rng)
        assert result.tolist() == [6, 7, 8]
        with pytest.raises(ValueError):
            CorruptResultBehavior(offset=0)

    def test_silent_behavior_returns_none(self, big_field, rng):
        assert SilentBehavior().transform_result(big_field, "n", np.array([1]), rng) is None

    def test_garbage_behavior_changes_value(self, big_field, rng):
        value = np.array([1, 2, 3, 4, 5, 6, 7, 8])
        result = RandomGarbageBehavior().transform_result(big_field, "n", value, rng)
        assert result.tolist() != value.tolist()

    def test_equivocating_behavior_differs_per_recipient(self, big_field, rng):
        value = np.array([10, 20])
        behavior = EquivocatingBehavior()
        to_a = behavior.transform_result(big_field, "n", value, rng, recipient="a")
        to_b = behavior.transform_result(big_field, "n", value, rng, recipient="b")
        assert to_a.tolist() != value.tolist()
        assert to_a.tolist() != to_b.tolist()

    def test_delaying_behavior_keeps_value_but_flags_delay(self, big_field, rng):
        behavior = DelayingBehavior()
        assert behavior.delays_message()
        assert behavior.transform_result(big_field, "n", np.array([5]), rng).tolist() == [5]

    def test_behavior_from_name(self):
        assert isinstance(behavior_from_name("honest"), HonestBehavior)
        assert isinstance(behavior_from_name("silent"), SilentBehavior)
        with pytest.raises(ValueError):
            behavior_from_name("teleport")

    def test_fault_onset_behavior_honest_then_inner(self, big_field, rng):
        behavior = FaultOnsetBehavior(CorruptResultBehavior(offset=7), onset_round=2)
        assert behavior.is_faulty  # counted in the fault budget from round 0
        value = np.array([1, 2])
        # Rounds 0 and 1: honest copies of the true value.
        assert behavior.transform_result(big_field, "n", value, rng).tolist() == [1, 2]
        assert behavior.transform_result(big_field, "n", value, rng).tolist() == [1, 2]
        # Round 2 onwards: the inner deviation takes over.
        assert behavior.transform_result(big_field, "n", value, rng).tolist() == [8, 9]
        assert behavior.transform_result(big_field, "n", value, rng).tolist() == [8, 9]

    def test_fault_onset_behavior_defers_inner_delay(self, big_field, rng):
        behavior = FaultOnsetBehavior(DelayingBehavior(), onset_round=1)
        behavior.transform_result(big_field, "n", np.array([5]), rng)
        assert not behavior.delays_message()  # round 0 was honest
        behavior.transform_result(big_field, "n", np.array([5]), rng)
        assert behavior.delays_message()  # onset reached

    def test_fault_onset_behavior_rejects_negative_onset(self):
        with pytest.raises(ValueError):
            FaultOnsetBehavior(RandomGarbageBehavior(), onset_round=-1)

    def test_faulty_reports_transform_only_faulty_rows(self, big_field):
        rows = np.array([[1, 2], [3, 4], [5, 6], [7, 8]])
        senders = [
            (0, "a", CorruptResultBehavior(offset=1)),
            (2, "c", SilentBehavior()),
            (3, "d", DelayingBehavior()),
        ]
        reports = faulty_reports(big_field, senders, rows, np.random.default_rng(0))
        assert reports.keys() == {0, 2, 3}
        assert reports[0].tolist() == [2, 3]
        assert reports[2] is None and reports[3] is None  # silent, too late

    def test_faulty_reports_draw_in_sender_order(self, big_field):
        rows = np.zeros((3, 2), dtype=np.int64)
        senders = [(2, "c", RandomGarbageBehavior()), (0, "a", RandomGarbageBehavior())]
        reports = faulty_reports(big_field, senders, rows, np.random.default_rng(5))
        stream = np.random.default_rng(5)
        first = big_field.random_array(stream, (2,))
        second = big_field.random_array(stream, (2,))
        assert reports[2].tolist() == first.tolist()
        assert reports[0].tolist() == second.tolist()
