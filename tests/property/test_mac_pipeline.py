"""Property tests for the MAC pipeline (``repro.net.signatures``).

The pipeline computes what is a pure function of its input once — the
canonical bytes of a payload per interned ref, the HMAC key schedule per
identity — and nothing else: every signature is still the HMAC-SHA256 hex
digest of ``repr(message.signing_view())`` under the signer's key, and every
verification still recomputes that MAC under the *claimed* sender's key.
These tests pin both halves for arbitrary payloads, senders, kinds and
rounds: the batch and scalar entry points agree with each other and with the
literal ``hmac`` formula, and a replaced payload, a signature lifted onto
another sender, a wrong round or kind and a ``sign_as`` forgery are each
rejected — also when the shared table already holds the honest entry the
forgery imitates.
"""

import hashlib
import hmac

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.latency import SynchronousDelay
from repro.net.message import Message, MessageKind, PayloadTable, canonical_payload
from repro.net.network import MessagePlane, SimulatedNetwork
from repro.net.signatures import KeyRegistry

relaxed = settings(max_examples=60, deadline=None)

# Quotes, backslashes and non-ASCII letters exercise repr()'s escaping and the
# UTF-8 encoding; st.text() never draws lone surrogates, which no str.encode()
# accepts on either side of the refactor.
texts = st.text(
    alphabet=st.one_of(st.sampled_from("'\"\\ \n,()"), st.characters()), max_size=12
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    texts,
    st.lists(st.integers(-(2**40), 2**40), max_size=6).map(
        lambda values: np.array(values, dtype=np.int64).reshape(-1)
    ),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=12,
)
senders = st.one_of(st.sampled_from(["node-0", "node-1", "it's", 'say "hi"']), texts)
kinds = st.sampled_from(list(MessageKind))
rounds = st.integers(-(2**40), 2**70)


def _message(sender, kind, round_index, payload, signature=None):
    return Message(
        sender=sender,
        recipient="*",
        kind=kind,
        round_index=round_index,
        payload=payload,
        signature=signature,
    )


def _reference_mac(keys, signer, message):
    """The signature formula, literally: HMAC-SHA256 over the view's repr."""
    canonical = repr(message.signing_view()).encode()
    return hmac.new(keys.register(signer), canonical, hashlib.sha256).hexdigest()


class TestSignaturesAreTheSameBytes:
    @relaxed
    @given(sender=senders, kind=kinds, round_index=rounds, payload=payloads)
    def test_head_plus_payload_bytes_is_the_signing_view_repr(
        self, sender, kind, round_index, payload
    ):
        message = _message(sender, kind, round_index, payload)
        assert (
            message.signing_head() + canonical_payload(payload)
            == repr(message.signing_view()).encode()
        )

    @relaxed
    @given(
        actions=st.lists(st.tuples(senders, kinds, rounds, payloads), min_size=1, max_size=6),
        shared=st.booleans(),
    )
    def test_batch_scalar_and_reference_signatures_agree(self, actions, shared):
        if shared:  # one payload object across the phase, as a broadcast has
            actions = [(s, k, r, actions[0][3]) for s, k, r, _ in actions]
        keys = KeyRegistry(secret_seed=3)
        table = PayloadTable()
        batch = [_message(*action) for action in actions]
        scalar = [_message(*action) for action in actions]
        keys.sign_batch(batch, table)
        for message in scalar:
            keys.sign(message)
        for a, b in zip(batch, scalar):
            assert a.signature == b.signature == _reference_mac(keys, a.sender, a)
        assert keys.verify_batch(batch, table) == [True] * len(batch)
        assert [keys.verify(m) for m in batch] == [True] * len(batch)
        if shared:
            assert len(table) == 1


class TestForgeriesAreRejected:
    @relaxed
    @given(
        sender=senders,
        other=senders,
        kind=kinds,
        other_kind=kinds,
        round_index=rounds,
        payload=payloads,
        other_payload=payloads,
    )
    def test_every_tampering_fails_in_batch_and_scalar(
        self, sender, other, kind, other_kind, round_index, payload, other_payload
    ):
        keys = KeyRegistry()
        table = PayloadTable()
        honest = _message(sender, kind, round_index, payload)
        keys.sign_batch([honest], table)
        keys.register(other)
        signature = honest.signature
        tampered = [
            honest,
            _message(sender, kind, round_index, other_payload, signature),  # replaced payload
            _message(other, kind, round_index, payload, signature),  # lifted signature
            _message(sender, kind, round_index + 1, payload, signature),  # wrong round
            _message(sender, other_kind, round_index, payload, signature),  # wrong kind
            # ``other`` signs with its own key while claiming to be ``sender``.
            keys.sign_as(_message(other, kind, round_index, payload), sender),
            _message(sender, kind, round_index, payload, None),  # unsigned
            _message(f"{sender}-unregistered", kind, round_index, payload, signature),
        ]
        same_content = canonical_payload(other_payload) == canonical_payload(payload)
        expected = [
            True,
            same_content,
            other == sender,
            False,
            other_kind == kind,
            other == sender,
            False,
            False,
        ]
        # The table already holds the honest (sender, payload) entry every
        # forgery above imitates; sharing it must not share the verdict.
        assert keys.verify_batch(tampered, table) == expected
        assert keys.verify_batch(tampered) == expected
        assert [keys.verify(m) for m in tampered] == expected

    @relaxed
    @given(payload=payloads, replacement=payloads)
    def test_replaced_payload_cannot_alias_a_table_entry(self, payload, replacement):
        keys = KeyRegistry()
        table = PayloadTable()
        message = _message("node-0", MessageKind.CONSENSUS_PROPOSAL, 0, payload)
        keys.sign_batch([message], table)
        same_content = canonical_payload(replacement) == canonical_payload(payload)
        # Drop the caller's reference: only the table keeps the old object
        # alive, which is exactly what stops its id() from being reused.
        del payload
        message.payload = replacement
        assert keys.verify_batch([message], table) == [same_content]


class _ForgingRegistry(KeyRegistry):
    """Signs honestly, then swaps ``victim``'s signature for ``attacker``'s forgery."""

    def __init__(self, victim, attacker):
        super().__init__()
        self.victim, self.attacker = victim, attacker

    def sign_batch(self, messages, table=None):
        super().sign_batch(messages, table)
        for message in messages:
            if message.sender == self.victim:
                message.sender = self.attacker
                message.signature = self.sign_as(message, self.victim).signature
                message.sender = self.victim


class TestForgedBroadcastOnThePlane:
    @settings(max_examples=20, deadline=None)
    @given(
        num_nodes=st.integers(2, 9),
        data=st.data(),
    )
    def test_forged_action_is_rejected_everywhere_but_at_its_sender(self, num_nodes, data):
        node_ids = [f"node-{i}" for i in range(num_nodes)]
        victim = data.draw(st.sampled_from(node_ids), label="victim")
        attacker = data.draw(
            st.sampled_from([n for n in node_ids if n != victim]), label="attacker"
        )
        network = SimulatedNetwork(
            delay_model=SynchronousDelay(),
            rng=np.random.default_rng(1),
            key_registry=_ForgingRegistry(victim, attacker),
        )
        for node_id in node_ids:
            network.register(node_id)
        plane = MessagePlane(network, node_ids)
        # Every node broadcasts the same payload object, so the forged action's
        # (sender, ref) coincides with entries honest actions put in the table.
        payload = {"commands": [[1, 2]], "clients": ["c"], "sequences": [0]}
        ref = plane.register(payload)
        templates = [
            _message(node_id, MessageKind.CONSENSUS_VOTE, 4, payload)
            for node_id in node_ids
        ]
        batch = plane.broadcast_phase(templates, [ref] * num_nodes)
        victim_index = node_ids.index(victim)
        assert batch.valid.tolist() == [n != victim for n in node_ids]
        assert network.rejected_signatures == num_nodes - 1
        assert network.messages_sent == num_nodes * (num_nodes - 1)
        view = plane.collect_phase(batch, MessageKind.CONSENSUS_VOTE, 4)
        seen_forged = view.visible[victim_index]
        assert seen_forged.tolist() == [n == victim for n in node_ids]
        honest_rows = np.delete(view.visible, victim_index, axis=0)
        assert honest_rows.all()
        # The log records the forged copies as undelivered, like deliver_all.
        delivered = [r.delivered for r in network.delivery_log if r.message.sender == victim]
        assert delivered == [False] * (num_nodes - 1)
