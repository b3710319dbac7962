"""The per-copy network: one message copy at a time over a shipped network.

Every consensus copy ships through :class:`~repro.net.network.MessagePlane`,
which signs, delays, fault-masks and tallies whole phases as arrays.  This
module is the path it must match bit for bit: :func:`send` and
:func:`broadcast` settle each copy on its own — sign and verify it, draw its
delay with :meth:`DelayModel.sample_delay`, apply the link faults pair by pair
(:func:`should_drop`), count it, and push a survivor into its recipient's
mailbox under its delivery time — and :func:`collect`/:func:`collect_all`
drain the mailboxes one window at a time.  The functions act on a
:class:`~repro.net.network.SimulatedNetwork`'s own state (clock, rng, keys,
link faults, mailboxes, counters), so the two paths run on twin networks and
must leave them in the same state.

Signing and verification go through the network's registry one message at a
time (:func:`sign`, :func:`verify`), so a registry a test makes misbehave
does so on both paths; :func:`mac` is the literal signature formula, which
:func:`sign_as` forges with.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import CSMError
from repro.net import network as shipped
from repro.net.message import Message, MessageKind, _normalise
from repro.net.network import PhaseView, SimulatedNetwork
from repro.net.signatures import KeyRegistry


@dataclass
class DeliveryRecord:
    """One attempted copy delivery, as a send returns it."""

    message: Message
    send_time: float
    delivery_time: float
    delivered: bool = True


# -- signatures ---------------------------------------------------------------------
class SignatureError(CSMError):
    """A message failed signature verification."""


def signing_view(message: Message) -> tuple:
    """The canonical tuple a signature covers — the recipient excluded."""
    return (
        message.sender,
        message.kind.value,
        int(message.round_index),
        _normalise(message.payload),
    )


def mac(keys: KeyRegistry, signer: str, message: Message) -> str:
    """The signature formula: HMAC-SHA256 of ``repr(signing_view)`` under ``signer``'s key."""
    canonical = repr(signing_view(message)).encode()
    return hmac.new(keys.register(signer), canonical, sha256).hexdigest()


def sign(keys: KeyRegistry, message: Message) -> Message:
    """Sign one message in place (and return it) with its sender's key."""
    keys.sign_batch([message])
    return message


def verify(keys: KeyRegistry, message: Message) -> bool:
    """Whether one message's signature matches its claimed sender."""
    return keys.verify_batch([message])[0]


def sign_as(keys: KeyRegistry, message: Message, forged_identity: str) -> Message:
    """A forgery attempt: ``message`` re-addressed as ``forged_identity``'s.

    The copy claims ``forged_identity`` as its sender but carries a MAC under
    the real sender's key, so it fails verification — why the
    authenticated-fault model rules impersonation out.
    """
    forged = Message(
        sender=forged_identity,
        recipient=message.recipient,
        kind=message.kind,
        round_index=message.round_index,
        payload=message.payload,
    )
    forged.signature = mac(keys, message.sender, forged)
    return forged


def require_valid(keys: KeyRegistry, message: Message) -> Message:
    """Raise :class:`SignatureError` unless the message verifies."""
    if not verify(keys, message):
        raise SignatureError(
            f"message from '{message.sender}' ({message.kind.value}) failed "
            "signature verification"
        )
    return message


# -- link faults --------------------------------------------------------------------
def should_drop(faults: shipped.NetworkFaultState, sender: str, recipient: str) -> bool:
    """Whether the configured faults sever this (directed) link."""
    if sender == recipient:
        return False
    if sender in faults.dropped_nodes or recipient in faults.dropped_nodes:
        return True
    if (sender, recipient) in faults.dropped_links:
        return True
    if faults.partition is not None:
        sender_group = recipient_group = None
        for group in faults.partition:
            if sender in group:
                sender_group = group
            if recipient in group:
                recipient_group = group
        if (
            sender_group is not None
            and recipient_group is not None
            and sender_group is not recipient_group
        ):
            return True
    return False


class NetworkFaultState(shipped.NetworkFaultState):
    """The shipped switchboard with its pairwise rule as a method.

    ``drop_mask`` must equal :func:`should_drop` for every pair.
    """

    should_drop = should_drop


# -- sending ------------------------------------------------------------------------
def participants(net: SimulatedNetwork) -> list[str]:
    return sorted(net._mailboxes)


def send(net: SimulatedNetwork, message: Message, sign: bool = True) -> DeliveryRecord:
    """Sign (unless pre-signed) and dispatch a message to its recipient."""
    net.mailbox(message.recipient)
    if sign or message.signature is None:
        net.keys.sign_batch([message])
    valid = verify(net.keys, message)
    delay = net.delay_model.sample_delay(net.now, net.rng)
    return _deliver(net, message, valid, net.now + delay)


def broadcast(
    net: SimulatedNetwork,
    message: Message,
    recipients: Iterable[str] | None = None,
    sign: bool = True,
) -> list[DeliveryRecord]:
    """Send a copy of the message to every recipient (default: every participant).

    A single signature covers all copies (the recipient is not part of the
    signed view), so a broadcast is signed once and verified once.  The
    sender's own copy lands at once without a delay draw; the other copies
    draw their delays, in recipient order, in one
    :meth:`DelayModel.sample_delays` call.  Every recipient is checked before
    anything is signed or drawn, so an unknown one leaves no trace.
    """
    targets = list(recipients) if recipients is not None else participants(net)
    for recipient in targets:
        net.mailbox(recipient)
    if sign or message.signature is None:
        net.keys.sign_batch([message])
    valid = verify(net.keys, message)
    now = net.now
    num_others = sum(1 for recipient in targets if recipient != message.sender)
    delivery_times = iter(
        (now + net.delay_model.sample_delays(now, net.rng, num_others)).tolist()
    )
    records = []
    for recipient in targets:
        copy = message.with_recipient(recipient)
        if recipient == message.sender:
            net.mailbox(recipient).push(now, copy)
            records.append(DeliveryRecord(copy, now, now))
        else:
            records.append(_deliver(net, copy, valid, next(delivery_times)))
    return records


def _deliver(
    net: SimulatedNetwork, copy: Message, valid: bool, delivery_time: float
) -> DeliveryRecord:
    """Settle one sent copy: count it, then reject, drop or deliver it.

    The verdict comes first — a copy whose MAC did not verify is rejected
    whatever the links say — then the link faults, which apply *after* the
    delay draw so (de)activating them never shifts the rng stream.
    """
    net.messages_sent += 1
    dropped = False
    if net.faults.active:
        delivery_time += net.faults.extra_delay
        dropped = should_drop(net.faults, copy.sender, copy.recipient)
    if not valid:
        net.rejected_signatures += 1
    elif dropped:
        net.faults.dropped_messages += 1
    else:
        net.mailbox(copy.recipient).push(delivery_time, copy)
    return DeliveryRecord(copy, net.now, delivery_time, delivered=valid and not dropped)


# -- receiving ----------------------------------------------------------------------
def collect(
    net: SimulatedNetwork,
    recipient: str,
    kind: MessageKind | None = None,
    round_index: int | None = None,
    timeout: float | None = None,
) -> list[Message]:
    """Advance time by ``timeout`` and return matching delivered messages."""
    mailbox = net.mailbox(recipient)
    return mailbox.drain(kind, round_index, net.close_window(timeout))


def collect_all(
    net: SimulatedNetwork,
    recipients: Iterable[str],
    kind: MessageKind | None = None,
    round_index: int | None = None,
    timeout: float | None = None,
) -> dict[str, list[Message]]:
    """Collect for many recipients over a single shared timeout window."""
    mailboxes = {recipient: net.mailbox(recipient) for recipient in recipients}
    deadline = net.close_window(timeout)
    return {
        recipient: mailbox.drain(kind, round_index, deadline)
        for recipient, mailbox in mailboxes.items()
    }


def messages_for(view: PhaseView, node_index: int) -> Iterator[tuple[Message, int]]:
    """Yield ``(message, payload_ref)`` visible at ``node_index``, in view order.

    The literal per-node walk the :class:`PhaseView` array queries answer for
    all nodes at once.
    """
    for a in np.nonzero(view.visible[:, node_index])[0]:
        yield view.templates[a], int(view.payload_ref[a])
    for message in view.stragglers[node_index]:
        yield message, view.plane.register(message.payload)


def stats(net: SimulatedNetwork) -> dict[str, float]:
    return {
        "messages_sent": net.messages_sent,
        "rejected_signatures": net.rejected_signatures,
        "simulated_time": net.now,
    }
