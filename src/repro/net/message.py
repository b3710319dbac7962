"""Messages exchanged between nodes and clients.

All inter-node communication in the protocols is carried by
:class:`Message` objects.  A message is signed by its sender (see
:mod:`repro.net.signatures`); the "authenticated Byzantine fault" model of
the paper means a faulty node can say anything *in its own name* but cannot
forge another node's signature without detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np


class MessageKind(str, Enum):
    """Tags identifying the protocol phase a message belongs to."""

    # Client traffic
    CLIENT_COMMAND = "client-command"
    CLIENT_RESPONSE = "client-response"
    # Consensus phase
    CONSENSUS_PROPOSAL = "consensus-proposal"
    CONSENSUS_VOTE = "consensus-vote"
    CONSENSUS_PREPARE = "consensus-prepare"
    CONSENSUS_COMMIT = "consensus-commit"
    # Execution phase
    CODED_RESULT = "coded-result"
    REPLICA_RESULT = "replica-result"
    # INTERMIX / delegation
    WORKER_RESULT = "worker-result"
    AUDIT_QUERY = "audit-query"
    AUDIT_RESPONSE = "audit-response"
    AUDIT_VERDICT = "audit-verdict"


@dataclass
class Message:
    """A single signed message.

    Attributes
    ----------
    sender:
        Identifier of the sending node (or ``client:<id>`` for clients).
    recipient:
        Identifier of the receiving node, or ``"*"`` for broadcast.
    kind:
        Protocol phase tag.
    round_index:
        The state machine round the message belongs to.
    payload:
        Arbitrary JSON-like content (numpy arrays are allowed; they are
        normalised to tuples when the signature digest is computed).
    signature:
        Filled in by :class:`~repro.net.signatures.KeyRegistry.sign`.
    """

    sender: str
    recipient: str
    kind: MessageKind
    round_index: int
    payload: Any
    signature: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def signing_view(self) -> tuple:
        """The canonical tuple covered by the signature.

        The recipient is deliberately *excluded* so that a broadcast message
        carries one signature valid for every copy; equivocation (sending
        different payloads to different recipients) therefore produces two
        validly-signed but conflicting messages — which is exactly what the
        protocols must tolerate or detect, as in the paper.
        """
        return (
            self.sender,
            self.kind.value,
            int(self.round_index),
            _normalise(self.payload),
        )

    def signing_head(self) -> bytes:
        """The signed bytes that precede the payload.

        ``signing_head() + canonical_payload(payload)`` is byte-equal to
        ``repr(signing_view()).encode()``: the repr of a tuple is its
        elements' reprs joined by ``", "``, and UTF-8 encoding distributes
        over concatenation.  Splitting it here lets the payload's share be
        computed once per distinct payload (:class:`PayloadTable`).
        """
        return (
            f"({self.sender!r}, {self.kind._value_!r}, {int(self.round_index)!r}, "
        ).encode()

    def with_recipient(self, recipient: str) -> "Message":
        """Copy of this message addressed to a specific recipient."""
        return Message(
            sender=self.sender,
            recipient=recipient,
            kind=self.kind,
            round_index=self.round_index,
            payload=self.payload,
            signature=self.signature,
            metadata=dict(self.metadata),
        )


@dataclass
class PhaseBatch:
    """Struct-of-arrays view of one consensus phase's broadcasts.

    One :class:`Message` template per broadcast *action* (there are at most
    ``N`` actions per phase — one per sender) plus columns over the
    ``A x N`` action-by-recipient copy grid.  The vectorised message plane
    tallies quorums and visibility directly on these arrays instead of
    materialising ``A * N`` message copies and draining mailboxes.

    Attributes
    ----------
    kind / round_index / send_time:
        Phase identity: every action in a batch shares them.
    templates:
        The signed broadcast messages (recipient ``"*"``), in dispatch order.
    sender_index:
        ``(A,)`` — index of each action's sender in the plane's node order.
    views:
        ``(A,)`` — the consensus view each action was sent in.
    payload_ref:
        ``(A,)`` — index of each action's payload in the plane's payload
        table (the batch analogue of the digest column).
    valid:
        ``(A,)`` bool — whether the action's signature verified; an invalid
        broadcast still reaches the sender's own mailbox but no other node.
    delivery_time:
        ``(A, N)`` — per-copy delivery times; the sender's own copy is
        delivered at ``send_time`` without consuming an rng draw.
    """

    kind: "MessageKind"
    round_index: int
    send_time: float
    templates: list["Message"]
    sender_index: np.ndarray
    views: np.ndarray
    payload_ref: np.ndarray
    valid: np.ndarray
    delivery_time: np.ndarray

    @property
    def num_actions(self) -> int:
        return len(self.templates)

    @property
    def num_nodes(self) -> int:
        return int(self.delivery_time.shape[1]) if self.num_actions else 0

    def self_mask(self) -> np.ndarray:
        """``(A, N)`` bool — True at each action's own-sender copy."""
        mask = np.zeros(self.delivery_time.shape, dtype=bool)
        if self.num_actions:
            mask[np.arange(self.num_actions), self.sender_index] = True
        return mask


class PayloadTable:
    """Payload objects interned by identity, with their canonical signed bytes.

    A consensus phase shares one payload object across a whole broadcast (and
    across the echo/prepare/commit votes for it), so everything that is a
    pure function of the payload's content is computed once per *ref* — the
    small integer :meth:`intern` hands out — instead of once per copy.  The
    table keeps every interned object alive, so an ``id`` cannot be reused
    (and alias another payload's entry) while the table exists.  Payloads
    are treated as immutable once interned.
    """

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self._ref_by_id: dict[int, int] = {}
        self._canonical: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.payloads)

    def intern(self, payload: Any) -> int:
        """The ref of ``payload``, registering the object on first sight."""
        ref = self._ref_by_id.get(id(payload))
        if ref is None:
            ref = len(self.payloads)
            self.payloads.append(payload)
            self._ref_by_id[id(payload)] = ref
        return ref

    def canonical_of(self, payload: Any) -> bytes:
        """:func:`canonical_payload` of ``payload``, computed once per ref."""
        ref = self.intern(payload)
        data = self._canonical.get(ref)
        if data is None:
            data = self._canonical[ref] = canonical_payload(payload)
        return data


def canonical_payload(payload: Any) -> bytes:
    """The payload's share of the signed bytes (see :meth:`Message.signing_head`)."""
    return f"{_normalise(payload)!r})".encode()


def _normalise(value: Any) -> Any:
    """Convert payloads into hashable, deterministic structures for signing."""
    # Leaves first: they are most of any payload (bool is an int).
    if isinstance(value, (int, str, float)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return tuple([_normalise(v) for v in value])
    if isinstance(value, dict):
        return tuple(sorted((str(k), _normalise(v)) for k, v in value.items()))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, tuple(int(v) for v in value.reshape(-1)))
    return str(value)
