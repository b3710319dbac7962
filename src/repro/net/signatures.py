"""Simulated message authentication.

The paper assumes *authenticated* Byzantine faults: every message is
cryptographically signed, so impersonating another node is easily
detectable.  For a simulation we do not need real public-key cryptography —
we only need the two properties the proofs use:

1. an honest verifier can check that a message claimed to be from node ``i``
   really was produced with node ``i``'s key, and
2. a Byzantine node cannot produce a valid signature for another node.

Both are provided by keyed hashing (HMAC-style) with per-node secret keys
held by the :class:`KeyRegistry`.  Byzantine nodes in the simulation only
ever receive their *own* key, so any forgery attempt fails verification.
"""

from __future__ import annotations

import hmac
from hashlib import sha256
from typing import Iterable, Sequence

from repro.net.message import Message, PayloadTable

_BLOCK_SIZE = 64  # SHA-256 block size: HMAC pads the key to it
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


class KeyRegistry:
    """Issues per-node keys and signs/verifies messages with them.

    A signature is the HMAC-SHA256 hex digest, under the signer's key, of
    the message's canonical bytes (:meth:`Message.signing_head` followed by
    :func:`~repro.net.message.canonical_payload`).  What is a
    pure function of its input is computed once: the HMAC key schedule once
    per identity (a pair of keyed SHA-256 states, copied per MAC), the
    payload's canonical bytes once per distinct payload when the caller
    shares a :class:`~repro.net.message.PayloadTable`.  The MAC itself is
    computed once per signature and once more per verification — a
    verification is always a recomputation under the *claimed* sender's
    key, never a lookup of what signing produced.
    """

    def __init__(self, secret_seed: int = 0) -> None:
        self._secret_seed = int(secret_seed)
        self._keys: dict[str, bytes] = {}
        # identity -> (inner, outer) SHA-256 states with the padded key
        # already absorbed; HMAC(key, m) = outer(inner(m)).
        self._keyed: dict[str, tuple] = {}

    def register(self, node_id: str) -> bytes:
        """Create (or return) the secret key for ``node_id``."""
        node_id = str(node_id)
        if node_id not in self._keys:
            material = f"key:{self._secret_seed}:{node_id}".encode()
            key = sha256(material).digest()
            padded = key.ljust(_BLOCK_SIZE, b"\0")
            self._keys[node_id] = key
            self._keyed[node_id] = (
                sha256(padded.translate(_INNER_PAD)),
                sha256(padded.translate(_OUTER_PAD)),
            )
        return self._keys[node_id]

    # -- signing and verification ----------------------------------------------------
    def sign_batch(
        self, messages: Iterable[Message], table: PayloadTable | None = None
    ) -> None:
        """Sign many messages in place, each with its own sender's key.

        The payload's canonical bytes are built once per distinct payload
        object in ``table`` (a table private to this call when none is
        shared) instead of once per message.
        """
        table = PayloadTable() if table is None else table
        for message in messages:
            self.register(message.sender)
            message.signature = self._mac(
                message.sender, message, table.canonical_of(message.payload)
            )

    def verify_batch(
        self, messages: Sequence[Message], table: PayloadTable | None = None
    ) -> list[bool]:
        """Whether each message's signature matches its claimed sender.

        Every expected MAC is recomputed from the claimed sender's registered
        key over the message as it stands; ``table`` shares canonical payload
        bytes only (see :meth:`sign_batch`).
        """
        table = PayloadTable() if table is None else table
        return [
            message.signature is not None
            and message.sender in self._keys
            and hmac.compare_digest(
                self._mac(message.sender, message, table.canonical_of(message.payload)),
                message.signature,
            )
            for message in messages
        ]

    # -- internals ------------------------------------------------------------------
    def _mac(self, identity: str, message: Message, payload_bytes: bytes) -> str:
        """HMAC-SHA256, under ``identity``'s key, of ``message``'s canonical bytes.

        ``payload_bytes`` is :func:`~repro.net.message.canonical_payload` of
        the message's payload, which the caller may hold from an earlier MAC
        of the same payload object.
        """
        inner, outer = self._keyed[identity]
        inner = inner.copy()
        inner.update(message.signing_head())
        inner.update(payload_bytes)
        outer = outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()
