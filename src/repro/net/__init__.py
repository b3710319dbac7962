"""Simulated network substrate.

The paper assumes a fully connected network of compute nodes with
authenticated (signed) messages and one of two timing models:

* **synchronous** — a fixed, known upper bound on message latency;
* **partially synchronous** — unbounded delay until an unknown global
  stabilisation time (GST), synchronous afterwards.

This package provides a simulated network with both delay models, signed
messages (simulated authentication: forging another node's signature is
detectable, exactly the "authenticated Byzantine fault" assumption), the
message plane every consensus copy is sent and collected through, node
mailboxes holding each late or targeted copy under its delivery time, and a
library of Byzantine behaviours that the protocol layers inject into faulty
nodes (wrong results, silence, equivocation, delays, consensus misbehaviour).
"""

from repro.net.message import Message, MessageKind
from repro.net.signatures import KeyRegistry
from repro.net.latency import (
    DelayModel,
    SynchronousDelay,
    PartiallySynchronousDelay,
)
from repro.net.network import SimulatedNetwork
from repro.net.byzantine import (
    ByzantineBehavior,
    HonestBehavior,
    CorruptResultBehavior,
    SilentBehavior,
    EquivocatingBehavior,
    DelayingBehavior,
    RandomGarbageBehavior,
    behavior_from_name,
)

__all__ = [
    "Message",
    "MessageKind",
    "KeyRegistry",
    "DelayModel",
    "SynchronousDelay",
    "PartiallySynchronousDelay",
    "SimulatedNetwork",
    "ByzantineBehavior",
    "HonestBehavior",
    "CorruptResultBehavior",
    "SilentBehavior",
    "EquivocatingBehavior",
    "DelayingBehavior",
    "RandomGarbageBehavior",
    "behavior_from_name",
]
