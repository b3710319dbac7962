"""The Coded State Machine (CSM) — the paper's primary contribution.

The package is organised around four classes:

* :class:`~repro.core.config.CSMConfig` — validates an ``(N, K, d, mu/nu)``
  configuration against the Theorem 1 / Theorem 2 bounds and exposes the
  closed-form storage efficiency / security the configuration achieves.
* :class:`~repro.core.node.CSMNode` — one compute node: stores a single coded
  state vector, encodes its own coded command, executes the transition
  polynomial directly on coded data, and (optionally) decodes the results it
  receives from its peers.
* :class:`~repro.core.execution.CodedExecutionEngine` — drives the execution
  phase of one round across all nodes, injecting Byzantine behaviour and
  running the Reed–Solomon decoding; a round is correct when it decodes.
  Supports the synchronous and the partially synchronous (``N - b``
  responses, erasure + error) decoding rules.
* :class:`~repro.core.protocol.CSMProtocol` — the full protocol: client
  command submission, consensus phase over the simulated network, coded
  execution phase, and output delivery back to clients.
"""

from repro.core.config import CSMConfig
from repro.core.storage import CodedStateStore
from repro.core.node import CSMNode
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol, ProtocolRound

__all__ = [
    "CSMConfig",
    "CodedStateStore",
    "CSMNode",
    "CodedExecutionEngine",
    "CSMProtocol",
    "ProtocolRound",
]
