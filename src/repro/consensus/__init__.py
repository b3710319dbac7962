"""Consensus-phase protocols.

CSM reuses standard consensus machinery unchanged (the paper: "CSM uses the
same consensus protocols to decide on the input commands").  Two protocols
are provided, matching the two network models:

* :class:`~repro.consensus.broadcast.AuthenticatedBroadcastConsensus` — a
  signed leader-broadcast protocol in the style of the Byzantine Generals
  solution with signatures; tolerates any number ``b < N`` of faults for
  consistency in a synchronous network.
* :class:`~repro.consensus.pbft.PBFTConsensus` — a simplified three-phase
  PBFT (pre-prepare / prepare / commit) requiring ``N >= 3b + 1`` in a
  partially synchronous network.

Both decide, per round, on a vector of input commands — one per state
machine — drawn from the :class:`~repro.consensus.command_pool.CommandPool`
of client submissions, one consensus instance deciding a whole block of
rounds, and both report which client submitted each decided command so
outputs can be routed back.
"""

from repro.consensus.command_pool import CommandPool, SubmittedCommand
from repro.consensus.interface import ConsensusProtocol, ConsensusDecision
from repro.consensus.broadcast import AuthenticatedBroadcastConsensus
from repro.consensus.pbft import PBFTConsensus

__all__ = [
    "CommandPool",
    "SubmittedCommand",
    "ConsensusProtocol",
    "ConsensusDecision",
    "AuthenticatedBroadcastConsensus",
    "PBFTConsensus",
]
