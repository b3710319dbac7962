"""The lockstep CSM loop: one consensus instance and one per-node round per round.

Before the block drivers, a :class:`~repro.core.protocol.CSMProtocol` ran
each round on its own: the clients ``client:0..K-1`` submit one command per
machine, one per-copy consensus instance
(:func:`reference.consensus.decide_round`) decides that round alone, and the
per-node coded round of :mod:`reference.coded_round` executes it on the
protocol's engine.  The
block drivers ``run_rounds_batched``/``run_rounds_pipelined`` must record the
same commands, clients and outputs; only consensus-side fields (views,
message counts) and operation counts may differ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reference import coded_round, consensus
from repro.core.protocol import CSMProtocol
from repro.rounds import ProtocolRound


def submit_round(protocol: CSMProtocol, commands: np.ndarray) -> None:
    """Submit one command per machine under the ``client:k`` labels."""
    protocol._submit_round(
        commands, [f"client:{k}" for k in range(protocol.num_machines)]
    )


def run_round(protocol: CSMProtocol) -> ProtocolRound:
    """Decide the next round alone, execute it, and record it."""
    decisions = consensus.decide_round(protocol.consensus, len(protocol.history))
    sample = protocol._select_decision(decisions)
    result = coded_round.execute_round(protocol.engine, sample.commands)
    return protocol._record_round(sample.commands, sample.clients, result, sample.view)


def run_rounds(
    protocol: CSMProtocol, command_batches: Sequence[np.ndarray]
) -> list[ProtocolRound]:
    """Submit and run each round in turn."""
    records = []
    for batch in command_batches:
        submit_round(protocol, batch)
        records.append(run_round(protocol))
    return records
