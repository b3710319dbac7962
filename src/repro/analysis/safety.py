"""The replaying safety checker: the true machines live here, not in the engines.

An execution engine reports a round ``correct`` when its nodes and clients
can accept it — the coded round decoded within the radius, or every
replication client reached its matching-replies threshold.  Whether the
accepted values are the *true* ones is the question the paper's safety claim
answers (within the fault bound they always are), and no node can answer it.
:func:`replay_rounds` does, by replaying ``K`` uncoded machines over the
rounds in order.  A failed round advanced no state, so the replay skips it.

Beyond the fault bound the paper promises nothing, and a crafted corruption
can be delivered: a coded round that decodes to another codeword, or
colluding replicas that outvote an honest one.  The replay is what flags it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.machine.interface import StateMachine
from repro.rounds import RoundResult


@dataclass(frozen=True)
class SafetyReport:
    """What a replay of ``R`` rounds over ``K`` machines found.

    ``delivered[t]`` is round ``t``'s ``correct`` flag; ``wrong[t, k]`` marks
    a delivered round whose machine ``k`` output or state differs from the
    true machine's.
    """

    delivered: np.ndarray
    wrong: np.ndarray

    @property
    def right(self) -> np.ndarray:
        """Per round: delivered, and equal to the true machines."""
        return self.delivered & ~self.wrong.any(axis=1)

    @property
    def flagged_rounds(self) -> list[int]:
        """The delivered rounds that carry a wrong value."""
        return np.flatnonzero(self.wrong.any(axis=1)).tolist()


def replay_rounds(
    machine: StateMachine, rounds: Iterable[tuple[np.ndarray, RoundResult]]
) -> SafetyReport:
    """Replay the true machines over ``(commands, result)`` pairs, in order.

    Every machine starts from ``machine.initial_state``; a delivered round
    steps them on its ``(K, command_dim)`` commands and is compared with the
    outputs and states it reported.
    """
    delivered: list[bool] = []
    wrong: list[np.ndarray] = []
    states = None
    for commands, result in rounds:
        commands = machine.field.array(commands)
        if states is None:
            states = np.tile(machine.initial_state, (len(commands), 1))
        delivered.append(bool(result.correct))
        if not result.correct:
            wrong.append(np.zeros(len(commands), dtype=bool))
            continue
        states, outputs = machine.step_batch(states, commands)
        wrong.append(
            np.any(outputs != result.outputs, axis=1)
            | np.any(states != result.states, axis=1)
        )
    return SafetyReport(
        np.array(delivered, dtype=bool),
        np.array(wrong, dtype=bool) if wrong else np.zeros((0, 0), dtype=bool),
    )
