"""Round-protocol facade over the replication baseline engines.

The replication engines (:class:`~repro.replication.full.FullReplicationSMR`,
:class:`~repro.replication.partial.PartialReplicationSMR`) execute rounds but
keep no client-facing history — the experiment harnesses used to drive them
directly and interpret the raw :class:`~repro.replication.base.RoundResult`
records.  :class:`ReplicationProtocol` wraps any such engine in the shared
:class:`~repro.rounds.RoundProtocol` surface, so the client-session service
(:mod:`repro.service`) can serve ragged traffic over a replication backend
exactly as it does over the coded :class:`~repro.core.protocol.CSMProtocol`:
same command tickets, same verified-only delivery, same failure book-keeping.

The baselines have no consensus phase of their own in this harness (the
paper runs the identical consensus protocol in front of every scheme, so the
comparison isolates the execution phase); the facade therefore records every
round with ``consensus_views = 0``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rounds import ProtocolRound, RoundProtocol


class ReplicationProtocol(RoundProtocol):
    """Drives a replication execution engine through the round-protocol API.

    Parameters
    ----------
    engine:
        Any engine exposing the :class:`~repro.replication.base.\
BatchExecutionMixin` surface (``machine``, ``num_machines``,
        ``execute_rounds``) — the full- and partial-replication baselines,
        or the coded engine itself when consensus is out of scope.
    """

    def __init__(self, engine) -> None:
        for attr in ("machine", "num_machines", "execute_rounds"):
            if not hasattr(engine, attr):
                raise ConfigurationError(
                    f"engine {type(engine).__name__} lacks the round-execution "
                    f"surface (missing {attr!r})"
                )
        self.engine = engine
        self.machine = engine.machine
        self._init_round_state()

    @property
    def num_machines(self) -> int:
        return int(self.engine.num_machines)

    def run_rounds_batched(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list[ProtocolRound]:
        """Execute ``B`` pre-grouped rounds on the wrapped engine, in order.

        Every batch is validated *before* any round executes, so a malformed
        batch fails fast instead of leaving earlier rounds half-recorded.
        ``client_rounds`` attributes each machine's slot to the submitting
        client (the service's session ids); without it the legacy
        ``client:k`` labels are used.
        """
        batches, client_rounds = self._canonical_batches(command_batches, client_rounds)
        if not batches:
            return []
        results = self.engine.execute_rounds(np.stack(batches))
        return [
            self._record_round(commands, clients, result)
            for commands, clients, result in zip(batches, client_rounds, results)
        ]
