"""Common consensus-protocol interface and the decision record.

The execution phases (replicated or coded) only need two things from
consensus: the agreed command vector ``(X_1(t), ..., X_K(t))`` for each round
and the identity of the client that submitted each command.  One consensus
instance decides a *block* of consecutive rounds (PBFT's request batching);
both protocols return one :class:`ConsensusDecision` per round of the block
carrying exactly that, plus diagnostics used by tests to verify the validity
/ consistency properties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.consensus.command_pool import CommandPool, SubmittedCommand
from repro.exceptions import ConsensusError
from repro.net.byzantine import (
    HONEST,
    ByzantineBehavior,
    DelayingBehavior,
    EquivocatingBehavior,
    SilentBehavior,
)
from repro.net.message import Message, MessageKind, PhaseBatch
from repro.net.network import MessagePlane, SimulatedNetwork
from repro.rng import default_stream


@dataclass
class ConsensusDecision:
    """The outcome of one round of a decided block at one (honest) node.

    Attributes
    ----------
    round_index:
        The state-machine round the decision is for.
    commands:
        Array of shape ``(K, command_dim)``: the agreed input commands.
    clients:
        Length-``K`` list of client identifiers (``m_k^t``).
    selected:
        The underlying :class:`SubmittedCommand` objects.
    leader:
        The node that acted as leader/primary for the block.
    view:
        The view number in which the block was decided (0 unless the
        initial leader misbehaved and a view change occurred).
    """

    round_index: int
    commands: np.ndarray
    clients: list[str]
    selected: list[SubmittedCommand] = field(default_factory=list)
    leader: str = ""
    view: int = 0

    def command_tuple(self) -> tuple[tuple[int, ...], ...]:
        """Hashable representation used to compare decisions across nodes.

        Memoised: decisions are immutable once returned, and the vectorised
        consensus plane shares one decision object across all honest nodes,
        so consistency checks and the protocol layer's decision selection
        hit the cache instead of re-tupling the command array per node.
        """
        cached = self.__dict__.get("_command_tuple")
        if cached is None:
            cached = tuple(map(tuple, np.asarray(self.commands).tolist()))
            self.__dict__["_command_tuple"] = cached
        return cached


@dataclass
class PlaneRounds:
    """What one :meth:`ConsensusProtocol.decide_rounds` call holds fixed on the plane.

    The fault plane only swaps behaviours between calls, so who is honest is
    read once per call instead of once per node per phase.
    """

    plane: MessagePlane
    #: ``(N,)`` bool, in node order — the nodes that follow the protocol.
    honest: np.ndarray
    #: The same nodes as ids, in node order.
    honest_ids: list[str]
    #: Payload ref -> proposal validity against the one block the call
    #: decides (the pool only changes once that block is decided).
    validity: dict[int, bool] = field(default_factory=dict)


class ConsensusProtocol(ABC):
    """A protocol that the honest nodes run to agree on a block of rounds' commands.

    Everything the two protocols share lives here: the node/pool/behaviour
    plumbing, round-robin leader rotation, the block driver (peek the pool,
    try views until one decides the block, mark its entries executed), the
    proposal a leader — honest or Byzantine — puts on the wire, proposal
    validity and the decision records.  A protocol supplies its fault
    tolerance, its view budget, how a default-Byzantine leader forges a
    proposal, and the body of one view, :meth:`_attempt_view`: one
    struct-of-arrays batch per phase on the message plane, link faults
    included.

    Parameters
    ----------
    network:
        The simulated network all nodes are registered on.
    node_ids:
        Ordered list of the ``N`` compute node identifiers.
    pool:
        The shared pool of client-submitted commands (clients broadcast to
        every node, so all honest nodes hold the same pool contents).
    behaviors:
        Mapping from node id to its :class:`ByzantineBehavior`; missing nodes
        are honest.
    """

    #: Rounds decided while a link fault (drop, partition or added delay)
    #: was live.  Such rounds run on the message plane like any other; the
    #: counter keeps them observable in experiment reports.
    fast_path_disabled: int = 0

    #: Views a block may try before the driver gives up.
    max_views: int

    #: ``ConsensusError`` text when ``max_views`` views all failed
    #: (formatted with the block's first ``round_index``, its ``count`` of
    #: rounds and ``max_views``).
    _views_exhausted_text: str

    def __init__(
        self,
        network: SimulatedNetwork,
        node_ids: list[str],
        pool: CommandPool,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not node_ids:
            raise ConsensusError("consensus needs at least one node")
        self.network = network
        self.node_ids = list(node_ids)
        self.pool = pool
        self.behaviors = dict(behaviors or {})
        self.rng = rng if rng is not None else default_stream()
        for node_id in self.node_ids:
            self.network.register(node_id)

    # -- protocol properties ------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    @abstractmethod
    def fault_tolerance(self) -> int:
        """Maximum number of Byzantine nodes the protocol tolerates."""

    def behavior_of(self, node_id: str) -> ByzantineBehavior:
        return self.behaviors.get(node_id, HONEST)

    def leader_for(self, round_index: int, view: int) -> str:
        """The node leading ``view`` of ``round_index`` (round-robin rotation)."""
        return self.node_ids[(round_index + view) % self.num_nodes]

    # -- the block driver ---------------------------------------------------------------
    def decide_rounds(
        self, first_round_index: int, count: int
    ) -> list[dict[str, ConsensusDecision]]:
        """Decide the block of ``count`` rounds starting at ``first_round_index``.

        One consensus instance decides the whole block (PBFT's request
        batching): the leader of ``leader_for(first_round_index, view)``
        proposes the first ``count`` pending entries of every machine, and
        one digest, one vote payload and one signature per action cover all
        ``count`` rounds; a failed view fails the whole block.  Every client
        command of the block must already sit in the pool — validity binds
        each row to its pool *position*, so later rounds' entries cannot
        stand in for earlier ones.  The result is one decision map per round,
        in round order, each mapping every *honest* node id to its decision
        and carrying the block's view; tests check the paper's consistency
        property on the equal :meth:`ConsensusDecision.command_tuple` of
        those decisions.

        Views are tried in turn until one decides the block.  Every phase
        runs on the **message plane** (:class:`~repro.net.network.MessagePlane`):
        one struct-of-arrays batch per phase, batch signing/verification,
        one vectorised delay draw per phase and array quorum tallies instead
        of per-copy messages and mailbox drains.  The plane applies live link
        faults (drops, partitions, added latency from the fault-injection
        plane) to each phase's copies itself; :attr:`fast_path_disabled`
        counts the rounds decided while a link fault was live.
        """
        honest = [not self.behavior_of(n).is_faulty for n in self.node_ids]
        on_plane = PlaneRounds(
            plane=MessagePlane(self.network, self.node_ids),
            honest=np.array(honest, dtype=bool),
            honest_ids=[n for n, ok in zip(self.node_ids, honest) if ok],
        )
        if self.network.faults.active:
            self.fast_path_disabled += count
        selected = self.pool.peek_block(count)
        for view in range(self.max_views):
            leader = self.leader_for(first_round_index, view)
            decisions = self._attempt_view(
                first_round_index, view, leader, selected, on_plane
            )
            if decisions:
                # Remove the decided commands from the pool exactly once.
                for round_decisions in decisions:
                    for entry in next(iter(round_decisions.values())).selected:
                        self.pool.mark_executed(entry.machine_index, entry)
                # Copies of this block still in a mailbox (late ones, losing
                # views') can never be collected again: drop the dead letters.
                self.network.discard_through(
                    first_round_index + count - 1, self.node_ids
                )
                return decisions
        raise ConsensusError(
            self._views_exhausted_text.format(
                round_index=first_round_index, count=count, max_views=self.max_views
            )
        )

    # One view decides the block whose first round is ``round_index`` and
    # whose pending entries are ``selected`` (round-major, see peek_block);
    # every message of the instance carries ``round_index``.
    @abstractmethod
    def _attempt_view(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        on_plane: PlaneRounds,
    ) -> list[dict[str, ConsensusDecision]]:
        """One view on the message plane; per-round decision maps, ``[]`` when it fails."""

    # -- the leader's proposal ------------------------------------------------------------
    @staticmethod
    def _payload_from_selection(selected: list[SubmittedCommand]) -> dict:
        # One row per block entry, round-major.  Sequences ride along so the
        # decided entries can be removed from the pool keyed on their unique
        # submission sequence (mark_executed); the validity check binds them
        # to pool positions, so they cannot be forged or equivocated on.
        return {
            "commands": [list(entry.command) for entry in selected],
            "clients": [entry.client_id for entry in selected],
            "sequences": [entry.sequence for entry in selected],
        }

    @abstractmethod
    def _forged_payload(self, payload: dict) -> dict:
        """What a default-Byzantine leader proposes instead of ``payload``."""

    def _proposal_actions(
        self, round_index: int, view: int, leader: str, selected: list[SubmittedCommand]
    ) -> tuple[list[Message], list[Message]]:
        """The leader's proposal step as ``(broadcasts, targeted sends)``.

        A behavior either broadcasts or equivocates via targeted sends, never
        both.
        """

        def proposal(recipient: str, body: dict) -> Message:
            return Message(
                sender=leader,
                recipient=recipient,
                kind=MessageKind.CONSENSUS_PROPOSAL,
                round_index=round_index,
                payload=body,
                metadata={"view": view},
            )

        payload = self._payload_from_selection(selected)
        behavior = self.behavior_of(leader)
        if not behavior.is_faulty:
            return [proposal("*", payload)], []
        if isinstance(behavior, (SilentBehavior, DelayingBehavior)):
            return [], []  # no proposal this view
        if isinstance(behavior, EquivocatingBehavior):
            # Different (still validly signed) proposals to different halves.
            alt = dict(payload)
            alt["commands"] = [[int(v) + 1 for v in row] for row in payload["commands"]]
            midpoint = self.num_nodes // 2
            return [], [
                proposal(node_id, payload if index < midpoint else alt)
                for index, node_id in enumerate(self.node_ids)
            ]
        return [proposal("*", self._forged_payload(payload))], []

    def _propose_on_plane(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        plane: MessagePlane,
    ) -> PhaseBatch | None:
        """Dispatch the leader's proposal on the plane.

        A broadcast proposal is the phase batch returned; targeted sends go
        out through :meth:`MessagePlane.send_targeted` and surface at
        collection as stragglers.
        """
        broadcasts, sends = self._proposal_actions(round_index, view, leader, selected)
        if sends:
            plane.send_targeted(sends)
        refs = [plane.register(message.payload) for message in broadcasts]
        return plane.broadcast_phase(broadcasts, refs)

    # -- validity and the decision records -----------------------------------------------
    @staticmethod
    def _is_valid_proposal(payload: dict, selected: list[SubmittedCommand]) -> bool:
        """Validity binds by position.

        Row ``(b, k)`` of a block proposal (entry ``b * K + k``) must be
        machine ``k``'s ``b``-th pending entry — :meth:`CommandPool.peek_block`
        order — with the same sequence, command and client.  Sequences are
        not covered by digests, so this is what keeps a leader from forging,
        repeating or reordering them, or from promoting a later round's
        genuine entry into an earlier slot: such a proposal is invalid (a
        view change) instead of derailing ``mark_executed`` after the
        decision.  A match also proves the client submitted the command, so
        the pool keeps no record of entries once they leave it.
        """
        commands = payload.get("commands")
        clients = payload.get("clients")
        sequences = payload.get("sequences")
        if commands is None or clients is None or sequences is None:
            return False
        if not len(commands) == len(clients) == len(sequences) == len(selected):
            return False
        return all(
            sequence == entry.sequence
            and client == entry.client_id
            and tuple(command) == entry.command
            for entry, command, client, sequence in zip(
                selected, commands, clients, sequences
            )
        )

    def _ref_valid(
        self, ref: int, selected: list[SubmittedCommand], on_plane: PlaneRounds
    ) -> bool:
        cached = on_plane.validity.get(ref)
        if cached is None:
            cached = self._is_valid_proposal(on_plane.plane.payload(ref), selected)
            on_plane.validity[ref] = cached
        return cached

    def _decisions(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        decided: Iterable[tuple[str, dict]],
    ) -> list[dict[str, ConsensusDecision]]:
        """Per round of the block, each node's decision from the payload it decided.

        ``decided`` yields ``(node id, valid block payload)`` in node order.
        Nodes that decided the same payload object share one decision object
        per round; honest nodes holding blocks with different commands raise
        :class:`ConsensusError`.
        """
        width = self.pool.num_machines
        by_payload: dict[int, list[ConsensusDecision]] = {}
        per_node: dict[str, list[ConsensusDecision]] = {}
        for node_id, payload in decided:
            block = by_payload.get(id(payload))
            if block is None:
                commands = np.array(payload["commands"], dtype=np.int64)
                block = by_payload[id(payload)] = [
                    ConsensusDecision(
                        round_index=round_index + b,
                        commands=commands[start : start + width],
                        clients=list(payload["clients"][start : start + width]),
                        # Validity bound every row to its pending entry: the
                        # decided entries are the pool's own.
                        selected=selected[start : start + width],
                        leader=leader,
                        view=view,
                    )
                    for b, start in enumerate(range(0, len(selected), width))
                ]
            per_node[node_id] = block
        if len({tuple(d.command_tuple() for d in b) for b in by_payload.values()}) > 1:
            raise ConsensusError("honest nodes decided different command vectors")
        return [
            {node_id: block[b] for node_id, block in per_node.items()}
            for b in range(len(selected) // width)
        ]
