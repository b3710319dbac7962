"""Common consensus-protocol interface and the decision record.

The execution phases (replicated or coded) only need two things from
consensus: the agreed command vector ``(X_1(t), ..., X_K(t))`` for the round
and the identity of the client that submitted each command.  Both protocols
return a :class:`ConsensusDecision` carrying exactly that, plus diagnostics
used by tests to verify the validity / consistency properties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.consensus.command_pool import CommandPool, SubmittedCommand
from repro.exceptions import ConsensusError, LivenessError
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
    """The outcome of one consensus round at one (honest) node.

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
        The node that acted as leader/primary for the round.
    view:
        The view number in which the decision was reached (0 unless the
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
    #: Payload ref -> proposal validity.  Validity consults the pool, which
    #: changes between rounds (``mark_executed``), so each round starts empty.
    validity: dict[int, bool] = field(default_factory=dict)


class ConsensusProtocol(ABC):
    """A protocol that the honest nodes run to agree on the round's commands.

    Everything the two protocols share lives here: the node/pool/behaviour
    plumbing, round-robin leader rotation, the round driver (peek the pool,
    try views until one decides, mark the decision executed), the proposal a
    leader — honest or Byzantine — puts on the wire, proposal validity and
    the decision record.  A protocol supplies its fault tolerance, its view
    budget, how a default-Byzantine leader forges a proposal, and the two
    bodies of one view: :meth:`_attempt_view` (per-copy — the reference
    oracle, and the path under a live link fault) and
    :meth:`_attempt_view_vectorised` (one struct-of-arrays batch per phase
    on the message plane).

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

    #: Rounds :meth:`decide_rounds` decided on the slow path (the per-copy
    #: oracle) because a link fault was live.  The counter makes the slow
    #: path observable in experiment reports.
    fast_path_disabled: int = 0

    #: Views a round may try before :meth:`decide_round` gives up.
    max_views: int

    #: ``ConsensusError`` text when ``max_views`` views all failed
    #: (formatted with ``round_index`` and ``max_views``).
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

    def honest_nodes(self) -> list[str]:
        return [n for n in self.node_ids if not self.behavior_of(n).is_faulty]

    def leader_for(self, round_index: int, view: int) -> str:
        """The node leading ``view`` of ``round_index`` (round-robin rotation)."""
        return self.node_ids[(round_index + view) % self.num_nodes]

    # -- round drivers ------------------------------------------------------------------
    def decide_round(self, round_index: int) -> dict[str, ConsensusDecision]:
        """Run one round of consensus.

        Returns a mapping from *honest* node id to that node's decision.
        Byzantine nodes do not produce meaningful decisions.  Tests check
        the paper's consistency property by asserting all returned decisions
        have equal :meth:`ConsensusDecision.command_tuple`.

        This per-copy path — every message through ``send``/``broadcast`` and
        a mailbox drain — is the *reference oracle* for the vectorised
        plane, and the path :meth:`decide_rounds` takes under a live link
        fault: on the plane ``decide_rounds`` must produce bit-identical
        decisions, rng consumption, counters and per-copy deliveries.
        """
        return self._decide_round(round_index, None)

    def _decide_round(
        self, round_index: int, on_plane: PlaneRounds | None
    ) -> dict[str, ConsensusDecision]:
        """Try views until one decides — on the plane, or per copy without."""
        selected = self.pool.peek_round()
        if any(entry is None for entry in selected):
            raise LivenessError(
                "every state machine needs at least one pending client command"
            )
        if on_plane is not None:
            on_plane.validity.clear()
        for view in range(self.max_views):
            leader = self.leader_for(round_index, view)
            if on_plane is None:
                decisions = self._attempt_view(round_index, view, leader, selected)
            else:
                decisions = self._attempt_view_vectorised(
                    round_index, view, leader, selected, on_plane
                )
            if decisions:
                # Remove the decided commands from the pool exactly once.
                sample = next(iter(decisions.values()))
                for k, entry in enumerate(sample.selected):
                    self.pool.mark_executed(k, entry)
                # Copies of this round still in a mailbox (late ones, losing
                # views') can never be collected again: drop the dead letters.
                self.network.discard_through(round_index, self.node_ids)
                return decisions
        raise ConsensusError(
            self._views_exhausted_text.format(
                round_index=round_index, max_views=self.max_views
            )
        )

    def decide_rounds(
        self,
        first_round_index: int,
        count: int,
        prepare_round: "Callable[[int], None] | None" = None,
    ) -> list[dict[str, ConsensusDecision]]:
        """Decide ``count`` consecutive rounds starting at ``first_round_index``.

        Rounds are always decided in order — the command-pool selection for
        round ``t + 1`` depends on round ``t``'s decision being marked
        executed — but each round's phases run on the **vectorised message
        plane** (:class:`~repro.net.network.MessagePlane`): one
        struct-of-arrays batch per phase, batch signing/verification, one
        vectorised delay draw per phase and array quorum tallies instead of
        per-copy messages and mailbox drains.  While a link-fault state
        (drops, partitions, added latency from the fault-injection plane —
        honoured only by ``send``/``broadcast``) is live, the rounds take the
        per-copy oracle :meth:`decide_round` instead — bit-identical to the
        plane where both apply, and healing back to the fast path when the
        fault state clears — and :attr:`fast_path_disabled` is advanced by
        ``count`` so the slow path is observable instead of silent.

        ``prepare_round(offset)`` is invoked immediately before each round is
        decided; batched drivers use it to submit that round's client
        commands.  Submitting lazily (rather than all rounds up front)
        matters for bit-identity: the validity check consults the pool's
        pending entries, so commands of *future* rounds must not be
        visible yet — an equivocating leader's forged payload could otherwise
        coincide with a later round's real command and pass validation that
        the sequential path would reject.  The returned per-round decision
        maps — and the rng/delay stream, message/signature counters and
        per-copy deliveries — are bit-identical to the
        submit-then-:meth:`decide_round` sequential loop.
        """
        if self.network.faults.active:
            self.fast_path_disabled += count
            on_plane = None
        else:
            honest = [not self.behavior_of(n).is_faulty for n in self.node_ids]
            on_plane = PlaneRounds(
                plane=MessagePlane(self.network, self.node_ids),
                honest=np.array(honest, dtype=bool),
                honest_ids=[n for n, ok in zip(self.node_ids, honest) if ok],
            )
        decisions = []
        for offset in range(count):
            if prepare_round is not None:
                prepare_round(offset)
            decisions.append(self._decide_round(first_round_index + offset, on_plane))
        return decisions

    # -- one view: the two implementations each protocol supplies -------------------------
    @abstractmethod
    def _attempt_view(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
    ) -> dict[str, ConsensusDecision]:
        """One view, per copy; ``{}`` when the view fails to decide."""

    @abstractmethod
    def _attempt_view_vectorised(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        on_plane: PlaneRounds,
    ) -> dict[str, ConsensusDecision]:
        """The same view on the message plane; bit-identical to the oracle."""

    # -- the leader's proposal ------------------------------------------------------------
    @staticmethod
    def _payload_from_selection(selected: list[SubmittedCommand]) -> dict:
        # Sequences ride along so the decided entries can be removed from the
        # pool keyed on their unique submission sequence (mark_executed);
        # the validity check binds them to pending pool entries, so they
        # cannot be forged or equivocated on.
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

        Shared by the per-copy oracle and the vectorised plane so the
        two paths dispatch identical messages by construction; a behavior
        either broadcasts or equivocates via sends, never both.
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

    def _propose(
        self, round_index: int, view: int, leader: str, selected: list[SubmittedCommand]
    ) -> None:
        """Put the leader's proposal on the wire, one copy at a time."""
        broadcasts, sends = self._proposal_actions(round_index, view, leader, selected)
        for message in sends:
            self.network.send(message)
        for message in broadcasts:
            self.network.broadcast(message, recipients=self.node_ids)

    def _propose_on_plane(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        plane: MessagePlane,
    ) -> PhaseBatch:
        """Dispatch the leader's proposal as one phase batch.

        Equivocation stays on the scalar path: targeted sends go through
        ``network.send`` (consuming the rng exactly as the oracle does) and
        surface at collection as stragglers.
        """
        broadcasts, sends = self._proposal_actions(round_index, view, leader, selected)
        for message in sends:
            self.network.send(message)
        refs = [plane.register(message.payload) for message in broadcasts]
        return plane.broadcast_phase(broadcasts, refs)

    # -- validity and the decision record ------------------------------------------------
    def _is_valid_proposal(self, payload: dict) -> bool:
        commands = payload.get("commands")
        clients = payload.get("clients")
        sequences = payload.get("sequences")
        if not commands or not clients or len(commands) != self.pool.num_machines:
            return False
        if not sequences or len(sequences) != len(commands):
            return False
        # Bind every row, (unsigned) sequence included, to a pending pool
        # entry: a forged sequence invalidates the proposal here instead of
        # derailing mark_executed after the decision.
        return all(
            self.pool.matches_pending(k, command, client, sequence)
            for k, (command, client, sequence) in enumerate(
                zip(commands, clients, sequences)
            )
        )

    def _ref_valid(self, ref: int, on_plane: PlaneRounds) -> bool:
        cached = on_plane.validity.get(ref)
        if cached is None:
            cached = self._is_valid_proposal(on_plane.plane.payload(ref))
            on_plane.validity[ref] = cached
        return cached

    def _decision_from_payload(
        self, round_index: int, view: int, leader: str, payload: dict
    ) -> ConsensusDecision:
        commands = np.array(payload["commands"], dtype=np.int64)
        clients = list(payload["clients"])
        # A payload missing its sequences (a pre-redesign or forged proposal)
        # yields sentinel -1 entries, which mark_executed rejects loudly.
        sequences = list(payload.get("sequences") or [-1] * len(clients))
        selected = [
            SubmittedCommand(
                machine_index=k,
                client_id=clients[k],
                command=tuple(row),
                sequence=int(sequences[k]),
            )
            for k, row in enumerate(commands.tolist())
        ]
        return ConsensusDecision(
            round_index=round_index,
            commands=commands,
            clients=clients,
            selected=selected,
            leader=leader,
            view=view,
        )
