"""Simplified PBFT consensus for partially synchronous networks.

The paper employs PBFT in the partially synchronous setting, which requires
``N >= 3b + 1`` nodes.  The implementation here follows the classic
three-phase structure:

1. **Pre-prepare** — the view's primary signs and broadcasts the proposed
   command vector.
2. **Prepare** — every honest node that received a valid pre-prepare
   broadcasts a prepare vote for its digest.
3. **Commit** — a node that collects ``2f + 1`` matching prepares broadcasts
   a commit vote; a node that collects ``2f + 1`` matching commits decides.

If a view fails to decide within its timeout (silent or equivocating primary,
or the network has not reached GST yet), all honest nodes move to the next
view with the next primary in round-robin order.  After GST and with an
honest primary, a view always decides — which is the paper's liveness
argument.  Safety (no two honest nodes decide differently) comes from the
quorum intersection of any two ``2f + 1`` subsets of ``3f + 1`` nodes.

The view-change subprotocol is simplified: because every round decides a
fresh, independent command vector and no honest node ever decides in a failed
view (deciding requires ``2f + 1`` commits, impossible when the primary
equivocates between at most ``f`` faulty supporters per branch), carrying
prepared certificates across views is unnecessary for safety in this setting.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ConsensusError
from repro.consensus.command_pool import CommandPool, SubmittedCommand
from repro.consensus.interface import ConsensusDecision, ConsensusProtocol, PlaneRounds
from repro.net.byzantine import ByzantineBehavior
from repro.net.message import Message, MessageKind
from repro.net.network import SimulatedNetwork


class PBFTConsensus(ConsensusProtocol):
    """Three-phase PBFT over the simulated (partially synchronous) network."""

    _views_exhausted_text = (
        "PBFT failed to decide round {round_index} within {max_views} views "
        "(network may not have stabilised or too many faults)"
    )

    def __init__(
        self,
        network: SimulatedNetwork,
        node_ids: list[str],
        pool: CommandPool,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
        max_views: int = 32,
        view_timeout: float | None = None,
    ) -> None:
        if len(node_ids) < 4:
            raise ConsensusError("PBFT needs at least 4 nodes (N >= 3b + 1 with b >= 1)")
        super().__init__(network, node_ids, pool, behaviors, rng)
        self.max_views = int(max_views)
        self.view_timeout = view_timeout

    # -- protocol properties --------------------------------------------------------
    @property
    def fault_tolerance(self) -> int:
        """PBFT tolerates ``f = floor((N - 1) / 3)`` Byzantine nodes."""
        return (self.num_nodes - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.fault_tolerance + 1

    #: PBFT's name for a view's leader.
    primary_for = ConsensusProtocol.leader_for

    def _forged_payload(self, payload: dict) -> dict:
        bogus = dict(payload)
        bogus["clients"] = ["client:forged"] * len(payload["clients"])
        return bogus

    # -- one view on the vectorised message plane ----------------------------------------
    # Each pre-prepare/prepare/commit phase is dispatched and quorum-tallied
    # as a struct-of-arrays PhaseBatch instead of per-copy messages and
    # mailbox drains.  _attempt_view below stays the event-driven reference
    # oracle; decisions, rng stream, counters and delivery log are
    # bit-identical between the two.
    def _attempt_view_vectorised(
        self,
        round_index: int,
        view: int,
        primary: str,
        selected: list[SubmittedCommand],
        on_plane: PlaneRounds,
    ) -> dict[str, ConsensusDecision]:
        plane, honest = on_plane.plane, on_plane.honest
        timeout = self.view_timeout or self.network.delay_model.synchronous_bound
        quorum = self.quorum
        batch = self._propose_on_plane(round_index, view, primary, selected, plane)
        pre_prepares = plane.collect_phase(
            batch, MessageKind.CONSENSUS_PROPOSAL, round_index, timeout
        )

        def from_primary(message: Message) -> bool:
            return message.sender == primary and message.metadata.get("view") == view

        # Prepare phase: honest nodes vote for the digest they received from
        # the primary, provided the proposal is valid.  A node that saw zero
        # or several pre-prepares (silent or equivocating primary) casts no
        # vote; one that saw exactly one holds exactly one digest below.
        sent_by_primary = pre_prepares.actions(view, sender=plane.node_index[primary])
        heard_once = honest & (
            pre_prepares.match_counts(sent_by_primary, from_primary) == 1
        )
        accepted = np.full(self.num_nodes, -1)  # node -> accepted proposal ref
        vote_ref = np.full(self.num_nodes, -1)  # node -> its vote-payload ref
        held = pre_prepares.first_refs(sent_by_primary, self._digest, from_primary)
        for digest, refs in held.items():
            for ref in np.unique(refs[heard_once & (refs >= 0)]).tolist():
                if self._ref_valid(ref, on_plane):
                    voters = heard_once & (refs == ref)
                    accepted[voters] = ref
                    vote_ref[voters] = plane.register(self._vote_payload(digest, plane))

        def vote_phase(kind: MessageKind, voters: np.ndarray) -> np.ndarray:
            # One batched phase of the voters' votes, then who saw a quorum
            # of votes matching their own: a column sum per distinct digest
            # replaces the per-node supporter-set scan.
            refs = vote_ref[voters].tolist()
            templates = [
                Message(
                    sender=self.node_ids[j],
                    recipient="*",
                    kind=kind,
                    round_index=round_index,
                    payload=plane.payload(ref),
                    metadata={"view": view},
                )
                for j, ref in zip(np.nonzero(voters)[0].tolist(), refs)
            ]
            votes = plane.collect_phase(
                plane.broadcast_phase(templates, refs), kind, round_index, timeout
            )
            reached = np.zeros(self.num_nodes, dtype=bool)
            for ref in np.unique(vote_ref[vote_ref >= 0]).tolist():
                digest = plane.payload(ref)["digest"]
                counts = votes.supporter_counts(
                    view,
                    ref,
                    lambda m, d=digest: (
                        m.metadata.get("view") == view and m.payload.get("digest") == d
                    ),
                )
                reached |= (vote_ref == ref) & (counts >= quorum)
            return reached

        prepared = vote_phase(MessageKind.CONSENSUS_PREPARE, vote_ref >= 0)
        committed = vote_phase(MessageKind.CONSENSUS_COMMIT, prepared)
        if not committed.any():
            return {}
        by_ref = {
            ref: self._decision_from_payload(
                round_index, view, primary, plane.payload(ref)
            )
            for ref in np.unique(accepted[committed]).tolist()
        }
        if len({d.command_tuple() for d in by_ref.values()}) != 1:
            raise ConsensusError("PBFT safety violation: conflicting decisions")
        # A view only "succeeds" for the round when every honest node decided;
        # otherwise the stragglers would need the (simplified-away) checkpoint
        # sync, so we conservatively run another view for everyone.
        if not committed[honest].all():
            return {}
        return {
            node_id: by_ref[ref]
            for node_id, ref in zip(on_plane.honest_ids, accepted[honest].tolist())
        }

    @staticmethod
    def _vote_payload(digest: str, plane) -> dict:
        """The interned ``{"digest": ...}`` vote payload for a proposal digest.

        One shared dict per digest means the canonical signed bytes and the
        batch payload-ref column collapse across all voters; the oracle
        builds a fresh but content-equal dict per vote, so signatures match.
        """
        vote_cache = plane.scratch.setdefault("pbft_vote_payloads", {})
        vote_payload = vote_cache.get(digest)
        if vote_payload is None:
            vote_payload = vote_cache[digest] = {"digest": digest}
        return vote_payload

    # -- internals ----------------------------------------------------------------------
    def _attempt_view(
        self,
        round_index: int,
        view: int,
        primary: str,
        selected: list[SubmittedCommand],
    ) -> dict[str, ConsensusDecision]:
        timeout = self.view_timeout or self.network.delay_model.synchronous_bound
        self._propose(round_index, view, primary, selected)
        pre_prepares = self.network.collect_all(
            self.node_ids,
            kind=MessageKind.CONSENSUS_PROPOSAL,
            round_index=round_index,
            timeout=timeout,
        )
        # Prepare phase: honest nodes vote for the digest they received from
        # the primary, provided the proposal is valid.
        accepted_payloads: dict[str, dict] = {}
        for node_id in self.honest_nodes():
            proposals = [
                m for m in pre_prepares.get(node_id, [])
                if m.sender == primary and m.metadata.get("view") == view
            ]
            if len(proposals) != 1:
                continue  # silent or equivocating primary: no prepare vote
            proposal_payload = proposals[0].payload
            if not self._is_valid_proposal(proposal_payload):
                continue
            accepted_payloads[node_id] = proposal_payload
            vote = Message(
                sender=node_id,
                recipient="*",
                kind=MessageKind.CONSENSUS_PREPARE,
                round_index=round_index,
                payload={"digest": self._digest(proposal_payload)},
                metadata={"view": view},
            )
            self.network.broadcast(vote, recipients=self.node_ids)
        prepares = self.network.collect_all(
            self.node_ids,
            kind=MessageKind.CONSENSUS_PREPARE,
            round_index=round_index,
            timeout=timeout,
        )
        # Commit phase.
        for node_id in self.honest_nodes():
            if node_id not in accepted_payloads:
                continue
            digest = self._digest(accepted_payloads[node_id])
            supporting = {
                m.sender
                for m in prepares.get(node_id, [])
                if m.metadata.get("view") == view and m.payload.get("digest") == digest
            }
            if len(supporting) >= self.quorum:
                commit = Message(
                    sender=node_id,
                    recipient="*",
                    kind=MessageKind.CONSENSUS_COMMIT,
                    round_index=round_index,
                    payload={"digest": digest},
                    metadata={"view": view},
                )
                self.network.broadcast(commit, recipients=self.node_ids)
        commits = self.network.collect_all(
            self.node_ids,
            kind=MessageKind.CONSENSUS_COMMIT,
            round_index=round_index,
            timeout=timeout,
        )
        decisions: dict[str, ConsensusDecision] = {}
        for node_id in self.honest_nodes():
            if node_id not in accepted_payloads:
                continue
            digest = self._digest(accepted_payloads[node_id])
            supporting = {
                m.sender
                for m in commits.get(node_id, [])
                if m.metadata.get("view") == view and m.payload.get("digest") == digest
            }
            if len(supporting) >= self.quorum:
                decisions[node_id] = self._decision_from_payload(
                    round_index, view, primary, accepted_payloads[node_id]
                )
        if not decisions:
            return {}
        tuples = {d.command_tuple() for d in decisions.values()}
        if len(tuples) != 1:
            raise ConsensusError("PBFT safety violation: conflicting decisions")
        # A view only "succeeds" for the round when every honest node decided;
        # otherwise the stragglers would need the (simplified-away) checkpoint
        # sync, so we conservatively run another view for everyone.
        if set(decisions) != set(self.honest_nodes()):
            return {}
        return decisions

    @staticmethod
    def _digest(payload: dict) -> str:
        canonical = repr(
            (
                tuple(tuple(int(v) for v in row) for row in payload["commands"]),
                tuple(payload["clients"]),
                tuple(int(v) for v in payload.get("sequences") or ()),
            )
        ).encode()
        return hashlib.sha256(canonical).hexdigest()
