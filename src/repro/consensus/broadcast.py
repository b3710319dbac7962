"""Authenticated leader-broadcast consensus for synchronous networks.

This is the consensus protocol the paper assumes for the synchronous setting
("We use the Byzantine generals protocol in the consensus phase, where a
unique set of commands are proposed by a leader node and disseminated across
the network.  With the protection of digital signatures, the consistency
requirement can be satisfied for an arbitrary number b < N of malicious
nodes.").

The implementation is a two-step signed broadcast with leader rotation:

1. **Propose** — the round's leader signs and broadcasts a proposal carrying
   one command per state machine (selected FIFO from the client pool).
2. **Echo** — every node re-broadcasts the leader-signed proposal(s) it
   received, so after one extra synchronous step all honest nodes have seen
   every proposal any honest node has seen.
3. **Decide** — an honest node decides the unique valid leader-signed
   proposal; if it observed zero or conflicting proposals (a silent or
   equivocating leader) it moves to the next view, whose leader is the next
   node in round-robin order.  Because leaders rotate and ``b < N``, at most
   ``b`` view changes are needed before an honest leader decides the round.

Validity is enforced by checking each proposed command against the pool of
client submissions; consistency follows from the unforgeability of the
leader's signature plus the echo step.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConsensusError
from repro.consensus.command_pool import SubmittedCommand
from repro.consensus.interface import ConsensusDecision, ConsensusProtocol, PlaneRounds
from repro.net.message import Message, MessageKind


class AuthenticatedBroadcastConsensus(ConsensusProtocol):
    """Signed leader-broadcast consensus (synchronous model)."""

    _views_exhausted_text = (
        "no view with an honest leader within {max_views} attempts "
        "(more faults than nodes?)"
    )

    # -- protocol properties ------------------------------------------------------
    @property
    def fault_tolerance(self) -> int:
        """Consistency holds for any ``b < N`` with signatures (Table 2 row 1)."""
        return self.num_nodes - 1

    @property
    def max_views(self) -> int:
        """Leaders rotate and ``b < N``: ``N`` views always reach an honest one."""
        return self.num_nodes

    def _forged_payload(self, payload: dict) -> dict:
        # Default Byzantine leader: propose a command nobody submitted.
        bogus = dict(payload)
        bogus["commands"] = [[int(v) + 7 for v in row] for row in payload["commands"]]
        bogus["clients"] = ["client:forged"] * len(payload["clients"])
        return bogus

    # -- one view on the vectorised message plane ----------------------------------------
    # Each propose/echo phase is dispatched and tallied as a struct-of-arrays
    # PhaseBatch instead of per-copy messages.  _attempt_view below stays the
    # event-driven reference oracle; decisions, rng stream, counters and
    # delivery log are bit-identical between the two.
    def _attempt_view_vectorised(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
        on_plane: PlaneRounds,
    ) -> dict[str, ConsensusDecision]:
        plane, honest = on_plane.plane, on_plane.honest
        batch = self._propose_on_plane(round_index, view, leader, selected, plane)
        proposals = plane.collect_phase(
            batch, MessageKind.CONSENSUS_PROPOSAL, round_index
        )

        def in_view(message: Message) -> bool:
            return message.metadata.get("view") == view

        # Step 2: every honest node echoes what it received, in node order —
        # one batched phase instead of per-node broadcasts.
        received = proposals.sightings(proposals.actions(view), in_view, honest)
        node_ids = self.node_ids
        echo_templates = [
            Message(
                sender=node_ids[j],
                recipient="*",
                kind=MessageKind.CONSENSUS_VOTE,
                round_index=round_index,
                payload=message.payload,
                metadata={
                    "view": view,
                    "leader_signature": message.signature,
                    "leader": message.sender,
                },
            )
            for j, message, _ in received
        ]
        echo_refs = [ref for _, _, ref in received]
        echo_batch = plane.broadcast_phase(echo_templates, echo_refs)
        echoes = plane.collect_phase(
            echo_batch, MessageKind.CONSENSUS_VOTE, round_index
        )
        # Step 3: the distinct proposals each node holds — the leader's own
        # copies first, then what the echoes relayed — as one first-seen ref
        # per content key and node.
        seen = proposals.first_refs(
            proposals.actions(view, sender=plane.node_index[leader]),
            self._payload_key,
            lambda m: m.sender == leader and in_view(m),
        )
        relays_leader = [message.sender == leader for _, message, _ in received]
        seen = echoes.first_refs(
            echoes.actions(view) & np.array(relays_leader, dtype=bool),
            self._payload_key,
            lambda m: in_view(m) and m.metadata.get("leader") == leader,
            seen,
        )
        if not seen or not on_plane.honest_ids:
            return {}
        held = np.array(list(seen.values()))  # (distinct proposals, N) refs
        valid = np.zeros(held.shape, dtype=bool)
        for ref in dict.fromkeys(held[held >= 0].tolist()):
            if self._ref_valid(ref, on_plane):
                valid |= held == ref
        if (valid.sum(axis=0)[honest] != 1).any():
            # zero proposals (silent leader) or several (equivocation) at
            # some honest node: it votes for a view change.
            return {}
        decided = np.where(valid, held, 0).sum(axis=0)[honest].tolist()
        by_ref = {
            ref: self._decision_from_payload(
                round_index, view, leader, plane.payload(ref)
            )
            for ref in sorted(set(decided))
        }
        if len({d.command_tuple() for d in by_ref.values()}) != 1:
            raise ConsensusError("honest nodes decided different command vectors")
        return {
            node_id: by_ref[ref] for node_id, ref in zip(on_plane.honest_ids, decided)
        }

    # -- internals ----------------------------------------------------------------------
    def _attempt_view(
        self,
        round_index: int,
        view: int,
        leader: str,
        selected: list[SubmittedCommand],
    ) -> dict[str, ConsensusDecision]:
        self._propose(round_index, view, leader, selected)
        # Step 1 timeout: collect the leader's proposal at every node.
        received = self.network.collect_all(
            self.node_ids, kind=MessageKind.CONSENSUS_PROPOSAL, round_index=round_index
        )
        # Step 2: every honest node echoes what it received.
        for node_id in self.node_ids:
            if self.behavior_of(node_id).is_faulty:
                continue  # faulty echoers at worst withhold; they cannot forge
            for message in received.get(node_id, []):
                if message.metadata.get("view") != view:
                    continue
                echo = Message(
                    sender=node_id,
                    recipient="*",
                    kind=MessageKind.CONSENSUS_VOTE,
                    round_index=round_index,
                    payload=message.payload,
                    metadata={"view": view, "leader_signature": message.signature,
                              "leader": message.sender},
                )
                self.network.broadcast(echo, recipients=self.node_ids)
        echoes = self.network.collect_all(
            self.node_ids, kind=MessageKind.CONSENSUS_VOTE, round_index=round_index
        )
        # Step 3: decision at each honest node.
        decisions: dict[str, ConsensusDecision] = {}
        for node_id in self.honest_nodes():
            proposals = self._distinct_proposals(
                view, leader, received.get(node_id, []), echoes.get(node_id, [])
            )
            valid = [p for p in proposals if self._is_valid_proposal(p)]
            if len(valid) != 1:
                # zero proposals (silent leader) or several (equivocation):
                # the node votes for a view change.
                return {}
            decisions[node_id] = self._decision_from_payload(
                round_index, view, leader, valid[0]
            )
        if not decisions:
            return {}
        # Consistency sanity check (should always hold for honest nodes).
        tuples = {d.command_tuple() for d in decisions.values()}
        if len(tuples) != 1:
            raise ConsensusError("honest nodes decided different command vectors")
        return decisions

    def _distinct_proposals(
        self, view: int, leader: str, direct: list[Message], echoes: list[Message]
    ) -> list[dict]:
        seen: dict[tuple, dict] = {}
        for message in direct:
            if message.sender != leader or message.metadata.get("view") != view:
                continue
            key = self._payload_key(message.payload)
            seen[key] = message.payload
        for message in echoes:
            if message.metadata.get("view") != view:
                continue
            if message.metadata.get("leader") != leader:
                continue
            key = self._payload_key(message.payload)
            seen.setdefault(key, message.payload)
        return list(seen.values())

    @staticmethod
    def _payload_key(payload: dict) -> tuple:
        # Sequences are part of the proposal identity: a leader equivocating
        # only on sequences must be detected like any other equivocation.
        return (
            tuple(tuple(int(v) for v in row) for row in payload["commands"]),
            tuple(int(v) for v in payload.get("sequences") or ()),
        )
