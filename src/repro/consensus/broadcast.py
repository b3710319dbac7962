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

from repro.exceptions import ConsensusError
from repro.consensus.command_pool import SubmittedCommand
from repro.consensus.interface import ConsensusDecision, ConsensusProtocol
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
        plane,
        validity: dict[int, bool],
    ) -> dict[str, ConsensusDecision]:
        batch = self._propose_on_plane(round_index, view, leader, selected, plane)
        proposals = plane.collect_phase(
            batch, MessageKind.CONSENSUS_PROPOSAL, round_index
        )
        # Step 2: every honest node echoes what it received, in node order —
        # one batched phase instead of per-node broadcasts.
        echo_templates: list[Message] = []
        echo_refs: list[int] = []
        for j, node_id in enumerate(self.node_ids):
            if self.behavior_of(node_id).is_faulty:
                continue
            for message, ref in proposals.messages_for(j):
                if message.metadata.get("view") != view:
                    continue
                echo_templates.append(
                    Message(
                        sender=node_id,
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
                )
                echo_refs.append(ref)
        echo_batch = plane.broadcast_phase(echo_templates, echo_refs)
        echoes = plane.collect_phase(
            echo_batch, MessageKind.CONSENSUS_VOTE, round_index
        )
        # Step 3: decision at each honest node, deduplicating proposals by
        # memoised content key instead of re-tupling payloads per node.
        decisions: dict[str, ConsensusDecision] = {}
        decisions_by_ref: dict[int, ConsensusDecision] = {}
        for j, node_id in enumerate(self.node_ids):
            if self.behavior_of(node_id).is_faulty:
                continue
            seen: dict[tuple, int] = {}
            for message, ref in proposals.messages_for(j):
                if message.sender != leader or message.metadata.get("view") != view:
                    continue
                key = plane.content_key(ref, self._payload_key)
                if key not in seen:
                    seen[key] = ref
            seen_refs = set(seen.values())
            for message, ref in echoes.messages_for(j):
                if ref in seen_refs:
                    continue  # an echo of a payload already seen adds nothing
                if message.metadata.get("view") != view:
                    continue
                if message.metadata.get("leader") != leader:
                    continue
                key = plane.content_key(ref, self._payload_key)
                if key not in seen:
                    seen[key] = ref
                    seen_refs.add(ref)
            valid_refs = [
                ref for ref in seen.values() if self._ref_valid(ref, plane, validity)
            ]
            if len(valid_refs) != 1:
                return {}
            ref = valid_refs[0]
            decision = decisions_by_ref.get(ref)
            if decision is None:
                decision = self._decision_from_payload(
                    round_index, view, leader, plane.payload(ref)
                )
                decisions_by_ref[ref] = decision
            decisions[node_id] = decision
        if not decisions:
            return {}
        tuples = {d.command_tuple() for d in decisions.values()}
        if len(tuples) != 1:
            raise ConsensusError("honest nodes decided different command vectors")
        return decisions

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
