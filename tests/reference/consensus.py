"""The per-copy consensus view: the oracle each protocol's plane view must match.

:meth:`ConsensusProtocol.decide_rounds` runs every view of a block on the
message plane — one struct-of-arrays batch per phase, array quorum tallies.
The bodies here run the same view one message copy at a time through
:mod:`reference.network`: the leader's proposal through ``send``/``broadcast``,
each phase's votes or echoes broadcast node by node, and every node's inbox a
mailbox drain walked in a Python loop.

:func:`pin` binds the body onto one protocol instance's ``_attempt_view``
(the block driver, the pool, the leader rotation and the decision records
stay the shipped ones; the body ignores the plane the driver hands it), after
which every block that instance decides goes per copy.  On the same blocks
the two must agree bit for bit: decisions, rng stream, counters, per-copy
deliveries and drops, and mailbox residue.
"""

from __future__ import annotations

from types import MethodType

from reference import network as wire
from repro.consensus.broadcast import AuthenticatedBroadcastConsensus
from repro.consensus.command_pool import SubmittedCommand
from repro.consensus.interface import ConsensusDecision, ConsensusProtocol
from repro.consensus.pbft import PBFTConsensus
from repro.net.message import Message, MessageKind


def pin(consensus: ConsensusProtocol) -> ConsensusProtocol:
    """Make ``consensus`` decide every block per copy (returns it)."""
    body = pbft_view if isinstance(consensus, PBFTConsensus) else broadcast_view
    consensus._attempt_view = MethodType(body, consensus)
    return consensus


def decide_round(
    consensus: ConsensusProtocol, round_index: int
) -> dict[str, ConsensusDecision]:
    """Pin ``consensus`` and decide a block of one round per copy.

    Returns a mapping from *honest* node id to that node's decision.
    """
    return pin(consensus).decide_rounds(round_index, 1)[0]


def honest_nodes(consensus: ConsensusProtocol) -> list[str]:
    return [n for n in consensus.node_ids if not consensus.behavior_of(n).is_faulty]


def propose(
    consensus: ConsensusProtocol,
    round_index: int,
    view: int,
    leader: str,
    selected: list[SubmittedCommand],
) -> None:
    """Put the leader's proposal on the wire, one copy at a time."""
    broadcasts, sends = consensus._proposal_actions(round_index, view, leader, selected)
    for message in sends:
        wire.send(consensus.network, message)
    for message in broadcasts:
        wire.broadcast(consensus.network, message, recipients=consensus.node_ids)


# -- PBFT: pre-prepare, prepare, commit ---------------------------------------------
def pbft_view(
    self: PBFTConsensus,
    round_index: int,
    view: int,
    primary: str,
    selected: list[SubmittedCommand],
    on_plane=None,
) -> list[dict[str, ConsensusDecision]]:
    net = self.network
    timeout = self.view_timeout or net.delay_model.synchronous_bound
    propose(self, round_index, view, primary, selected)
    pre_prepares = wire.collect_all(
        net,
        self.node_ids,
        kind=MessageKind.CONSENSUS_PROPOSAL,
        round_index=round_index,
        timeout=timeout,
    )
    # Prepare phase: honest nodes vote for the digest they received from
    # the primary, provided the proposal is valid.
    accepted_payloads: dict[str, dict] = {}
    for node_id in honest_nodes(self):
        proposals = [
            m for m in pre_prepares.get(node_id, [])
            if m.sender == primary and m.metadata.get("view") == view
        ]
        if len(proposals) != 1:
            continue  # silent or equivocating primary: no prepare vote
        proposal_payload = proposals[0].payload
        if not self._is_valid_proposal(proposal_payload, selected):
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
        wire.broadcast(net, vote, recipients=self.node_ids)
    prepares = wire.collect_all(
        net,
        self.node_ids,
        kind=MessageKind.CONSENSUS_PREPARE,
        round_index=round_index,
        timeout=timeout,
    )
    # Commit phase.
    for node_id in honest_nodes(self):
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
            wire.broadcast(net, commit, recipients=self.node_ids)
    commits = wire.collect_all(
        net,
        self.node_ids,
        kind=MessageKind.CONSENSUS_COMMIT,
        round_index=round_index,
        timeout=timeout,
    )
    decided: list[tuple[str, dict]] = []
    for node_id in honest_nodes(self):
        if node_id not in accepted_payloads:
            continue
        digest = self._digest(accepted_payloads[node_id])
        supporting = {
            m.sender
            for m in commits.get(node_id, [])
            if m.metadata.get("view") == view and m.payload.get("digest") == digest
        }
        if len(supporting) >= self.quorum:
            decided.append((node_id, accepted_payloads[node_id]))
    if not decided:
        return []
    decisions = self._decisions(round_index, view, primary, selected, decided)
    # A view only "succeeds" for the block when every honest node decided;
    # otherwise the stragglers would need the (simplified-away) checkpoint
    # sync, so we conservatively run another view for everyone.
    if len(decided) != len(honest_nodes(self)):
        return []
    return decisions


# -- authenticated broadcast: propose, echo, decide ---------------------------------
def broadcast_view(
    self: AuthenticatedBroadcastConsensus,
    round_index: int,
    view: int,
    leader: str,
    selected: list[SubmittedCommand],
    on_plane=None,
) -> list[dict[str, ConsensusDecision]]:
    net = self.network
    propose(self, round_index, view, leader, selected)
    # Step 1 timeout: collect the leader's proposal at every node.
    received = wire.collect_all(
        net, self.node_ids, kind=MessageKind.CONSENSUS_PROPOSAL, round_index=round_index
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
            wire.broadcast(net, echo, recipients=self.node_ids)
    echoes = wire.collect_all(
        net, self.node_ids, kind=MessageKind.CONSENSUS_VOTE, round_index=round_index
    )
    # Step 3: decision at each honest node.
    decided: list[tuple[str, dict]] = []
    for node_id in honest_nodes(self):
        proposals = distinct_proposals(
            self, view, leader, received.get(node_id, []), echoes.get(node_id, [])
        )
        valid = [p for p in proposals if self._is_valid_proposal(p, selected)]
        if len(valid) != 1:
            # zero proposals (silent leader) or several (equivocation):
            # the node votes for a view change.
            return []
        decided.append((node_id, valid[0]))
    if not decided:
        return []
    return self._decisions(round_index, view, leader, selected, decided)


def distinct_proposals(
    self: AuthenticatedBroadcastConsensus,
    view: int,
    leader: str,
    direct: list[Message],
    echoes: list[Message],
) -> list[dict]:
    """The distinct leader proposals a node holds, one per content key."""
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
