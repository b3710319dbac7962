"""The full CSM protocol: consensus phase + coded execution phase.

:class:`CSMProtocol` wires together the pieces the paper's Figure 2
describes: clients broadcast commands to all compute nodes (the shared
command pool), every round the nodes run consensus to agree on one command
per machine, the coded execution phase computes and decodes the results, and
the outputs are returned to the submitting clients.

The protocol can run over either network model:

* synchronous — :class:`AuthenticatedBroadcastConsensus` + full-``N``
  decoding;
* partially synchronous — :class:`PBFTConsensus` + ``N - b`` decoding with
  erasures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ConsensusError
from repro.consensus.broadcast import AuthenticatedBroadcastConsensus
from repro.consensus.interface import ConsensusDecision
from repro.consensus.command_pool import CommandPool
from repro.consensus.pbft import PBFTConsensus
from repro.machine.interface import StateMachine
from repro.net.byzantine import ByzantineBehavior, HonestBehavior
from repro.net.latency import PartiallySynchronousDelay, SynchronousDelay
from repro.net.network import SimulatedNetwork
from repro.rounds import ProtocolRound, RoundProtocol
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.rng import default_stream, derived_stream

__all__ = ["CSMProtocol", "ProtocolRound"]


class CSMProtocol(RoundProtocol):
    """End-to-end Coded State Machine protocol over a simulated network.

    The preferred client surface is the session/ticket API of
    :class:`~repro.service.service.CSMService`, which accepts ragged command
    streams and drives this protocol through the shared
    :class:`~repro.rounds.RoundProtocol` interface; the lockstep entry
    points below (``submit_round_of_commands`` + ``run_rounds*``) remain as
    thin wrappers with their original bit-exact semantics.
    """

    def __init__(
        self,
        config: CSMConfig,
        machine: StateMachine,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
        network: SimulatedNetwork | None = None,
        decode_at_every_node: bool = False,
        vectorised_consensus: bool = True,
    ) -> None:
        self.config = config
        self.machine = machine
        self.rng = rng if rng is not None else default_stream()
        self.node_ids = [f"node-{i}" for i in range(config.num_nodes)]
        self.behaviors = dict(behaviors or {})
        if network is None:
            delay = (
                PartiallySynchronousDelay(gst=2.0)
                if config.partially_synchronous
                else SynchronousDelay()
            )
            network = SimulatedNetwork(delay_model=delay, rng=self.rng)
        self.network = network
        for node_id in self.node_ids:
            self.network.register(node_id)
        self.pool = CommandPool(num_machines=config.num_machines)
        if config.partially_synchronous and config.num_nodes >= 4:
            self.consensus = PBFTConsensus(
                self.network, self.node_ids, self.pool, self.behaviors, self.rng
            )
        else:
            self.consensus = AuthenticatedBroadcastConsensus(
                self.network, self.node_ids, self.pool, self.behaviors, self.rng
            )
        # ``vectorised_consensus`` selects the message-plane fast path for
        # batched/pipelined round drivers (decisions, rng stream, counters
        # and delivery log are bit-identical either way); False pins the
        # event-driven oracle, which then advances
        # ``consensus_fast_path_disabled`` for observability.
        self.consensus.use_vectorised_plane = bool(vectorised_consensus)
        # The execution phase draws its randomness (Byzantine result
        # transforms) from a dedicated stream seeded off the protocol rng.
        # The consensus/network layer keeps consuming ``self.rng`` directly,
        # so the batched driver (consensus for B rounds, then execution for
        # B rounds) sees exactly the same draws as the sequential
        # round-by-round interleaving — the basis of the bit-identity
        # guarantee of :meth:`run_rounds_batched`.
        #: Verification-window depth run_rounds_pipelined uses when the call
        #: does not pass one explicitly (services configure it here).
        self.pipeline_verify_window = 16
        engine_rng = derived_stream(self.rng)
        self.engine = CodedExecutionEngine(
            config,
            machine,
            node_ids=self.node_ids,
            behaviors=self.behaviors,
            rng=engine_rng,
            decode_at_every_node=decode_at_every_node,
        )
        self._init_round_state()

    @property
    def num_machines(self) -> int:
        return self.config.num_machines

    # -- client-facing API ------------------------------------------------------------
    def submit_command(self, machine_index: int, client_id: str, command) -> None:
        """A client broadcasts a command for one machine to all nodes."""
        self.network.register(client_id)
        self.pool.submit(machine_index, client_id, command)

    def submit_round_of_commands(self, commands: np.ndarray, client_prefix: str = "client") -> None:
        """Submit one command per machine from distinct synthetic clients.

        .. note:: legacy wrapper.  This is the pre-service lockstep shape —
           one pre-grouped command per machine under reused ``client:k``
           labels.  New code should connect a
           :class:`~repro.service.service.ClientSession` and submit command
           tickets instead; this wrapper remains for the harnesses and the
           bit-identity guarantees built on it.
        """
        arr = self.pool.canonical_round(commands)
        self._submit_round(arr, [f"{client_prefix}:{k}" for k in range(arr.shape[0])])

    def _submit_round(self, commands: np.ndarray, clients: Sequence[str]) -> None:
        """Submit one round of commands under explicit client identities."""
        arr = self.pool.canonical_round(commands)
        if len(clients) != arr.shape[0]:
            raise ConfigurationError(
                f"round of {arr.shape[0]} commands but {len(clients)} client ids"
            )
        for k in range(arr.shape[0]):
            self.submit_command(k, clients[k], arr[k])

    # -- round driver -------------------------------------------------------------------
    def run_round(self) -> ProtocolRound:
        """Run one full round: consensus on commands, then coded execution."""
        round_index = len(self.history)
        decisions = self.consensus.decide_round(round_index)
        sample = self._select_decision(decisions)
        result = self.engine.execute_round(sample.commands)
        return self._record_round(sample.commands, sample.clients, result, sample.view)

    def run_rounds(self, command_batches: list[np.ndarray]) -> list[ProtocolRound]:
        """Submit and execute several rounds of commands, one round at a time."""
        records = []
        for batch in command_batches:
            self.submit_round_of_commands(batch)
            records.append(self.run_round())
        return records

    def run_rounds_batched(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
    ) -> list[ProtocolRound]:
        """Run ``B`` full rounds through the batched pipeline.

        The batched path decides all ``B`` rounds through the consensus
        protocol's :meth:`decide_rounds` fast path (broadcast delivery
        amortised via :meth:`SimulatedNetwork.deliver_all`; each round's
        commands are submitted just before its consensus round, exactly as
        clients would), and feeds the agreed command matrix straight into
        :meth:`CodedExecutionEngine.execute_rounds` — one encode matrix
        product and suspect-learning decode for the whole batch.

        ``client_rounds[b][k]`` names the client submitting machine ``k``'s
        command in round ``b`` — the session/ticket service passes its real
        client identities here.  Without it, this call is the **legacy
        lockstep wrapper**: it routes through
        :meth:`~repro.service.service.CSMService.run_lockstep`, which
        reproduces the historical ``client:k`` labels, so the recorded
        :class:`ProtocolRound` history (commands, clients, consensus views,
        outputs, states, correctness flags, flagged error nodes) stays
        bit-identical to calling :meth:`run_rounds` on an
        identically-constructed protocol; only the operation/message
        *counts* drop, which is precisely what the batch buys.
        """
        if client_rounds is None:
            # Deferred import: repro.service drives this protocol and would
            # otherwise import-cycle with this module.  run_lockstep
            # canonicalises every batch before submitting anything, so the
            # fail-fast contract holds without validating twice here.
            from repro.service import CSMService

            return CSMService.run_lockstep(self, command_batches)
        return self._run_rounds_fast(command_batches, client_rounds)

    def run_rounds_pipelined(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]] | None = None,
        verify_window: int | None = None,
    ) -> list[ProtocolRound]:
        """Run ``B`` rounds with the speculative decode/execute pipeline.

        Consensus is decided exactly as in :meth:`run_rounds_batched`; the
        execution phase runs through
        :meth:`CodedExecutionEngine.execute_rounds_pipelined`, which
        overlaps the verified decode of round ``t`` with the execution of
        round ``t + 1`` (speculative pivot interpolation now, stacked
        re-encode verification per window, checkpoint/rollback on a
        mismatch).  The recorded :class:`ProtocolRound` history, the
        delivered outputs and the failed-round accounting are bit-identical
        to the batched path (property-tested, including mid-batch fault
        onset); only the execution-phase operation counts drop.

        ``verify_window`` defaults to :attr:`pipeline_verify_window`; the
        legacy no-client form honours an explicit value by pinning that
        attribute for the duration of the lockstep drive.
        """
        if verify_window is None:
            verify_window = self.pipeline_verify_window
        if client_rounds is None:
            from repro.service import CSMService

            saved_window = self.pipeline_verify_window
            self.pipeline_verify_window = verify_window
            try:
                return CSMService.run_lockstep(
                    self, command_batches, pipeline=True
                )
            finally:
                self.pipeline_verify_window = saved_window
        return self._run_rounds_fast(command_batches, client_rounds, verify_window)

    def _run_rounds_fast(
        self,
        command_batches: Sequence[np.ndarray],
        client_rounds: Sequence[Sequence[str]],
        verify_window: int | None = None,
    ) -> list[ProtocolRound]:
        """Consensus + execution shared by the batched and pipelined drivers
        (pipelined when a ``verify_window`` is given)."""
        # Canonicalised before any consensus runs: a malformed batch must
        # fail fast, not discard earlier rounds the consensus already decided
        # (shape validation is pure, so this cannot perturb the pool history
        # the bit-identity guarantee depends on).
        batches, client_rounds = self._canonical_batches(command_batches, client_rounds)
        if not batches:
            return []
        first_round = len(self.history)
        per_round_decisions = self.consensus.decide_rounds(
            first_round,
            len(batches),
            prepare_round=lambda offset: self._submit_round(
                batches[offset], client_rounds[offset]
            ),
        )
        samples = [self._select_decision(d) for d in per_round_decisions]
        commands_matrix = np.stack([sample.commands for sample in samples])
        if verify_window is None:
            results = self.engine.execute_rounds(commands_matrix)
        else:
            results = self.engine.execute_rounds_pipelined(
                commands_matrix, verify_window=verify_window
            )
        return [
            self._record_round(sample.commands, sample.clients, result, sample.view)
            for sample, result in zip(samples, results)
        ]

    def _canonical_round(self, commands: np.ndarray) -> np.ndarray:
        # Shaped by the pool and left unreduced: the commands travel through
        # the pool and consensus exactly as the clients sent them, and the
        # decided vector is what the history records.
        return self.pool.canonical_round(commands)

    def _select_decision(
        self, decisions: dict[str, ConsensusDecision]
    ) -> ConsensusDecision:
        """Pick the round's decision from a known-honest node.

        Trusting ``next(iter(decisions))`` would adopt whichever node happens
        to come first — potentially a Byzantine one.  Instead the decision is
        taken from the first known-honest node (deterministic in node order),
        after checking that every honest node decided the same command
        vector; a disagreement is a consensus-safety violation and raises.
        """
        honest_ids = [
            node_id
            for node_id in self.node_ids
            if node_id in decisions and not self._is_faulty(node_id)
        ]
        if not honest_ids:
            raise ConsensusError("no honest node produced a consensus decision")
        chosen = decisions[honest_ids[0]]
        reference = (chosen.command_tuple(), tuple(chosen.clients))
        for node_id in honest_ids[1:]:
            other = decisions[node_id]
            # The plane hands every node that decided alike the same object.
            if other is not chosen and (
                other.command_tuple(),
                tuple(other.clients),
            ) != reference:
                raise ConsensusError(
                    f"honest nodes {honest_ids[0]} and {node_id} decided different "
                    "command vectors — consensus safety violated"
                )
        return chosen

    def _is_faulty(self, node_id: str) -> bool:
        behavior = self.behaviors.get(node_id)
        return behavior is not None and behavior.is_faulty

    # -- fault plane --------------------------------------------------------------------
    def set_node_behavior(
        self, node_id: str, behavior: ByzantineBehavior | None
    ) -> None:
        """Install (or with ``None`` clear) one node's behaviour everywhere.

        The behaviour map is consulted by three layers — this protocol's
        decision selection, the consensus protocol and the execution engine's
        per-node strategy objects — and all of them read it live, so swapping
        an entry here changes the node's conduct from the next round on.
        This is the primitive the fault-injection plane uses for crash
        (install a :class:`~repro.net.byzantine.CrashedBehavior`) and
        recovery (clear it, then :meth:`resync_node`).
        """
        node = self.engine.node_by_id(node_id)  # validates the id
        if behavior is None:
            self.behaviors.pop(node_id, None)
            self.consensus.behaviors.pop(node_id, None)
            self.engine.behaviors.pop(node_id, None)
            node.behavior = HonestBehavior()
        else:
            self.behaviors[node_id] = behavior
            self.consensus.behaviors[node_id] = behavior
            self.engine.behaviors[node_id] = behavior
            node.behavior = behavior

    def node_behavior(self, node_id: str) -> ByzantineBehavior | None:
        """The configured behaviour for ``node_id`` (``None`` when honest)."""
        return self.behaviors.get(node_id)

    def resync_node(self, node_id: str) -> None:
        """State-transfer a recovered node (see
        :meth:`CodedExecutionEngine.resync_node`)."""
        self.engine.resync_node(node_id)

    def resolve_fault_target(self, target: str, round_index: int) -> str:
        """Resolve an adaptive fault target to a concrete node id.

        ``"@primary"`` names the node that will lead ``round_index`` at view
        0 (the view-change path makes later views unpredictable at schedule
        time, which is exactly why hitting the initial primary is the
        interesting adversary).  Literal node ids pass through validated.
        """
        if target == "@primary":
            return self.consensus.leader_for(round_index, 0)
        if target.startswith("@"):
            raise ConfigurationError(
                f"adaptive fault target {target!r} is not supported by "
                "CSMProtocol (only '@primary')"
            )
        if target not in self.node_ids:
            raise ConfigurationError(f"unknown fault target node {target!r}")
        return target

    def freeze_failed_rounds(self) -> None:
        """Make failed rounds leave all state unadvanced (retry support)."""
        self.engine.freeze_on_failure = True

    # Round recording, verified-only delivery and the reporting surface
    # (``all_rounds_correct``, ``failed_rounds``, ``measured_throughput``)
    # are inherited from RoundProtocol — shared with the replication facade.
