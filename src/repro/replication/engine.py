"""The replication baselines (Section 3): one array round over a replica layout.

Both classic schemes store *uncoded* replicas and differ only in which node
replicates which machine:

* full replication — every node stores and executes all ``K`` machines, so
  each machine's replica group is all ``N`` nodes;
* partial (sharded) replication — the nodes split into ``K`` disjoint groups
  of ``q = N / K``, and group ``k`` replicates only machine ``k``.

:class:`ReplicationEngine` runs one round for any such layout in four array
steps:

1. one :meth:`~repro.machine.interface.StateMachine.step_batch` over the
   stack of every replica's state;
2. the coded engine's fault-report rule
   (:func:`~repro.net.byzantine.faulty_reports`), one row per replica;
3. one client acceptance over every machine's replica group
   (:func:`~repro.replication.client.accept_matching`);
4. per-node operation counts in one ``int64`` tally: every replica row costs
   one evaluation of ``f`` (the transition's ``row_cost``), and a node pays
   for each replica it hosts.

A round is ``correct`` when every client reached its matching-replies
threshold; then the honest replicas advance (faulty ones go stale), and a
failed round advances nothing.  The engine runs no reference machine, so a
wrong value that colluding replicas push past a client's threshold is
accepted and counts as correct: the replaying checker of
:mod:`repro.analysis.safety` is what flags it.

The layouts' Table 1 entries follow from the group size ``G`` (``N`` or
``q``) and the replicas per node (``K`` or 1): security is a minority of one
group, storage efficiency is ``K`` over the replicas per node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError
from repro.machine.interface import StateMachine
from repro.net.byzantine import HONEST, ByzantineBehavior, faulty_reports
from repro.replication.client import accept_matching
from repro.rng import default_stream
from repro.rounds import RoundResult, command_batch


class ReplicationEngine(ABC):
    """Executes rounds over uncoded replicas laid out by ``groups``.

    Parameters
    ----------
    machine:
        The template state machine (all ``K`` machines share its transition).
    node_ids:
        The ``N`` node identifiers.
    groups:
        ``(K, G)`` node indices: row ``k`` lists the nodes replicating
        machine ``k``.
    behaviors:
        Mapping from node id to Byzantine behaviour (missing = honest), read
        live every round.
    """

    def __init__(
        self,
        machine: StateMachine,
        node_ids: list[str],
        groups: np.ndarray,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.machine = machine
        self.field = machine.field
        self.node_ids = list(node_ids)
        self.behaviors = dict(behaviors or {})
        self.rng = rng if rng is not None else default_stream()
        self.num_machines, self.group_size = groups.shape
        # One row per (node, machine) replica, node-major so the fault-report
        # draws run in node order; _group_rows[k] are machine k's replica rows.
        machines = np.repeat(np.arange(self.num_machines), self.group_size)
        order = np.lexsort((machines, groups.ravel()))
        self._replica_node = groups.ravel()[order]
        self._replica_machine = machines[order]
        self._group_rows = np.argsort(order).reshape(groups.shape)
        self._replicas_per_node = np.bincount(
            self._replica_node, minlength=self.num_nodes
        )
        # Every replica's state.
        self.replicas = np.tile(machine.initial_state, (order.size, 1))
        self.round_index = 0

    # -- structural metrics --------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_faulty(self) -> int:
        return int(self._faulty_nodes().sum())

    @property
    def storage_efficiency(self) -> float:
        """``K`` distinct machines over the replicas each node stores."""
        return self.num_machines * self.num_nodes / self._replica_node.size

    def security_bound(self, partially_synchronous: bool = False) -> int:
        """Faults tolerated if all of them land in one replica group."""
        return (self.group_size - 1) // (3 if partially_synchronous else 2)

    def behavior_of(self, node_id: str) -> ByzantineBehavior:
        return self.behaviors.get(node_id, HONEST)

    def _faulty_nodes(self) -> np.ndarray:
        return np.array([self.behavior_of(n).is_faulty for n in self.node_ids])

    @property
    def states(self) -> np.ndarray:
        """``(K, state_dim)``: each machine's state as its first honest replica
        holds it (its first replica, when none of its group is honest)."""
        honest = ~self._faulty_nodes()[self._replica_node][self._group_rows]
        first = honest.argmax(axis=1)
        return self.replicas[self._group_rows[np.arange(self.num_machines), first]]

    # -- layout rules -----------------------------------------------------------------
    @abstractmethod
    def _threshold(self) -> int:
        """Matching replies a client waits for before accepting an output."""

    @abstractmethod
    def _diagnostics(self, threshold: int, accepted: np.ndarray) -> dict:
        """The round's layout-specific diagnostics (``accepted[k]``: machine
        ``k``'s client reached its threshold)."""

    # -- execution -------------------------------------------------------------------------
    def execute_round(self, commands: np.ndarray) -> RoundResult:
        """One round of ``(K, command_dim)`` agreed commands."""
        (result,) = self.execute_rounds(np.asarray(commands)[None])
        return result

    def execute_rounds(self, commands_batch: np.ndarray) -> list[RoundResult]:
        """``B`` rounds of ``(B, K, command_dim)`` commands, in order."""
        batch = command_batch(self.machine, self.num_machines, commands_batch)
        return [self._round(commands) for commands in batch]

    def _round(self, commands: np.ndarray) -> RoundResult:
        replica_states, outputs = self.machine.step_batch(
            self.replicas, commands[self._replica_machine]
        )
        faulty = self._faulty_nodes()[self._replica_node]
        senders = [
            (row, self.node_ids[node], self.behavior_of(self.node_ids[node]))
            for row, node in enumerate(self._replica_node.tolist())
            if faulty[row]
        ]
        present = np.ones(len(outputs), dtype=bool)
        for row, value in faulty_reports(self.field, senders, outputs, self.rng).items():
            if value is None:
                present[row] = False
            else:
                outputs[row] = value

        threshold = self._threshold()
        accepted, found = accept_matching(
            outputs[self._group_rows], present[self._group_rows], threshold
        )
        correct = bool(found.all())
        if correct:
            # Honest replicas advance; faulty ones keep their stale state.
            self.replicas[~faulty] = replica_states[~faulty]
        ops = sum(self.machine.transition.row_cost) * self._replicas_per_node
        self.round_index += 1
        return RoundResult(
            round_index=self.round_index - 1,
            outputs=accepted,
            states=self.states,
            correct=correct,
            ops_per_node=dict(zip(self.node_ids, ops.tolist())),
            diagnostics=self._diagnostics(threshold, found),
        )


class FullReplicationSMR(ReplicationEngine):
    """Full replication: every node stores and executes every machine.

    A client accepts a value once ``b + 1`` matching responses arrive, so
    security is ``floor((N - 1) / 2)`` in a synchronous network
    (``floor((N - 1) / 3)`` with PBFT in the partially synchronous one),
    storage efficiency is 1, and per-node work grows with ``K``, so
    throughput does not scale.
    """

    def __init__(
        self,
        machine: StateMachine,
        num_machines: int,
        node_ids: list[str],
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_machines < 1:
            raise ConfigurationError(f"need at least one machine, got {num_machines}")
        if not node_ids:
            raise ConfigurationError("need at least one node")
        groups = np.tile(np.arange(len(node_ids)), (int(num_machines), 1))
        super().__init__(machine, node_ids, groups, behaviors, rng)

    def _threshold(self) -> int:
        return self.num_faulty + 1

    def _diagnostics(self, threshold: int, accepted: np.ndarray) -> dict:
        return {"threshold": threshold, "num_faulty": self.num_faulty}


class PartialReplicationSMR(ReplicationEngine):
    """Partial (sharded) replication: disjoint groups of ``q = N / K`` nodes.

    Storage efficiency and throughput improve by a factor of ``K`` over full
    replication, but the adversary only needs to corrupt a majority of a
    *single group* — ``q / 2`` nodes — to break that machine: the security
    collapse of the paper's Table 1 (``beta_partial = N / (2K)``).  The
    client of machine ``k`` hears only from group ``k`` and cannot know how
    many of its members are faulty, so it waits for a group majority.
    """

    def __init__(
        self,
        machine: StateMachine,
        num_machines: int,
        node_ids: list[str],
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_machines < 1:
            raise ConfigurationError(f"need at least one machine, got {num_machines}")
        if len(node_ids) % num_machines != 0:
            raise ConfigurationError(
                f"partial replication needs K | N; got N={len(node_ids)}, K={num_machines}"
            )
        groups = np.arange(len(node_ids)).reshape(int(num_machines), -1)
        super().__init__(machine, node_ids, groups, behaviors, rng)

    def group_of(self, node_id: str) -> int:
        if node_id not in self.node_ids:
            raise ConfigurationError(f"node {node_id} is not in any group")
        return self.node_ids.index(node_id) // self.group_size

    def _threshold(self) -> int:
        return self.group_size // 2 + 1

    def _diagnostics(self, threshold: int, accepted: np.ndarray) -> dict:
        faulty = self._faulty_nodes().reshape(self.num_machines, -1).sum(axis=1)
        groups = [
            {"group": k, "faulty": int(f), "accepted": ok}
            for k, (f, ok) in enumerate(zip(faulty, accepted.tolist()))
        ]
        return {"groups": groups, "group_size": self.group_size}
