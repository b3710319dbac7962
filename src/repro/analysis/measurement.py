"""Measurement harnesses: run the execution engines and record the metrics.

These helpers are the bridge between the library and the experiment /
benchmark layer: each one builds a scheme (full replication, partial
replication, or CSM), injects a chosen number of Byzantine nodes, runs a few
rounds of a workload and reports measured security (did every client still
obtain the correct output?  the replaying checker of
:mod:`repro.analysis.safety` decides), storage efficiency, and throughput
(commands per unit per-node field operation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DecodingError, SecurityViolation
from repro.core.config import CSMConfig
from repro.analysis.safety import replay_rounds
from repro.core.execution import CodedExecutionEngine
from repro.machine.interface import StateMachine
from repro.net.byzantine import ByzantineBehavior, RandomGarbageBehavior
from repro.replication.engine import FullReplicationSMR, PartialReplicationSMR
from repro.rng import default_stream
from repro.rounds import RoundResult


def wall_clock() -> float:
    """Monotonic wall-clock read for throughput timing.

    ``analysis/measurement.py`` is the DET002-allowlisted timing site: all
    wall-clock reads in experiment code route through this helper so that
    protocol/simulation code provably never touches the real clock (the
    simulated ``network.now`` is the only time protocols may observe).
    """
    return time.perf_counter()


@dataclass
class MeasuredPerformance:
    """Measured metrics of one scheme at one parameter point."""

    scheme: str
    num_nodes: int
    num_machines: int
    num_faults: int
    rounds: int
    all_correct: bool
    storage_efficiency: float
    mean_ops_per_node: float
    throughput: float
    failed_rounds: int = 0

    def as_row(self) -> dict:
        return {
            "scheme": self.scheme,
            "N": self.num_nodes,
            "K": self.num_machines,
            "b": self.num_faults,
            "correct": self.all_correct,
            "storage_efficiency": self.storage_efficiency,
            "ops_per_node": self.mean_ops_per_node,
            "throughput": self.throughput,
            "failed_rounds": self.failed_rounds,
        }


def _fault_behaviors(
    node_ids: list[str], num_faults: int, rng: np.random.Generator,
    behavior_factory=RandomGarbageBehavior,
) -> dict[str, ByzantineBehavior]:
    """Pick ``num_faults`` nodes (at random) and give them a faulty behaviour."""
    if num_faults > len(node_ids):
        raise ValueError(
            f"num_faults {num_faults} exceeds the number of nodes "
            f"{len(node_ids)}; refusing to silently run with fewer faults "
            "than requested"
        )
    if num_faults <= 0:
        return {}
    chosen = rng.choice(len(node_ids), size=num_faults, replace=False)
    return {node_ids[int(i)]: behavior_factory() for i in chosen}


def _workload(machine: StateMachine, num_machines: int, rounds: int, rng: np.random.Generator):
    """Random command batches, one per round."""
    return [
        rng.integers(1, 1000, size=(num_machines, machine.command_dim))
        for _ in range(rounds)
    ]


def _execute_workload(engine, workload: list[np.ndarray]) -> tuple[bool, float, int]:
    """Run the workload as one batch; every executed round counts.

    Returns ``(all_correct, mean_ops_per_node, failed_rounds)``.  A round is
    *failed* when its engine call raises (:class:`SecurityViolation` /
    :class:`DecodingError`), when it fails (no output accepted, decoding
    failure past the radius), or when the replaying checker
    (:func:`~repro.analysis.safety.replay_rounds`) finds a wrong value among
    what it delivered.  Failed rounds stay in the denominator: nodes spent
    the work whether or not the clients got a correct answer, and dropping
    them used to bias ``mean_ops_per_node`` (and hence throughput) upward
    exactly when faults bite.  A raising engine loses its per-round records,
    so every requested round is reported as executed-and-failed, without
    operations (current engines record failures in the
    :class:`RoundResult` instead of raising, so this is a safety net).
    """
    raised = 0
    executed: list[tuple[np.ndarray, RoundResult]] = []
    try:
        executed = list(zip(workload, engine.execute_rounds(np.stack(workload))))
    except (SecurityViolation, DecodingError):
        raised = len(workload)
    ops = [result.mean_ops_per_node for _, result in executed]
    failed_rounds = raised + int((~replay_rounds(engine.machine, executed).right).sum())
    mean_ops = float(np.mean(ops)) if ops else 0.0
    return failed_rounds == 0, mean_ops, failed_rounds


def measure_full_replication(
    machine: StateMachine,
    num_nodes: int,
    num_machines: int,
    num_faults: int,
    rounds: int = 3,
    seed: int = 0,
) -> MeasuredPerformance:
    """Run full replication and measure correctness / ops / throughput."""
    rng = default_stream(seed)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    behaviors = _fault_behaviors(node_ids, num_faults, rng)
    engine = FullReplicationSMR(machine, num_machines, node_ids, behaviors, rng)
    correct, mean_ops, failed_rounds = _execute_workload(
        engine, _workload(machine, num_machines, rounds, rng)
    )
    return MeasuredPerformance(
        scheme="full-replication",
        num_nodes=num_nodes,
        num_machines=num_machines,
        num_faults=num_faults,
        rounds=rounds,
        all_correct=correct,
        storage_efficiency=engine.storage_efficiency,
        mean_ops_per_node=mean_ops,
        throughput=num_machines / mean_ops if mean_ops else float("inf"),
        failed_rounds=failed_rounds,
    )


def measure_partial_replication(
    machine: StateMachine,
    num_nodes: int,
    num_machines: int,
    num_faults: int,
    rounds: int = 3,
    seed: int = 0,
    concentrate_faults: bool = True,
) -> MeasuredPerformance:
    """Run partial replication; faults are concentrated on group 0 by default.

    Concentrating the corruptions on a single group is exactly the adversary
    the paper describes ("once the adversary identifies this set and then
    corrupts it"), and is what makes partial replication's security collapse
    to ``q / 2``.
    """
    rng = default_stream(seed)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    if concentrate_faults:
        if num_faults > num_nodes:
            raise ValueError(
                f"num_faults {num_faults} exceeds the number of nodes {num_nodes}"
            )
        behaviors = {
            node_ids[i]: RandomGarbageBehavior() for i in range(num_faults)
        }
    else:
        behaviors = _fault_behaviors(node_ids, num_faults, rng)
    engine = PartialReplicationSMR(machine, num_machines, node_ids, behaviors, rng)
    correct, mean_ops, failed_rounds = _execute_workload(
        engine, _workload(machine, num_machines, rounds, rng)
    )
    return MeasuredPerformance(
        scheme="partial-replication",
        num_nodes=num_nodes,
        num_machines=num_machines,
        num_faults=num_faults,
        rounds=rounds,
        all_correct=correct,
        storage_efficiency=engine.storage_efficiency,
        mean_ops_per_node=mean_ops,
        throughput=num_machines / mean_ops if mean_ops else float("inf"),
        failed_rounds=failed_rounds,
    )


def measure_csm(
    machine: StateMachine,
    num_nodes: int,
    num_machines: int,
    num_faults: int,
    rounds: int = 3,
    seed: int = 0,
    partially_synchronous: bool = False,
    behavior_factory=RandomGarbageBehavior,
) -> MeasuredPerformance:
    """Run CSM's coded execution and measure correctness / ops / throughput.

    When the requested ``(N, K, b)`` point violates the decoding bound the
    configuration is still built with ``num_faults=0`` for feasibility and
    the faults are injected anyway — measuring what actually happens past the
    bound (decoding failures) is part of the Table 2 experiment.

    The rounds run as one ``execute_rounds`` batch: the engine's only round,
    with the per-node operation charges of the textbook protocol and one
    suspect-learning decode per round.
    """
    rng = default_stream(seed)
    config_faults = num_faults
    try:
        config = CSMConfig(
            field=machine.field,
            num_nodes=num_nodes,
            num_machines=num_machines,
            degree=machine.degree,
            num_faults=config_faults,
            partially_synchronous=partially_synchronous,
        )
    except Exception:
        config = CSMConfig(
            field=machine.field,
            num_nodes=num_nodes,
            num_machines=num_machines,
            degree=machine.degree,
            num_faults=0,
            partially_synchronous=partially_synchronous,
        )
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    behaviors = _fault_behaviors(node_ids, num_faults, rng, behavior_factory)
    engine = CodedExecutionEngine(config, machine, node_ids, behaviors, rng)
    correct, mean_ops, failed_rounds = _execute_workload(
        engine, _workload(machine, num_machines, rounds, rng)
    )
    return MeasuredPerformance(
        scheme="coded-state-machine",
        num_nodes=num_nodes,
        num_machines=num_machines,
        num_faults=num_faults,
        rounds=rounds,
        all_correct=correct,
        storage_efficiency=engine.storage_efficiency,
        mean_ops_per_node=mean_ops,
        throughput=num_machines / mean_ops if mean_ops else float("inf"),
        failed_rounds=failed_rounds,
    )


def find_breaking_faults(measure, machine, num_nodes: int, num_machines: int, max_faults: int, **kwargs) -> int:
    """Empirical security: the largest ``b`` for which the scheme stays correct.

    ``measure`` is one of the ``measure_*`` functions above.  The sweep is
    monotone in spirit but adversarial placements can be lucky, so the
    function returns the largest ``b`` such that *all* fault counts up to and
    including ``b`` were correct.
    """
    largest_correct = -1
    for b in range(0, max_faults + 1):
        outcome = measure(machine, num_nodes, num_machines, b, **kwargs)
        if outcome.all_correct:
            largest_correct = b
        else:
            break
    return largest_correct
