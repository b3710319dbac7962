"""Unit tests for the replaying safety checker (repro.analysis.safety)."""

import numpy as np
import pytest

from reference import coded_round
from reference.polynomial import Poly

from repro.analysis.measurement import _execute_workload
from repro.analysis.safety import replay_rounds
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.machine.library import bank_account_machine
from repro.net.byzantine import CorruptResultBehavior, SilentBehavior
from repro.replication import FullReplicationSMR, PartialReplicationSMR


def _node_ids(n):
    return [f"node-{i}" for i in range(n)]


@pytest.mark.parametrize("per_node", [False, True], ids=["engine", "reference"])
def test_crafted_miscorrection_is_delivered_and_flagged(big_field, rng, per_node):
    # N=16, K=4, d=1: dimension 4, radius 6.  p has degree 3 < dimension and
    # vanishes on the first three evaluation points, so adding p(alpha_i) at
    # the radius + 1 nodes 3-9 turns the honest codeword h into the codeword
    # h + p, which agrees with ten reports and misses only the six honest
    # nodes 10-15.  No decoder can tell, neither the engine's nor the
    # per-node Berlekamp-Welch round: past the radius the paper promises
    # nothing, and the round is delivered.
    machine = bank_account_machine(big_field, num_accounts=2)
    config = CSMConfig(big_field, 16, 4, degree=machine.degree, num_faults=6)
    engine = CodedExecutionEngine(config, machine, rng=np.random.default_rng(0))
    assert (engine.decoder.code.dimension, config.security) == (4, 6)
    p = Poly.from_roots(big_field, engine.scheme.alphas[:3])
    for i in range(3, 10):
        node = engine.nodes[i]
        node.behavior = engine.behaviors[node.node_id] = CorruptResultBehavior(
            offset=p.evaluate(engine.scheme.alphas[i])
        )
    commands = rng.integers(1, 50, size=(4, 2))
    if per_node:
        result = coded_round.execute_round(engine, commands)
    else:
        result = engine.execute_round(commands)
    assert result.correct is True
    assert result.diagnostics["decoding_failed"] is False
    assert set(result.diagnostics["error_nodes"]) == set(range(10, 16))
    report = replay_rounds(machine, [(commands, result)])
    assert report.flagged_rounds == [0]
    assert report.wrong.all()


def test_colluding_replicas_are_accepted_and_flagged(big_field):
    # Two corrupt replicas of a 3-node group report the same wrong value and
    # outvote the honest one: every client reaches its threshold, so every
    # round is correct, and only the replay flags machine 0.
    machine = bank_account_machine(big_field, num_accounts=2)
    behaviors = {f"node-{i}": CorruptResultBehavior(offset=1) for i in (0, 1)}
    engine = PartialReplicationSMR(
        machine, 3, _node_ids(9), behaviors, np.random.default_rng(0)
    )
    workload = [np.full((3, 2), 5)] * 3
    results = engine.execute_rounds(np.stack(workload))
    assert [result.correct for result in results] == [True] * 3
    assert [result.outputs[0].tolist() for result in results] == [[6, 6]] * 3
    report = replay_rounds(machine, zip(workload, results))
    assert report.wrong[:, 0].all() and not report.wrong[:, 1:].any()
    # The measurement harness reads its "correct" column from the replay.
    engine = PartialReplicationSMR(
        machine, 3, _node_ids(9), behaviors, np.random.default_rng(0)
    )
    correct, _, failed_rounds = _execute_workload(engine, workload)
    assert (correct, failed_rounds) == (False, 3)


def test_failed_rounds_are_skipped(big_field):
    # Round 0 fails (three of five replicas silent), so it advances nothing
    # and the replay does not step the true machines over it either.
    machine = bank_account_machine(big_field, num_accounts=1)
    engine = FullReplicationSMR(machine, 2, _node_ids(5))
    workload = [np.array([[4], [5]]), np.array([[1], [2]])]
    for i in range(3):
        engine.behaviors[f"node-{i}"] = SilentBehavior()
    first = engine.execute_round(workload[0])
    engine.behaviors.clear()
    second = engine.execute_round(workload[1])
    assert (first.correct, second.correct) == (False, True)
    assert second.outputs.tolist() == [[1], [2]]
    report = replay_rounds(machine, [(workload[0], first), (workload[1], second)])
    assert report.delivered.tolist() == [False, True]
    assert report.right.tolist() == [False, True]
    assert report.flagged_rounds == []


def test_empty_replay(big_field):
    report = replay_rounds(bank_account_machine(big_field, num_accounts=1), [])
    assert report.right.size == 0 and report.flagged_rounds == []
