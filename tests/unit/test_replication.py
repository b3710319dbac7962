"""Unit tests for the replication baselines and client output acceptance."""

import numpy as np
import pytest

from reference.counting import counted
from reference.machine import step
from repro.exceptions import ConfigurationError
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    HonestBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
    WindowedBehavior,
)
from repro.replication import (
    FullReplicationSMR,
    PartialReplicationSMR,
    accept_matching,
)


def _group(*values, missing=()):
    """One machine's replica group of one-component reports."""
    reports = np.array([[[v] for v in values]])
    present = np.ones((1, len(values)), dtype=bool)
    present[0, list(missing)] = False
    return reports, present


class TestAcceptMatching:
    def test_threshold_acceptance(self):
        reports, present = _group(5, 5, 9)
        accepted, found = accept_matching(reports, present, 2)
        assert found.tolist() == [True] and accepted.tolist() == [[5]]
        accepted, found = accept_matching(reports, present, 3)
        assert found.tolist() == [False] and accepted.tolist() == [[0]]

    def test_missing_replies_do_not_count(self):
        reports, present = _group(5, 5, 9, missing=[1])
        accepted, found = accept_matching(reports, present, 2)
        assert found.tolist() == [False]

    def test_wrong_value_reaching_threshold_is_accepted(self):
        # The client cannot tell a wrong majority from a right one: a value
        # that reaches the threshold is accepted, and only a replay of the
        # true machines (repro.analysis.safety) can tell it is wrong.
        reports, present = _group(9, 9, 5)
        accepted, found = accept_matching(reports, present, 2)
        assert found.tolist() == [True] and accepted.tolist() == [[9]]

    def test_conflicting_threshold_values_accept_neither(self):
        # Two *distinct* values each backed by >= threshold nodes means at
        # least one honest node supported each — the fault bound is broken,
        # and picking either would be arbitrary.
        reports, present = _group(5, 5, 9, 9)
        accepted, found = accept_matching(reports, present, 2)
        assert found.tolist() == [False] and accepted.tolist() == [[0]]
        # A threshold only one value reaches still accepts normally.
        reports, present = _group(5, 5, 9, 9, 5)
        accepted, found = accept_matching(reports, present, 3)
        assert found.tolist() == [True] and accepted.tolist() == [[5]]

    def test_machines_accept_independently(self):
        reports = np.array([[[1, 2], [1, 2], [7, 7]], [[3, 4], [8, 8], [9, 9]]])
        present = np.ones((2, 3), dtype=bool)
        accepted, found = accept_matching(reports, present, 2)
        assert found.tolist() == [True, False]
        assert accepted.tolist() == [[1, 2], [0, 0]]


def _node_ids(n):
    return [f"node-{i}" for i in range(n)]


class TestFullReplication:
    def test_honest_round_correct_and_states_advance(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        engine = FullReplicationSMR(machine, 3, _node_ids(5))
        commands = np.array([[1, 1], [2, 2], [3, 3]])
        result = engine.execute_round(commands)
        assert result.correct
        assert result.outputs.tolist() == commands.tolist()
        assert engine.states.tolist() == commands.tolist()
        # second round accumulates
        result2 = engine.execute_round(commands)
        assert result2.outputs.tolist() == (2 * commands).tolist()

    def test_tolerates_minority_faults(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        behaviors = {"node-0": RandomGarbageBehavior(), "node-1": RandomGarbageBehavior()}
        engine = FullReplicationSMR(machine, 2, _node_ids(5), behaviors, np.random.default_rng(0))
        result = engine.execute_round(np.array([[4], [5]]))
        assert result.correct

    def test_majority_faults_break_it(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        behaviors = {f"node-{i}": SilentBehavior() for i in range(3)}
        engine = FullReplicationSMR(machine, 2, _node_ids(5), behaviors, np.random.default_rng(0))
        result = engine.execute_round(np.array([[4], [5]]))
        # With 3 of 5 silent, only 2 responses arrive < threshold b+1 = 4.
        assert not result.correct

    def test_security_bound_and_storage(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = FullReplicationSMR(machine, 2, _node_ids(9))
        assert engine.security_bound() == 4
        assert engine.security_bound(partially_synchronous=True) == 2
        assert engine.storage_efficiency == 1.0

    def test_ops_per_node_scale_with_k(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        small = FullReplicationSMR(machine, 2, _node_ids(4))
        large = FullReplicationSMR(
            bank_account_machine(big_field, num_accounts=1), 8, _node_ids(4)
        )
        ops_small = small.execute_round(np.ones((2, 1), dtype=int)).mean_ops_per_node
        ops_large = large.execute_round(np.ones((8, 1), dtype=int)).mean_ops_per_node
        assert ops_large > ops_small

    def test_command_shape_validation(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        engine = FullReplicationSMR(machine, 2, _node_ids(3))
        with pytest.raises(ConfigurationError):
            engine.execute_round(np.zeros((3, 2), dtype=int))


class TestPartialReplication:
    def test_group_partition(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = PartialReplicationSMR(machine, 3, _node_ids(9))
        assert engine.group_size == 3
        assert engine.group_of("node-0") == 0
        assert engine.group_of("node-8") == 2

    def test_requires_k_divides_n(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        with pytest.raises(ConfigurationError):
            PartialReplicationSMR(machine, 3, _node_ids(10))

    def test_honest_round_correct(self, big_field):
        machine = quadratic_market_machine(big_field)
        engine = PartialReplicationSMR(machine, 2, _node_ids(6))
        result = engine.execute_round(np.array([[1, 2], [3, 4]]))
        assert result.correct

    def test_security_collapses_to_group_majority(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        # 8 nodes, 4 machines -> groups of 2; a single fault in a group breaks it
        # (majority of 2 requires both nodes to agree).
        behaviors = {"node-0": RandomGarbageBehavior()}
        engine = PartialReplicationSMR(machine, 4, _node_ids(8), behaviors, np.random.default_rng(0))
        result = engine.execute_round(np.ones((4, 1), dtype=int))
        assert not result.correct
        assert engine.security_bound() == 0

    def test_same_faults_spread_across_groups_are_harmless(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        # 12 nodes, 3 machines -> groups of 4; one fault per group tolerated.
        behaviors = {
            "node-0": RandomGarbageBehavior(),
            "node-4": RandomGarbageBehavior(),
            "node-8": RandomGarbageBehavior(),
        }
        engine = PartialReplicationSMR(machine, 3, _node_ids(12), behaviors, np.random.default_rng(0))
        result = engine.execute_round(np.ones((3, 1), dtype=int))
        assert result.correct

    def test_storage_efficiency_is_k(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = PartialReplicationSMR(machine, 4, _node_ids(8))
        assert engine.storage_efficiency == 4.0

    def test_throughput_advantage_over_full_replication(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        k, n = 4, 8
        commands = np.ones((k, 1), dtype=int)
        full = FullReplicationSMR(
            bank_account_machine(big_field, num_accounts=1), k, _node_ids(n)
        ).execute_round(commands)
        partial = PartialReplicationSMR(machine, k, _node_ids(n)).execute_round(commands)
        assert partial.throughput(k) > full.throughput(k)


class TestOneArrayRound:
    """Both baselines are layouts of one array round (``ReplicationEngine``)."""

    @staticmethod
    def _step_cost(machine, commands):
        return counted(machine.field, step, machine, machine.initial_state, commands[0])[1].total

    @pytest.mark.parametrize("layout, per_node", [("full", 3), ("partial", 1)])
    def test_node_pays_one_step_per_hosted_replica(self, big_field, layout, per_node):
        machine = quadratic_market_machine(big_field)
        commands = np.array([[1, 2], [3, 4], [5, 6]])
        engine_type = FullReplicationSMR if layout == "full" else PartialReplicationSMR
        behaviors = {"node-1": RandomGarbageBehavior()}
        engine = engine_type(machine, 3, _node_ids(6), behaviors, np.random.default_rng(0))
        result = engine.execute_round(commands)
        cost = self._step_cost(machine, commands)
        assert result.ops_per_node == {n: per_node * cost for n in _node_ids(6)}

    def test_forged_reports_are_not_charged(self, big_field):
        # The shared fault-report rule runs uncounted, as in the coded
        # engine: a corrupting node pays its honest step, not its forgery.
        machine = bank_account_machine(big_field, num_accounts=2)
        commands = np.array([[1, 1], [2, 2]])
        honest = FullReplicationSMR(machine, 2, _node_ids(4)).execute_round(commands)
        corrupt = FullReplicationSMR(
            machine, 2, _node_ids(4), {"node-0": CorruptResultBehavior()}
        ).execute_round(commands)
        assert corrupt.correct
        assert corrupt.ops_per_node == honest.ops_per_node

    def test_only_honest_replicas_advance(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = FullReplicationSMR(
            machine, 2, _node_ids(4), {"node-1": SilentBehavior()},
            np.random.default_rng(0),
        )
        results = engine.execute_rounds(np.full((3, 2, 1), 5))
        assert all(result.correct for result in results)
        assert engine.replicas[:, 0].tolist() == [15, 15, 0, 0, 15, 15, 15, 15]
        assert engine.states[:, 0].tolist() == [15, 15]

    def test_failed_round_advances_nothing(self, big_field):
        # Group 0's client never hears two matching replies, so every round
        # fails, and no replica moves — group 1's neither.
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = PartialReplicationSMR(
            machine, 2, _node_ids(4), {"node-1": SilentBehavior()},
            np.random.default_rng(0),
        )
        results = engine.execute_rounds(np.full((3, 2, 1), 5))
        assert [result.correct for result in results] == [False] * 3
        assert [g["accepted"] for g in results[0].diagnostics["groups"]] == [False, True]
        assert not engine.replicas.any()
        assert all(not result.states.any() for result in results)

    def test_full_replication_storage_and_groups(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        engine = FullReplicationSMR(machine, 3, _node_ids(5))
        assert engine.group_size == 5
        assert engine.replicas.shape == (15, 1)


def _loop_reference(layout, machine, num_machines, node_ids, behaviors, rng, batch):
    """The per-node, per-machine loop both baselines used to run, as a reference.

    Returns ``(outputs, correct, ops_per_node)`` per round, plus the final
    replica states in ``(node, machine)`` order.  A round is correct when
    every client accepted a value; only then do the honest replicas advance.
    Forged reports are uncounted, as in the shared rule.
    """
    field, num_nodes = machine.field, len(node_ids)
    group_size = num_nodes // num_machines
    hosted = {
        i: list(range(num_machines)) if layout == "full" else [i // group_size]
        for i in range(num_nodes)
    }
    replicas = {(i, k): machine.initial_state.copy() for i in hosted for k in hosted[i]}
    rounds = []
    for commands in batch:
        faulty = [n for n in node_ids if behaviors.get(n, HonestBehavior()).is_faulty]
        threshold = len(faulty) + 1 if layout == "full" else group_size // 2 + 1
        responses = [[] for _ in range(num_machines)]
        advanced = {}
        ops = {}
        for i, node_id in enumerate(node_ids):
            behavior = behaviors.get(node_id, HonestBehavior())
            ops[node_id] = 0
            for k in hosted[i]:
                (next_state, output), count = counted(
                    field, step, machine, replicas[i, k], commands[k]
                )
                ops[node_id] += count.total
                if not behavior.is_faulty:
                    advanced[i, k] = next_state
                    responses[k].append(tuple(output.tolist()))
                    continue
                sent = behavior.transform_result(field, node_id, output, rng)
                if sent is not None and not behavior.delays_message():
                    responses[k].append(tuple(np.asarray(sent).tolist()))
        outputs = np.zeros((num_machines, machine.output_dim), dtype=np.int64)
        correct = True
        for k, replies in enumerate(responses):
            reaching = {v for v in replies if replies.count(v) >= threshold}
            accepted = reaching.pop() if len(reaching) == 1 else None
            if accepted is not None:
                outputs[k] = accepted
            correct &= accepted is not None
        if correct:
            replicas.update(advanced)
        rounds.append((outputs.tolist(), correct, ops))
    return rounds, [replicas[key].tolist() for key in sorted(replicas)]


@pytest.mark.parametrize("seed", range(12))
def test_array_round_matches_the_loop_reference(big_field, seed):
    pick = np.random.default_rng(seed)
    layout = ("full", "partial")[seed % 2]
    num_machines = int(pick.integers(1, 4))
    num_nodes = num_machines * int(pick.integers(1, 5))
    machine = (bank_account_machine(big_field, 2), quadratic_market_machine(big_field))[
        seed % 3 == 0
    ]
    kinds = (RandomGarbageBehavior, SilentBehavior, CorruptResultBehavior,
             lambda: WindowedBehavior(SilentBehavior(), 1, 3))
    node_ids = _node_ids(num_nodes)
    chosen = pick.choice(num_nodes, size=int(pick.integers(0, num_nodes + 1)), replace=False)
    behaviors = {node_ids[i]: kinds[int(pick.integers(0, 4))]() for i in chosen}
    ref_behaviors = {n: type(b)() if not isinstance(b, WindowedBehavior)
                     else WindowedBehavior(SilentBehavior(), 1, 3)
                     for n, b in behaviors.items()}
    batch = pick.integers(0, 100, size=(4, num_machines, machine.command_dim))
    engine_type = FullReplicationSMR if layout == "full" else PartialReplicationSMR
    engine = engine_type(
        machine, num_machines, node_ids, behaviors, np.random.default_rng(seed)
    )
    results = engine.execute_rounds(batch)
    ref_rng = np.random.default_rng(seed)
    expected, replicas = _loop_reference(
        layout, machine, num_machines, node_ids, ref_behaviors, ref_rng, batch
    )
    got = [(r.outputs.tolist(), r.correct, r.ops_per_node) for r in results]
    assert got == expected
    assert engine.replicas.tolist() == replicas
    assert engine.rng.bit_generator.state == ref_rng.bit_generator.state
