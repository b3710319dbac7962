"""Unit tests for the batched round pipeline and the measurement bugfixes.

Covers the contract the benchmarks rely on — the coded engine's round is
bit-identical to the per-node round of :mod:`reference.coded_round` and
charges each node the same local work, and ``execute_rounds`` matches the
round-at-a-time loop for the replication engines — plus the
measurement-harness fixes: ``failed_rounds`` accounting and the
``num_faults > N`` guard.
"""

import numpy as np
import pytest

from reference import coded_round

from repro.analysis.measurement import (
    _fault_behaviors,
    measure_csm,
    measure_full_replication,
    measure_partial_replication,
)
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.exceptions import ConfigurationError
from repro.gf.matrix_cache import clear_matrix_cache, matrix_cache_info
from repro.machine.library import bank_account_machine
from repro.net.byzantine import FaultOnsetBehavior, RandomGarbageBehavior, SilentBehavior
from repro.replication import FullReplicationSMR, PartialReplicationSMR


def _coded_engine(field, num_nodes, num_machines, behaviors, seed=3, **config_kwargs):
    machine = bank_account_machine(field, num_accounts=2)
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        **config_kwargs,
    )
    engine = CodedExecutionEngine(
        config, machine, node_ids, behaviors(node_ids), np.random.default_rng(seed)
    )
    return engine, machine


def _assert_matches_reference(reference_engine, engine, commands, run):
    """``run(engine, commands)`` against the per-node round, round by round.

    Records, coded states and each node's encode + transition + refresh
    charge must be equal; a decode the honest nodes are charged may only
    cost the engine less.
    """
    reference = [coded_round.execute_round(reference_engine, c) for c in commands]
    results = run(engine, commands)
    assert len(results) == len(reference)
    for expected, result in zip(reference, results):
        assert expected.round_index == result.round_index
        np.testing.assert_array_equal(expected.outputs, result.outputs)
        np.testing.assert_array_equal(expected.states, result.states)
        assert expected.correct == result.correct
        assert expected.diagnostics["error_nodes"] == result.diagnostics["error_nodes"]
        for node in engine.nodes:
            charged = result.correct and not node.is_faulty
            local = [
                record.ops_per_node[node.node_id]
                - (record.diagnostics["decode_ops"] if charged else 0)
                for record in (expected, result)
            ]
            assert local[0] == local[1], node.node_id
        if result.correct:
            assert result.diagnostics["decode_ops"] <= expected.diagnostics["decode_ops"]
    for expected_node, node in zip(reference_engine.nodes, engine.nodes):
        np.testing.assert_array_equal(expected_node.coded_state, node.coded_state)
        assert expected_node.storage.round_index == node.storage.round_index
    np.testing.assert_array_equal(reference_engine.states, engine.states)
    assert reference_engine.round_index == engine.round_index
    return reference, results


def _execute_rounds(engine, commands):
    return engine.execute_rounds(commands)


def _execute_round_each(engine, commands):
    return [engine.execute_round(c) for c in commands]


class TestCodedBatchPipeline:
    @pytest.mark.parametrize("num_garbage,num_silent", [(0, 0), (2, 0), (1, 1)])
    def test_execute_rounds_bit_identical_to_scalar(
        self, big_field, num_garbage, num_silent
    ):
        def behaviors(node_ids):
            chosen = {
                node_ids[i]: RandomGarbageBehavior() for i in range(num_garbage)
            }
            for j in range(num_silent):
                chosen[node_ids[num_garbage + j]] = SilentBehavior()
            return chosen

        reference_engine, machine = _coded_engine(
            big_field, 12, 4, behaviors, num_faults=1
        )
        batch_engine, _ = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        commands = np.random.default_rng(9).integers(
            1, 1000, size=(5, 4, machine.command_dim)
        )
        _, batch_results = _assert_matches_reference(
            reference_engine, batch_engine, commands, _execute_rounds
        )
        assert all(r.diagnostics["batched"] is True for r in batch_results)

    @pytest.mark.parametrize(
        "run", [_execute_rounds, _execute_round_each], ids=["batch", "one_by_one"]
    )
    @pytest.mark.parametrize(
        "num_machines,behaviors",
        [
            pytest.param(
                3,
                lambda ids: {
                    ids[0]: FaultOnsetBehavior(RandomGarbageBehavior(), onset_round=1),
                    ids[7]: FaultOnsetBehavior(SilentBehavior(), onset_round=2),
                },
                id="onset",
            ),
            pytest.param(
                6,
                lambda ids: {ids[i]: RandomGarbageBehavior() for i in range(5)},
                id="beyond_radius",
            ),
        ],
    )
    def test_execute_round_matches_reference(
        self, big_field, num_machines, behaviors, run
    ):
        """Onsets that change the fault pattern mid-run and corruption past
        the radius: the engine's round — a batch of one, or the whole run as
        one batch — still matches the per-node round, failed rounds
        included."""
        reference_engine, machine = _coded_engine(
            big_field, 12, num_machines, behaviors, num_faults=1
        )
        engine, _ = _coded_engine(big_field, 12, num_machines, behaviors, num_faults=1)
        commands = np.random.default_rng(13).integers(
            1, 1000, size=(5, num_machines, machine.command_dim)
        )
        reference, _ = _assert_matches_reference(reference_engine, engine, commands, run)
        correct = [r.correct for r in reference]
        assert all(correct) if num_machines == 3 else not any(correct)

    def test_single_round_promoted_to_batch(self, big_field):
        engine, machine = _coded_engine(big_field, 9, 3, lambda ids: {})
        commands = np.random.default_rng(0).integers(
            1, 100, size=(3, machine.command_dim)
        )
        results = engine.execute_rounds(commands)
        assert len(results) == 1
        assert results[0].correct

    def test_batch_shape_validation(self, big_field):
        engine, _ = _coded_engine(big_field, 9, 3, lambda ids: {})
        with pytest.raises(ConfigurationError):
            engine.execute_rounds(np.zeros((2, 4, 2), dtype=np.int64))

    def test_batch_charges_scalar_encode_and_update_ops(self, big_field):
        """Per-node encode/update op counts match the per-node protocol model;
        the decode costs the batch less (that is the optimisation)."""
        reference_engine, machine = _coded_engine(big_field, 9, 3, lambda ids: {})
        batch_engine, _ = _coded_engine(big_field, 9, 3, lambda ids: {})
        commands = np.random.default_rng(4).integers(
            1, 100, size=(2, 3, machine.command_dim)
        )
        reference, results = _assert_matches_reference(
            reference_engine, batch_engine, commands, _execute_rounds
        )
        for expected, result in zip(reference, results):
            assert result.diagnostics["decode_ops"] < expected.diagnostics["decode_ops"]

    def test_matrix_cache_populated_by_batch(self, big_field):
        clear_matrix_cache()
        engine, machine = _coded_engine(big_field, 9, 3, lambda ids: {})
        commands = np.random.default_rng(1).integers(
            1, 100, size=(2, 3, machine.command_dim)
        )
        engine.execute_rounds(commands)
        info = matrix_cache_info()
        # C (the omega->alpha transfer) and the pivot's maps to alpha and omega.
        assert info.get("transfer", 0) >= 3
        assert info.get("interpolation", 0) >= 1


class TestReplicationBatches:
    def test_full_replication_execute_rounds(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(6)]
        scalar_engine = FullReplicationSMR(
            machine, 2, node_ids, {}, np.random.default_rng(0)
        )
        batch_engine = FullReplicationSMR(
            machine, 2, node_ids, {}, np.random.default_rng(0)
        )
        commands = np.random.default_rng(2).integers(
            1, 100, size=(3, 2, machine.command_dim)
        )
        scalar_results = [scalar_engine.execute_round(c) for c in commands]
        batch_results = batch_engine.execute_rounds(commands)
        for scalar_round, batch_round in zip(scalar_results, batch_results):
            np.testing.assert_array_equal(scalar_round.outputs, batch_round.outputs)
            assert scalar_round.correct == batch_round.correct

    def test_partial_replication_execute_rounds(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        node_ids = [f"node-{i}" for i in range(8)]
        engine = PartialReplicationSMR(
            machine, 4, node_ids, {}, np.random.default_rng(0)
        )
        commands = np.random.default_rng(2).integers(
            1, 100, size=(2, 4, machine.command_dim)
        )
        results = engine.execute_rounds(commands)
        assert len(results) == 2
        assert all(r.correct for r in results)

    def test_batch_shape_rejected(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        engine = FullReplicationSMR(machine, 2, ["a", "b", "c"])
        with pytest.raises(ConfigurationError):
            engine.execute_rounds(np.zeros((2, 3, 2), dtype=np.int64))


class TestMeasurementBugfixes:
    def test_fault_behaviors_rejects_excess_faults(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="exceeds the number of nodes"):
            _fault_behaviors(["a", "b", "c"], 4, rng)

    def test_measure_rejects_excess_faults(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        with pytest.raises(ValueError):
            measure_full_replication(machine, 4, 2, num_faults=5, rounds=1)
        with pytest.raises(ValueError):
            measure_partial_replication(machine, 4, 2, num_faults=5, rounds=1)
        with pytest.raises(ValueError):
            measure_csm(machine, 6, 2, num_faults=7, rounds=1)

    def test_failed_rounds_counted_beyond_bound(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        # (N=12, K=4, b=5) violates 2b + 1 <= N - d(K - 1): every round's
        # decode fails, yet every executed round must stay in the report.
        outcome = measure_csm(machine, 12, 4, num_faults=5, rounds=3)
        assert not outcome.all_correct
        assert outcome.failed_rounds == 3
        assert outcome.rounds == 3
        assert outcome.mean_ops_per_node > 0  # failed rounds still did work
        assert outcome.as_row()["failed_rounds"] == 3

    def test_failed_rounds_zero_when_clean(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        outcome = measure_csm(machine, 12, 4, num_faults=4, rounds=2)
        assert outcome.all_correct
        assert outcome.failed_rounds == 0

    def test_partial_replication_failed_rounds_reported(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        outcome = measure_partial_replication(machine, 8, 4, num_faults=1, rounds=2)
        assert not outcome.all_correct
        assert outcome.failed_rounds == 2


class TestSpeculativePipeline:
    """Engine-level contract of ``execute_rounds_pipelined``: bit-identical
    results across fault patterns and verify windows, rollback on
    mis-speculation, and graceful handling of rounds it cannot speculate."""

    @pytest.mark.parametrize("verify_window", [1, 2, 3, 16])
    @pytest.mark.parametrize("num_garbage,num_silent", [(0, 0), (2, 0), (1, 1)])
    def test_bit_identical_to_batched(
        self, big_field, num_garbage, num_silent, verify_window
    ):
        def behaviors(node_ids):
            chosen = {
                node_ids[i]: RandomGarbageBehavior() for i in range(num_garbage)
            }
            for j in range(num_silent):
                chosen[node_ids[num_garbage + j]] = SilentBehavior()
            return chosen

        batch_engine, machine = _coded_engine(
            big_field, 12, 4, behaviors, num_faults=1
        )
        pipelined_engine, _ = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        commands = np.random.default_rng(9).integers(
            1, 1000, size=(7, 4, machine.command_dim)
        )
        batch_results = batch_engine.execute_rounds(commands)
        pipelined_results = pipelined_engine.execute_rounds_pipelined(
            commands, verify_window=verify_window
        )
        for batch_round, pipelined_round in zip(batch_results, pipelined_results):
            assert batch_round.round_index == pipelined_round.round_index
            np.testing.assert_array_equal(
                batch_round.outputs, pipelined_round.outputs
            )
            np.testing.assert_array_equal(batch_round.states, pipelined_round.states)
            assert batch_round.correct == pipelined_round.correct
            assert (
                batch_round.diagnostics["error_nodes"]
                == pipelined_round.diagnostics["error_nodes"]
            )
            assert pipelined_round.diagnostics["pipelined"] is True
        assert batch_engine._suspects == pipelined_engine._suspects
        for batch_node, pipelined_node in zip(
            batch_engine.nodes, pipelined_engine.nodes
        ):
            np.testing.assert_array_equal(
                batch_node.coded_state, pipelined_node.coded_state
            )

    def test_garbage_pivot_node_forces_rollback(self, big_field):
        """A Byzantine node inside the trusted pivot invalidates speculation:
        its rounds resolve through the rollback path, later rounds re-learn
        the fast path, and every result still matches the batched engine."""

        def behaviors(node_ids):
            return {node_ids[0]: RandomGarbageBehavior()}

        batch_engine, machine = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        pipelined_engine, _ = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        commands = np.random.default_rng(3).integers(
            1, 1000, size=(6, 4, machine.command_dim)
        )
        batch_results = batch_engine.execute_rounds(commands)
        pipelined_results = pipelined_engine.execute_rounds_pipelined(commands)
        speculation = [r.diagnostics["speculation"] for r in pipelined_results]
        assert speculation[0] == "rollback"  # node-0 sat in the initial pivot
        assert "confirmed" in speculation[1:]  # pivots re-learnt around it
        for batch_round, pipelined_round in zip(batch_results, pipelined_results):
            np.testing.assert_array_equal(
                batch_round.outputs, pipelined_round.outputs
            )
            assert batch_round.correct == pipelined_round.correct
        assert 0 in pipelined_engine._suspects

    def test_silent_rounds_resolve_inline(self, big_field):
        def behaviors(node_ids):
            return {node_ids[2]: SilentBehavior()}

        engine, machine = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        commands = np.random.default_rng(5).integers(
            1, 1000, size=(3, 4, machine.command_dim)
        )
        results = engine.execute_rounds_pipelined(commands)
        assert all(r.diagnostics["speculation"] == "inline" for r in results)
        assert all(r.correct for r in results)

    def test_decode_failure_restores_checkpoint(self, big_field):
        """Past-the-radius corruption fails verification; the pipelined path
        must restore the checkpoint and report the identical failed rounds."""

        def behaviors(node_ids):
            return {node_ids[i]: RandomGarbageBehavior() for i in range(5)}

        batch_engine, machine = _coded_engine(big_field, 12, 6, behaviors, num_faults=1)
        pipelined_engine, _ = _coded_engine(big_field, 12, 6, behaviors, num_faults=1)
        commands = np.random.default_rng(8).integers(
            1, 1000, size=(4, 6, machine.command_dim)
        )
        batch_results = batch_engine.execute_rounds(commands)
        pipelined_results = pipelined_engine.execute_rounds_pipelined(commands)
        assert any(r.diagnostics["decoding_failed"] for r in batch_results)
        for batch_round, pipelined_round in zip(batch_results, pipelined_results):
            np.testing.assert_array_equal(
                batch_round.outputs, pipelined_round.outputs
            )
            np.testing.assert_array_equal(batch_round.states, pipelined_round.states)
            assert batch_round.correct == pipelined_round.correct
            assert (
                batch_round.diagnostics["decoding_failed"]
                == pipelined_round.diagnostics["decoding_failed"]
            )
        for batch_node, pipelined_node in zip(
            batch_engine.nodes, pipelined_engine.nodes
        ):
            np.testing.assert_array_equal(
                batch_node.coded_state, pipelined_node.coded_state
            )

    def test_repeated_calls_stay_aligned(self, big_field):
        """Service ticks call the pipeline repeatedly; state carried between
        calls (suspects, coded states, round indices) must stay in lockstep
        with the batched engine."""

        def behaviors(node_ids):
            return {node_ids[0]: RandomGarbageBehavior()}

        batch_engine, machine = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        pipelined_engine, _ = _coded_engine(big_field, 12, 4, behaviors, num_faults=1)
        rng = np.random.default_rng(2)
        for _ in range(3):
            commands = rng.integers(1, 1000, size=(4, 4, machine.command_dim))
            batch_results = batch_engine.execute_rounds(commands)
            pipelined_results = pipelined_engine.execute_rounds_pipelined(
                commands, verify_window=2
            )
            for batch_round, pipelined_round in zip(batch_results, pipelined_results):
                assert batch_round.round_index == pipelined_round.round_index
                np.testing.assert_array_equal(
                    batch_round.outputs, pipelined_round.outputs
                )
        assert batch_engine.round_index == pipelined_engine.round_index

    def test_rejects_non_positive_verify_window(self, big_field):
        engine, machine = _coded_engine(big_field, 9, 3, lambda ids: {})
        commands = np.random.default_rng(0).integers(
            1, 100, size=(2, 3, machine.command_dim)
        )
        with pytest.raises(ConfigurationError):
            engine.execute_rounds_pipelined(commands, verify_window=0)

    def test_partial_round_after_rollback_recomputes_on_repaired_states(
        self, big_field
    ):
        """Regression: a silent round arriving while mis-speculated rounds are
        still unverified must not decode results computed on the wrong bank —
        the flush rolls back first, then the round's honest results are
        recomputed on the repaired states."""
        from repro.net.byzantine import FaultOnsetBehavior

        def behaviors(node_ids):
            return {
                # In the initial pivot: honest for round 0, garbage after —
                # invalidating the speculation the silent round lands on.
                node_ids[0]: FaultOnsetBehavior(
                    RandomGarbageBehavior(), onset_round=1
                ),
                node_ids[7]: FaultOnsetBehavior(SilentBehavior(), onset_round=2),
            }

        batch_engine, machine = _coded_engine(big_field, 12, 3, behaviors, num_faults=2)
        pipelined_engine, _ = _coded_engine(big_field, 12, 3, behaviors, num_faults=2)
        commands = np.random.default_rng(13).integers(
            1, 1000, size=(6, 3, machine.command_dim)
        )
        batch_results = batch_engine.execute_rounds(commands)
        pipelined_results = pipelined_engine.execute_rounds_pipelined(
            commands, verify_window=16
        )
        for batch_round, pipelined_round in zip(batch_results, pipelined_results):
            np.testing.assert_array_equal(
                batch_round.outputs, pipelined_round.outputs
            )
            np.testing.assert_array_equal(batch_round.states, pipelined_round.states)
            assert batch_round.correct == pipelined_round.correct
            assert (
                batch_round.diagnostics["error_nodes"]
                == pipelined_round.diagnostics["error_nodes"]
            )
        assert batch_engine._suspects == pipelined_engine._suspects
