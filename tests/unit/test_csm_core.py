"""Unit tests for the CSM core: configuration, coded storage, node, and the
coded execution engine."""

import numpy as np
import pytest

from reference import coded_round
from reference.interpolation import interpolation_polynomials
from reference.machine import step
from reference.polynomial import composite_polynomials

from repro.exceptions import ConfigurationError, DecodingError
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.core.node import CSMNode
from repro.core.storage import CodedStateStore
from repro.gf.prime_field import PrimeField
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    EquivocatingBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
    faulty_reports,
)


class TestCSMConfig:
    def test_valid_configuration_summary(self, big_field):
        config = CSMConfig(big_field, num_nodes=16, num_machines=4, degree=2, num_faults=1)
        assert config.composite_degree == 6
        assert config.decoding_dimension == 7
        assert config.storage_efficiency == 4
        assert config.security == (16 - 6 - 1) // 2
        summary = config.summary()
        assert summary["N"] == 16 and summary["setting"] == "sync"

    def test_rejects_k_beyond_decoding_bound(self, big_field):
        # N=10, b=3, d=1: K <= (10 - 7)/1 + 1 = 4
        CSMConfig(big_field, num_nodes=10, num_machines=4, degree=1, num_faults=3)
        with pytest.raises(ConfigurationError):
            CSMConfig(big_field, num_nodes=10, num_machines=5, degree=1, num_faults=3)

    def test_partially_synchronous_bound_is_stricter(self, big_field):
        # N=16, d=2, b=4: sync supports K <= (16-8-1)/2+1 = 4, but the
        # partially synchronous penalty 3b drops that to K <= 2.
        sync = CSMConfig(big_field, 16, 4, degree=2, num_faults=4)
        assert sync.max_supported_machines == 4
        with pytest.raises(ConfigurationError):
            CSMConfig(big_field, 16, 4, degree=2, num_faults=4, partially_synchronous=True)

    def test_theorem_formula_matches_bound_for_exact_fraction(self, big_field):
        # For mu*N integral, floor((1-2mu)N/d + 1 - 1/d) equals the K bound.
        for num_nodes in (12, 20, 40):
            for degree in (1, 2):
                faults = num_nodes // 4
                config = CSMConfig(big_field, num_nodes, 1, degree, faults)
                formula = CSMConfig.theorem_max_machines(num_nodes, 0.25, degree)
                assert config.max_supported_machines == formula

    def test_basic_validation(self, big_field):
        with pytest.raises(ConfigurationError):
            CSMConfig(big_field, num_nodes=4, num_machines=5, degree=1)
        with pytest.raises(ConfigurationError):
            CSMConfig(big_field, num_nodes=4, num_machines=1, degree=0)
        with pytest.raises(ConfigurationError):
            CSMConfig(big_field, num_nodes=4, num_machines=1, degree=1, num_faults=-1)


class TestCodedStateStore:
    def test_replace_and_round_tracking(self, big_field):
        store = CodedStateStore(big_field, 0, np.array([1, 2]))
        assert store.state_dim == 2 and store.round_index == 0
        store.replace(np.array([3, 4]))
        assert store.coded_state.tolist() == [3, 4]
        assert store.round_index == 1
        with pytest.raises(ConfigurationError):
            store.replace(np.array([1, 2, 3]))


class TestCSMNode:
    def _node(self, big_field, behavior=None):
        machine = quadratic_market_machine(big_field)
        scheme = LagrangeScheme(big_field, num_machines=3, num_nodes=8)
        states = np.arange(6).reshape(3, 2) + 1
        coded = CodedStateEncoder(scheme).encode(states)
        node = CSMNode(
            node_id="node-2",
            node_index=2,
            field=big_field,
            transition=machine.transition,
            coefficient_row=scheme.coefficient_row(2),
            initial_coded_state=coded[2],
            behavior=behavior,
        )
        return node, scheme, machine, states

    def test_encode_command_matches_scheme(self, big_field, rng):
        node, scheme, machine, _ = self._node(big_field)
        commands = rng.integers(0, 100, size=(3, 2))
        assert coded_round.combine(node, commands).tolist() == (
            scheme.encode_vectors(commands)[2].tolist()
        )

    def test_execute_coded_is_composite_evaluation(self, big_field, rng):
        node, scheme, machine, states = self._node(big_field)
        commands = rng.integers(0, 100, size=(3, 2))
        state_polys = interpolation_polynomials(scheme, states)
        command_polys = interpolation_polynomials(scheme, commands)
        composites = composite_polynomials(machine.transition, state_polys, command_polys)
        result = coded_round.execute_coded(node, coded_round.combine(node, commands))
        alpha = scheme.alphas[2]
        assert result.tolist() == [h.evaluate(alpha) for h in composites]

    def test_dimension_mismatch_rejected(self, big_field):
        machine = quadratic_market_machine(big_field)
        with pytest.raises(ConfigurationError):
            CSMNode(
                "n", 0, big_field, machine.transition,
                np.array([1, 2, 3]), np.array([1, 2, 3]),  # state dim should be 2
            )


class TestCodedExecutionEngine:
    def _engine(self, big_field, num_nodes=16, num_machines=4, behaviors=None, **kwargs):
        machine = quadratic_market_machine(big_field)
        config = CSMConfig(
            big_field, num_nodes=num_nodes, num_machines=num_machines,
            degree=2, num_faults=kwargs.pop("num_faults", 2),
        )
        return CodedExecutionEngine(
            config, machine, behaviors=behaviors, rng=np.random.default_rng(7), **kwargs
        ), machine

    def test_round_matches_reference_execution(self, big_field, rng):
        engine, machine = self._engine(big_field)
        commands = rng.integers(1, 50, size=(4, 2))
        # reference by hand
        expected_outputs = []
        state = np.tile(machine.initial_state, (4, 1))
        for k in range(4):
            _, out = step(machine, state[k], commands[k])
            expected_outputs.append(out.tolist())
        result = engine.execute_round(commands)
        assert result.correct
        assert result.outputs.tolist() == expected_outputs

    def test_multi_round_state_continuity(self, big_field, rng):
        engine, machine = self._engine(big_field)
        commands = rng.integers(1, 50, size=(4, 2))
        first = engine.execute_round(commands)
        second = engine.execute_round(commands)
        assert first.correct and second.correct
        # the coded execution tracked the same trajectory as direct execution
        state = machine.initial_state.copy()
        for _ in range(2):
            state, _ = step(machine, state, commands[0])
        assert second.states[0].tolist() == state.tolist()

    def test_tolerates_faults_up_to_decoding_bound(self, big_field, rng):
        # N=16, K=4, d=2 -> d(K-1)=6, radius=(16-7)//2=4
        behaviors = {f"node-{i}": RandomGarbageBehavior() for i in range(4)}
        engine, _ = self._engine(big_field, behaviors=behaviors, num_faults=4)
        result = engine.execute_round(rng.integers(1, 50, size=(4, 2)))
        assert result.correct
        assert set(result.diagnostics["error_nodes"]) <= {0, 1, 2, 3}

    def test_fails_beyond_decoding_bound(self, big_field, rng):
        behaviors = {f"node-{i}": CorruptResultBehavior(offset=i + 1) for i in range(5)}
        engine, _ = self._engine(big_field, behaviors=behaviors, num_faults=4)
        result = engine.execute_round(rng.integers(1, 50, size=(4, 2)))
        assert not result.correct
        assert result.diagnostics["decoding_failed"]

    def test_silent_nodes_treated_as_erasures(self, big_field, rng):
        behaviors = {"node-0": SilentBehavior(), "node-5": SilentBehavior()}
        engine, _ = self._engine(big_field, behaviors=behaviors)
        result = engine.execute_round(rng.integers(1, 50, size=(4, 2)))
        assert result.correct

    @pytest.mark.parametrize(
        "silent", [(), ("node-0", "node-5")], ids=["synchronous", "partial_presence"]
    )
    def test_equivocation_does_not_split_honest_nodes(self, big_field, rng, silent):
        """Every honest recipient decodes its own view alike.

        Equivocators within the radius send each recipient a different
        corruption; decoding each honest node's view yields the same
        outputs, and those are the engine's (one decode stands for all).
        With silent nodes every view is decoded from partial presence.
        """
        behaviors = {"node-3": EquivocatingBehavior(), "node-9": EquivocatingBehavior()}
        behaviors.update({node_id: SilentBehavior() for node_id in silent})
        engine, machine = self._engine(big_field, behaviors=behaviors)
        commands = rng.integers(1, 50, size=(4, 2))
        true_results = machine.transition.evaluate_result_vectors(
            np.stack([node.coded_state for node in engine.nodes]),
            engine.encoder.encode(commands),
        )
        senders = [
            (node.node_index, node.node_id, node.behavior)
            for node in engine.nodes
            if node.is_faulty
        ]
        views = {}
        for node in engine.honest_nodes():
            reports = faulty_reports(
                big_field, senders, true_results, engine.rng, recipient=node.node_id
            )
            views[node.node_id] = [
                reports.get(i, row) for i, row in enumerate(true_results)
            ]
        first, *others = views.values()
        assert any(not np.array_equal(first[3], view[3]) for view in others)
        assert sum(row is None for row in first) == len(silent)
        decoded = [engine.decoder.decode_fast(view, set()) for view in views.values()]
        result = engine.execute_round(commands)
        assert result.correct
        assert set(result.diagnostics["error_nodes"]) == {3, 9}
        for view in decoded:
            assert view.error_nodes == (3, 9)
            np.testing.assert_array_equal(
                view.outputs[:, machine.state_dim :], result.outputs
            )
            np.testing.assert_array_equal(
                view.outputs[:, : machine.state_dim], result.states
            )

    def test_honest_coded_states_stay_consistent(self, big_field, rng):
        engine, _ = self._engine(big_field)
        commands = rng.integers(1, 50, size=(4, 2))
        engine.execute_round(commands)
        # every honest node's coded state equals re-encoding the decoded states
        expected = engine.encoder.encode(engine.states)
        for node in engine.honest_nodes():
            assert node.coded_state.tolist() == expected[node.node_index].tolist()

    def test_storage_efficiency_is_k(self, big_field):
        engine, _ = self._engine(big_field)
        assert engine.storage_efficiency == 4.0
        for node in engine.nodes:
            assert node.storage.storage_elements == engine.machine.state_dim

    def test_ops_accounting_nonzero_for_all_nodes(self, big_field, rng):
        engine, _ = self._engine(big_field)
        result = engine.execute_round(rng.integers(1, 50, size=(4, 2)))
        assert set(result.ops_per_node) == set(engine.node_ids)
        assert all(ops > 0 for ops in result.ops_per_node.values())

    def test_transition_charged_when_machine_field_is_another_instance(self, rng):
        """Every node pays ``c(f)`` per round even when the machine was built
        over its own (equal, not identical) field object, as the e2e
        workloads build it."""
        machine = quadratic_market_machine(PrimeField())
        commands = rng.integers(1, 50, size=(4, 2))
        ops = []
        for field in (machine.field, PrimeField()):
            config = CSMConfig(field, 16, 4, degree=2, num_faults=2)
            engine = CodedExecutionEngine(config, machine, rng=np.random.default_rng(7))
            ops.append(engine.execute_round(commands).ops_per_node)
        assert ops[0] == ops[1]
        encode = machine.command_dim * (2 * 4 - 1)
        assert min(ops[1].values()) >= encode + sum(machine.transition.row_cost)

    def test_command_shape_validation(self, big_field):
        engine, _ = self._engine(big_field)
        with pytest.raises(ConfigurationError):
            engine.execute_round(np.ones((3, 2), dtype=int))

    def test_degree_mismatch_rejected(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)  # degree 1
        config = CSMConfig(big_field, 8, 2, degree=2, num_faults=1)
        with pytest.raises(ConfigurationError):
            CodedExecutionEngine(config, machine)
        # The node ids must number N exactly: an empty list is not "absent".
        config = CSMConfig(big_field, 8, 2, degree=1, num_faults=1)
        for node_ids in ([], [f"node-{i}" for i in range(7)]):
            with pytest.raises(ConfigurationError, match="expected 8 node ids"):
                CodedExecutionEngine(config, machine, node_ids=node_ids)
