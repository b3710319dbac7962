"""Integration tests: the full CSM protocol (consensus + coded execution),
the replication baselines under the same workloads, the delegated-coding
round, and the Appendix A Boolean machine running under CSM."""

import numpy as np
import pytest

from reference.machine import result_vector, step
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol
from repro.gf.extension_field import BinaryExtensionField
from repro.intermix.delegation import DelegatedCodingService
from repro.lcc.scheme import LagrangeScheme
from repro.machine.boolean import BooleanTransitionCompiler, embed_bits, project_bits
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    RandomGarbageBehavior,
    SilentBehavior,
)
from repro.replication import FullReplicationSMR, PartialReplicationSMR


class TestFullProtocolSynchronous:
    def test_multi_round_ledger_with_faults(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        config = CSMConfig(big_field, num_nodes=12, num_machines=4, degree=1, num_faults=2)
        behaviors = {"node-1": RandomGarbageBehavior(), "node-7": SilentBehavior()}
        protocol = CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(0))
        batches = [
            np.array([[10, 0], [5, 5], [1, 2], [3, 4]]),
            np.array([[1, 1], [2, 2], [3, 3], [4, 4]]),
            np.array([[0, 9], [9, 0], [1, 1], [2, 2]]),
        ]
        protocol.run_rounds_batched(batches)
        assert protocol.all_rounds_correct
        # The decoded trajectory matches running each machine uncoded.
        for k in range(4):
            state = machine.initial_state.copy()
            for batch in batches:
                state, _ = step(machine, state, batch[k])
            assert protocol.engine.states[k].tolist() == state.tolist()
        # Every client got exactly one output per round it submitted in.
        assert all(len(v) == 3 for v in protocol.delivered_outputs.values())
        assert protocol.measured_throughput() > 0

    def test_consensus_and_execution_agree_on_commands(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        config = CSMConfig(big_field, num_nodes=8, num_machines=3, degree=1, num_faults=1)
        protocol = CSMProtocol(config, machine, rng=np.random.default_rng(1))
        (record,) = protocol.run_rounds_batched([np.array([[7], [8], [9]])])
        assert record.correct
        assert record.commands.tolist() == [[7], [8], [9]]
        assert record.result.outputs.tolist() == [[7], [8], [9]]

    def test_faulty_leader_does_not_stall_protocol(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        config = CSMConfig(big_field, num_nodes=9, num_machines=3, degree=1, num_faults=2)
        behaviors = {"node-0": SilentBehavior(), "node-2": RandomGarbageBehavior()}
        protocol = CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(2))
        (record,) = protocol.run_rounds_batched([np.array([[1], [2], [3]])])  # round 0's leader is the silent node-0
        assert record.correct
        assert record.consensus_views >= 1


class TestFullProtocolPartiallySynchronous:
    def test_pbft_plus_erasure_decoding(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        config = CSMConfig(
            big_field, num_nodes=10, num_machines=3, degree=1, num_faults=1,
            partially_synchronous=True,
        )
        behaviors = {"node-4": SilentBehavior()}
        protocol = CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(3))
        (record,) = protocol.run_rounds_batched([np.array([[5], [6], [7]])])
        assert record.correct
        assert record.result.outputs.tolist() == [[5], [6], [7]]


class TestCSMvsReplicationEquivalence:
    def test_same_outputs_as_full_replication(self, big_field, rng):
        machine = quadratic_market_machine(big_field)
        commands = rng.integers(1, 50, size=(3, 2))
        config = CSMConfig(big_field, num_nodes=12, num_machines=3, degree=2, num_faults=2)
        csm = CodedExecutionEngine(config, machine, rng=np.random.default_rng(4))
        replication = FullReplicationSMR(
            quadratic_market_machine(big_field), 3, [f"node-{i}" for i in range(12)]
        )
        csm_result = csm.execute_round(commands)
        rep_result = replication.execute_round(commands)
        assert csm_result.outputs.tolist() == rep_result.outputs.tolist()
        assert csm_result.states.tolist() == rep_result.states.tolist()

    def test_csm_survives_fault_level_that_breaks_partial_replication(self, big_field, rng):
        machine = bank_account_machine(big_field, num_accounts=1)
        num_nodes, num_machines = 12, 4
        commands = rng.integers(1, 50, size=(num_machines, 1))
        # Adversary concentrates 2 corruptions on partial replication's group 0
        # (group size 3 tolerates only 1) — but 2 faults are well inside CSM's
        # decoding radius of (12 - 3 - 1) / 2 = 4.
        behaviors = {"node-0": RandomGarbageBehavior(), "node-1": RandomGarbageBehavior()}
        partial = PartialReplicationSMR(
            machine, num_machines, [f"node-{i}" for i in range(num_nodes)],
            behaviors, np.random.default_rng(5),
        )
        config = CSMConfig(big_field, num_nodes, num_machines, degree=1, num_faults=2)
        csm = CodedExecutionEngine(
            config, bank_account_machine(big_field, num_accounts=1),
            behaviors=behaviors, rng=np.random.default_rng(5),
        )
        assert not partial.execute_round(commands).correct
        assert csm.execute_round(commands).correct


class TestDelegatedCSMRound:
    def test_full_round_through_the_delegated_coding_path(self, big_field, rng):
        """Figure 4: encode -> distributed transition -> decode, all delegated."""
        machine = quadratic_market_machine(big_field)
        num_nodes, num_machines = 14, 3
        scheme = LagrangeScheme(big_field, num_machines, num_nodes)
        node_ids = [f"node-{i}" for i in range(num_nodes)]
        service = DelegatedCodingService(
            scheme, machine.degree, node_ids, fault_fraction=0.2,
            rng=np.random.default_rng(6),
        )
        states = rng.integers(1, 100, size=(num_machines, 2))
        commands = rng.integers(1, 100, size=(num_machines, 2))
        committee = service.elect_committee()

        coded_states, report_s = service.encode_vectors_verified(states, committee)
        coded_commands, report_c = service.encode_vectors_verified(commands, committee)
        assert report_s.accepted and report_c.accepted

        # Every node computes its transition locally on coded data (cheap).
        results = np.zeros((num_nodes, machine.transition.result_dim), dtype=np.int64)
        for i in range(num_nodes):
            results[i] = result_vector(
                machine.transition, coded_states[i], coded_commands[i]
            )
        # Two Byzantine nodes corrupt their results.
        results[0] = (results[0] + 13) % big_field.order
        results[8] = (results[8] + 13) % big_field.order

        decoded, report_d = service.decode_results_verified_fast(results, committee)
        assert report_d.accepted
        expected = np.zeros_like(decoded)
        for k in range(num_machines):
            expected[k] = result_vector(machine.transition, states[k], commands[k])
        assert decoded.tolist() == expected.tolist()
        # Commoners did constant work; the worker did the heavy lifting.
        assert report_d.max_commoner_operations <= 5
        assert report_d.worker_operations > 100


class TestBooleanMachineUnderCSM:
    def test_appendix_a_pipeline(self):
        """A Boolean machine compiled per Appendix A executes correctly under CSM."""
        num_nodes = 9
        field = BinaryExtensionField.for_network_size(num_nodes + 4)

        def next_bit(bits):   # state XOR command
            return bits[0] ^ bits[1]

        def output_bit(bits):  # AND
            return bits[0] & bits[1]

        compiler = BooleanTransitionCompiler(
            field, state_bits=1, command_bits=1,
            next_state_functions=[next_bit], output_functions=[output_bit],
        )
        machine = compiler.compile_machine([0])
        # d = 2 (degree of the compiled polynomials), K = 2, N = 9:
        # radius = (9 - (2*1 + 1)) // 2 = 3 >= 1 fault.
        config = CSMConfig(field, num_nodes=num_nodes, num_machines=2,
                           degree=machine.degree, num_faults=1)
        behaviors = {"node-3": RandomGarbageBehavior()}
        engine = CodedExecutionEngine(config, machine, behaviors=behaviors,
                                      rng=np.random.default_rng(7))
        state_bits = [[0], [0]]
        for command_bits in ([[1], [1]], [[1], [0]], [[0], [1]]):
            commands = np.array([embed_bits(field, c) for c in command_bits])
            result = engine.execute_round(commands)
            assert result.correct
            for k in range(2):
                expected_state, expected_output = compiler.reference_step(
                    state_bits[k], command_bits[k]
                )
                assert project_bits(field, result.states[k]).tolist() == expected_state
                assert project_bits(field, result.outputs[k]).tolist() == expected_output
                state_bits[k] = expected_state
