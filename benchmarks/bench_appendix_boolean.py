"""Appendix A — Boolean state machines via polynomial representation and
field extension.

Benchmarks the truth-table-to-polynomial compiler and checks that a compiled
Boolean machine executed under CSM over GF(2**m) produces bit-exact outputs
despite Byzantine nodes.  ``--json PATH`` writes the ``BENCH_boolean.json``
perf-trajectory artifact (compile rate plus the deterministic per-round
cost of the compiled machine under CSM).
"""

import numpy as np
import pytest

from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.gf.extension_field import BinaryExtensionField
from repro.machine.boolean import (
    BooleanTransitionCompiler,
    boolean_function_to_polynomial,
    embed_bits,
    project_bits,
)
from repro.machine.polynomial_machine import PolynomialTransition
from repro.net.byzantine import RandomGarbageBehavior


def test_boolean_compiler_agrees_with_truth_table(benchmark, rng):
    field = BinaryExtensionField(8)
    n = 4
    table = {i: int(rng.integers(0, 2)) for i in range(2**n)}

    def function(bits):
        index = int("".join(str(b) for b in bits), 2)
        return table[index]

    poly = benchmark(boolean_function_to_polynomial, field, n, function)
    assert poly.total_degree <= n
    cube = np.array([[int(b) for b in np.binary_repr(i, n)] for i in range(2**n)])
    transition = PolynomialTransition(field, 1, n - 1, [poly], [poly])
    values = transition.evaluate_result_vectors(cube[:, :1], cube[:, 1:])
    assert values[:, 0].tolist() == [table[i] for i in range(2**n)]


def test_boolean_machine_round_under_csm(benchmark):
    num_nodes = 9
    field = BinaryExtensionField.for_network_size(num_nodes + 4)
    compiler = BooleanTransitionCompiler(
        field, state_bits=1, command_bits=1,
        next_state_functions=[lambda b: b[0] ^ b[1]],
        output_functions=[lambda b: b[0] | b[1]],
    )
    machine = compiler.compile_machine([0])
    config = CSMConfig(field, num_nodes=num_nodes, num_machines=2,
                       degree=machine.degree, num_faults=1)

    def run_round():
        engine = CodedExecutionEngine(
            config, machine, behaviors={"node-2": RandomGarbageBehavior()},
            rng=np.random.default_rng(0),
        )
        commands = np.array([embed_bits(field, [1]), embed_bits(field, [0])])
        return engine.execute_round(commands)

    result = benchmark(run_round)
    assert result.correct
    assert project_bits(field, result.outputs[0]).tolist() == [1]
    assert project_bits(field, result.outputs[1]).tolist() == [0]


def test_boolean_json_artifact(json_artifact_path):
    """Write the ``BENCH_boolean.json`` perf-trajectory artifact.

    Enabled by ``--json PATH``.  Deterministic gate metric:
    ``boolean-throughput`` — commands per unit per-node field operation for
    one compiled-machine CSM round (a pure function of the configuration).
    Wall-clock metric: truth-table compiles per second.
    """
    import json
    import time

    if json_artifact_path is None:
        pytest.skip("pass --json PATH to write the boolean artifact")

    num_nodes = 9
    field = BinaryExtensionField.for_network_size(num_nodes + 4)
    compiler = BooleanTransitionCompiler(
        field, state_bits=1, command_bits=1,
        next_state_functions=[lambda b: b[0] ^ b[1]],
        output_functions=[lambda b: b[0] | b[1]],
    )
    machine = compiler.compile_machine([0])
    config = CSMConfig(field, num_nodes=num_nodes, num_machines=2,
                       degree=machine.degree, num_faults=1)
    engine = CodedExecutionEngine(
        config, machine, behaviors={"node-2": RandomGarbageBehavior()},
        rng=np.random.default_rng(0),
    )
    commands = np.array([embed_bits(field, [1]), embed_bits(field, [0])])
    result = engine.execute_round(commands)
    assert result.correct

    n_bits = 4
    table_field = BinaryExtensionField(8)

    def parity(bits):
        return bits[0] ^ bits[1] ^ bits[2] ^ bits[3]

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        poly = boolean_function_to_polynomial(table_field, n_bits, parity)
        best = min(best, time.perf_counter() - start)
    assert poly.total_degree <= n_bits

    artifact = {
        "artifact": "BENCH_boolean",
        "config": {
            "num_nodes": num_nodes,
            "num_machines": 2,
            "machine_degree": machine.degree,
            "compiler_bits": n_bits,
        },
        "gate": {
            "deterministic_modes": ["boolean-throughput"],
            "wall_clock_modes": ["boolean-compile"],
            "ratio_metrics": [],
        },
        "modes": {
            "boolean-throughput": {
                str(num_nodes): 2 / result.mean_ops_per_node
            },
            "boolean-compile": {f"{n_bits}-bit": 1.0 / best},
        },
        "round": {
            "correct": result.correct,
            "mean_ops_per_node": result.mean_ops_per_node,
            "polynomial_degree": machine.degree,
        },
    }
    with open(json_artifact_path, "w") as handle:
        json.dump(artifact, handle, indent=2, default=float)
