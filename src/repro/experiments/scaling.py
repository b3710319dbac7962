"""Experiment: the Theorem 1 / Theorem 2 scaling laws and the throughput figure.

Two sweeps are produced:

* ``scaling_law_rows`` — for increasing ``N`` (at fixed ``mu`` and ``d``),
  the largest ``K`` that actually decodes under injected faults, side by side
  with the closed-form ``floor((1 - 2mu) N / d + 1 - 1/d)``; the security
  ``beta = mu N``; and partial replication's collapsed security ``N / (2K)``.
  This is the executable content of Table 1's scaling claims and of Figure 2.
* ``throughput_rows`` — measured per-node field operations per round for CSM
  with and without delegated coding, against the ``N log^2 N log log N``
  model curve (the Section 6.3 claim behind
  ``lambda = Theta(N / log^2 N log log N)``).

``delegation_rows`` runs the delegated-verification rounds behind the second
sweep's delegated path, every coding operation INTERMIX-verified.
Wall-clock serving throughput and latency of the deployed stack are
measured end to end by ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import quasilinear_coding_cost
from repro.analysis.measurement import measure_csm, wall_clock
from repro.analysis.metrics import csm_supported_machines
from repro.core.config import CSMConfig
from repro.core.execution import CodedExecutionEngine
from repro.experiments.report import format_table
from repro.gf.prime_field import PrimeField
from repro.intermix.delegation import DelegatedCodingService
from repro.lcc.scheme import LagrangeScheme
from repro.machine.library import bank_account_machine
from repro.rng import default_stream


def scaling_law_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32, 48),
    fault_fraction: float = 0.25,
    degree: int = 1,
    seed: int = 0,
) -> list[dict]:
    """Measured max K and security versus the Theorem 1 formulas."""
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rows = []
    for num_nodes in network_sizes:
        num_faults = int(fault_fraction * num_nodes)
        formula_k = csm_supported_machines(num_nodes, fault_fraction, degree)
        # Find the largest K that actually decodes with num_faults garbage nodes.
        measured_k = 0
        for k in range(1, num_nodes + 1):
            bound = (num_nodes - degree * (k - 1) - 1) // 2
            if bound < num_faults:
                break
            outcome = measure_csm(
                machine, num_nodes, k, num_faults, rounds=1, seed=seed
            )
            if outcome.all_correct:
                measured_k = k
        rows.append(
            {
                "N": num_nodes,
                "b=muN": num_faults,
                "K_formula": formula_k,
                "K_measured": measured_k,
                "csm_security": num_faults,
                "partial_replication_security": (num_nodes // max(formula_k, 1) - 1) // 2,
                "full_replication_storage": 1,
                "csm_storage": measured_k,
            }
        )
    return rows


def throughput_rows(
    network_sizes: tuple[int, ...] = (8, 16, 24, 32),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 1,
) -> list[dict]:
    """Per-node execution-phase cost: distributed coding vs delegated coding.

    The distributed rows run ``rounds`` rounds through the engine's
    ``execute_rounds``.
    """
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    rng = default_stream(seed)
    rows = []
    for num_nodes in network_sizes:
        num_faults = int(fault_fraction * num_nodes)
        k = max(csm_supported_machines(num_nodes, fault_fraction, machine.degree) // 2, 1)
        config = CSMConfig(
            field=field,
            num_nodes=num_nodes,
            num_machines=k,
            degree=machine.degree,
            num_faults=num_faults,
        )
        engine = CodedExecutionEngine(config, machine, rng=default_stream(seed))
        commands = rng.integers(1, 100, size=(rounds, k, machine.command_dim))
        results = engine.execute_rounds(commands)
        distributed_ops = float(np.mean([r.mean_ops_per_node for r in results]))

        scheme = LagrangeScheme(field, k, num_nodes)
        service = DelegatedCodingService(
            scheme,
            machine.degree,
            [f"node-{i}" for i in range(num_nodes)],
            fault_fraction=fault_fraction,
            rng=default_stream(seed),
        )
        coded, encode_report = service.encode_vectors_verified(commands[0])
        non_worker_ops = encode_report.max_commoner_operations
        worker_ops = encode_report.worker_operations
        rows.append(
            {
                "N": num_nodes,
                "K": k,
                "distributed_ops_per_node": distributed_ops,
                "delegated_worker_ops": worker_ops,
                "delegated_commoner_ops": non_worker_ops,
                "model_quasilinear": quasilinear_coding_cost(num_nodes),
                "throughput_distributed": k / distributed_ops if distributed_ops else float("inf"),
                "throughput_delegated_model": num_nodes
                / quasilinear_coding_cost(num_nodes)
                * k
                / max(k, 1),
            }
        )
    return rows


def delegation_rows(
    network_sizes: tuple[int, ...] = (8, 16, 32),
    fault_fraction: float = 0.2,
    seed: int = 0,
    rounds: int = 8,
    failure_probability: float = 1e-6,
) -> list[dict]:
    """Delegated-verification rounds, one row per network size.

    Each size runs a fixed command stream through a
    :class:`~repro.intermix.rounds.DelegationRoundProtocol`, which verifies
    every delegated coding operation through
    :meth:`IntermixProtocol.run_batch` (one stacked matrix product shared by
    the worker and all auditors, and one verdict table per batch: with an
    honest committee no column is disputed, so no auditor bisects and no
    commoner checks anything).  Rows report delegated rounds and commands
    per wall-clock second and the paper-metric throughput.
    """
    from repro.intermix.committee import required_committee_size
    from repro.intermix.rounds import DelegationRoundProtocol

    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    committee_size = required_committee_size(fault_fraction, failure_probability)
    rows = []
    for num_nodes in network_sizes:
        k = max(num_nodes // 4, 2)
        commands = default_stream(seed).integers(
            1, 1000, size=(rounds, k, machine.command_dim)
        )
        protocol = DelegationRoundProtocol(
            machine,
            k,
            [f"node-{i}" for i in range(num_nodes)],
            fault_fraction=fault_fraction,
            rng=default_stream(seed),
            failure_probability=failure_probability,
        )
        start = wall_clock()
        protocol.run_rounds_batched(list(commands))
        elapsed = wall_clock() - start
        failed = protocol.failed_rounds
        rows.append(
            {
                "N": num_nodes,
                "K": k,
                "J": committee_size,
                "rounds": rounds,
                "rounds_per_sec": rounds / elapsed if elapsed else 0.0,
                "commands_per_sec": k * (rounds - failed) / elapsed
                if elapsed
                else 0.0,
                "throughput": protocol.measured_throughput(),
                "failed_rounds": failed,
                "wall_seconds": elapsed,
            }
        )
    return rows


def run(**kwargs) -> dict:
    return {
        "scaling_laws": scaling_law_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "degree", "seed")}),
        "throughput": throughput_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds")}),
        "delegation": delegation_rows(**{k: v for k, v in kwargs.items() if k in (
            "network_sizes", "fault_fraction", "seed", "rounds",
            "failure_probability")}),
    }


def main() -> None:  # pragma: no cover - exercised via CLI
    result = run()
    print("Theorem 1 scaling laws (measured vs formula)")
    print(format_table(result["scaling_laws"]))
    print()
    print("Throughput scaling (Section 6.3): distributed vs delegated coding")
    print(format_table(result["throughput"]))
    print()
    print("Delegated-verification rounds (INTERMIX-verified coding)")
    # The wall-clock fields stay in the rows but not in the printout, so
    # the CLI prints the same bytes on every run.
    print(
        format_table(
            result["delegation"],
            columns=["N", "K", "J", "rounds", "throughput", "failed_rounds"],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
