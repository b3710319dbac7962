"""Experiment: regenerate Table 1 (security / storage / throughput comparison).

For each scheme we report two kinds of rows:

* ``formula`` rows — the closed-form Table 1 entries evaluated at the chosen
  ``(N, K, mu, d)``;
* ``measured`` rows — the same metrics measured by actually running the
  scheme's execution engine with Byzantine nodes injected: correctness at the
  scheme's claimed security level, storage efficiency from the data layout,
  and throughput from counted field operations.

The paper's claim to check is the *shape*: CSM's security and storage columns
scale with ``N`` simultaneously, whereas full replication pins storage at 1
and partial replication's security collapses by a factor ``K``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import per_node_delegated_coding_cost
from repro.analysis.measurement import (
    measure_csm,
    measure_full_replication,
    measure_partial_replication,
)
from repro.analysis.metrics import table1_rows
from repro.experiments.report import format_table
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine, quadratic_market_machine


def run(
    num_nodes: int = 24,
    fault_fraction: float = 0.25,
    degree: int = 1,
    rounds: int = 2,
    seed: int = 0,
    measured: bool = True,
) -> list[dict]:
    """Produce the Table 1 rows (formula and, optionally, measured).

    The measured rows run each engine's ``execute_rounds`` over ``rounds``
    random rounds (:mod:`repro.analysis.measurement`).
    """
    field = PrimeField()
    machine = (
        bank_account_machine(field, num_accounts=2)
        if degree == 1
        else quadratic_market_machine(field)
    )
    transition_cost = sum(machine.transition.row_cost)
    coding_cost = per_node_delegated_coding_cost(num_nodes)
    num_faults = int(fault_fraction * num_nodes)
    # K for the replication baselines: as many machines as CSM supports, so
    # the comparison is at equal load, capped to a divisor of N for sharding.
    from repro.analysis.metrics import csm_supported_machines

    csm_k = max(csm_supported_machines(num_nodes, fault_fraction, degree), 1)
    partial_k = csm_k
    while num_nodes % partial_k != 0 and partial_k > 1:
        partial_k -= 1

    rows: list[dict] = []
    for metrics in table1_rows(
        num_nodes, partial_k, fault_fraction, degree, transition_cost, coding_cost
    ):
        row = metrics.as_row()
        row["kind"] = "formula"
        row["N"] = num_nodes
        rows.append(row)

    if measured:
        full = measure_full_replication(
            machine, num_nodes, partial_k, num_faults, rounds=rounds, seed=seed
        )
        partial = measure_partial_replication(
            machine, num_nodes, partial_k, min(num_faults, num_nodes // partial_k),
            rounds=rounds, seed=seed,
        )
        csm_b = min(num_faults, max((num_nodes - degree * (csm_k - 1) - 1) // 2, 0))
        csm = measure_csm(machine, num_nodes, csm_k, csm_b, rounds=rounds, seed=seed)
        for measured_perf in (full, partial, csm):
            row = measured_perf.as_row()
            row["kind"] = "measured"
            rows.append(row)
    return rows


def main() -> None:  # pragma: no cover - exercised via CLI
    rows = run()
    formula = [r for r in rows if r["kind"] == "formula"]
    measured = [r for r in rows if r["kind"] == "measured"]
    print("Table 1 — closed-form entries")
    print(format_table(formula, ["scheme", "security", "storage_efficiency", "throughput"]))
    print()
    print("Table 1 — measured (op-counted) entries")
    print(
        format_table(
            measured,
            ["scheme", "N", "K", "b", "correct", "storage_efficiency", "ops_per_node", "throughput"],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
