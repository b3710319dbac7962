"""Figure 5 / Algorithm 1 / Section 6.1 — INTERMIX behaviour.

Checks soundness (every cheating strategy caught), the logarithmic number of
interaction rounds, the constant-time commoner verification, and the
Section 6.1 worst-case overhead accounting.

With ``--intermix`` the suite additionally runs one stacked
:meth:`IntermixProtocol.run_batch` of 64 verifications at ``K = 256`` per
worker strategy (honest columns accepted with the true product, every
cheating column rejected).  ``--intermix --json PATH`` writes the
``BENCH_intermix.json`` artifact.  That ``run_batch`` is bit-identical to
every role recomputing its column with its own ``gf_matvec`` is the tier-1
property ``tests/property/test_intermix_batch_bit_identity.py``.
"""

import math

import numpy as np
import pytest

from repro.experiments import intermix_report
from repro.intermix.protocol import IntermixProtocol
from repro.intermix.worker import WorkerStrategy
from repro.rng import default_stream


def test_intermix_soundness_and_interaction_rounds(benchmark):
    rows = benchmark(
        intermix_report.soundness_rows, vector_lengths=(16, 64), num_nodes=12, trials=3
    )
    for row in rows:
        if row["worker"] == "honest":
            assert row["accepted_fraction"] == 1.0
        else:
            assert row["fraud_caught_fraction"] == 1.0
            assert row["max_queries"] <= row["2*log2K"]


def test_intermix_overhead_within_worst_case(benchmark):
    rows = benchmark(
        intermix_report.overhead_rows, vector_lengths=(16, 64, 128), num_nodes=12
    )
    for row in rows:
        measured_total = row["worker_ops"] + row["auditor_ops_total"] + row["commoner_ops_total"]
        assert measured_total <= row["worst_case_formula"] * 2  # same order as 6.1
        # the overhead is dominated by the (J + 1) product computations
        assert row["auditor_ops_total"] >= row["J"] * row["worker_ops"] * 0.5


def test_commoner_verification_cost_is_constant_in_k(benchmark, field, rng):
    node_ids = [f"node-{i}" for i in range(10)]

    def commoner_costs():
        costs = []
        for length in (8, 64, 512):
            protocol = IntermixProtocol(
                field, node_ids, fault_fraction=0.3, rng=np.random.default_rng(0),
                worker_strategies={n: WorkerStrategy.CORRUPT_RESULT for n in node_ids},
            )
            matrix = rng.integers(0, field.order, size=(10, length))
            vector = rng.integers(0, field.order, size=length)
            outcome = protocol.run(matrix, vector)
            assert not outcome.accepted
            costs.append(max(outcome.commoner_operations.values() or [0]))
        return costs

    costs = benchmark(commoner_costs)
    assert max(costs) <= 10 * max(min(costs), 1)  # flat, not growing with K


def test_committee_size_formula(benchmark):
    rows = benchmark(intermix_report.committee_rows)
    for row in rows:
        assert row["actual_failure_probability"] <= row["eps_target"]
        assert row["J"] == math.ceil(math.log(row["eps_target"]) / math.log(row["mu"]))


# ---------------------------------------------------------------------------
# --intermix mode: the batched verification engine at the artifact's size
# ---------------------------------------------------------------------------

def test_intermix_batch_sound_at_size(benchmark, field, intermix_mode):
    """One 256 x 64 batch per strategy: honest accepted, cheaters caught."""
    if not intermix_mode:
        pytest.skip("pass --intermix to run the batched-engine benchmarks")
    node_ids = [f"node-{i}" for i in range(16)]
    data = default_stream(1)
    matrix = data.integers(0, field.order, size=(16, 256))
    vectors = data.integers(0, field.order, size=(256, 64))
    truth = field.matmul(field.array(matrix), field.array(vectors))

    def run_all():
        for strategy in WorkerStrategy:
            protocol = IntermixProtocol(
                field, node_ids, fault_fraction=0.25, rng=default_stream(9),
                worker_strategies={n: strategy for n in node_ids},
            )
            for column, outcome in enumerate(protocol.run_batch(matrix, vectors)):
                if strategy is WorkerStrategy.HONEST:
                    assert outcome.accepted
                    assert np.array_equal(outcome.result, truth[:, column])
                else:
                    assert not outcome.accepted and outcome.fraud_detected
        return True

    assert benchmark(run_all)


def test_intermix_json_artifact(json_artifact_path, intermix_mode):
    """Write the ``BENCH_intermix.json`` perf-trajectory artifact.

    Enabled by ``--intermix --json PATH``.  Deterministic gate metric:
    ``intermix-headroom`` — the Section 6.1 worst-case formula over the
    measured total operations per vector length (a fall means measured
    overhead grew towards the bound).
    """
    import json

    if json_artifact_path is None or not intermix_mode:
        pytest.skip("pass --intermix --json PATH to write the artifact")

    overhead = intermix_report.overhead_rows(
        vector_lengths=(16, 64, 256), num_nodes=16
    )
    committee = intermix_report.committee_rows()
    headroom = {}
    for row in overhead:
        measured = (
            row["worker_ops"] + row["auditor_ops_total"] + row["commoner_ops_total"]
        )
        headroom[str(row["K"])] = row["worst_case_formula"] / measured

    artifact = {
        "artifact": "BENCH_intermix",
        "config": {"num_nodes": 16, "vector_lengths": [16, 64, 256]},
        "gate": {"deterministic_modes": ["intermix-headroom"]},
        "modes": {"intermix-headroom": headroom},
        "rows": {"overhead": overhead, "committee": committee},
    }
    with open(json_artifact_path, "w") as handle:
        json.dump(artifact, handle, indent=2, default=float)
