"""Figure 4 / Section 6.2 — delegated coding verified by INTERMIX.

Measures the per-role cost of the delegated encoding/decoding path across
network sizes: the worker's cost grows with N, the commoners' verification
cost stays flat, and a cheating worker is always rejected.

With ``--delegation`` the suite additionally drives the full
:class:`~repro.intermix.rounds.DelegationRoundProtocol` workload —
delegated encode, coded execute, verified decode, delegated state update —
honest and with every worker cheating.  Its operation counts are pinned
end to end by the ``delegated_n32`` workload of ``benchmarks/e2e``.
"""

import numpy as np
import pytest

from repro.experiments import scaling
from repro.gf.prime_field import PrimeField
from repro.intermix.delegation import DelegatedCodingService
from repro.intermix.rounds import DelegationRoundProtocol
from repro.intermix.worker import WorkerStrategy
from repro.lcc.scheme import LagrangeScheme
from repro.machine.library import bank_account_machine
from repro.rng import default_stream, derived_stream


def _delegated_encode_costs(field, network_sizes):
    results = []
    for num_nodes in network_sizes:
        num_machines = max(num_nodes // 4, 2)
        scheme = LagrangeScheme(field, num_machines, num_nodes)
        service = DelegatedCodingService(
            scheme, transition_degree=1,
            node_ids=[f"node-{i}" for i in range(num_nodes)],
            fault_fraction=0.2, rng=default_stream(0),
        )
        commands = np.arange(num_machines).reshape(-1, 1) + 1
        _, report = service.encode_vectors_verified(commands)
        assert report.accepted
        results.append(
            {
                "N": num_nodes,
                "worker": report.worker_operations,
                "commoner": report.max_commoner_operations,
            }
        )
    return results


def test_worker_cost_grows_but_commoner_cost_stays_flat(benchmark, field):
    rows = benchmark(_delegated_encode_costs, field, (8, 16, 32))
    assert rows[-1]["worker"] > rows[0]["worker"]
    assert rows[-1]["commoner"] <= rows[0]["commoner"] + 2


def test_cheating_delegated_encoder_rejected(benchmark, field):
    scheme = LagrangeScheme(field, 3, 12)
    node_ids = [f"node-{i}" for i in range(12)]

    def run_with_cheater():
        service = DelegatedCodingService(
            scheme, transition_degree=1, node_ids=node_ids, fault_fraction=0.2,
            rng=default_stream(1),
            worker_strategies={n: WorkerStrategy.CORRUPT_RESULT for n in node_ids},
        )
        _, report = service.encode_vectors_verified(np.array([[1], [2], [3]]))
        return report

    report = benchmark(run_with_cheater)
    assert not report.accepted


def test_cheating_delegated_decoder_rejected(benchmark, field, rng):
    from repro.lcc.encoder import CodedStateEncoder

    scheme = LagrangeScheme(field, 3, 12)
    node_ids = [f"node-{i}" for i in range(12)]
    coded = CodedStateEncoder(scheme).encode(rng.integers(0, 100, size=(3, 1)))

    def run_with_cheater():
        service = DelegatedCodingService(
            scheme, transition_degree=1, node_ids=node_ids, fault_fraction=0.2,
            rng=default_stream(2),
            corrupt_decoder_workers=set(node_ids),
        )
        _, report = service.decode_results_verified_fast(coded)
        return report

    report = benchmark(run_with_cheater)
    assert report.accepted is False


# ---------------------------------------------------------------------------
# --delegation mode: the full delegated-round workload
# ---------------------------------------------------------------------------

def _round_commands(num_machines, command_dim, rounds, seed=0):
    stream = derived_stream(default_stream(seed))
    return [
        stream.integers(1, 1000, size=(num_machines, command_dim))
        for _ in range(rounds)
    ]


def test_delegation_rows_end_to_end(benchmark, delegation_mode):
    """The delegation sweep: one row per size, and nothing fails."""
    if not delegation_mode:
        pytest.skip("pass --delegation to run the delegated-round benchmarks")

    rows = benchmark(scaling.delegation_rows, network_sizes=(8, 16), rounds=3)
    assert [row["N"] for row in rows] == [8, 16]
    for row in rows:
        assert row["failed_rounds"] == 0
        assert row["rounds_per_sec"] > 0
        assert row["throughput"] > 0


def test_delegation_fraud_voids_every_round(benchmark, delegation_mode):
    """All-cheating workers: every round rejected, state never advances."""
    if not delegation_mode:
        pytest.skip("pass --delegation to run the delegated-round benchmarks")

    machine = bank_account_machine(PrimeField(), 2)
    node_ids = [f"node-{i}" for i in range(16)]
    commands = _round_commands(4, machine.command_dim, 3, seed=7)

    def run_with_cheaters():
        protocol = DelegationRoundProtocol(
            machine,
            4,
            node_ids,
            rng=default_stream(7),
            worker_strategies={n: WorkerStrategy.CORRUPT_RESULT for n in node_ids},
        )
        protocol.run_rounds_batched(commands)
        return protocol

    protocol = benchmark(run_with_cheaters)
    assert protocol.failed_rounds == len(protocol.history) == 3
    for record in protocol.history:
        assert not record.result.correct
        assert record.result.diagnostics["confirmed_fraud"]
        assert not record.result.outputs.any()
    assert protocol.delivered_outputs == {}
