"""Section 6.3 — throughput scaling with and without delegated coding.

Measures per-node execution-phase operation counts across network sizes and
compares the distributed-coding path (every node decodes) against the
delegated path (single worker, INTERMIX verification) and the paper's
quasilinear model curve ``N log^2 N log log N``.  The measured rows run
through the engine's cached-matrix ``execute_rounds`` pipeline.

These are operation counts and model curves, the paper's own metric.
Wall-clock serving throughput and latency are measured end to end by
``benchmarks/e2e`` (``BENCHMARK.json``).
"""

from repro.analysis.complexity import quasilinear_coding_cost
from repro.experiments import scaling


def test_throughput_rows_distributed_vs_delegated(benchmark):
    rows = benchmark(
        scaling.throughput_rows,
        network_sizes=(8, 16, 24),
        fault_fraction=0.2,
    )
    for row in rows:
        # Non-worker nodes in the delegated path do asymptotically less work
        # than nodes in the distributed path (which each run a full decode).
        assert row["delegated_commoner_ops"] < row["distributed_ops_per_node"]
    # The distributed per-node cost grows super-linearly with N (it contains a
    # textbook RS decode), while the model curve stays quasilinear.
    assert rows[-1]["distributed_ops_per_node"] > rows[0]["distributed_ops_per_node"]


def test_quasilinear_model_curve_shape(benchmark):
    def curve():
        return [quasilinear_coding_cost(n) for n in (64, 128, 256, 512, 1024)]

    values = benchmark(curve)
    # Quasilinear: doubling N more than doubles the cost (the log factors) but
    # stays far below the ratio of 4 a quadratic-cost model would show.
    for i in range(1, len(values)):
        ratio = values[i] / values[i - 1]
        assert 2.0 < ratio < 3.2


def test_csm_throughput_model_scales_with_n(benchmark):
    from repro.analysis.metrics import csm_metrics

    def throughputs():
        return [
            csm_metrics(
                n, 0.25, 1, transition_cost=8,
                coding_cost=quasilinear_coding_cost(n) / n,
            ).throughput
            for n in (64, 256, 1024)
        ]

    values = benchmark(throughputs)
    # Throughput keeps increasing with N (up to the log factors).
    assert values[2] > values[1] > values[0]
