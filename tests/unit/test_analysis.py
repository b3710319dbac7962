"""Unit tests for the analysis layer (Table 1 formulas, Table 2 bounds,
complexity models, measurement harnesses) and the experiment modules."""

import math

import numpy as np
import pytest

from repro.analysis.bounds import binding_bound, phase_bounds, table2_rows
from repro.analysis.complexity import (
    csm_total_execution_cost,
    intermix_worst_case_overhead,
    naive_coding_cost,
    per_node_delegated_coding_cost,
    quasilinear_coding_cost,
)
from repro.analysis.measurement import (
    find_breaking_faults,
    measure_csm,
    measure_full_replication,
    measure_partial_replication,
)
from repro.analysis.metrics import (
    csm_metrics,
    csm_supported_machines,
    full_replication_metrics,
    information_theoretic_limit,
    partial_replication_metrics,
    table1_rows,
)
from repro.experiments import intermix_report, scaling, table1, table2
from repro.experiments.report import format_table
from repro.machine.library import bank_account_machine, quadratic_market_machine


class TestTable1Formulas:
    def test_full_replication_row(self):
        row = full_replication_metrics(num_nodes=20, transition_cost=4)
        assert row.security == 9
        assert row.storage_efficiency == 1.0
        assert row.throughput == 0.25

    def test_partial_replication_row(self):
        row = partial_replication_metrics(20, 5, transition_cost=4)
        assert row.security == 1  # groups of 4 -> (4-1)//2
        assert row.storage_efficiency == 5.0
        assert row.throughput == 1.25

    def test_limit_row_dominates_everything(self):
        limit = information_theoretic_limit(20, 4)
        for row in table1_rows(20, 5, 0.25, 1, 4, 2):
            assert row.security <= limit.security + 1e-9
            assert row.storage_efficiency <= limit.storage_efficiency
            assert row.throughput <= limit.throughput + 1e-9

    def test_csm_supported_machines_formula(self):
        # (1 - 2*1/4) * 24 / 1 + 1 - 1 = 12
        assert csm_supported_machines(24, 0.25, 1) == 12
        # degree 2 halves it (up to rounding)
        assert csm_supported_machines(24, 0.25, 2) == 6
        # partially synchronous penalty
        assert csm_supported_machines(24, 0.25, 1, partially_synchronous=True) == 6

    def test_csm_row_scales_linearly_with_n(self):
        small = csm_metrics(20, 0.25, 1, 4, 2)
        large = csm_metrics(200, 0.25, 1, 4, 2)
        assert large.security == pytest.approx(10 * small.security)
        assert large.storage_efficiency >= 9 * small.storage_efficiency

    def test_simultaneous_scaling_only_for_csm(self):
        # The qualitative Table 1 claim: CSM is the only scheme whose security
        # AND storage both grow when N doubles (K fixed for the baselines).
        rows_small = {r.scheme: r for r in table1_rows(24, 6, 0.25, 1, 4, 2)}
        rows_large = {r.scheme: r for r in table1_rows(48, 6, 0.25, 1, 4, 2)}
        assert rows_large["full-replication"].storage_efficiency == rows_small[
            "full-replication"
        ].storage_efficiency  # stuck at 1
        assert rows_large["partial-replication"].security >= rows_small[
            "partial-replication"].security
        csm_small, csm_large = rows_small["coded-state-machine"], rows_large["coded-state-machine"]
        assert csm_large.security > csm_small.security
        assert csm_large.storage_efficiency > csm_small.storage_efficiency


class TestTable2Bounds:
    def test_phase_bounds_match_paper_inequalities(self):
        bounds = phase_bounds(num_nodes=16, num_machines=4, degree=1)
        assert bounds["synchronous"]["input-consensus"] == 15
        assert bounds["synchronous"]["decoding"] == 6
        assert bounds["synchronous"]["output-delivery"] == 7
        assert bounds["partially-synchronous"]["input-consensus"] == 5
        assert bounds["partially-synchronous"]["decoding"] == 4
        assert bounds["partially-synchronous"]["output-delivery"] == 7

    def test_decoding_is_the_binding_bound(self):
        assert binding_bound(16, 4, 1, partially_synchronous=False) == 6
        assert binding_bound(16, 4, 1, partially_synchronous=True) == 4

    def test_rows_cover_all_six_cells(self):
        rows = table2_rows(16, 4, 2)
        assert len(rows) == 6
        assert {(r.setting, r.phase) for r in rows} == {
            (s, p)
            for s in ("synchronous", "partially-synchronous")
            for p in ("input-consensus", "decoding", "output-delivery")
        }


class TestComplexityModels:
    def test_transition_operation_count_positive_and_monotone(self, big_field):
        """``c(f)`` is the transition's compiled per-row cost, the count every
        node is charged per evaluation (32 for the two-account ledger)."""
        one_account = bank_account_machine(big_field, 1).transition
        linear = bank_account_machine(big_field, num_accounts=2).transition
        quadratic = quadratic_market_machine(big_field).transition
        assert sum(one_account.row_cost) > 0
        assert sum(linear.row_cost) > sum(one_account.row_cost)
        assert sum(quadratic.row_cost) > sum(one_account.row_cost)
        assert linear.row_cost == (8, 24)

    def test_quasilinear_cost_between_linear_and_quadratic(self):
        # Above the (small-N) crossover the fast-arithmetic model sits strictly
        # between linear and quadratic cost, which is the asymptotic claim.
        for n in (256, 1024, 4096):
            assert n < quasilinear_coding_cost(n) < naive_coding_cost(n, n // 2)

    def test_per_node_delegated_cost_polylog(self):
        # grows much slower than linearly
        assert per_node_delegated_coding_cost(1024) < per_node_delegated_coding_cost(64) * 4

    def test_intermix_overhead_formula(self):
        value = intermix_worst_case_overhead(16, 64, 10, product_cost=2048)
        expected = 11 * 2048 + 8 * 10 * 64 + 3 * 10 * math.log2(64) + 16 - 10 - 1
        assert value == pytest.approx(expected)

    def test_csm_total_cost_delegated_beats_distributed(self):
        for n in (32, 128):
            assert csm_total_execution_cost(n, 10, delegated=True) < csm_total_execution_cost(
                n, 10, delegated=False
            )


class TestMeasurementHarness:
    def test_measure_full_replication_correct_below_bound(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        outcome = measure_full_replication(machine, 7, 2, num_faults=3, rounds=1)
        assert outcome.all_correct
        assert outcome.storage_efficiency == 1.0

    def test_measure_partial_replication_breaks_with_concentrated_faults(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        outcome = measure_partial_replication(machine, 8, 4, num_faults=1, rounds=1)
        assert not outcome.all_correct  # one fault kills a group of 2

    def test_measure_csm_correct_at_bound(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        # N=12, K=4, d=1 -> radius (12-4)//2 = 4
        outcome = measure_csm(machine, 12, 4, num_faults=4, rounds=1)
        assert outcome.all_correct
        assert outcome.storage_efficiency == 4.0

    def test_measure_csm_fails_beyond_bound(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        outcome = measure_csm(machine, 12, 4, num_faults=5, rounds=1)
        assert not outcome.all_correct

    def test_find_breaking_faults_matches_formula(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=1)
        measured = find_breaking_faults(measure_csm, machine, 12, 4, max_faults=6, rounds=1)
        assert measured == 4


class TestExperimentModules:
    def test_table1_rows_structure(self):
        rows = table1.run(num_nodes=12, fault_fraction=0.25, rounds=1, measured=True)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"formula", "measured"}
        measured = [r for r in rows if r["kind"] == "measured"]
        schemes = {r["scheme"] for r in measured}
        assert schemes == {"full-replication", "partial-replication", "coded-state-machine"}
        csm_row = next(r for r in measured if r["scheme"] == "coded-state-machine")
        assert csm_row["correct"]

    def test_table2_sweep_flips_exactly_at_bound(self):
        # Both settings: b garbage nodes (synchronous), and b silent plus b
        # garbage nodes (partially synchronous) decode exactly up to the bound.
        result = table2.run(num_nodes=12, num_machines=3, degree=1, rounds=1)
        for setting in ("synchronous", "partially-synchronous"):
            rows = [r for r in result["sweep"] if r["setting"] == setting]
            assert any(not r["within_bound"] for r in rows)
            for row in rows:
                assert row["correct"] == row["within_bound"], (setting, row)

    def test_scaling_law_measured_matches_formula(self):
        rows = scaling.scaling_law_rows(network_sizes=(8, 16), fault_fraction=0.25, degree=1)
        for row in rows:
            assert row["K_measured"] == row["K_formula"]
            assert row["csm_storage"] >= row["full_replication_storage"]

    def test_scaling_cli_prints_the_same_bytes_twice(self, capsys, monkeypatch):
        # The delegation rows time themselves; the printed table leaves the
        # wall-clock fields out, so two runs print identical output.
        real_run = scaling.run
        monkeypatch.setattr(scaling, "run", lambda: real_run(network_sizes=(8,), rounds=2))
        outputs = []
        for _ in range(2):
            scaling.main()
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for column in ("rounds_per_sec", "commands_per_sec", "wall_seconds"):
            assert column not in outputs[0]
        assert "failed_rounds" in outputs[0]

    def test_intermix_report_soundness(self):
        rows = intermix_report.soundness_rows(vector_lengths=(8,), num_nodes=8, trials=2)
        for row in rows:
            if row["worker"] == "honest":
                assert row["accepted_fraction"] == 1.0
            else:
                assert row["fraud_caught_fraction"] == 1.0
                assert row["max_queries"] <= row["2*log2K"]

    def test_committee_rows_meet_target(self):
        for row in intermix_report.committee_rows():
            assert row["actual_failure_probability"] <= row["eps_target"]

    def test_package_import_leaves_the_clis_unloaded(self):
        """``import repro.experiments`` loads none of its CLI modules.

        Otherwise ``python -m repro.experiments.table1`` finds its own module
        already imported, runpy warns, and ``-W error::RuntimeWarning`` exits 1.
        """
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.experiments; "
                "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))",
            ],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_format_table_renders_all_rows(self):
        text = format_table([{"a": 1, "b": True}, {"a": 2.5, "b": False}])
        assert "yes" in text and "no" in text and "2.5" in text
        assert format_table([]) == "(no rows)"
