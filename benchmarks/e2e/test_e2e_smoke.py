"""Smoke tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs at ~24 ticks: long enough to exercise each layer and
its coverage checks, far too short for its timings to mean anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import run
from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload
from tracer import TRACE_POINTS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
TICKS = 24


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def test_benchmark_json_declares_what_the_harness_emits():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == END_TO_END_UNITS
    assert _units("per_layer") == PER_LAYER_UNITS
    assert DECLARED["run_seconds"] == run.RUN_SECONDS


@pytest.fixture(scope="module")
def runs() -> dict[tuple[str, int, bool], dict]:
    """Every workload: untraced and traced on seed 0, untraced on seed 1."""
    return {
        (name, seed, trace): run_workload(workload, seed, 0.0, trace, ticks=TICKS)
        for name, workload in WORKLOADS.items()
        for seed, trace in ((0, False), (0, True), (1, False))
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_emits_exactly_the_declared_metrics(runs, name):
    assert set(runs[name, 0, False]["end_to_end"]) == set(END_TO_END_UNITS)
    assert set(runs[name, 0, True]["per_layer"]) == set(PER_LAYER_UNITS)
    for stats in runs[name, 0, False]["end_to_end"].values():
        assert 0 < stats["min"] <= stats["max"]
        assert stats["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_metrics_repeat_and_follow_the_seed(runs, name):
    workload = WORKLOADS[name]
    again = run_workload(workload, 0, 0.0, False, ticks=TICKS)
    assert again["exact"] == runs[name, 0, False]["exact"]
    assert runs[name, 0, True]["exact"] == runs[name, 0, False]["exact"]
    assert runs[name, 1, False]["exact"] != runs[name, 0, False]["exact"]


def test_every_run_repeats(runs):
    # run_workload itself raises if the repeats' exact metrics differ.
    assert runs["delegated_n32", 0, False]["repeats"] == harness.MIN_REPEATS
    assert runs["delegated_n32", 0, True]["repeats"] == harness.MIN_REPEATS - 1


def test_fail_frac_is_the_throttled_share_on_the_matched_pair(runs):
    unsharded = runs["bursty_pbft_n64", 0, False]["exact"]
    sharded = runs["sharded4_pbft_n64", 0, False]["exact"]
    assert unsharded["submitted"] == sharded["submitted"]
    for exact in (unsharded, sharded):
        assert exact["service.throttled"] > 0
        assert exact["service.fail_frac"] == exact["service.throttled"] / exact["submitted"]
    for name in ("dense_bcast_n32", "exec_only_n64", "delegated_n32", "chaos_bcast_n32"):
        assert runs[name, 0, False]["exact"]["service.fail_frac"] == 0


def test_self_times_partition_the_traced_region(runs):
    for name in WORKLOADS:
        trace = runs[name, 0, True]["trace"]
        other = runs[name, 0, True]["per_layer"]["trace.other_s"]
        assert sum(trace["self_seconds"].values()) + other == pytest.approx(
            trace["traced_timed_s"]
        )


def test_wrong_output_fails_the_gate():
    workload = WORKLOADS["exec_only_n64"]
    repeat = harness.run_repeat(workload, harness.generate_inputs(workload, 0, 6), 2)
    harness.check_outputs(workload, repeat.tickets)
    victim = next(t for t in repeat.tickets if t.output is not None)
    victim.output = victim.output + 1
    with pytest.raises(harness.BenchmarkFailure, match="wrong output"):
        harness.check_outputs(workload, repeat.tickets)


def test_command_line_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exec_only_n64",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--ticks", str(TICKS)],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS


# -- tracer -------------------------------------------------------------------------------


def test_nested_self_time_arithmetic():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)  # 1 clock unit long

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    outer()
    # outer [0, 9]: middle [1, 6] (leaves [2, 3] and [4, 5]) then leaf [7, 8].
    assert [span[:4] for span in tracer.spans] == [
        ["outer", 0.0, 9.0, -1],
        ["middle", 1.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["leaf", 4.0, 5.0, 1],
        ["leaf", 7.0, 8.0, 0],
    ]
    assert tracer.self_seconds_by_name() == {"outer": 3.0, "middle": 3.0, "leaf": 3.0}
    assert sum(tracer.self_times()) == 9.0
    assert tracer.self_seconds_by_name(since=4.0) == {"leaf": 2.0}
    assert tracer.calls_by_name() == {"outer": 1, "middle": 1, "leaf": 3}
    assert tracer.calls_without_child("outer", "leaf") == 0
    assert tracer.calls_without_child("middle", "outer") == 1


def test_recursive_spans_count_as_one_call():
    tracer = Tracer(clock=iter(map(float, range(100))).__next__)
    inner = tracer.wrap("decode", lambda: None)
    tracer.wrap("decode", inner)()
    assert tracer.calls_by_name() == {"decode": 1}


def test_class_attributes_are_restored_after_the_traced_pass():
    before = [owner.__dict__[attr] for _, owner, attr in TRACE_POINTS]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(
                owner.__dict__[attr] is not original
                for (_, owner, attr), original in zip(TRACE_POINTS, before)
            )
            raise RuntimeError("the traced repeat died")
    assert [owner.__dict__[attr] for _, owner, attr in TRACE_POINTS] == before


# -- compare ------------------------------------------------------------------------------


def test_compare_verdicts():
    steady = {"value": 100.0, "min": 99.0, "max": 101.0}
    slower = {"value": 80.0, "min": 79.0, "max": 81.0}
    noisy = {"value": 100.0, "min": 80.0, "max": 120.0}
    assert compare.verdict(steady, steady, "higher", 0.1) == (0.0, "ok")
    assert compare.verdict(steady, slower, "higher", 0.1)[1] == "regressed"
    assert compare.verdict(steady, slower, "lower", 0.1)[1] == "ok"
    assert compare.verdict(steady, noisy, "higher", 0.1)[1] == "unresolved"
