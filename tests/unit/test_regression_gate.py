"""The ``BENCH_*.json`` regression gate (``benchmarks/check_throughput_regression.py``)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _gate_module():
    path = ROOT / "benchmarks" / "check_throughput_regression.py"
    spec = importlib.util.spec_from_file_location("check_throughput_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_without_gate_block_is_rejected_and_gated_one_passes(tmp_path, capsys):
    gate = _gate_module()
    committed = str(ROOT / "BENCH_chaos.json")
    assert gate.main([committed, "--baseline", committed]) == 0
    assert "gate passed" in capsys.readouterr().out

    ungated = json.loads((ROOT / "BENCH_chaos.json").read_text())
    del ungated["gate"]
    baseline = tmp_path / "ungated.json"
    baseline.write_text(json.dumps(ungated))
    assert gate.main([committed, "--baseline", str(baseline)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "no \"gate\" block" in captured.err
