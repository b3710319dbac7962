#!/usr/bin/env python3
"""End-to-end service benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload dense_bcast_n32 --seed 0 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --out benchmarks/e2e/out/a     # all workloads, both passes
    python3 benchmarks/e2e/run.py --compare out/a/results.json out/b/results.json

A single-workload run prints a table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Wrong outputs,
broken ticket accounting or lost layer coverage exit non-zero without
metrics.  See README.md for definitions and caveats.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
RUN_SECONDS = 12  # matches BENCHMARK.json's run_seconds


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result."""
    from harness import END_TO_END_UNITS, PER_LAYER_UNITS, BenchmarkFailure, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), ticks=args.ticks
        )
    except BenchmarkFailure as failure:
        print(f"FAILED {failure}", file=sys.stderr)
        return 1
    trace = result.pop("trace", None)
    exact = result["exact"]
    print(
        f"{workload.name}: seed {args.seed}, {result['ticks']} ticks "
        f"({result['warmup_ticks']} warm-up), {result['repeats']} untraced repeats, "
        f"timed region {result['timed_s']:.3f} s, "
        f"{result['latency_samples']} latency samples over {result['timed_ticks']} ticks"
    )
    print(
        f"  tickets: {exact['submitted']} submitted = {exact['executed']} executed + "
        f"{exact['throttled']} throttled + {exact['failed']} failed; outputs correct"
    )
    if args.trace:
        units = PER_LAYER_UNITS
        metrics = {name: result["per_layer"][name] for name in units}
        for name, value in metrics.items():
            print(f"  {name:32s} {_format(value):>14s} {units[name]}")
    else:
        units = END_TO_END_UNITS
        metrics = {name: result["end_to_end"][name]["value"] for name in units}
        for name in units:
            stats = result["end_to_end"][name]
            print(
                f"  {name:32s} {_format(stats['value']):>14s} {units[name]:8s}"
                f" [repeats: min {_format(stats['min'])}, max {_format(stats['max'])}]"
            )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        suffix = "traced" if args.trace else "untraced"
        (out / f"{workload.name}.{suffix}.json").write_text(json.dumps(result, indent=1))
        if trace is not None:
            (out / f"{workload.name}.trace.json").write_text(json.dumps(trace))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": exact["submitted"],
                # THROTTLED tickets are the QoS policy's designed answer to the
                # bursty workloads' overload, not failed operations; they are
                # reported as service.throttled / service.fail_frac.
                "failed": exact["submitted"] - exact["executed"] - exact["throttled"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess.

    A subprocess per run gives each a clean heap, a cold matrix cache and
    its own ``ru_maxrss``.  Results are merged into ``<out>/results.json``,
    the file ``--compare`` reads.
    """
    from workloads import WORKLOADS

    out = Path(args.out if args.out is not None else HERE / "out")
    merged = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", str(out),
            ]  # fmt: skip
            if args.ticks is not None:
                command += ["--ticks", str(args.ticks)]
            status = subprocess.run(command).returncode
            if status != 0:
                return status
        untraced = json.loads((out / f"{name}.untraced.json").read_text())
        traced = json.loads((out / f"{name}.traced.json").read_text())
        if traced["exact"] != untraced["exact"]:
            print(f"FAILED {name}: exact metrics differ between runs", file=sys.stderr)
            return 1
        untraced["per_layer"] = traced["per_layer"]
        merged[name] = untraced
    pair = [merged[name]["exact"]["submitted"] for name in ("bursty_pbft_n64", "sharded4_pbft_n64")]
    if pair[0] != pair[1]:
        print(f"FAILED matched pair submitted {pair[0]} vs {pair[1]}", file=sys.stderr)
        return 1
    (out / "results.json").write_text(json.dumps(merged, indent=1))
    print(f"wrote {out / 'results.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="timed-region seconds to measure (whole repeats, at least three)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ticks", type=int, help="override the workload's tick count")
    parser.add_argument("--out", help="directory for result and trace JSON files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
