#!/usr/bin/env python
"""CI regression gate for the ``BENCH_*.json`` perf artifacts.

Compares a freshly generated artifact against its committed baseline at the
repository root and fails (exit 1) when a tracked metric regresses by more
than the tolerance (default 15%).

Every baseline describes what is gated under a top-level ``"gate"`` key —
``{"deterministic_modes": [...], "wall_clock_modes": [...],
"ratio_metrics": [[key, "min"|"max"], ...]}``:

* **Deterministic modes** hold per-configuration values that are pure
  functions of the protocol configuration (operation counts, not
  wall-clock), so they are compared *raw* across machines and must not fall
  more than the tolerance below the baseline.
* **Wall-clock modes** are machine-dependent rates: gated only under
  ``--raw``, when both artifacts were produced on the same machine.
* **Ratio metrics** are self-normalised ratios recorded inside the
  artifact; ``"min"`` means the current value must not fall more than the
  tolerance below the baseline, ``"max"`` that it must not rise more than
  the tolerance above it.

A baseline without a ``"gate"`` block is rejected (exit 2): the gate does
not guess a schema.

Usage::

    python benchmarks/check_throughput_regression.py CURRENT.json \
        --baseline BENCH_<name>.json [--tolerance 0.15] [--raw]
"""

from __future__ import annotations

import argparse
import json
import sys


def _compare_value(name, baseline, current, tolerance, direction, failures):
    if baseline is None or current is None:
        return
    baseline = float(baseline)
    current = float(current)
    if baseline <= 0:
        return
    if direction == "min" and current < baseline * (1.0 - tolerance):
        failures.append(
            f"{name}: {current:.4g} fell more than {tolerance:.0%} below "
            f"baseline {baseline:.4g}"
        )
    elif direction == "max" and current > baseline * (1.0 + tolerance):
        failures.append(
            f"{name}: {current:.4g} rose more than {tolerance:.0%} above "
            f"baseline {baseline:.4g}"
        )


def gate_config(artifact: dict) -> tuple[tuple, tuple, tuple]:
    """The (deterministic, wall-clock, ratio) gate lists an artifact declares."""
    gate = artifact.get("gate")
    if not isinstance(gate, dict):
        raise ValueError(
            f"baseline {artifact.get('artifact', '(unnamed)')!r} has no \"gate\" block"
        )
    return (
        tuple(gate.get("deterministic_modes", ())),
        tuple(gate.get("wall_clock_modes", ())),
        tuple((str(key), str(direction)) for key, direction in gate.get("ratio_metrics", ())),
    )


def compare(baseline: dict, current: dict, tolerance: float, raw: bool) -> list[str]:
    """Return the list of regression messages (empty when the gate passes)."""
    failures: list[str] = []
    # The *baseline* declares what is gated: a current artifact cannot
    # un-gate a metric by dropping it from its own metadata.
    deterministic, wall_clock, ratios = gate_config(baseline)
    modes = deterministic + (wall_clock if raw else ())
    for mode in modes:
        base_mode = baseline.get("modes", {}).get(mode, {})
        cur_mode = current.get("modes", {}).get(mode, {})
        for key, base_value in base_mode.items():
            _compare_value(
                f"modes[{mode}][{key}]",
                base_value,
                cur_mode.get(key),
                tolerance,
                "min",
                failures,
            )
    for key, direction in ratios:
        _compare_value(
            key, baseline.get(key), current.get(key), tolerance, direction, failures
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH_*.json artifact")
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed baseline artifact (BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression before the gate fails (default 0.15)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help=(
            "also gate the machine-dependent wall-clock rates (only meaningful "
            "when baseline and current ran on the same machine)"
        ),
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    try:
        deterministic, wall_clock, ratios = gate_config(baseline)
    except ValueError as exc:
        print(f"{args.baseline}: {exc}; nothing to gate against", file=sys.stderr)
        return 2
    failures = compare(baseline, current, args.tolerance, args.raw)
    name = baseline.get("artifact", "benchmark")
    if failures:
        print(f"{name} REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    checked = len(deterministic) + len(ratios) + (
        len(wall_clock) if args.raw else 0
    )
    print(
        f"{name} gate passed: {checked} metric groups within "
        f"{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
