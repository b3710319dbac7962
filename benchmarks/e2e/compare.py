"""``--compare A.json B.json``: is B no worse than A, metric by metric?

For every workload x end-to-end metric this prints both values, B's
relative difference, the bound ``BENCHMARK.json`` fixed, and a verdict:
``regressed`` when B is worse than A by more than the bound, ``unresolved``
when either side's own min-max spread over its repeats exceeds the bound
(the run cannot tell), ``ok`` otherwise.  Exact metrics (counts) that
changed are listed beside, since they compare two versions without noise.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative difference of B's value, ok | regressed | unresolved)``."""
    difference = (b["value"] - a["value"]) / a["value"]
    worse_by = difference if better == "lower" else -difference
    if any((side["max"] - side["min"]) / side["value"] > bound for side in (a, b)):
        return difference, "unresolved"
    return difference, "regressed" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison table; non-zero when anything regressed."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    regressed = False
    print(
        f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} {'diff':>8s} {'bound':>6s}  verdict"
    )
    for workload in a:
        for metric in declared:
            name = metric["name"]
            side_a, side_b = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            difference, status = verdict(side_a, side_b, metric["better"], metric["bound"])
            regressed |= status == "regressed"
            print(
                f"{workload:20s} {name:18s} {side_a['value']:12.6g} "
                f"{side_b['value']:12.6g} {difference:+8.2%} {metric['bound']:6.0%}  {status}"
            )
        exact_a, exact_b = a[workload]["exact"], b[workload]["exact"]
        changed = [key for key in exact_a if exact_a[key] != exact_b.get(key)]
        for key in changed:
            print(f"{workload:20s} exact {key}: {exact_a[key]} -> {exact_b.get(key)}")
        if not changed:
            print(f"{workload:20s} exact metrics: all {len(exact_a)} bit-equal")
    return 1 if regressed else 0
