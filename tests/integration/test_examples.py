"""Every entry point prints exactly its committed output.

The entry points are the experiment CLIs and the ``examples/*.py`` scripts,
as ``benchmarks/reach.py`` lists them (one list for both).  Each runs in a
fresh interpreter under ``-W error::RuntimeWarning`` and must exit 0 and
print, byte for byte, the text committed under ``golden/``.  A change that
moves an output on purpose re-records it and names the diff:

    PYTHONPATH=src python tests/integration/test_examples.py --record
"""

import difflib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reach)
ENTRY_POINTS = _reach.program_entry_points()

#: Lines of context around the first difference shown on a mismatch.
DIFF_LINES = 40


def golden_name(target: list[str]) -> str:
    """``repro.experiments.table1`` for ``-m``, ``examples.quickstart`` for a script."""
    if target[0] == "-m":
        return target[1]
    return f"examples.{Path(target[0]).stem}"


def run_entry_point(target: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *target],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_entry_points_are_found():
    names = [golden_name(target) for target in ENTRY_POINTS]
    assert sum(name.startswith("examples.") for name in names) >= 5
    assert sum(name.startswith("repro.experiments.") for name in names) == 4
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("target", ENTRY_POINTS, ids=golden_name)
def test_entry_point_prints_its_golden(target):
    name = golden_name(target)
    expected = (GOLDEN / f"{name}.txt").read_text()
    actual = run_entry_point(target)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(),
            actual.splitlines(),
            f"golden/{name}.txt",
            "fresh run",
            lineterm="",
        )
        pytest.fail("\n".join(list(diff)[:DIFF_LINES]), pytrace=False)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN.mkdir(exist_ok=True)
    for target in ENTRY_POINTS:
        (GOLDEN / f"{golden_name(target)}.txt").write_text(run_entry_point(target))
