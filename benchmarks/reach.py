#!/usr/bin/env python3
"""Which ``src/repro`` functions no entry point runs.

    python3 benchmarks/reach.py

Every entry point runs in its own subprocess under a ``sys.setprofile`` hook
that records each code object it calls:

* the six e2e workloads (``benchmarks/e2e/run.py --seed 0 --seconds 0
  --ticks 120``), untraced and traced;
* the four experiment CLIs (``python -m repro.experiments.<name>``);
* the five ``examples/*.py``.

A function is *reached* when any run called it.  Functions are the top-level
functions and methods of every module under ``src/repro`` except ``lint/``
(a development tool, not a runtime path); a nested function counts as part
of the one that encloses it, and a function's lines run from its ``def`` to
its last line.  The report lists the unreached functions per module and ends
with one total line.  Standard library only; an entry point that exits
non-zero fails the whole run, since its reach would be incomplete.
"""

from __future__ import annotations

import ast
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXCLUDED = ("lint",)

WORKLOADS = (
    "dense_bcast_n32",
    "bursty_pbft_n64",
    "sharded4_pbft_n64",
    "exec_only_n64",
    "delegated_n32",
    "chaos_bcast_n32",
)
EXPERIMENTS = ("table1", "table2", "scaling", "intermix_report")


def entry_points() -> list[list[str]]:
    """Each entry point as the argument list ``--record`` runs."""
    runs = [
        [str(ROOT / "benchmarks/e2e/run.py"), "--workload", name, "--seed", "0",
         "--seconds", "0", "--ticks", "120", "--trace", str(trace)]
        for name in WORKLOADS
        for trace in (0, 1)
    ]  # fmt: skip
    return runs + program_entry_points()


def program_entry_points() -> list[list[str]]:
    """The experiment CLIs, then the examples, as ``python`` argument lists
    (``tests/integration/test_examples.py`` pins each one's output)."""
    runs = [["-m", f"repro.experiments.{name}"] for name in EXPERIMENTS]
    runs += [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def record(out: str, target: list[str]) -> int:
    """Run ``target`` (a script path or ``-m module``, then its arguments)
    in this process and write the ``[file, first line]`` of every called
    ``src/repro`` code object to ``out``."""
    called: set = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    status = 0
    sys.setprofile(hook)
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            sys.path.insert(0, str(Path(target[0]).parent))
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
        status = 0 if code is None else code if isinstance(code, int) else 1
    finally:
        sys.setprofile(None)
    reached = set()
    for code_object in called:
        path = Path(code_object.co_filename).resolve()
        if path.is_relative_to(PACKAGE):
            reached.add((str(path), code_object.co_firstlineno))
    Path(out).write_text(json.dumps(sorted(reached)))
    return status


def functions(path: Path) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, body lines)`` of each top-level function
    and method; the first line is the first decorator's, as in ``co_firstlineno``."""
    found: list[tuple[str, int, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = child.end_lineno - child.lineno + 1
                found.append((scope + child.name, first, lines))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> int:
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        for index, target in enumerate(entry_points()):
            out = Path(scratch) / f"{index}.json"
            command = [sys.executable, __file__, "--record", str(out), *target]
            result = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            if result.returncode != 0:
                print(f"FAILED {' '.join(target)}: exit {result.returncode}", file=sys.stderr)
                return 1
            reached.update((file, line) for file, line in json.loads(out.read_text()))

    total_functions = total_lines = unreached_functions = unreached_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] in EXCLUDED:
            continue
        missed = []
        for name, first, lines in functions(path):
            total_functions += 1
            total_lines += lines
            if (str(path.resolve()), first) not in reached:
                missed.append((name, lines))
        if missed:
            module_lines = sum(lines for _, lines in missed)
            print(f"{path.relative_to(SRC)}: {len(missed)} unreached, {module_lines} lines")
            for name, lines in missed:
                print(f"    {name} ({lines})")
            unreached_functions += len(missed)
            unreached_lines += module_lines
    print(
        f"unreached: {unreached_functions} of {total_functions} functions "
        f"({unreached_lines} of {total_lines} body lines)"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--record":
        sys.exit(record(sys.argv[2], sys.argv[3:]))
    sys.exit(main())
