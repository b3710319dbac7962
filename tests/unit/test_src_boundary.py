"""``src/`` never imports the test oracles.

The per-copy oracles live in ``tests/reference/`` and import the shipped
package, never the other way round: a module under ``src/repro`` that
imported ``reference`` (or anything under ``tests``) would ship test code
and only import where ``tests/`` happens to be on ``sys.path``.  The check
reads every module's ``import`` statements with :mod:`ast`, so a guarded or
function-level import counts as well.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FORBIDDEN = ("reference", "tests")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def _offences(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            if module.split(".")[0] in FORBIDDEN:
                found.append(f"{path.relative_to(root.parent)}:{lineno} imports {module}")
    return found


def test_src_imports_no_oracle():
    assert list(SRC.rglob("*.py")), f"no modules under {SRC}"
    assert _offences(SRC) == []


def test_the_scan_sees_an_oracle_import(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "clean.py").write_text("import numpy as np\nfrom repro.net import network\n")
    (package / "leaky.py").write_text(
        "def pinned():\n    from reference.consensus import pin\n    import tests.conftest\n"
    )
    assert _offences(package) == [
        "repro/leaky.py:2 imports reference.consensus",
        "repro/leaky.py:3 imports tests.conftest",
    ]
