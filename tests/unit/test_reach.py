"""The reachability report (``benchmarks/reach.py``) keys functions the way
the profiler sees them."""

import importlib.util
import runpy
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _reach_module():
    path = ROOT / "benchmarks" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_keys_match_code_objects(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        textwrap.dedent(
            """\
            def keep(function):
                return function


            class Box:
                @property
                @keep
                def value(self):
                    def inner():
                        return 1

                    return inner()


            if True:
                def guarded(x):
                    return x
            """
        )
    )
    namespace = runpy.run_path(str(source))
    found = {name: (first, lines) for name, first, lines in _reach_module().functions(source)}
    # A nested function is part of the one that encloses it.
    assert set(found) == {"keep", "Box.value", "guarded"}
    # A decorated function's code starts at its first decorator, as the
    # profiler reports it; its lines run from ``def`` to its last line.
    assert found["Box.value"] == (namespace["Box"].value.fget.__code__.co_firstlineno, 5)
    assert found["keep"] == (namespace["keep"].__code__.co_firstlineno, 2)
    assert found["guarded"] == (namespace["guarded"].__code__.co_firstlineno, 2)
