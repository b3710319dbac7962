"""Fixture-snippet tests for the csm-lint rules and suppression.

Each rule gets at least one true-positive, one negative, and one
suppression-comment case.
"""

import json
import textwrap

import pytest

from repro.lint.__main__ import main as lint_main
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine, suppressed_rules
from repro.lint.rules import RULE_REGISTRY


def run_lint(source, path="src/repro/sample.py", config=None, rules=None):
    engine = LintEngine(config=config or LintConfig(), rule_ids=rules)
    return engine.check_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert {
            "DET001",
            "DET002",
            "DET003",
            "RNG001",
            "EXC001",
        } == set(RULE_REGISTRY)

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(rule_ids=["NOPE99"])


class TestDET001RngConstruction:
    def test_flags_default_rng_fallback_idiom(self):
        findings = run_lint(
            """
            import numpy as np

            class Network:
                def __init__(self, rng=None):
                    self.rng = rng or np.random.default_rng(0)
            """,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]
        assert "default_rng" in findings[0].message

    def test_flags_from_import_and_random_random(self):
        findings = run_lint(
            """
            from numpy.random import default_rng
            import random

            a = default_rng(7)
            b = random.Random(3)
            """,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_allowlisted_module_is_exempt(self):
        findings = run_lint(
            """
            import numpy as np

            def default_stream(seed=0):
                return np.random.default_rng(seed)
            """,
            path="src/repro/rng.py",
            rules=["DET001"],
        )
        assert findings == []

    def test_accepting_a_generator_is_clean(self):
        findings = run_lint(
            """
            from repro.rng import default_stream

            class Network:
                def __init__(self, rng=None):
                    self.rng = rng if rng is not None else default_stream()
            """,
            rules=["DET001"],
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_lint(
            """
            import numpy as np

            rng = np.random.default_rng(0)  # csm-lint: disable=DET001
            """,
            rules=["DET001"],
        )
        assert findings == []


class TestDET002WallClock:
    def test_flags_perf_counter_and_time(self):
        findings = run_lint(
            """
            import time

            start = time.perf_counter()
            stamp = time.time()
            """,
            rules=["DET002"],
        )
        assert rule_ids(findings) == ["DET002", "DET002"]

    def test_flags_argless_datetime_now(self):
        findings = run_lint(
            """
            from datetime import datetime

            when = datetime.now()
            """,
            rules=["DET002"],
        )
        assert rule_ids(findings) == ["DET002"]

    def test_measurement_and_benchmarks_are_exempt(self):
        source = """
        import time

        def wall_clock():
            return time.perf_counter()
        """
        assert (
            run_lint(source, path="src/repro/analysis/measurement.py", rules=["DET002"])
            == []
        )
        assert (
            run_lint(source, path="benchmarks/bench_thing.py", rules=["DET002"]) == []
        )

    def test_simulated_clock_is_clean(self):
        findings = run_lint(
            """
            def deliver(self, message):
                return self.network.now + self.delay
            """,
            rules=["DET002"],
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_lint(
            """
            import time

            start = time.perf_counter()  # csm-lint: disable=DET002
            """,
            rules=["DET002"],
        )
        assert findings == []


class TestDET003UnorderedIteration:
    def test_flags_for_loop_over_set_call(self):
        findings = run_lint(
            """
            def collect(refs):
                out = {}
                for ref in set(refs.values()):
                    out[ref] = ref * 2
                return out
            """,
            rules=["DET003"],
        )
        assert rule_ids(findings) == ["DET003"]

    def test_flags_comprehension_over_set_literal(self):
        findings = run_lint(
            """
            ordered = [x for x in {3, 1, 2}]
            """,
            rules=["DET003"],
        )
        assert rule_ids(findings) == ["DET003"]

    def test_flags_keys_feeding_accumulation(self):
        findings = run_lint(
            """
            def names(table):
                out = []
                for key in table.keys():
                    out.append(key)
                return out
            """,
            rules=["DET003"],
        )
        assert rule_ids(findings) == ["DET003"]

    def test_sorted_wrapping_is_clean(self):
        findings = run_lint(
            """
            def collect(refs):
                out = []
                for ref in sorted(set(refs.values())):
                    out.append(ref)
                return out
            """,
            rules=["DET003"],
        )
        assert findings == []

    def test_keys_without_accumulation_is_clean(self):
        findings = run_lint(
            """
            def touch(table):
                for key in table.keys():
                    table[key] = 0
            """,
            rules=["DET003"],
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_lint(
            """
            def collect(refs):
                out = []
                for ref in set(refs):  # csm-lint: disable=DET003
                    out.append(ref)
                return out
            """,
            rules=["DET003"],
        )
        assert findings == []


GF_PATH = "src/repro/gf/sample_field.py"


class TestRNG001ShadowedRngParam:
    def test_flags_function_with_rng_param_constructing(self):
        findings = run_lint(
            """
            import numpy as np

            def run(seed, rng=None):
                rng = rng or np.random.default_rng(0)
                return rng.integers(0, 10)
            """,
            rules=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]
        assert "`run`" in findings[0].message

    def test_flags_suffixed_rng_param(self):
        findings = run_lint(
            """
            import numpy as np

            def run(command_rng):
                other = np.random.default_rng(1)
                return command_rng, other
            """,
            rules=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_sanctioned_helper_is_clean(self):
        findings = run_lint(
            """
            from repro.rng import default_stream

            def run(seed, rng=None):
                rng = rng if rng is not None else default_stream(seed)
                return rng.integers(0, 10)
            """,
            rules=["RNG001"],
        )
        assert findings == []

    def test_function_without_rng_param_out_of_scope(self):
        findings = run_lint(
            """
            import numpy as np

            def seed_everything(seed):
                return np.random.default_rng(seed)
            """,
            rules=["RNG001"],
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_lint(
            """
            import numpy as np

            def run(rng=None):
                return rng or np.random.default_rng(0)  # csm-lint: disable=RNG001
            """,
            rules=["RNG001"],
        )
        assert findings == []


class TestEXC001SwallowedException:
    def test_flags_bare_except(self):
        findings = run_lint(
            """
            def risky():
                try:
                    return 1
                except:
                    return None
            """,
            rules=["EXC001"],
        )
        assert rule_ids(findings) == ["EXC001"]
        assert "bare" in findings[0].message

    def test_flags_swallowed_consensus_error(self):
        findings = run_lint(
            """
            from repro.exceptions import ConsensusError

            def decide():
                try:
                    vote()
                except ConsensusError:
                    pass
            """,
            rules=["EXC001"],
        )
        assert rule_ids(findings) == ["EXC001"]
        assert "ConsensusError" in findings[0].message

    def test_flags_swallowed_security_violation_in_tuple(self):
        findings = run_lint(
            """
            def verify():
                try:
                    check()
                except (ValueError, SecurityViolation):
                    ...
            """,
            rules=["EXC001"],
        )
        assert rule_ids(findings) == ["EXC001"]

    def test_flags_pass_only_broad_except(self):
        findings = run_lint(
            """
            def risky():
                try:
                    return 1
                except Exception:
                    pass
            """,
            rules=["EXC001"],
        )
        assert rule_ids(findings) == ["EXC001"]

    def test_handled_protocol_exception_is_clean(self):
        findings = run_lint(
            """
            def verify():
                try:
                    ok = check()
                except SecurityViolation:
                    ok = False
                return ok
            """,
            rules=["EXC001"],
        )
        assert findings == []

    def test_narrow_pass_is_clean(self):
        findings = run_lint(
            """
            def probe():
                try:
                    return int("x")
                except ValueError:
                    pass
            """,
            rules=["EXC001"],
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_lint(
            """
            def decide():
                try:
                    vote()
                except ConsensusError:  # csm-lint: disable=EXC001
                    pass
            """,
            rules=["EXC001"],
        )
        assert findings == []


class TestSuppressionParsing:
    def test_multiple_rules_and_all(self):
        assert suppressed_rules("x = 1  # csm-lint: disable=DET001,RNG001") == {
            "DET001",
            "RNG001",
        }
        assert suppressed_rules("x = 1  # csm-lint: disable=all") == {"ALL"}
        assert suppressed_rules("x = 1  # a normal comment") == set()

    def test_disable_all_suppresses_every_rule(self):
        findings = run_lint(
            """
            import numpy as np

            def run(rng=None):
                return rng or np.random.default_rng(0)  # csm-lint: disable=all
            """,
        )
        assert findings == []


class TestEngineAndOutput:
    def test_syntax_error_reported_as_parse_finding(self):
        findings = run_lint("def broken(:\n")
        assert rule_ids(findings) == ["PARSE"]

    def test_findings_sorted_and_carry_line_text(self):
        findings = run_lint(
            """
            import numpy as np
            import time

            t = time.time()
            r = np.random.default_rng(0)
            """,
        )
        assert rule_ids(findings) == ["DET002", "DET001"]
        assert findings[0].line < findings[1].line
        assert findings[1].line_text == "r = np.random.default_rng(0)"

    def test_finding_dict_shape(self):
        finding = run_lint("import time\nt = time.time()\n")[0]
        data = finding.as_dict()
        assert set(data) == {"rule", "path", "line", "col", "message", "line_text"}
        assert json.dumps(data)  # JSON-serialisable


class TestCommandLine:
    """Exit status of ``python -m repro.lint``: CI's lint step and its
    seeded-canary self-gate rely on it."""

    def _write(self, tmp_path, source):
        target = tmp_path / "sample.py"
        target.write_text(textwrap.dedent(source))
        return str(target)

    def test_finding_exits_one(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            """
            import numpy as np

            def _lint_canary(rng=None):
                return rng or np.random.default_rng(0)
            """,
        )
        assert lint_main([path]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_clean_path_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "x = 1\n")
        assert lint_main([path]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_baseline_flags_are_usage_errors(self, tmp_path, flag):
        path = self._write(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_main([flag, str(tmp_path / "baseline.json"), path])
        assert excinfo.value.code == 2


class TestConfig:
    def test_load_config_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.csm-lint]\nrng-allowed-paths = ["repro/custom.py"]\n'
            'disable = ["DET003"]\n'
        )
        config = load_config(pyproject)
        assert config.rng_allowed_paths == ("repro/custom.py",)
        assert config.disable == ("DET003",)
        engine = LintEngine(config=config)
        assert "DET003" not in {rule.rule_id for rule in engine.rules}

    def test_missing_pyproject_gives_defaults(self, tmp_path):
        config = load_config(tmp_path / "nope.toml")
        assert config.rng_allowed_paths == ("repro/rng.py",)
        assert "repro/analysis/measurement.py" in config.clock_allowed_paths
        assert config.default_paths == ("src",)

    def test_default_paths_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.csm-lint]\ndefault-paths = ["src", "examples"]\n'
        )
        config = load_config(pyproject)
        assert config.default_paths == ("src", "examples")

    def test_path_matching_directory_pattern(self):
        config = LintConfig()
        assert config.path_matches("src/repro/gf/field.py", ("repro/gf/",))
        assert not config.path_matches("src/repro/net/network.py", ("repro/gf/",))
        assert config.path_matches("benchmarks/bench_x.py", ("benchmarks/",))


class TestRepositoryIsClean:
    def test_default_paths_have_zero_findings(self):
        """The acceptance criterion: `python -m repro.lint` runs clean over
        the configured default paths (src AND examples)."""
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        config = load_config(repo_root / "pyproject.toml")
        assert "examples" in config.default_paths
        engine = LintEngine(config=config)
        findings = engine.check_paths(
            [repo_root / path for path in config.default_paths]
        )
        assert findings == [], "\n".join(f.format_text() for f in findings)
