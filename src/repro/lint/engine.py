"""csm-lint engine: file discovery, rule dispatch, suppression filtering.

A :class:`Finding` is a rule hit attributed to a file/line, carrying the
stripped source text of its line.

Per-line suppression uses the comment ``# csm-lint: disable=RULE`` (comma
list or ``all``) on the flagged line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.config import LintConfig
from repro.lint.rules import RULE_REGISTRY, FileContext, Rule

__all__ = ["Finding", "LintEngine", "analyze_paths"]

_SUPPRESS_RE = re.compile(r"#\s*csm-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, ready for reporting."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    line_text: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }


def suppressed_rules(line_text: str) -> set[str]:
    """Rule ids suppressed by a ``# csm-lint: disable=...`` comment."""
    match = _SUPPRESS_RE.search(line_text)
    if not match:
        return set()
    return {token.strip().upper() for token in match.group(1).split(",") if token.strip()}


class LintEngine:
    """Runs the registered rules over source files."""

    def __init__(
        self,
        config: LintConfig | None = None,
        rule_ids: Sequence[str] | None = None,
    ) -> None:
        self.config = config or LintConfig()
        enabled = set(rule_ids) if rule_ids is not None else set(RULE_REGISTRY)
        enabled -= set(self.config.disable)
        unknown = enabled - set(RULE_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        self.rules: list[Rule] = [
            RULE_REGISTRY[rule_id]() for rule_id in sorted(enabled)
        ]

    # -- single file -------------------------------------------------------------
    def check_source(self, source: str, path: str) -> list[Finding]:
        """Analyze one file's source text; returns suppression-filtered findings."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    rule_id="PARSE",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                    line_text="",
                )
            ]
        lines = source.splitlines()
        module = FileContext(path=path, tree=tree, source_lines=lines, config=self.config)
        findings: list[Finding] = []
        for rule in self.rules:
            for raw in rule.check(module):
                line_text = (
                    lines[raw.line - 1].strip() if 0 < raw.line <= len(lines) else ""
                )
                suppressed = suppressed_rules(
                    lines[raw.line - 1] if 0 < raw.line <= len(lines) else ""
                )
                if raw.rule_id.upper() in suppressed or "ALL" in suppressed:
                    continue
                findings.append(
                    Finding(
                        rule_id=raw.rule_id,
                        path=path,
                        line=raw.line,
                        col=raw.col,
                        message=raw.message,
                        line_text=line_text,
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def check_file(self, path: Path, display_path: str | None = None) -> list[Finding]:
        source = path.read_text(encoding="utf-8")
        return self.check_source(source, display_path or path.as_posix())

    # -- trees -------------------------------------------------------------------
    def iter_python_files(self, roots: Iterable[str | Path]) -> list[Path]:
        files: list[Path] = []
        for root in roots:
            root_path = Path(root)
            if root_path.is_file():
                files.append(root_path)
            elif root_path.is_dir():
                files.extend(sorted(root_path.rglob("*.py")))
        return [
            f
            for f in files
            if not self.config.path_matches(f.as_posix(), self.config.exclude)
        ]

    def check_paths(self, roots: Iterable[str | Path]) -> list[Finding]:
        findings: list[Finding] = []
        for file_path in self.iter_python_files(roots):
            findings.extend(self.check_file(file_path))
        return findings


def analyze_paths(
    roots: Iterable[str | Path],
    config: LintConfig | None = None,
    rule_ids: Sequence[str] | None = None,
) -> list[Finding]:
    """Convenience wrapper: run the engine over ``roots``."""
    return LintEngine(config=config, rule_ids=rule_ids).check_paths(roots)
