"""Command-line entry point: ``python -m repro.lint src [options]``.

Exit status: 0 when there are no findings, 1 when any were reported, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.config import load_config
from repro.lint.engine import LintEngine
from repro.lint.rules import RULE_REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="csm-lint: determinism & protocol-invariant static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze (default: the default-paths "
            "list from [tool.csm-lint])"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help=f"comma-separated rule ids to run (default: all of "
        f"{','.join(sorted(RULE_REGISTRY))})",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="pyproject.toml holding [tool.csm-lint] (default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULE_REGISTRY):
            print(f"{rule_id}  {RULE_REGISTRY[rule_id].description}")
        return 0

    config = load_config(args.config)
    rule_ids = (
        [token.strip().upper() for token in args.rules.split(",") if token.strip()]
        if args.rules
        else None
    )
    try:
        engine = LintEngine(config=config, rule_ids=rule_ids)
    except ValueError as exc:
        parser.error(str(exc))

    if args.paths:
        missing = [p for p in args.paths if not Path(p).exists()]
        if missing:
            parser.error(f"no such path(s): {', '.join(missing)}")
        paths = list(args.paths)
    else:
        # Configured roots may be absent when invoked from an unrelated
        # working directory; explicit paths above still error.
        paths = [p for p in config.default_paths if Path(p).exists()]
        if not paths:
            parser.error(
                "no paths to analyze: pass paths explicitly or set "
                "default-paths in [tool.csm-lint]"
            )

    findings = engine.check_paths(paths)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in findings],
                    "checked_rules": sorted(r.rule_id for r in engine.rules),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format_text())
        print(f"{len(findings)} finding(s)", file=sys.stderr)

    return 1 if findings else 0

if __name__ == "__main__":
    sys.exit(main())
