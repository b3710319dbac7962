"""Configuration for csm-lint, read from ``[tool.csm-lint]`` in pyproject.

The defaults below encode this repository's invariants; a ``pyproject.toml``
section overrides them key by key (kebab-case keys, as is conventional for
tool tables).  Parsing uses :mod:`tomllib` when available (Python >= 3.11)
and degrades to the built-in defaults otherwise, so the analyzer itself
never needs a third-party TOML parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Default analysis roots used when ``python -m repro.lint`` is invoked
#: without positional paths.  Projects widen this via ``default-paths`` in
#: ``[tool.csm-lint]`` (this repository lints ``src`` and ``examples``).
DEFAULT_LINT_PATHS = ("src",)

#: Default site(s) allowed to construct RNG streams (DET001).  Everything
#: else must accept a ``numpy.random.Generator`` or call
#: :func:`repro.rng.default_stream` / :func:`repro.rng.derived_stream`.
DEFAULT_RNG_ALLOWED = ("repro/rng.py",)

#: Default locations allowed to read the wall clock (DET002).
DEFAULT_CLOCK_ALLOWED = ("repro/analysis/measurement.py", "benchmarks/")


@dataclass
class LintConfig:
    """Resolved analyzer configuration."""

    disable: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    default_paths: tuple[str, ...] = DEFAULT_LINT_PATHS
    rng_allowed_paths: tuple[str, ...] = DEFAULT_RNG_ALLOWED
    clock_allowed_paths: tuple[str, ...] = DEFAULT_CLOCK_ALLOWED
    extra: dict = field(default_factory=dict)

    def path_matches(self, path: str, patterns: tuple[str, ...]) -> bool:
        """True when ``path`` falls under any of ``patterns``.

        Patterns are plain path fragments: a trailing ``/`` matches a whole
        directory subtree, otherwise the fragment must appear as a suffix or
        interior component of the posix-normalised path.
        """
        norm = Path(path).as_posix()
        for pattern in patterns:
            frag = pattern.rstrip()
            if not frag:
                continue
            if frag.endswith("/"):
                if norm.startswith(frag) or f"/{frag}" in f"/{norm}/":
                    return True
            elif norm == frag or norm.endswith(f"/{frag}") or f"/{frag}/" in f"/{norm}":
                return True
        return False


_TUPLE_KEYS = {
    "disable": "disable",
    "exclude": "exclude",
    "default-paths": "default_paths",
    "rng-allowed-paths": "rng_allowed_paths",
    "clock-allowed-paths": "clock_allowed_paths",
}


def load_config(pyproject_path: str | Path | None = None) -> LintConfig:
    """Load ``[tool.csm-lint]`` from ``pyproject.toml``.

    ``pyproject_path`` defaults to ``pyproject.toml`` in the current
    directory; a missing file, a missing table, or a runtime without
    :mod:`tomllib` all yield the built-in defaults.
    """
    config = LintConfig()
    if tomllib is None:
        return config
    path = Path(pyproject_path) if pyproject_path is not None else Path("pyproject.toml")
    if not path.is_file():
        return config
    with path.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("csm-lint", {})
    if not isinstance(table, dict):
        return config
    for toml_key, attr in _TUPLE_KEYS.items():
        value = table.get(toml_key)
        if isinstance(value, list):
            setattr(config, attr, tuple(str(v) for v in value))
    config.extra = {k: v for k, v in table.items() if k not in _TUPLE_KEYS}
    return config
