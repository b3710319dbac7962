"""csm-lint: AST-based determinism and protocol-invariant analysis.

Every performance change in this repository is certified by *bit-identity*
oracles — identical rng streams, identical per-node charges, identical
per-copy deliveries.  Some of those invariants are easy to break silently:
an ambient ``np.random.default_rng(0)`` fallback or a stray ``time.time()``
in a hot path only surfaces when a property suite happens to catch it.
(Charges are values each piece of work computes and returns, so they are
checked by value, against the counting oracle of the tests, not here.)

``repro.lint`` shifts those checks left.  It is a small rule-driven static
analyzer over the repository's own invariants:

========  ==============================================================
Rule      Invariant
========  ==============================================================
DET001    RNG streams are constructed only at allowlisted sites
          (:mod:`repro.rng`); everything else takes a ``Generator``.
DET002    Wall-clock reads live only in the measurement/benchmark layer.
DET003    No iteration over ``set``s (or unsorted ``dict.keys()`` feeding
          accumulation) — replay order must be deterministic.
RNG001    A function that *accepts* an ``rng`` parameter never constructs
          a second stream of its own.
EXC001    No bare ``except`` and no silently swallowed
          ``ConsensusError``/``SecurityViolation``.
========  ==============================================================

Findings can be suppressed per line with ``# csm-lint: disable=RULE`` (or
``disable=RULE1,RULE2`` / ``disable=all``); there is no baseline of
grandfathered violations, so any finding fails the run.  Run it as::

    python -m repro.lint [paths] [--format json]

Configuration is read from ``[tool.csm-lint]`` in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import Finding, LintEngine, analyze_paths
from repro.lint.rules import RULE_REGISTRY, Rule

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "RULE_REGISTRY",
    "Rule",
    "analyze_paths",
    "load_config",
]
