"""The csm-lint rule registry and the five repository-invariant rules.

Each rule is a class with a ``rule_id``, a one-line ``description`` and a
``check(module: FileContext) -> list[RawFinding]`` method.  Rules operate on
a shared :class:`FileContext` (path + AST + resolved import aliases) so the
module is parsed once per file regardless of how many rules run.

Name resolution is alias-aware: ``import numpy as np`` followed by
``np.random.default_rng(...)`` resolves to the canonical dotted name
``numpy.random.default_rng``, as does ``from numpy.random import
default_rng`` followed by a bare ``default_rng(...)`` call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from dataclasses import field as dataclass_field

from repro.lint.config import LintConfig

__all__ = ["FileContext", "RawFinding", "Rule", "RULE_REGISTRY", "register_rule"]


@dataclass
class RawFinding:
    """A rule hit before suppression filtering."""

    rule_id: str
    line: int
    col: int
    message: str


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    tree: ast.Module
    source_lines: list[str]
    config: LintConfig
    #: local alias -> canonical dotted prefix, e.g. ``np -> numpy``,
    #: ``default_rng -> numpy.random.default_rng``.
    aliases: dict[str, str] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an attribute/name expression, if static."""
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self.aliases.get(cursor.id, cursor.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class: subclasses set ``rule_id``/``description`` and ``check``."""

    rule_id: str = ""
    description: str = ""

    def check(self, module: FileContext) -> list[RawFinding]:  # pragma: no cover
        raise NotImplementedError


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


# -- DET001: ambient RNG construction -----------------------------------------------

#: Canonical names whose *call* constructs a fresh random stream.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "random.Random",
        "random.SystemRandom",
    }
)


def _rng_construction_calls(module: FileContext, root: ast.AST) -> list[ast.Call]:
    calls = []
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            name = module.resolve(node.func)
            if name in RNG_CONSTRUCTORS:
                calls.append(node)
    return calls


@register_rule
class RngConstructionRule(Rule):
    """DET001 — RNG streams must come from the allowlisted constructor site.

    Ambient fallbacks like ``rng or np.random.default_rng(0)`` silently give
    two collaborating components *independent* streams with the same seed,
    which breaks replay determinism the moment one of them adds a draw.  All
    stream construction belongs in :mod:`repro.rng`.
    """

    rule_id = "DET001"
    description = "RNG constructed outside the approved constructor allowlist"

    def check(self, module: FileContext) -> list[RawFinding]:
        if module.config.path_matches(module.path, module.config.rng_allowed_paths):
            return []
        return [
            RawFinding(
                self.rule_id,
                call.lineno,
                call.col_offset,
                f"RNG constructed via `{module.resolve(call.func)}`; use "
                "repro.rng.default_stream/derived_stream or accept a Generator",
            )
            for call in _rng_construction_calls(module, module.tree)
        ]


# -- DET002: wall-clock reads --------------------------------------------------------

CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``now()`` is only a clock read when called with no tz argument on a
#: datetime class; with arguments it may be an unrelated method.
ARGLESS_CLOCK_CALLS = frozenset({"datetime.datetime.now", "datetime.now"})


@register_rule
class WallClockRule(Rule):
    """DET002 — wall-clock reads outside the measurement/benchmark layer.

    Simulated time (``network.now``) drives every protocol; a real clock
    read anywhere else cannot be replayed bit-identically.
    """

    rule_id = "DET002"
    description = "wall-clock call outside the measurement/benchmark layer"

    def check(self, module: FileContext) -> list[RawFinding]:
        if module.config.path_matches(module.path, module.config.clock_allowed_paths):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            hit = name in CLOCK_CALLS or (
                name in ARGLESS_CLOCK_CALLS and not node.args and not node.keywords
            )
            if hit:
                findings.append(
                    RawFinding(
                        self.rule_id,
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call `{name}` outside "
                        "analysis/measurement.py and benchmarks/",
                    )
                )
        return findings


# -- DET003: iteration over unordered collections ------------------------------------


def _is_set_expr(node: ast.expr) -> bool:
    """True for expressions that are syntactically sets (unordered)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra stays unordered: ``set(a) | seen`` etc.  Only flag when
        # at least one operand is itself syntactically a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


def _accumulates(body: list[ast.stmt]) -> bool:
    """True when the loop body feeds an order-sensitive accumulation."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in {"append", "extend", "insert", "write"}:
                    return True
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.AugAssign):
                return True
    return False


@register_rule
class UnorderedIterationRule(Rule):
    """DET003 — ordered results must not be derived from unordered iteration.

    Iterating a ``set`` produces a hash-seed-dependent order; any list,
    string or dict built from it is nondeterministic across processes.
    ``dict.keys()`` is insertion-ordered, but when its order feeds an
    accumulation the insertion order itself becomes a silent invariant —
    require ``sorted(...)`` to make the intent explicit.
    """

    rule_id = "DET003"
    description = "iteration over set/dict.keys() without sorted()"

    def check(self, module: FileContext) -> list[RawFinding]:
        findings = []

        def flag(node: ast.expr, what: str) -> None:
            findings.append(
                RawFinding(
                    self.rule_id,
                    node.lineno,
                    node.col_offset,
                    f"iteration over {what} without sorted(); "
                    "order-sensitive consumers become nondeterministic",
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter):
                    flag(node.iter, "a set expression")
                elif _is_keys_call(node.iter) and _accumulates(node.body):
                    flag(node.iter, "dict.keys()")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # ``sorted(set(...))`` needs no special case: the loop/
                # comprehension then iterates the *sorted call*, not the set.
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        flag(gen.iter, "a set expression")
        return findings


# -- RNG001: rng parameter shadowed by a fresh stream --------------------------------


@register_rule
class ShadowedRngParamRule(Rule):
    """RNG001 — a function accepting ``rng`` must not construct another one.

    ``def f(..., rng=None): rng = rng or default_rng(0)`` forks a hidden
    second stream; the caller believes it controls the randomness but does
    not.  Thread the caller's generator through, or take the ambient stream
    explicitly from :func:`repro.rng.default_stream`.
    """

    rule_id = "RNG001"
    description = "function with an rng parameter constructs its own RNG"

    def check(self, module: FileContext) -> list[RawFinding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [
                a.arg
                for a in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
            ]
            if not any(p == "rng" or p.endswith("_rng") for p in params):
                continue
            for call in _rng_construction_calls(module, node):
                findings.append(
                    RawFinding(
                        self.rule_id,
                        call.lineno,
                        call.col_offset,
                        f"`{node.name}` accepts an rng parameter but constructs "
                        f"`{module.resolve(call.func)}`; thread the caller's "
                        "generator through instead",
                    )
                )
        return findings


# -- EXC001: swallowed protocol exceptions -------------------------------------------


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _is_ellipsis(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


PROTECTED_EXCEPTIONS = frozenset({"ConsensusError", "SecurityViolation"})
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    type_node = handler.type
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else (
        [type_node] if type_node is not None else []
    )
    names = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A handler whose body is only pass/.../continue discards the error."""
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue)) or _is_docstring(stmt)
        or _is_ellipsis(stmt)
        for stmt in handler.body
    )


@register_rule
class SwallowedExceptionRule(Rule):
    """EXC001 — protocol safety errors must never be silently discarded.

    ``ConsensusError`` and ``SecurityViolation`` are the protocol's safety
    alarms; a handler that catches one and does nothing converts a Byzantine
    attack into silence.  Bare ``except:`` (and pass-only ``except
    Exception:``) additionally masks programming errors.
    """

    rule_id = "EXC001"
    description = "bare except or silently swallowed protocol exception"

    def check(self, module: FileContext) -> list[RawFinding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    RawFinding(
                        self.rule_id,
                        node.lineno,
                        node.col_offset,
                        "bare `except:` masks every error including protocol "
                        "safety violations; name the exceptions",
                    )
                )
                continue
            names = _handler_names(node)
            if names & PROTECTED_EXCEPTIONS and _swallows(node):
                caught = ", ".join(sorted(names & PROTECTED_EXCEPTIONS))
                findings.append(
                    RawFinding(
                        self.rule_id,
                        node.lineno,
                        node.col_offset,
                        f"`{caught}` caught and silently discarded; record or "
                        "re-raise protocol safety violations",
                    )
                )
            elif names & BROAD_EXCEPTIONS and _swallows(node):
                findings.append(
                    RawFinding(
                        self.rule_id,
                        node.lineno,
                        node.col_offset,
                        "broad exception caught and silently discarded",
                    )
                )
        return findings
