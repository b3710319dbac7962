"""Byzantine behaviour library.

A Byzantine node can deviate arbitrarily from the protocol; the paper's
analysis is driven by a handful of canonical deviations, each of which is
modelled here as a strategy object the protocol layers consult whenever a
faulty node is about to act:

* :class:`CorruptResultBehavior` — report a wrong (but well-formed) value;
  this is the deviation the Reed–Solomon decoding must correct.
* :class:`SilentBehavior` — send nothing; in the partially synchronous
  setting this is indistinguishable from a slow honest node and forces the
  ``N - b`` decoding rule.
* :class:`EquivocatingBehavior` — send *different* wrong values to different
  recipients; the paper notes the reconstructed polynomials at honest nodes
  remain identical despite equivocation.
* :class:`DelayingBehavior` — send the correct value but too late to be
  counted in the round.
* :class:`RandomGarbageBehavior` — uniformly random values each time,
  the worst case for any detection heuristic.

Honest nodes use :class:`HonestBehavior`, which returns values unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.gf.field import Field


class ByzantineBehavior(ABC):
    """Strategy deciding what a (possibly faulty) node actually reports."""

    #: Whether the protocol should treat this node as faulty when counting b.
    is_faulty: bool = True

    @abstractmethod
    def transform_result(
        self,
        field: Field,
        node_id: str,
        true_value: np.ndarray,
        rng: np.random.Generator,
        recipient: str | None = None,
    ) -> np.ndarray | None:
        """Return the value the node reports (``None`` means "stay silent")."""

    def delays_message(self) -> bool:
        """Whether the node's messages should arrive after the round timeout."""
        return False

    def corrupts_consensus_vote(self) -> bool:
        """Whether the node votes incorrectly / withholds votes in consensus."""
        return self.is_faulty


class HonestBehavior(ByzantineBehavior):
    """Follows the protocol exactly."""

    is_faulty = False

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        return np.array(true_value, dtype=np.int64, copy=True)

    def corrupts_consensus_vote(self) -> bool:
        return False


#: The behaviour of every node nobody configured otherwise.  Stateless, so
#: one instance serves all lookups.
HONEST = HonestBehavior()


class CorruptResultBehavior(ByzantineBehavior):
    """Adds a fixed non-zero offset to every reported component."""

    def __init__(self, offset: int = 1) -> None:
        if int(offset) == 0:
            raise ValueError("corruption offset must be non-zero")
        self.offset = int(offset)

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        value = field.array(true_value)
        return field.add(value, np.full_like(value, field.element(self.offset)))


class RandomGarbageBehavior(ByzantineBehavior):
    """Reports uniformly random field elements."""

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        value = field.array(true_value)
        return field.random_array(rng, value.shape)


class SilentBehavior(ByzantineBehavior):
    """Never sends its execution-phase messages."""

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        return None


class EquivocatingBehavior(ByzantineBehavior):
    """Sends a different corrupted value to every recipient.

    The corruption is a deterministic function of the recipient so tests can
    assert that two honest receivers really did observe conflicting values,
    yet both still decode the same correct polynomial (Section 5.2).
    """

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        value = field.array(true_value)
        salt = abs(hash((node_id, recipient))) % (field.order - 1) + 1
        return field.add(value, np.full_like(value, field.element(salt)))


class DelayingBehavior(ByzantineBehavior):
    """Sends correct values, but after the round deadline.

    In the synchronous model a delayed message is equivalent to silence for
    the round; in the partially synchronous model before GST it is
    indistinguishable from an honest slow node.
    """

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        return np.array(true_value, dtype=np.int64, copy=True)

    def delays_message(self) -> bool:
        return True


class CrashedBehavior(SilentBehavior):
    """A crashed node: silent everywhere until the fault plane recovers it.

    Behaviourally identical to :class:`SilentBehavior` — the class exists so
    the fault-injection layer (:mod:`repro.faults`) can distinguish "this
    node is crashed and pending recovery" from "this node was configured
    Byzantine-silent for the whole run" when building its report.
    """


class WindowedBehavior(ByzantineBehavior):
    """Applies an ``inner`` behaviour only inside a round window.

    The window is ``[start_round, end_round)`` in 0-based rounds, counted
    per :meth:`transform_result` call — i.e. per round under the engines'
    single-representative decode.  ``end_round=None`` leaves the window
    open-ended (the onset shape); a bounded window is a fault *burst*; a
    window starting at 0 with a bound is the "until" shape.  Composing
    these three combinators with the base behaviours gives schedules and
    behaviours one shared algebra.

    The node counts toward the fault budget for the whole run (``is_faulty``
    is static for the engines: a faulty node never refreshes its coded state
    and misbehaves in consensus throughout), so the window changes *when*
    the execution-phase deviation appears, not the protocol's fault
    accounting.  The activation flag is refreshed at the top of each
    :meth:`transform_result` call, before the round counter increments —
    the same pre-increment evaluation the original onset wrapper used, so
    an unbounded window is bit-identical to :class:`FaultOnsetBehavior`.
    """

    def __init__(
        self,
        inner: ByzantineBehavior,
        start_round: int = 0,
        end_round: int | None = None,
    ) -> None:
        if start_round < 0:
            raise ValueError(f"window start must be non-negative, got {start_round}")
        if end_round is not None and end_round <= start_round:
            raise ValueError(
                f"window end {end_round} must exceed window start {start_round}"
            )
        self.inner = inner
        self.start_round = int(start_round)
        self.end_round = None if end_round is None else int(end_round)
        self._rounds_seen = 0
        self._active = start_round == 0

    def _in_window(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        return self.end_round is None or round_index < self.end_round

    def transform_result(self, field, node_id, true_value, rng, recipient=None):
        self._active = self._in_window(self._rounds_seen)
        self._rounds_seen += 1
        if not self._active:
            return np.array(true_value, dtype=np.int64, copy=True)
        return self.inner.transform_result(
            field, node_id, true_value, rng, recipient=recipient
        )

    def delays_message(self) -> bool:
        return self._active and self.inner.delays_message()


class FaultOnsetBehavior(WindowedBehavior):
    """Reports honestly until an onset round, then turns Byzantine.

    The open-ended special case of :class:`WindowedBehavior`, kept as a
    named class (with its historical ``onset_round`` attribute) because the
    speculative pipeline's rollback tests are written against this shape:
    the node sits in the decoder's trusted pivot until it starts erring, so
    its first bad round invalidates in-flight speculation.
    """

    def __init__(self, inner: ByzantineBehavior, onset_round: int) -> None:
        super().__init__(inner, start_round=onset_round)
        self.onset_round = self.start_round


_BEHAVIOR_FACTORIES = {
    "honest": HonestBehavior,
    "corrupt": CorruptResultBehavior,
    "liar": CorruptResultBehavior,
    "garbage": RandomGarbageBehavior,
    "silent": SilentBehavior,
    "crash": CrashedBehavior,
    "equivocate": EquivocatingBehavior,
    "delay": DelayingBehavior,
}

#: Window combinators understood by :func:`behavior_from_name`, mapped to the
#: ``(start, end)`` window their single parameter describes.
_COMBINATORS = ("onset", "burst", "until")


def _parse_window(kind: str, param: str, spec: str) -> tuple[int, int | None]:
    """The ``(start_round, end_round)`` window a combinator parameter names."""
    try:
        if kind == "onset":
            return int(param), None
        if kind == "until":
            return 0, int(param)
        # burst:A-B is inclusive of both endpoints: rounds A..B misbehave.
        start_text, sep, end_text = param.partition("-")
        if not sep:
            raise ValueError("burst expects an inclusive round span 'A-B'")
        return int(start_text), int(end_text) + 1
    except ValueError as exc:
        raise ValueError(
            f"bad behaviour spec '{spec}': {kind} parameter {param!r} ({exc})"
        ) from exc


def behavior_from_name(name: str) -> ByzantineBehavior:
    """Instantiate a behaviour from its spec string.

    Plain names (``"corrupt"``, ``"silent"``, …) instantiate the base
    behaviours as before.  Three window combinators compose recursively::

        onset:R:SPEC    honest until round R, then SPEC forever
        burst:A-B:SPEC  SPEC during rounds A..B inclusive, honest otherwise
        until:R:SPEC    SPEC during rounds 0..R-1, honest from round R on

    e.g. ``"onset:5:liar"`` or ``"burst:3-7:silent"`` — so scenario files
    and benchmarks can name composed behaviours without constructing
    objects.
    """
    spec = str(name).strip()
    kind, sep, rest = spec.partition(":")
    if sep and kind in _COMBINATORS:
        param, inner_sep, inner_spec = rest.partition(":")
        if not inner_sep or not inner_spec:
            raise ValueError(
                f"bad behaviour spec '{spec}': expected '{kind}:PARAM:SPEC'"
            )
        start, end = _parse_window(kind, param, spec)
        return WindowedBehavior(
            behavior_from_name(inner_spec), start_round=start, end_round=end
        )
    try:
        return _BEHAVIOR_FACTORIES[spec]()
    except KeyError as exc:
        raise ValueError(
            f"unknown behaviour '{spec}'; choose from "
            f"{sorted(_BEHAVIOR_FACTORIES)} or a combinator "
            f"{'/'.join(_COMBINATORS)} spec like 'onset:5:liar'"
        ) from exc
