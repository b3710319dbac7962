"""Service-level traffic policies: backpressure, fair selection, admission.

The paper's coded state machine is a *serving* system — clients keep
submitting commands and the protocol amortises them across coded rounds —
but a plain FIFO pool treats a firehose session and a trickle session the
same, and grows without bound under overload.  :class:`QosPolicy` is the
production shape on top of the session/ticket API:

* **Per-session queue caps** (``max_session_pending``): a session with that
  many unresolved tickets gets a ``THROTTLED`` ticket back from ``submit``
  instead of growing the pool; capacity frees as earlier tickets resolve.
* **Admission control** (``admission_watermark``): once a shard's ingress
  queue depth crosses the watermark, *all* submits to that shard are shed
  until the scheduler drains the backlog — bounded queues under overload.
* **Selection policy** (``selection``): which pending command fills each
  machine slot when :meth:`~repro.service.scheduler.RoundScheduler.plan`
  forms a round.  ``"fifo"`` (the default) keeps today's
  oldest-first-per-machine order bit-identically; ``"weighted_fair"``
  arbitrates across *sessions* with stride scheduling — a weight-2 session
  receives twice the slots of a weight-1 session under saturation — inside
  strict priority lanes (a higher-priority session's commands always win
  the slot over lower-priority ones).

A default-constructed ``QosPolicy()`` is **disabled**: it imposes no cap,
no watermark and FIFO selection, and the service's behaviour — history,
message counters, ticket outcomes, rng stream — is bit-identical to running
with no policy at all (property-tested).

The policy object is a frozen *configuration*; the stateful selector that
tracks per-session stride passes is built per scheduler via
:meth:`QosPolicy.build_selector`, so every shard of a
:class:`~repro.service.sharding.ShardedCSMService` arbitrates its own
machine slots independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.consensus.command_pool import SubmittedCommand
from repro.exceptions import ConfigurationError

__all__ = [
    "FifoSelection",
    "QosPolicy",
    "SelectionPolicy",
    "WeightedFairSelection",
]


class SelectionPolicy:
    """Chooses which pending command fills a machine slot.

    The round scheduler calls :meth:`select` once per machine slot with the
    machine's pending queue in FIFO order (never empty); the returned entry
    is dequeued into the slot.  Implementations may keep state across calls
    (stride passes), but must be deterministic: the same sequence of
    ``select`` calls must pick the same entries.
    """

    def select(
        self, machine_index: int, candidates: Sequence[SubmittedCommand]
    ) -> SubmittedCommand:
        raise NotImplementedError


class FifoSelection(SelectionPolicy):
    """Oldest submission first — the scheduler's implicit default, explicit.

    ``select`` returns the head of the machine's queue, so a scheduler
    running this policy is bit-identical to one running without any policy
    (property-tested); it exists so the selection hook itself can be
    exercised and composed.
    """

    def select(
        self, machine_index: int, candidates: Sequence[SubmittedCommand]
    ) -> SubmittedCommand:
        return candidates[0]


class WeightedFairSelection(SelectionPolicy):
    """Stride scheduling across sessions, inside strict priority lanes.

    Every session carries a ``weight`` (slots per unit of service) and a
    ``priority`` (lane).  For each machine slot the policy considers the
    FIFO-first pending entry of every session present in the machine's
    queue, restricts to the highest-priority lane among them, and picks the
    session with the smallest stride *pass*; the winner's pass advances by
    ``STRIDE_SCALE / weight``.  Under saturation this converges to slot
    shares proportional to the weights — a weight-2 session receives ~2x
    the slots of a weight-1 session — while FIFO order is preserved
    *within* each session.

    Determinism: ties break on the smaller submission sequence (older
    command first), and a session's first pass is initialised to the
    minimum outstanding pass, so late joiners neither monopolise nor starve.
    """

    #: Pass increment for a weight-1 session; integer strides keep the pass
    #: arithmetic exact (no float drift in the fairness accounting).
    STRIDE_SCALE = 1 << 20

    def __init__(
        self,
        weights: Mapping[str, int] | None = None,
        default_weight: int = 1,
        priorities: Mapping[str, int] | None = None,
        default_priority: int = 0,
    ) -> None:
        self.weights = dict(weights or {})
        self.default_weight = int(default_weight)
        self.priorities = dict(priorities or {})
        self.default_priority = int(default_priority)
        for client, weight in self.weights.items():
            if int(weight) < 1:
                raise ConfigurationError(
                    f"session weight must be >= 1, got {weight} for {client!r}"
                )
        if self.default_weight < 1:
            raise ConfigurationError(
                f"default session weight must be >= 1, got {default_weight}"
            )
        self._pass: dict[str, int] = {}

    def weight_of(self, client_id: str) -> int:
        return int(self.weights.get(client_id, self.default_weight))

    def priority_of(self, client_id: str) -> int:
        return int(self.priorities.get(client_id, self.default_priority))

    def select(
        self, machine_index: int, candidates: Sequence[SubmittedCommand]
    ) -> SubmittedCommand:
        # FIFO-first entry per session: dict insertion order preserves the
        # queue order, so ties resolve to the oldest submission.
        head_by_client: dict[str, SubmittedCommand] = {}
        for entry in candidates:
            head_by_client.setdefault(entry.client_id, entry)
        # Register every *seen* session at the current pass floor.  Pinning
        # the pass on first sight (not first win) is what keeps a session
        # with larger sequence numbers from losing every tie against an
        # incumbent whose pass rises in lockstep with the floor — i.e. from
        # starving outright.
        floor = min(self._pass.values(), default=0)
        for client_id in head_by_client:
            self._pass.setdefault(client_id, floor)
        best_entry: SubmittedCommand | None = None
        best_key: tuple[int, int, int] | None = None
        for client_id, entry in head_by_client.items():
            key = (
                -self.priority_of(client_id),
                self._pass[client_id],
                entry.sequence,
            )
            if best_key is None or key < best_key:
                best_key, best_entry = key, entry
        assert best_entry is not None  # scheduler never passes an empty queue
        client_id = best_entry.client_id
        self._pass[client_id] += self.STRIDE_SCALE // self.weight_of(client_id)
        return best_entry


@dataclass(frozen=True)
class QosPolicy:
    """Traffic-policy configuration for a service (or one of its shards).

    Parameters
    ----------
    max_session_pending:
        Most unresolved (non-terminal) tickets one session may hold; a
        submit beyond the cap returns a ``THROTTLED`` ticket
        (:attr:`~repro.service.tickets.ThrottleReason.SESSION_QUEUE_FULL`).
        ``None`` disables the cap.
    admission_watermark:
        Shard ingress queue depth at which *every* submit to the shard is
        shed (:attr:`~repro.service.tickets.ThrottleReason.ADMISSION_SHED`)
        until the scheduler drains below it.  ``None`` disables shedding.
    selection:
        ``"fifo"`` (default — bit-identical to no policy) or
        ``"weighted_fair"`` (stride scheduling over ``session_weights``
        inside ``session_priorities`` lanes).
    session_weights / default_weight:
        Per-session slot shares for ``"weighted_fair"`` (>= 1 each).
    session_priorities / default_priority:
        Strict lanes for ``"weighted_fair"``: higher priority always wins
        the slot.
    """

    max_session_pending: int | None = None
    admission_watermark: int | None = None
    selection: str = "fifo"
    session_weights: Mapping[str, int] = field(default_factory=dict)
    default_weight: int = 1
    session_priorities: Mapping[str, int] = field(default_factory=dict)
    default_priority: int = 0

    def __post_init__(self) -> None:
        if self.selection not in ("fifo", "weighted_fair"):
            raise ConfigurationError(
                f"selection must be 'fifo' or 'weighted_fair', "
                f"got {self.selection!r}"
            )
        if self.max_session_pending is not None and self.max_session_pending < 1:
            raise ConfigurationError(
                f"max_session_pending must be >= 1 (or None), "
                f"got {self.max_session_pending}"
            )
        if self.admission_watermark is not None and self.admission_watermark < 1:
            raise ConfigurationError(
                f"admission_watermark must be >= 1 (or None), "
                f"got {self.admission_watermark}"
            )
        if self.default_weight < 1:
            raise ConfigurationError(
                f"default_weight must be >= 1, got {self.default_weight}"
            )
        for client, weight in dict(self.session_weights).items():
            if int(weight) < 1:
                raise ConfigurationError(
                    f"session weight must be >= 1, got {weight} for {client!r}"
                )

    @property
    def enabled(self) -> bool:
        """True when any knob departs from the bit-identical defaults."""
        return (
            self.max_session_pending is not None
            or self.admission_watermark is not None
            or self.selection != "fifo"
        )

    def build_selector(self) -> SelectionPolicy | None:
        """The stateful slot selector this policy configures.

        ``None`` for FIFO — the scheduler then takes its original
        ``dequeue_next`` fast path, which is what makes a disabled policy
        bit-identical to no policy at all.  One selector per scheduler:
        stride passes are per-shard state.
        """
        if self.selection == "fifo":
            return None
        return WeightedFairSelection(
            weights=self.session_weights,
            default_weight=self.default_weight,
            priorities=self.session_priorities,
            default_priority=self.default_priority,
        )

    def describe(self) -> dict[str, object]:
        """JSON-friendly view of the configuration (for reports)."""
        return {
            "enabled": self.enabled,
            "max_session_pending": self.max_session_pending,
            "admission_watermark": self.admission_watermark,
            "selection": self.selection,
        }
