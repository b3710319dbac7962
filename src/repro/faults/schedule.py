"""Declarative fault schedules: composable events keyed by (round, target).

A :class:`FaultSchedule` is built fluently::

    schedule = (
        FaultSchedule()
        .crash("node-3", at=2, until=5)          # crash rounds 2..4, recover at 5
        .behavior("node-1", "corrupt", at=4, until=6)
        .drop_link("node-0", "node-2", at=1, until=3)
        .partition([["node-0", "node-1"], ["node-2", "node-3"]], at=7, until=9)
    )

and applied by a :class:`~repro.faults.injector.FaultInjector`, which splits
each driven batch at event boundaries so every executed segment sees a
constant fault state.  Targets may be literal node ids or the adaptive
``"@primary"`` (the node that would lead the event's round at view 0) /
``"@worker"`` (the delegation backend's currently elected worker), resolved
at injection time.

Schedules are pure data — building one draws no randomness; the seeded
:meth:`FaultSchedule.random` generator consumes only the caller's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: Event kinds that swap a node's behaviour (need a behaviour-capable backend).
NODE_KINDS = frozenset({"crash", "recover", "behavior", "restore"})

#: Event kinds that mutate the network's link-fault switchboard.
NETWORK_KINDS = frozenset(
    {
        "drop-node",
        "undrop-node",
        "drop-link",
        "undrop-link",
        "delay",
        "undelay",
        "partition",
        "heal",
    }
)

_ALL_KINDS = NODE_KINDS | NETWORK_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition, applied before its round executes.

    ``round_index`` is the backend round index (global, monotone across
    batches) at whose boundary the event fires.  ``target`` is a node id or
    adaptive target for node/drop-node events; ``link`` a directed
    ``(sender, recipient)`` pair; ``spec`` a behaviour spec string for
    ``behavior`` events; ``groups``/``extra_delay`` parameterise partitions
    and delay bursts.
    """

    round_index: int
    kind: str
    target: str | None = None
    spec: str | None = None
    link: tuple[str, str] | None = None
    groups: tuple[frozenset[str], ...] | None = None
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ConfigurationError(
                f"fault event round must be non-negative, got {self.round_index}"
            )
        if self.kind not in _ALL_KINDS:
            raise ConfigurationError(
                f"unknown fault event kind {self.kind!r}; choose from "
                f"{sorted(_ALL_KINDS)}"
            )

    def describe(self) -> dict[str, object]:
        """Compact JSON-friendly view used by the fault report."""
        entry: dict[str, object] = {"round": self.round_index, "kind": self.kind}
        if self.target is not None:
            entry["target"] = self.target
        if self.spec is not None:
            entry["spec"] = self.spec
        if self.link is not None:
            entry["link"] = list(self.link)
        if self.groups is not None:
            entry["groups"] = [sorted(group) for group in self.groups]
        if self.extra_delay:
            entry["extra_delay"] = self.extra_delay
        return entry


class FaultSchedule:
    """An ordered, composable collection of :class:`FaultEvent`\\ s."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: list[FaultEvent] = list(events)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The no-fault schedule: injecting it is bit-identical to no plane."""
        return cls()

    # -- introspection ------------------------------------------------------------------
    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Events in application order: by round, insertion order within one.

        ``sorted`` is stable, so events sharing a round apply in the order
        they were added.
        """
        return tuple(sorted(self._events, key=lambda event: event.round_index))

    def is_empty(self) -> bool:
        return not self._events

    def has_node_events(self) -> bool:
        return any(event.kind in NODE_KINDS for event in self._events)

    def has_network_events(self) -> bool:
        return any(event.kind in NETWORK_KINDS for event in self._events)

    def max_round(self) -> int:
        """Highest round any event fires at (``-1`` for an empty schedule)."""
        return max((event.round_index for event in self._events), default=-1)

    def describe(self) -> list[dict[str, object]]:
        return [event.describe() for event in self.events]

    # -- builders -----------------------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        self._events.append(event)
        return self

    def crash(
        self, node: str, at: int, until: int | None = None
    ) -> "FaultSchedule":
        """Crash ``node`` at round ``at``; recover (with resync) at ``until``.

        A crashed node is silent in consensus *and* contributes no coded row
        until recovery, when a state transfer re-encodes its row from the
        last decoded states.  ``until=None`` leaves it down for good.
        """
        self.add(FaultEvent(round_index=at, kind="crash", target=str(node)))
        if until is not None:
            self._check_span(at, until)
            self.add(FaultEvent(round_index=until, kind="recover", target=str(node)))
        return self

    def behavior(
        self, node: str, spec: str, at: int, until: int | None = None
    ) -> "FaultSchedule":
        """Give ``node`` the behaviour named by ``spec`` for rounds
        ``[at, until)``; at ``until`` the original behaviour is restored and
        the node is resynced (its coded row went stale while misbehaving)."""
        self.add(
            FaultEvent(round_index=at, kind="behavior", target=str(node), spec=str(spec))
        )
        if until is not None:
            self._check_span(at, until)
            self.add(FaultEvent(round_index=until, kind="restore", target=str(node)))
        return self

    def drop_node(self, node: str, at: int, until: int) -> "FaultSchedule":
        """Drop every message to or from ``node`` for rounds ``[at, until)``."""
        self._check_span(at, until)
        self.add(FaultEvent(round_index=at, kind="drop-node", target=str(node)))
        self.add(FaultEvent(round_index=until, kind="undrop-node", target=str(node)))
        return self

    def drop_link(
        self, sender: str, recipient: str, at: int, until: int
    ) -> "FaultSchedule":
        """Drop the directed ``sender -> recipient`` link for ``[at, until)``."""
        self._check_span(at, until)
        link = (str(sender), str(recipient))
        self.add(FaultEvent(round_index=at, kind="drop-link", link=link))
        self.add(FaultEvent(round_index=until, kind="undrop-link", link=link))
        return self

    def delay(self, extra: float, at: int, until: int) -> "FaultSchedule":
        """Add ``extra`` latency to every delivery for rounds ``[at, until)``."""
        if extra <= 0:
            raise ConfigurationError(f"delay burst must be positive, got {extra}")
        self._check_span(at, until)
        self.add(FaultEvent(round_index=at, kind="delay", extra_delay=float(extra)))
        self.add(FaultEvent(round_index=until, kind="undelay"))
        return self

    def partition(
        self, groups: Sequence[Iterable[str]], at: int, until: int
    ) -> "FaultSchedule":
        """Partition the network into ``groups`` for rounds ``[at, until)``.

        Cross-group messages are dropped; endpoints outside every group stay
        reachable from everywhere.
        """
        self._check_span(at, until)
        frozen = tuple(frozenset(str(n) for n in group) for group in groups)
        if len(frozen) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        self.add(FaultEvent(round_index=at, kind="partition", groups=frozen))
        self.add(FaultEvent(round_index=until, kind="heal"))
        return self

    @staticmethod
    def _check_span(at: int, until: int) -> None:
        if until <= at:
            raise ConfigurationError(
                f"fault burst end {until} must exceed its start {at}"
            )

    # -- randomised schedules -----------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        node_ids: Sequence[str],
        num_rounds: int,
        max_concurrent: int = 1,
        fault_probability: float = 0.3,
        min_downtime: int = 1,
        max_downtime: int = 3,
        kinds: Sequence[str] = ("crash",),
    ) -> "FaultSchedule":
        """A seeded random crash/burst schedule with bounded concurrency.

        Walks the rounds; whenever fewer than ``max_concurrent`` nodes are
        currently faulty, with ``fault_probability`` a uniformly chosen
        healthy node goes down for a uniform ``[min_downtime, max_downtime]``
        rounds.  ``kinds`` entries are either ``"crash"`` or a behaviour
        spec (``"corrupt"``, ``"garbage"``, …) applied as a burst.  All
        randomness comes from ``rng``, so the schedule — like everything
        else in the reproduction — is a pure function of its seed.
        """
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be at least 1, got {max_concurrent}"
            )
        schedule = cls()
        active: list[tuple[int, str]] = []  # (recovery round, node)
        for round_index in range(num_rounds):
            active = [(end, node) for end, node in active if end > round_index]
            busy = {node for _, node in active}
            if len(busy) >= max_concurrent:
                continue
            if rng.random() >= fault_probability:
                continue
            candidates = [node for node in node_ids if node not in busy]
            if not candidates:
                continue
            node = candidates[int(rng.integers(len(candidates)))]
            downtime = int(rng.integers(min_downtime, max_downtime + 1))
            kind = str(kinds[int(rng.integers(len(kinds)))])
            until = round_index + downtime
            if kind == "crash":
                schedule.crash(node, at=round_index, until=until)
            else:
                schedule.behavior(node, kind, at=round_index, until=until)
            active.append((until, node))
        return schedule
