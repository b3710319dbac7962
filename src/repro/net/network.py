"""The simulated fully-connected network.

The network owns the event scheduler, the delay model and the key registry.
Protocol layers interact with it through three operations:

* :meth:`SimulatedNetwork.send` — sign and dispatch a message to one node;
* :meth:`SimulatedNetwork.broadcast` — dispatch one copy to every node
  (a Byzantine sender that wants to equivocate simply calls ``send`` with
  different payloads instead);
* :meth:`SimulatedNetwork.collect` — advance simulated time by a timeout and
  return the (signature-verified) messages a node received in that window.

Messages whose signatures do not verify are dropped and counted, modelling
the "impersonation is easily detectable" clause of the fault model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.net.latency import DelayModel, SynchronousDelay
from repro.net.message import Message, MessageKind, PayloadTable, PhaseBatch
from repro.net.signatures import KeyRegistry
from repro.net.simulator import EventScheduler
from repro.rng import default_stream


@dataclass
class DeliveryRecord:
    """Book-keeping entry for one attempted message delivery."""

    message: Message
    send_time: float
    delivery_time: float
    delivered: bool = True


@dataclass
class _PhaseLogEntry:
    """A whole :class:`PhaseBatch` standing in for its per-copy records.

    The vectorised plane appends one of these per phase instead of
    ``A * (N - 1)`` :class:`DeliveryRecord` objects; :meth:`materialise`
    expands it — in exactly the order ``deliver_all`` would have appended —
    when somebody actually reads the log.
    """

    batch: PhaseBatch
    node_ids: list[str]

    @property
    def count(self) -> int:
        return self.batch.num_actions * max(len(self.node_ids) - 1, 0)

    def materialise(self) -> list[DeliveryRecord]:
        batch = self.batch
        out: list[DeliveryRecord] = []
        for a, message in enumerate(batch.templates):
            sender = int(batch.sender_index[a])
            delivered = bool(batch.valid[a])
            times = batch.delivery_time[a]
            for j, node_id in enumerate(self.node_ids):
                if j == sender:
                    continue  # own copy never hits the log (as in broadcast)
                out.append(
                    DeliveryRecord(
                        message.with_recipient(node_id),
                        batch.send_time,
                        float(times[j]),
                        delivered=delivered,
                    )
                )
        return out


class DeliveryLog(Sequence):
    """Append-only delivery journal that holds phase batches compactly.

    Scalar paths append :class:`DeliveryRecord` objects as before; the
    vectorised message plane appends whole phases, which are expanded to
    records lazily the first time the log is read.  Interleaving is
    preserved: entries expand in append order, so the flat view is
    bit-identical (field for field) to the record sequence the event-driven
    and bulk paths would have produced.
    """

    def __init__(self) -> None:
        self._entries: list[DeliveryRecord | _PhaseLogEntry] = []
        self._flat: list[DeliveryRecord] | None = []

    def append(self, record: DeliveryRecord) -> None:
        self._entries.append(record)
        if self._flat is not None:
            self._flat.append(record)

    def append_phase(self, entry: _PhaseLogEntry) -> None:
        self._entries.append(entry)
        self._flat = None

    def _materialise(self) -> list[DeliveryRecord]:
        if self._flat is None:
            flat: list[DeliveryRecord] = []
            for entry in self._entries:
                if isinstance(entry, DeliveryRecord):
                    flat.append(entry)
                else:
                    flat.extend(entry.materialise())
            self._flat = flat
        return self._flat

    def __len__(self) -> int:
        if self._flat is not None:
            return len(self._flat)
        return sum(
            1 if isinstance(entry, DeliveryRecord) else entry.count
            for entry in self._entries
        )

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return iter(self._materialise())

    def __getitem__(self, index):
        return self._materialise()[index]


@dataclass
class _Mailbox:
    """Per-node queue of delivered messages awaiting collection."""

    messages: list[tuple[float, Message]] = field(default_factory=list)

    def push(self, time: float, message: Message) -> None:
        self.messages.append((time, message))

    def drain(
        self,
        kind: MessageKind | None,
        round_index: int | None,
        up_to_time: float,
    ) -> list[Message]:
        kept: list[tuple[float, Message]] = []
        out: list[Message] = []
        for time, message in self.messages:
            matches = time <= up_to_time
            if kind is not None and message.kind != kind:
                matches = False
            if round_index is not None and message.round_index != round_index:
                matches = False
            if matches:
                out.append(message)
            else:
                kept.append((time, message))
        self.messages = kept
        return out


class NetworkFaultState:
    """Mutable link-fault switchboard consulted by :class:`SimulatedNetwork`.

    The fault-injection plane (:mod:`repro.faults`) flips these fields at
    round boundaries to model message-drop bursts, added-latency bursts and
    group partitions.  The network consults the state *after* sampling each
    copy's delay from the shared rng stream, so activating or clearing
    faults never shifts the stream: a run whose fault state stays inactive
    is bit-identical to one without the switchboard at all.

    Partition semantics: ``partition`` holds disjoint node groups; a copy
    whose sender and recipient sit in *different* groups is dropped, while
    endpoints outside every group (clients, for instance) stay reachable
    from everywhere.
    """

    def __init__(self) -> None:
        #: Every copy to or from these nodes is dropped.
        self.dropped_nodes: set[str] = set()
        #: Directed ``(sender, recipient)`` pairs to drop.
        self.dropped_links: set[tuple[str, str]] = set()
        #: Disjoint groups; cross-group copies are dropped.
        self.partition: list[frozenset[str]] | None = None
        #: Extra latency added to every delivery while non-zero.
        self.extra_delay: float = 0.0
        #: Copies dropped by this switchboard (observability counter).
        self.dropped_messages = 0

    @property
    def active(self) -> bool:
        """Whether any fault is currently configured (counters excluded)."""
        return bool(
            self.dropped_nodes
            or self.dropped_links
            or self.partition is not None
            or self.extra_delay
        )

    def clear(self) -> None:
        """Heal every configured fault (the drop counter is preserved)."""
        self.dropped_nodes.clear()
        self.dropped_links.clear()
        self.partition = None
        self.extra_delay = 0.0

    def set_partition(self, groups: Iterable[Iterable[str]] | None) -> None:
        self.partition = (
            None if groups is None else [frozenset(map(str, g)) for g in groups]
        )

    def should_drop(self, sender: str, recipient: str) -> bool:
        """Whether the configured faults sever this (directed) link."""
        if sender == recipient:
            return False
        if sender in self.dropped_nodes or recipient in self.dropped_nodes:
            return True
        if (sender, recipient) in self.dropped_links:
            return True
        if self.partition is not None:
            sender_group = recipient_group = None
            for group in self.partition:
                if sender in group:
                    sender_group = group
                if recipient in group:
                    recipient_group = group
            if (
                sender_group is not None
                and recipient_group is not None
                and sender_group is not recipient_group
            ):
                return True
        return False


class SimulatedNetwork:
    """Fully connected message-passing network with signed messages."""

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        rng: np.random.Generator | None = None,
        key_registry: KeyRegistry | None = None,
    ) -> None:
        self.delay_model = delay_model or SynchronousDelay()
        self.rng = rng if rng is not None else default_stream()
        self.keys = key_registry or KeyRegistry()
        self.scheduler = EventScheduler()
        self._mailboxes: dict[str, _Mailbox] = {}
        self.delivery_log: DeliveryLog = DeliveryLog()
        self.rejected_signatures = 0
        self.messages_sent = 0
        self._bulk_delivery = False
        #: Link-fault switchboard; inactive by default (bit-identical path).
        self.faults = NetworkFaultState()

    # -- membership -------------------------------------------------------------
    def register(self, node_id: str) -> None:
        """Register a node (or client) identity and issue its signing key."""
        node_id = str(node_id)
        if node_id not in self._mailboxes:
            self._mailboxes[node_id] = _Mailbox()
        self.keys.register(node_id)

    @property
    def participants(self) -> list[str]:
        return sorted(self._mailboxes)

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- sending -----------------------------------------------------------------
    def send(self, message: Message, sign: bool = True) -> DeliveryRecord:
        """Sign (unless pre-signed) and dispatch a message to its recipient."""
        if message.recipient not in self._mailboxes:
            raise KeyError(f"unknown recipient '{message.recipient}'")
        if sign or message.signature is None:
            self.keys.sign(message)
        send_time = self.scheduler.now
        delay = self.delay_model.sample_delay(send_time, self.rng)
        delivery_time = send_time + delay
        # Fault state applies *after* the rng draw, so (de)activating faults
        # never shifts the delay stream.
        dropped = False
        if self.faults.active:
            delivery_time += self.faults.extra_delay
            dropped = self.faults.should_drop(message.sender, message.recipient)
        record = DeliveryRecord(message, send_time, delivery_time, delivered=not dropped)
        self.delivery_log.append(record)
        self.messages_sent += 1
        if dropped:
            self.faults.dropped_messages += 1
            return record

        def deliver() -> None:
            if not self.keys.verify(message):
                self.rejected_signatures += 1
                record.delivered = False
                return
            self._mailboxes[message.recipient].push(delivery_time, message)

        self.scheduler.schedule_at(delivery_time, deliver, label=message.kind.value)
        return record

    def broadcast(
        self, message: Message, recipients: Iterable[str] | None = None, sign: bool = True
    ) -> list[DeliveryRecord]:
        """Send a copy of the message to every registered participant.

        A single signature covers all copies (the recipient is not part of
        the signed view), so this models a true broadcast.  Byzantine
        equivocation is modelled by *not* using this helper and calling
        :meth:`send` with different payloads per recipient instead.
        """
        if sign or message.signature is None:
            self.keys.sign(message)
        targets = list(recipients) if recipients is not None else self.participants
        if self._bulk_delivery:
            return self.deliver_all(message, targets, sign=False)
        records = []
        for recipient in targets:
            if recipient == message.sender:
                # A node "delivers" its own broadcast immediately; model that
                # as a zero-delay send so it also lands in its mailbox.
                copy = message.with_recipient(recipient)
                self._mailboxes[recipient].push(self.scheduler.now, copy)
                records.append(
                    DeliveryRecord(copy, self.scheduler.now, self.scheduler.now)
                )
                continue
            records.append(self.send(message.with_recipient(recipient), sign=False))
        return records

    def deliver_all(
        self, message: Message, recipients: Iterable[str] | None = None, sign: bool = True
    ) -> list[DeliveryRecord]:
        """Bulk broadcast: deliver one copy per recipient without the scheduler.

        Behaviourally equivalent to :meth:`broadcast`, but built for batched
        round drivers: per-recipient delays are sampled in the same order and
        from the same rng stream as ``broadcast`` (so the delivery times — and
        everything downstream of the shared generator — are bit-identical),
        while each copy is pushed straight into its recipient's mailbox at its
        delivery time instead of being wrapped in a scheduled event, and the
        signature is verified once for the whole broadcast instead of once per
        copy.  :meth:`_Mailbox.drain` filters on delivery time, so copies
        "arriving" after a collection deadline stay invisible until the clock
        passes them, exactly as with scheduled delivery.
        """
        if sign or message.signature is None:
            self.keys.sign(message)
        valid = self.keys.verify(message)
        targets = list(recipients) if recipients is not None else self.participants
        now = self.scheduler.now
        records = []
        for recipient in targets:
            mailbox = self._mailboxes.get(recipient)
            if mailbox is None:
                raise KeyError(f"unknown recipient '{recipient}'")
            copy = message.with_recipient(recipient)
            if recipient == message.sender:
                # Own broadcast copy: zero delay, no rng draw (as in broadcast).
                mailbox.push(now, copy)
                records.append(DeliveryRecord(copy, now, now))
                continue
            delivery_time = now + self.delay_model.sample_delay(now, self.rng)
            dropped = False
            if self.faults.active:
                delivery_time += self.faults.extra_delay
                dropped = self.faults.should_drop(message.sender, recipient)
            record = DeliveryRecord(
                copy, now, delivery_time, delivered=valid and not dropped
            )
            self.delivery_log.append(record)
            self.messages_sent += 1
            if not valid:
                self.rejected_signatures += 1
            elif dropped:
                self.faults.dropped_messages += 1
            else:
                mailbox.push(delivery_time, copy)
            records.append(record)
        return records

    @contextmanager
    def bulk_delivery(self) -> Iterator["SimulatedNetwork"]:
        """Route every :meth:`broadcast` through :meth:`deliver_all` in scope.

        Point-to-point :meth:`send` (the equivocation path) is unaffected, so
        Byzantine senders consume the rng stream exactly as without bulk mode.
        """
        previous = self._bulk_delivery
        self._bulk_delivery = True
        try:
            yield self
        finally:
            self._bulk_delivery = previous

    # -- receiving -----------------------------------------------------------------
    def collect(
        self,
        recipient: str,
        kind: MessageKind | None = None,
        round_index: int | None = None,
        timeout: float | None = None,
    ) -> list[Message]:
        """Advance time by ``timeout`` and return matching delivered messages.

        With ``timeout=None`` the synchronous bound of the delay model is
        used — the standard "wait one maximum delay" round structure.
        """
        if recipient not in self._mailboxes:
            raise KeyError(f"unknown recipient '{recipient}'")
        window = self.delay_model.synchronous_bound if timeout is None else float(timeout)
        deadline = self.scheduler.now + window
        self.scheduler.run_until(deadline)
        return self._mailboxes[recipient].drain(kind, round_index, deadline)

    def collect_all(
        self,
        recipients: Iterable[str],
        kind: MessageKind | None = None,
        round_index: int | None = None,
        timeout: float | None = None,
    ) -> dict[str, list[Message]]:
        """Collect for many recipients over a single shared timeout window."""
        recipients = list(recipients)
        window = self.delay_model.synchronous_bound if timeout is None else float(timeout)
        deadline = self.scheduler.now + window
        self.scheduler.run_until(deadline)
        out: dict[str, list[Message]] = {}
        for recipient in recipients:
            if recipient not in self._mailboxes:
                raise KeyError(f"unknown recipient '{recipient}'")
            out[recipient] = self._mailboxes[recipient].drain(kind, round_index, deadline)
        return out

    def discard_through(self, round_index: int, recipients: Iterable[str]) -> None:
        """Drop the ``recipients``' mailbox entries of rounds ``<= round_index``.

        Collection filters on the round being decided, so a copy that lands
        after its round closed would otherwise sit in the mailbox — and be
        re-scanned by every later drain — for the rest of the run.
        """
        for recipient in recipients:
            box = self._mailboxes[recipient]
            if box.messages:
                box.messages = [
                    entry for entry in box.messages if entry[1].round_index > round_index
                ]

    def flush(self) -> None:
        """Deliver every in-flight message (used between experiments)."""
        self.scheduler.run_until_idle()

    # -- statistics ------------------------------------------------------------------
    def delivered_within(self, deadline: float) -> int:
        return sum(1 for r in self.delivery_log if r.delivered and r.delivery_time <= deadline)

    def stats(self) -> dict[str, float]:
        return {
            "messages_sent": self.messages_sent,
            "rejected_signatures": self.rejected_signatures,
            "simulated_time": self.scheduler.now,
            "processed_events": self.scheduler.processed_events,
        }


class PhaseView:
    """What one consensus phase's collection window made visible.

    Pairs the phase's :class:`~repro.net.message.PhaseBatch` (with a per-copy
    visibility mask) with the *stragglers* drained from the real mailboxes —
    late copies of earlier phases and targeted (equivocation) sends, which
    still flow through the event scheduler.  Every node's view is the batch
    actions visible to it in action (dispatch) order, then its stragglers in
    mailbox order — within every filter the protocols apply (sender / view /
    leader) the order the event-driven collect would have produced.

    Protocols read the view through array queries that answer for all nodes
    at once: each is a handful of reductions over the ``(A, N)`` visibility
    grid selected by an ``(A,)`` action mask (:meth:`actions`), and walks
    messages one by one only for the nodes that actually drained stragglers,
    with ``straggler_match`` standing in for the mask.  :meth:`messages_for`
    is the literal per-node walk the queries are defined (and tested)
    against.
    """

    def __init__(
        self,
        plane: "MessagePlane",
        batch: PhaseBatch | None,
        visible: np.ndarray | None,
        stragglers: list[list[Message]],
    ) -> None:
        self.plane = plane
        self.stragglers = stragglers  # one list per node, in node order
        self.has_stragglers = any(stragglers)
        num_nodes = len(plane.node_ids)
        if batch is None or visible is None:
            # An empty phase reads as zero actions, so no query special-cases it.
            no_actions = np.empty(0, dtype=np.int64)
            self.templates: list[Message] = []
            self.senders = self.views = self.payload_ref = no_actions
            self.visible = np.empty((0, num_nodes), dtype=bool)
        else:
            self.templates = batch.templates
            self.senders = batch.sender_index
            self.views = batch.views
            self.payload_ref = batch.payload_ref
            self.visible = visible  # (A, N) bool, aligned with batch

    def actions(self, view: int, sender: int | None = None) -> np.ndarray:
        """``(A,)`` mask of the batch actions sent in ``view`` (by ``sender``)."""
        mask = self.views == view
        if sender is not None:
            mask &= self.senders == sender
        return mask

    def messages_for(self, node_index: int) -> Iterator[tuple[Message, int]]:
        """Yield ``(message, payload_ref)`` visible at ``node_index``."""
        for a in np.nonzero(self.visible[:, node_index])[0]:
            yield self.templates[a], int(self.payload_ref[a])
        for message in self.stragglers[node_index]:
            yield message, self.plane.register(message.payload)

    def sightings(
        self, action_mask: np.ndarray, straggler_match, nodes: np.ndarray
    ) -> list[tuple[int, Message, int]]:
        """Every matching ``(node index, message, payload_ref)``, node-major.

        Restricted to the nodes set in the ``(N,)`` mask ``nodes``; each
        node's sightings come in :meth:`messages_for` order.
        """
        hits = self.visible & action_mask[:, None] & nodes
        node_of, action_of = np.nonzero(hits.T)  # row-major over (N, A): node-major
        refs = self.payload_ref.tolist()
        out = [
            (j, self.templates[a], refs[a])
            for j, a in zip(node_of.tolist(), action_of.tolist())
        ]
        if self.has_stragglers:
            for j in np.nonzero(nodes)[0].tolist():
                for message in self.stragglers[j]:
                    if straggler_match(message):
                        out.append((j, message, self.plane.register(message.payload)))
            # Stable: a node's batch copies stay ahead of its stragglers.
            out.sort(key=itemgetter(0))
        return out

    def match_counts(self, action_mask: np.ndarray, straggler_match) -> np.ndarray:
        """``(N,)`` — how many matching messages each node saw."""
        counts = self.visible[action_mask].sum(axis=0, dtype=np.int64)
        if self.has_stragglers:
            for j, messages in enumerate(self.stragglers):
                counts[j] += sum(1 for m in messages if straggler_match(m))
        return counts

    def first_refs(
        self,
        action_mask: np.ndarray,
        key_fn,
        straggler_match,
        seen: dict[Any, np.ndarray] | None = None,
    ) -> dict[Any, np.ndarray]:
        """Per node, the distinct payloads it saw: the first ref of each content key.

        Returns ``{content key: (N,) refs}``: for each ``key_fn`` value among
        the matching messages, the payload ref of the *first* matching
        message with that content each node saw (``-1`` where it saw none) —
        two refs whose contents collide under ``key_fn`` are one payload to
        the protocol, represented at each node by whichever it met first.
        ``seen`` chains phases: pass the result of an earlier phase's query
        and this phase only fills what that one left unseen, which is the
        first-seen order of walking the earlier phase's messages first.
        """
        seen = {} if seen is None else seen
        plane = self.plane
        by_key: dict[Any, np.ndarray] = {}  # content key -> (A,) mask of its actions
        for ref in dict.fromkeys(self.payload_ref[action_mask].tolist()):
            key = plane.content_key(ref, key_fn)
            selected = action_mask & (self.payload_ref == ref)
            by_key[key] = by_key[key] | selected if key in by_key else selected
        for key, selected in by_key.items():
            hits = self.visible & selected[:, None]
            first = hits.argmax(axis=0)  # first matching action; 0 when none
            refs = np.where(hits.any(axis=0), self.payload_ref[first], -1)
            earlier = seen.get(key)
            seen[key] = refs if earlier is None else np.where(earlier >= 0, earlier, refs)
        if self.has_stragglers:
            for j, messages in enumerate(self.stragglers):
                for message in messages:
                    if not straggler_match(message):
                        continue
                    ref = plane.register(message.payload)
                    key = plane.content_key(ref, key_fn)
                    refs = seen.get(key)
                    if refs is None:
                        refs = seen[key] = np.full(len(self.stragglers), -1)
                    if refs[j] < 0:
                        refs[j] = ref
        return seen

    def supporter_counts(
        self, view: int, payload_ref: int, straggler_match
    ) -> np.ndarray:
        """Distinct supporting senders per node for ``(view, payload_ref)``.

        The batch part is a pure column sum (every batch action has a
        distinct sender within a phase); when stragglers exist the affected
        nodes fall back to exact sender-set semantics, so the counts equal
        the oracle's ``len({m.sender for m in received if ...})``.
        """
        action_mask = self.actions(view) & (self.payload_ref == payload_ref)
        counts = self.visible[action_mask].sum(axis=0, dtype=np.int64)
        if not self.has_stragglers:
            return counts
        for j, messages in enumerate(self.stragglers):
            if not messages:
                continue
            extra = {m.sender for m in messages if straggler_match(m)}
            if not extra:
                continue
            base = {
                self.templates[a].sender
                for a in np.nonzero(action_mask & self.visible[:, j])[0]
            }
            counts[j] = len(base | extra)
        return counts


class MessagePlane:
    """Vectorised dispatch/collect surface over a :class:`SimulatedNetwork`.

    One plane serves one batch of consensus rounds: it owns the payload
    table (payload object -> small integer ref, and the canonical signed
    bytes per ref) that lets a whole phase — up to ``N`` broadcasts,
    ``N x N`` copies — be signed, verified, delayed and tallied as columns
    instead of objects.  Everything observable (rng stream, counters,
    delivery log, mailbox residue, simulated time) is bit-identical to
    routing the same broadcasts through :meth:`SimulatedNetwork.deliver_all`
    and :meth:`SimulatedNetwork.collect_all`.

    Targeted sends (the equivocation path) do not go through the plane:
    Byzantine senders keep calling :meth:`SimulatedNetwork.send`, whose
    scheduled deliveries surface here as collection *stragglers*.
    """

    def __init__(self, network: SimulatedNetwork, node_ids: list[str]) -> None:
        self.network = network
        self.node_ids = list(node_ids)
        self.node_index = {node_id: j for j, node_id in enumerate(self.node_ids)}
        self.table = PayloadTable()
        self._content_keys: dict[int, Any] = {}
        # Free-form per-plane storage for protocol-level memoisation (interned
        # vote payloads, ...).  Content-derived values only:
        # the plane outlives a single round, so anything depending on mutable
        # protocol state (e.g. pool-backed validity) must not live here.
        self.scratch: dict[Any, Any] = {}

    # -- payload table ------------------------------------------------------------
    def register(self, payload: Any) -> int:
        """Intern ``payload`` (by identity) and return its table ref."""
        return self.table.intern(payload)

    def payload(self, ref: int) -> Any:
        return self.table.payloads[ref]

    def content_key(self, ref: int, key_fn) -> Any:
        """``key_fn(payload)`` memoised per ref (payloads are immutable).

        The memo is keyed on the ref alone: a plane serves one protocol, which
        names its payloads' content with one ``key_fn``.
        """
        key = self._content_keys.get(ref)
        if key is None:
            key = key_fn(self.table.payloads[ref])
            self._content_keys[ref] = key
        return key

    # -- phase dispatch -----------------------------------------------------------
    def broadcast_phase(
        self, templates: list[Message], payload_refs: list[int]
    ) -> PhaseBatch | None:
        """Sign, verify and dispatch one phase of broadcasts as a batch.

        Equivalent to calling ``deliver_all(template, self.node_ids)`` for
        each template in order: same rng draws (one per non-self copy, in
        action-major recipient order), same ``messages_sent`` /
        ``rejected_signatures`` accounting, same delivery-log records
        (appended compactly), but no per-copy message objects or mailbox
        pushes — in-window copies are tallied straight off the batch arrays
        at collection.

        Each action is MAC-signed with its sender's key and MAC-verified
        against its claimed sender's; the phase shares only the canonical
        bytes of each distinct payload, through the plane's table — which
        interns, by identity, whatever payload object each template carries
        at that moment, registered before or not.
        """
        if not templates:
            return None
        net = self.network
        net.keys.sign_batch(templates, self.table)
        verdicts = net.keys.verify_batch(templates, self.table)
        now = net.scheduler.now
        num_actions = len(templates)
        num_nodes = len(self.node_ids)
        node_index = self.node_index
        sender_index = np.array([node_index[m.sender] for m in templates], dtype=np.int64)
        views = np.array(
            [int(m.metadata.get("view", -1)) for m in templates], dtype=np.int64
        )
        delivery_time = np.full((num_actions, num_nodes), now, dtype=float)
        self_mask = np.zeros((num_actions, num_nodes), dtype=bool)
        self_mask[np.arange(num_actions), sender_index] = True
        draws = net.delay_model.sample_delays(now, net.rng, num_actions * (num_nodes - 1))
        # Row-major boolean assignment fills exactly in action-major,
        # recipient-ascending order skipping the sender — the draw order of
        # the sequential per-copy loop.
        delivery_time[~self_mask] = now + draws
        batch = PhaseBatch(
            kind=templates[0].kind,
            round_index=int(templates[0].round_index),
            send_time=now,
            templates=templates,
            sender_index=sender_index,
            views=views,
            payload_ref=np.asarray(payload_refs, dtype=np.int64),
            valid=np.array(verdicts, dtype=bool),
            delivery_time=delivery_time,
        )
        net.messages_sent += num_actions * (num_nodes - 1)
        net.rejected_signatures += verdicts.count(False) * (num_nodes - 1)
        net.delivery_log.append_phase(_PhaseLogEntry(batch, self.node_ids))
        return batch

    # -- phase collection ---------------------------------------------------------
    def collect_phase(
        self,
        batch: PhaseBatch | None,
        kind: MessageKind,
        round_index: int,
        timeout: float | None = None,
    ) -> PhaseView:
        """Advance one collection window and expose what each node received.

        In-window batch copies become a visibility mask (no mailbox round
        trip); copies landing *after* the deadline are pushed into the real
        mailboxes — before the scheduler runs, exactly where ``deliver_all``
        would have put them — so later windows drain them as usual.  The
        node's own copy is visible even for an invalid broadcast, matching
        the unconditional self-push of the scalar paths.
        """
        net = self.network
        window = (
            net.delay_model.synchronous_bound if timeout is None else float(timeout)
        )
        deadline = net.scheduler.now + window
        visible = None
        if batch is not None and batch.num_actions:
            self_mask = batch.self_mask()
            in_window = batch.delivery_time <= deadline
            visible = (self_mask | batch.valid[:, None]) & in_window
            if not in_window.all():
                late = batch.valid[:, None] & ~in_window & ~self_mask
                for a, j in zip(*np.nonzero(late)):
                    node_id = self.node_ids[j]
                    net._mailboxes[node_id].push(
                        float(batch.delivery_time[a, j]),
                        batch.templates[a].with_recipient(node_id),
                    )
        net.scheduler.run_until(deadline)
        stragglers: list[list[Message]] = []
        for node_id in self.node_ids:
            box = net._mailboxes[node_id]
            stragglers.append(
                box.drain(kind, round_index, deadline) if box.messages else []
            )
        return PhaseView(self, batch, visible, stragglers)
