"""The simulated fully-connected network and its message plane.

The network owns the simulated clock, the delay model, the key registry,
the link-fault switchboard and one mailbox per registered identity.  Every
consensus copy goes out through a :class:`MessagePlane` over it, in one of
two shapes:

* :meth:`MessagePlane.broadcast_phase` — one phase of broadcasts (at most one
  per node), signed, verified, delayed and fault-masked as a
  struct-of-arrays :class:`~repro.net.message.PhaseBatch`;
* :meth:`MessagePlane.send_targeted` — point-to-point copies (a Byzantine
  leader equivocating with a different payload per recipient), settled as
  one list and pushed into the recipients' mailboxes.

:meth:`MessagePlane.collect_phase` then closes one collection window: it
moves the clock to the window's deadline and exposes what each node received
as a :class:`PhaseView` — the batch copies that landed in time, plus the
*stragglers* it drains from the mailboxes (late copies of earlier phases and
targeted sends).

Every copy is settled when it is sent: its MAC is verified, its delay drawn,
the link faults applied and the counters updated, and a surviving copy that
is not tallied straight off its batch waits in its recipient's mailbox
stamped with its delivery time.  A collection window only returns copies
stamped at or before its deadline, so whether a message arrived before the
receiver's timeout is one comparison.  Messages whose signatures do not
verify are dropped and counted, modelling the "impersonation is easily
detectable" clause of the fault model.

The network keeps counters (``messages_sent``, ``rejected_signatures``,
``faults.dropped_messages``), not a journal, so memory stays flat however
many rounds run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from repro.net.latency import DelayModel, SynchronousDelay
from repro.net.message import Message, MessageKind, PayloadTable, PhaseBatch
from repro.net.signatures import KeyRegistry
from repro.rng import default_stream


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
    """Mutable link-fault switchboard consulted by the :class:`MessagePlane`.

    The fault-injection plane (:mod:`repro.faults`) flips these fields at
    round boundaries to model message-drop bursts, added-latency bursts and
    group partitions.  The plane applies them to every copy it sends, as a
    drop mask (:meth:`drop_mask`) plus a delay offset, *after* sampling the
    delays from the shared rng stream, so activating or clearing faults never
    shifts the stream: a run whose fault state stays inactive is
    bit-identical to one without the switchboard at all.

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

    def drop_mask(self, node_ids: list[str]) -> np.ndarray:
        """``(N, N)`` bool — whether the faults sever each directed link.

        Rows are senders and columns recipients, both in ``node_ids`` order.
        A link is severed when either endpoint is a dropped node, when it is
        a dropped link, or when its endpoints sit in different partition
        groups; a node's copy to itself never is.  Built from node indices in
        one pass over the configured faults; endpoints outside ``node_ids``
        cannot sever a link among them.
        """
        index = {node_id: j for j, node_id in enumerate(node_ids)}
        num_nodes = len(node_ids)
        down = np.zeros(num_nodes, dtype=bool)
        down[[index[n] for n in self.dropped_nodes if n in index]] = True
        mask = down[:, None] | down[None, :]
        for sender, recipient in self.dropped_links:
            if sender in index and recipient in index:
                mask[index[sender], index[recipient]] = True
        if self.partition is not None:
            # A node sits in the last group naming it.
            group = np.full(num_nodes, -1, dtype=np.int64)
            for g, members in enumerate(self.partition):
                group[[index[n] for n in members if n in index]] = g
            grouped = group >= 0
            mask |= (
                grouped[:, None] & grouped[None, :] & (group[:, None] != group[None, :])
            )
        np.fill_diagonal(mask, False)
        return mask


class SimulatedNetwork:
    """Fully connected message-passing network with signed messages.

    The state every copy is settled against: the clock, the delay model and
    its rng stream, the keys, the link faults, the mailboxes and the
    counters.  Copies are dispatched and collected through a
    :class:`MessagePlane` over the network.
    """

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        rng: np.random.Generator | None = None,
        key_registry: KeyRegistry | None = None,
    ) -> None:
        self.delay_model = delay_model or SynchronousDelay()
        self.rng = rng if rng is not None else default_stream()
        self.keys = key_registry or KeyRegistry()
        #: Simulated time; each collection window moves it to its deadline.
        self.now = 0.0
        self._mailboxes: dict[str, _Mailbox] = {}
        self.rejected_signatures = 0
        self.messages_sent = 0
        #: Link-fault switchboard; inactive by default (bit-identical path).
        self.faults = NetworkFaultState()

    # -- membership -------------------------------------------------------------
    def register(self, node_id: str) -> None:
        """Register a node (or client) identity and issue its signing key."""
        node_id = str(node_id)
        if node_id not in self._mailboxes:
            self._mailboxes[node_id] = _Mailbox()
        self.keys.register(node_id)

    def mailbox(self, recipient: str) -> _Mailbox:
        """The mailbox of a registered identity (``KeyError`` for an unknown one)."""
        mailbox = self._mailboxes.get(recipient)
        if mailbox is None:
            raise KeyError(f"unknown recipient '{recipient}'")
        return mailbox

    # -- collection windows --------------------------------------------------------
    def close_window(self, timeout: float | None) -> float:
        """Move the clock to the end of a collection window; return its deadline.

        With ``timeout=None`` the window is the synchronous bound of the delay
        model — the standard "wait one maximum delay" round structure.  The
        clock never moves backwards.
        """
        window = self.delay_model.synchronous_bound if timeout is None else float(timeout)
        deadline = self.now + window
        self.now = max(self.now, deadline)
        return deadline

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


class PhaseView:
    """What one consensus phase's collection window made visible.

    Pairs the phase's :class:`~repro.net.message.PhaseBatch` (with a per-copy
    visibility mask) with the *stragglers* drained from the mailboxes — late
    copies of earlier phases and targeted (equivocation) sends.  Every node's
    view is the batch actions visible to it in action (dispatch) order, then
    its stragglers in mailbox order.

    Protocols read the view through array queries that answer for all nodes
    at once: each is a handful of reductions over the ``(A, N)`` visibility
    grid selected by an ``(A,)`` action mask (:meth:`actions`), and walks
    messages one by one only for the nodes that actually drained stragglers,
    with ``straggler_match`` standing in for the mask.
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

    def sightings(
        self, action_mask: np.ndarray, straggler_match, nodes: np.ndarray
    ) -> list[tuple[int, Message, int]]:
        """Every matching ``(node index, message, payload_ref)``, node-major.

        Restricted to the nodes set in the ``(N,)`` mask ``nodes``; each
        node's sightings come in view order (batch actions, then stragglers).
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
        ``len({m.sender for m in received if ...})`` over what each node
        received.
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

    Every consensus copy goes out through a plane.  One plane serves one
    batch of consensus rounds: it owns the payload table (payload object ->
    small integer ref, and the canonical signed bytes per ref) that lets a
    whole phase — up to ``N`` broadcasts, ``N x N`` copies — be signed,
    verified, delayed and tallied as columns instead of objects, and it
    settles targeted sends (the equivocation path) as one list whose copies
    surface at collection as *stragglers*.  The per-copy semantics it
    reproduces — one delay draw per non-self copy of a broadcast and per
    targeted copy, in dispatch order; the verdict before the link faults;
    link faults after the draw — are spelled out on each method, and a
    live :class:`NetworkFaultState` applies on every path.  Building a
    plane has no side effect on the network.
    """

    def __init__(self, network: SimulatedNetwork, node_ids: list[str]) -> None:
        self.network = network
        self.node_ids = list(node_ids)
        self.node_index = {node_id: j for j, node_id in enumerate(self.node_ids)}
        # Mailbox objects live as long as the network: resolve them once.
        self._mailboxes = [network.mailbox(node_id) for node_id in self.node_ids]
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

        Each template is one broadcast to every node of the plane, signed
        once and verified once.  The sender's own copy lands at once, at
        ``send_time`` and whatever its verdict, without a delay draw; every
        other copy draws its delay — one :meth:`DelayModel.sample_delays`
        call for the phase, in action-major, recipient-ascending order — and
        counts in ``messages_sent``, and in ``rejected_signatures`` when its
        broadcast did not verify.  The batch carries every copy's delivery
        time and verdict but no per-copy message objects or mailbox pushes:
        in-window copies are tallied straight off the batch arrays at
        collection.

        Live link faults apply after the delay draw, so they never shift the
        rng stream: ``extra_delay`` offsets every non-self delivery time, the
        :meth:`NetworkFaultState.drop_mask` rows of the senders take severed
        copies out of ``delivered``, and ``dropped_messages`` counts the
        valid copies they sever (an invalid copy counts as rejected only).

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
        now = net.now
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
        offsets = now + draws
        valid = np.array(verdicts, dtype=bool)
        delivered = valid[:, None]
        faults = net.faults
        if faults.active:
            offsets += faults.extra_delay
            dropped = faults.drop_mask(self.node_ids)[sender_index]
            delivered = delivered & ~dropped
            faults.dropped_messages += int(np.count_nonzero(dropped[valid]))
        # Row-major boolean assignment fills exactly in action-major,
        # recipient-ascending order skipping the sender — the draw order.
        delivery_time[~self_mask] = offsets
        batch = PhaseBatch(
            kind=templates[0].kind,
            round_index=int(templates[0].round_index),
            send_time=now,
            templates=templates,
            sender_index=sender_index,
            views=views,
            payload_ref=np.asarray(payload_refs, dtype=np.int64),
            valid=valid,
            delivery_time=delivery_time,
            delivered=delivered,
        )
        net.messages_sent += num_actions * (num_nodes - 1)
        net.rejected_signatures += verdicts.count(False) * (num_nodes - 1)
        return batch

    def send_targeted(self, messages: list[Message]) -> tuple[np.ndarray, np.ndarray]:
        """Sign, verify and dispatch point-to-point copies among the plane's nodes.

        The equivocation path: each message goes to its own ``recipient``.
        Every copy, one a sender addresses to itself included, draws one
        delay (one :meth:`DelayModel.sample_delays` call, in list order) and
        takes the link faults and the counters as a broadcast copy does; a
        survivor waits in its recipient's mailbox, pushed in list order,
        until a collection drains it as a straggler.  Every endpoint is
        checked before anything is signed or drawn.  Returns each copy's
        delivery time and whether it was delivered.
        """
        net = self.network
        senders = [self.node_index[m.sender] for m in messages]
        recipients = [self.node_index[m.recipient] for m in messages]
        net.keys.sign_batch(messages, self.table)
        delivered = np.array(net.keys.verify_batch(messages, self.table), dtype=bool)
        now = net.now
        delivery_time = now + net.delay_model.sample_delays(now, net.rng, len(messages))
        net.messages_sent += len(messages)
        net.rejected_signatures += int(np.count_nonzero(~delivered))
        faults = net.faults
        if faults.active:
            delivery_time += faults.extra_delay
            dropped = faults.drop_mask(self.node_ids)[senders, recipients]
            faults.dropped_messages += int(np.count_nonzero(delivered & dropped))
            delivered &= ~dropped
        for message, j, time, ok in zip(
            messages, recipients, delivery_time.tolist(), delivered.tolist()
        ):
            if ok:
                self._mailboxes[j].push(time, message)
        return delivery_time, delivered

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
        trip); delivered copies landing *after* the deadline are pushed into
        the mailboxes, stamped with their delivery times, so later windows
        drain them as stragglers.  Both read the batch's per-copy
        ``delivered`` verdict, so rejected and severed copies never surface.
        A node's own copy is visible even for an invalid broadcast: it lands
        whatever its verdict.
        """
        deadline = self.network.close_window(timeout)
        visible = None
        if batch is not None and batch.num_actions:
            self_mask = batch.self_mask()
            in_window = batch.delivery_time <= deadline
            visible = (self_mask | batch.delivered) & in_window
            if not in_window.all():
                late = batch.delivered & ~in_window & ~self_mask
                for a, j in zip(*np.nonzero(late)):
                    self._mailboxes[j].push(
                        float(batch.delivery_time[a, j]),
                        batch.templates[a].with_recipient(self.node_ids[j]),
                    )
        stragglers = [
            box.drain(kind, round_index, deadline) if box.messages else []
            for box in self._mailboxes
        ]
        return PhaseView(self, batch, visible, stragglers)
