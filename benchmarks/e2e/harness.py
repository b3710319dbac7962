"""Run one workload: generate inputs, drive the service, check, measure.

Load shape: *open in logical ticks, closed in wall-clock*.  Per-tick arrival
counts come from the seed and never look at service state, but ``drive()``
is synchronous, so tick ``t + 1`` is submitted when tick ``t``'s drive
returns — there is no idle time and no generator lateness.  Network delays
are simulated, never slept: latency is processor time only.
"""

from __future__ import annotations

import gc
import math
import operator
import resource
import statistics
from dataclasses import dataclass

import numpy as np

from repro.analysis.measurement import wall_clock
from repro.gf.matrix_cache import clear_matrix_cache, matrix_cache_info
from repro.rng import default_stream, derived_stream
from repro.service import NOOP_CLIENT, CommandTicket, TicketState, latency_percentiles

from tracer import Tracer
from workloads import NUM_SESSIONS, Workload, machine, session_id

WARMUP_TICKS = 32
#: Fewest repeats per run, the traced one included.  The per-tick splice needs
#: them most when the machine is slow — exactly when ``--seconds`` alone would
#: buy fewer (on the seed box, two-repeat runs read 30% higher ``lat_p95_ms``).
MIN_REPEATS = 3

#: Metric name -> unit.  ``BENCHMARK.json`` declares exactly these names
#: (``test_e2e_smoke.py`` holds the two in step).
END_TO_END_UNITS = {
    "setup_s": "s",
    "cmds_per_s": "cmd/s",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
    "node_ops_per_cmd": "ops/cmd",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "service.submit_s": "s",
    "service.plan_s": "s",
    "service.drive_self_s": "s",
    "service.shard_self_s": "s",
    "service.fail_frac": "ratio",
    "service.fill": "ratio",
    "service.rounds_per_tick": "rounds/tick",
    "service.queue_wait_ticks_p50": "ticks",
    "service.queue_wait_ticks_p95": "ticks",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p95": "ms",
    "service.tick_ms_p50": "ms",
    "service.tick_ms_p95": "ms",
    "service.lat_p99_ms": "ms",
    "service.max_pending": "count",
    "service.throttled": "count",
    "service.retried_cmds": "count",
    "service.recovered_tickets": "count",
    "service.exhausted_tickets": "count",
    "rounds.run_self_s": "s",
    "core.execute_self_s": "s",
    "core.pipelined_calls": "count",
    "core.batched_calls": "count",
    "core.failed_rounds": "count",
    "lcc.encode_s": "s",
    "lcc.decode_s": "s",
    "lcc.verify_s": "s",
    "coding.scalar_decode_s": "s",
    "coding.scalar_decodes": "count",
    "machine.step_s": "s",
    "gf.matmul_s": "s",
    "gf.matmul_calls": "count",
    "gf.cache_entries": "count",
    "consensus.decide_self_s": "s",
    "consensus.rounds": "count",
    "consensus.slow_path_rounds": "count",
    "consensus.views_per_round": "views/round",
    "net.broadcast_phase_s": "s",
    "net.collect_phase_s": "s",
    "net.sign_s": "s",
    "net.verify_s": "s",
    "net.msgs_per_cmd": "msgs/cmd",
    "net.rejected_signatures": "count",
    "net.dropped_msgs": "count",
    "intermix.elect_s": "s",
    "intermix.encode_s": "s",
    "intermix.decode_s": "s",
    "faults.inject_self_s": "s",
    "faults.applied_events": "count",
    "trace.other_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer self-time metric -> the span names whose self seconds it sums.
_SELF_TIME_SPANS = {
    "service.submit_s": ("service.submit",),
    "service.plan_s": ("service.plan",),
    "service.drive_self_s": ("service.drive",),
    "service.shard_self_s": ("service.shard",),
    "rounds.run_self_s": ("rounds.run",),
    "core.execute_self_s": ("core.execute_batched", "core.execute_pipelined"),
    "lcc.encode_s": ("lcc.encode",),
    "lcc.decode_s": ("lcc.decode",),
    "lcc.verify_s": ("lcc.verify",),
    "coding.scalar_decode_s": ("coding.scalar_decode",),
    "machine.step_s": ("machine.step",),
    "gf.matmul_s": ("gf.matmul",),
    "consensus.decide_self_s": ("consensus.decide",),
    "net.broadcast_phase_s": ("net.broadcast_phase",),
    "net.collect_phase_s": ("net.collect_phase",),
    "net.sign_s": ("net.sign",),
    "net.verify_s": ("net.verify",),
    "intermix.elect_s": ("intermix.elect",),
    "intermix.encode_s": ("intermix.encode",),
    "intermix.decode_s": ("intermix.decode",),
    "faults.inject_self_s": ("faults.inject",),
}

_COMPARISONS = {">": operator.gt, "==": operator.eq}


class BenchmarkFailure(Exception):
    """Wrong outputs, broken accounting or lost coverage: no metrics reported."""


Arrival = tuple[int, int, np.ndarray]  # (session index, machine index, command row)


def generate_inputs(workload: Workload, seed: int, ticks: int) -> list[list[Arrival]]:
    """Every tick's submissions, drawn from ``seed`` before any timing.

    Mirrors ``OpenLoopDriver``: arrival counts and command payloads come from
    two child streams of one seed stream, session ``s`` targets machines
    round-robin from ``s mod K``, commands are ``integers(1, 1000)`` rows.

    Streams are redrawn (from further child streams of the same seed) until
    the total arrivals are within 1% of the workload's nominal volume, so
    seeds differ in how the load is arranged, not in how much there is:
    unconditioned, the bursty streams' volume varied by +-5% and
    ``lat_p50_ms`` followed it (10% spread over ten seeds).
    """
    base = default_stream(seed)
    nominal = workload.offered * ticks
    while True:
        arrival_rng, command_rng = derived_stream(base), derived_stream(base)
        process = workload.process()
        counts = [process.sample(arrival_rng, NUM_SESSIONS) for _ in range(ticks)]
        total = int(sum(int(tick_counts.sum()) for tick_counts in counts))
        if abs(total - nominal) <= max(0.01 * nominal, 1.0):
            break
    rows = iter(command_rng.integers(1, 1000, size=(total, machine().command_dim)))
    cursors = [s % workload.num_machines for s in range(NUM_SESSIONS)]
    plan = []
    for tick_counts in counts:
        arrivals = []
        for s in range(NUM_SESSIONS):
            for _ in range(int(tick_counts[s])):
                arrivals.append((s, cursors[s], next(rows)))
                cursors[s] = (cursors[s] + 1) % workload.num_machines
        plan.append(arrivals)
    return plan


@dataclass
class Repeat:
    """Raw observations of one build -> warm-up -> timed region -> drain."""

    service: object
    tickets: list[CommandTicket]
    submit_stamps: list[float]  # wall-clock at the start of each submit()
    drive_start: list[float]  # per drive() call; index = logical tick - 1
    drive_end: list[float]
    setup_s: float
    timed_start: float
    first_timed_ticket: int
    max_pending: int

    @property
    def timed_s(self) -> float:
        return self.drive_end[-1] - self.timed_start


def run_repeat(
    workload: Workload,
    plan: list[list[Arrival]],
    warmup: int,
    tracer: Tracer | None = None,
) -> Repeat:
    """One cold repeat.  The service sees only ``plan``'s submissions."""
    clock = wall_clock
    gc.collect()  # start from a collected heap, whatever ran before
    setup_start = clock()
    clear_matrix_cache()
    service = workload.build()
    sessions = [service.connect(session_id(s)) for s in range(NUM_SESSIONS)]
    tickets: list[CommandTicket] = []
    submit_stamps: list[float] = []
    drive_start: list[float] = []
    drive_end: list[float] = []
    max_pending = 0

    def run_tick(arrivals: list[Arrival], flush: bool = False) -> None:
        nonlocal max_pending
        if tracer is not None:
            tracer.tick = len(drive_end) + 1
        for s, machine_index, row in arrivals:
            submit_stamps.append(clock())
            tickets.append(sessions[s].submit(machine_index, row))
        # Peak backlog: after the tick's submissions, before its drive.
        max_pending = max(max_pending, service.pending_commands())
        drive_start.append(clock())
        service.drive(flush=flush)
        drive_end.append(clock())

    for arrivals in plan[:warmup]:
        run_tick(arrivals)
    setup_s = drive_end[-1] - setup_start
    gc.collect()
    first_timed_ticket = len(tickets)
    timed_start = clock()
    for arrivals in plan[warmup:]:
        run_tick(arrivals)
    # Drain tick by tick so late tickets get end stamps too.  A service that
    # stops making progress must fail the run, not hang it.
    drain_limit = len(drive_end) + len(plan)
    while service.pending_commands() or service.qos_report()["retry_backlog"]:
        if len(drive_end) >= drain_limit:
            raise BenchmarkFailure(
                f"{workload.name}: backlog not drained after {len(plan)} extra ticks"
            )
        run_tick([], flush=True)
    return Repeat(
        service=service,
        tickets=tickets,
        submit_stamps=submit_stamps,
        drive_start=drive_start,
        drive_end=drive_end,
        setup_s=setup_s,
        timed_start=timed_start,
        first_timed_ticket=first_timed_ticket,
        max_pending=max_pending,
    )


def check_outputs(workload: Workload, tickets: list[CommandTicket]) -> None:
    """The correctness gate: every ticket terminal, then safety by replay.

    Every machine's ``EXECUTED`` tickets are replayed in ``round_index``
    order through the plain (uncoded) machine from its initial state —
    vectorised across machines, which are independent — and every
    ``ticket.result()`` must equal the replayed output.
    """
    for ticket in tickets:
        if not ticket.done:
            raise BenchmarkFailure(f"{workload.name}: non-terminal after drain: {ticket}")
    template = machine()
    per_machine: list[list[CommandTicket]] = [[] for _ in range(workload.num_machines)]
    for ticket in tickets:
        if ticket.state is TicketState.EXECUTED:
            per_machine[ticket.machine_index].append(ticket)
    for queue in per_machine:
        queue.sort(key=lambda ticket: ticket.round_index)
    depth = max(len(queue) for queue in per_machine)
    lengths = np.array([len(queue) for queue in per_machine])
    commands = np.zeros((workload.num_machines, depth, template.command_dim), dtype=np.int64)
    delivered = np.zeros((workload.num_machines, depth, template.output_dim), dtype=np.int64)
    for k, queue in enumerate(per_machine):
        if queue:
            commands[k, : len(queue)] = [ticket.command for ticket in queue]
            delivered[k, : len(queue)] = [ticket.result() for ticket in queue]
    expected = np.zeros_like(delivered)
    states = np.tile(template.initial_state, (workload.num_machines, 1))
    for position in range(depth):
        live = lengths > position
        states[live], expected[live, position] = template.step_batch(
            states[live], commands[live, position]
        )
    wrong = np.argwhere((expected != delivered).any(axis=2))
    if len(wrong):
        k, position = (int(v) for v in wrong[0])
        raise BenchmarkFailure(
            f"{workload.name}: wrong output, expected {expected[k, position].tolist()}: "
            f"{per_machine[k][position]}"
        )


def _backends(service) -> list:
    return [shard.backend for shard in getattr(service, "shards", [service])]


def exact_metrics(repeat: Repeat) -> dict[str, float]:
    """Counts read off program state after the drain (warm-up included).

    Deterministic in the inputs: equal across repeats and between the traced
    and untraced passes, which ``run_workload`` enforces.
    """
    service = repeat.service
    backends = _backends(service)
    history = [record for backend in backends for record in backend.history]
    by_state = {state: 0 for state in TicketState}
    for ticket in repeat.tickets:
        by_state[ticket.state] += 1
    submitted = len(repeat.tickets)
    executed = by_state[TicketState.EXECUTED]
    real = sum(
        1 for record in history for client in record.clients if client != NOOP_CLIENT
    )
    slots = sum(len(record.clients) for record in history)
    wait_ticks = latency_percentiles(
        (t.commit_latency for t in repeat.tickets if t.commit_latency is not None),
        (50, 95),
    )
    consensus_history = [
        record
        for backend in backends
        if hasattr(backend, "consensus")
        for record in backend.history
    ]
    networks = [backend.network for backend in backends if hasattr(backend, "network")]
    qos = service.qos_report()
    return {
        "submitted": submitted,
        "executed": executed,
        "throttled": by_state[TicketState.THROTTLED],
        "failed": by_state[TicketState.FAILED],
        "node_ops_per_cmd": sum(r.result.mean_ops_per_node for r in history) / executed,
        "service.fail_frac": (submitted - executed) / submitted,
        "service.fill": real / slots,
        "service.rounds_per_tick": len(history) / len(repeat.drive_end),
        "service.queue_wait_ticks_p50": wait_ticks["p50"],
        "service.queue_wait_ticks_p95": wait_ticks["p95"],
        "service.max_pending": repeat.max_pending,
        "service.throttled": qos["throttled_session"] + qos["throttled_admission"],
        "service.retried_cmds": qos["retried_commands"],
        "service.recovered_tickets": qos["recovered_tickets"],
        "service.exhausted_tickets": qos["exhausted_tickets"],
        "core.failed_rounds": sum(backend.failed_rounds for backend in backends),
        "gf.cache_entries": sum(matrix_cache_info().values()),
        "consensus.rounds": len(consensus_history),
        "consensus.slow_path_rounds": service.consensus_fast_path_disabled,
        "consensus.views_per_round": (
            sum(r.consensus_views + 1 for r in consensus_history) / len(consensus_history)
            if consensus_history
            else 0.0
        ),
        "net.msgs_per_cmd": sum(net.messages_sent for net in networks) / executed,
        "net.rejected_signatures": sum(net.rejected_signatures for net in networks),
        "net.dropped_msgs": sum(net.faults.dropped_messages for net in networks),
        "faults.applied_events": service.fault_report().applied_events,
    }


def nearest_rank(ordered: np.ndarray, percentile: int) -> float:
    """Nearest-rank percentile of an ascending sample: a value that occurred."""
    return float(ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1])


@dataclass
class TimedTickets:
    """Which tick each timed-region ticket was submitted in and resolved by.

    Tick indices count from the start of the timed region; ``resolved_in``
    is -1 for tickets that did not end ``EXECUTED``.  Both are logical, so
    they are the same in every repeat.
    """

    tick_of: np.ndarray
    resolved_in: np.ndarray

    @classmethod
    def of(cls, repeat: Repeat, plan: list[list[Arrival]], warmup: int) -> "TimedTickets":
        timed = plan[warmup:]
        return cls(
            tick_of=np.repeat(np.arange(len(timed)), [len(arrivals) for arrivals in timed]),
            resolved_in=np.array(
                [
                    ticket.resolved_tick - 1 - warmup
                    if ticket.state is TicketState.EXECUTED
                    else -1
                    for ticket in repeat.tickets[repeat.first_timed_ticket :]
                ]
            ),
        )


@dataclass
class Timeline:
    """One observation of the timed region, relative to each tick's start.

    A tick starts when the previous ``drive()`` returned (the first, when
    the timed region started) and covers its submissions and its drive.
    """

    submit_offset: np.ndarray  # per timed ticket: tick start -> its submit() call
    drive_offset: np.ndarray  # per timed tick: tick start -> drive() call
    tick_s: np.ndarray  # per timed tick: tick start -> drive() return

    @classmethod
    def of(cls, repeat: Repeat, tickets: TimedTickets, warmup: int) -> "Timeline":
        ends = np.array(repeat.drive_end[warmup:])
        starts = np.concatenate(([repeat.timed_start], ends[:-1]))
        submits = np.array(repeat.submit_stamps[repeat.first_timed_ticket :])
        return cls(
            submit_offset=submits - starts[tickets.tick_of],
            drive_offset=np.array(repeat.drive_start[warmup:]) - starts,
            tick_s=ends - starts,
        )


def splice(timelines: list[Timeline], tickets: TimedTickets) -> Timeline:
    """The fastest observation of every tick, spliced into one timeline.

    Tick ``t`` does bit-identical work in every repeat, and interference on
    a shared machine only ever adds time, so the fastest of a tick's
    observations is the best estimate of its cost.  On the seed box whole
    repeats of one process differ by up to 20% while splices of three differ
    by ~2%.  What does not recur at the same tick in every repeat is
    filtered out — interference, but also a GC pause that lands one tick
    later; the per-repeat min/max printed beside each metric show how much.
    """
    fastest = np.argmin([timeline.tick_s for timeline in timelines], axis=0)
    ticks = np.arange(len(fastest))

    def pick(field: str, which: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.stack([getattr(timeline, field) for timeline in timelines])[which, index]

    return Timeline(
        submit_offset=pick(
            "submit_offset", fastest[tickets.tick_of], np.arange(len(tickets.tick_of))
        ),
        drive_offset=pick("drive_offset", fastest, ticks),
        tick_s=pick("tick_s", fastest, ticks),
    )


def timing_metrics(timeline: Timeline, tickets: TimedTickets) -> dict[str, float]:
    """Wall-clock metrics of one timeline of the timed region.

    A ticket's latency runs from the start of its ``submit()`` call to the
    return of the ``drive()`` that turned it ``EXECUTED``.  Tickets resolved
    by one drive share its end stamp, so the independent sample count is
    the tick count: p95 is the highest percentile with >= 10 samples beyond.
    """
    ends = np.cumsum(timeline.tick_s)
    starts = ends - timeline.tick_s
    executed = tickets.resolved_in >= 0
    resolved_in = tickets.resolved_in[executed]
    submit_at = starts[tickets.tick_of[executed]] + timeline.submit_offset[executed]
    latency_ms = np.sort(ends[resolved_in] - submit_at) * 1e3
    wait_ms = np.sort(starts[resolved_in] + timeline.drive_offset[resolved_in] - submit_at) * 1e3
    tick_ms = np.sort(timeline.tick_s - timeline.drive_offset) * 1e3
    return {
        "cmds_per_s": len(latency_ms) / ends[-1],
        "lat_p50_ms": nearest_rank(latency_ms, 50),
        "lat_p95_ms": nearest_rank(latency_ms, 95),
        "service.lat_p99_ms": nearest_rank(latency_ms, 99),
        "service.queue_wait_ms_p50": nearest_rank(wait_ms, 50),
        "service.queue_wait_ms_p95": nearest_rank(wait_ms, 95),
        "service.tick_ms_p50": nearest_rank(tick_ms, 50),
        "service.tick_ms_p95": nearest_rank(tick_ms, 95),
    }


def layer_metrics(
    tracer: Tracer, self_seconds: dict[str, float], traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-layer metrics of the traced repeat.

    ``self_seconds`` is the tracer's self-time table of the timed region
    (``traced_s`` long); call counts are over the whole repeat.
    """
    calls = tracer.calls_by_name()
    metrics = {
        metric: sum(self_seconds.get(span, 0.0) for span in spans)
        for metric, spans in _SELF_TIME_SPANS.items()
    }
    metrics["core.pipelined_calls"] = tracer.calls_without_child(
        "core.execute_pipelined", "core.execute_batched"
    )
    metrics["core.batched_calls"] = calls.get("core.execute_batched", 0)
    metrics["coding.scalar_decodes"] = calls.get("coding.scalar_decode", 0)
    metrics["gf.matmul_calls"] = calls.get("gf.matmul", 0)
    metrics["trace.other_s"] = traced_s - sum(self_seconds.values())
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics


def check_coverage(workload: Workload, metrics: dict[str, float]) -> None:
    """Fail the run if the workload stopped exercising its layer.

    Expectations on span-count metrics only bind in the traced pass, where
    those metrics exist.
    """
    for name, op, bound in workload.coverage:
        if name in metrics and not _COMPARISONS[op](metrics[name], bound):
            raise BenchmarkFailure(
                f"{workload.name}: coverage lost, expected {name} {op} {bound}, "
                f"got {metrics[name]}"
            )


def settle(
    workload: Workload, repeat: Repeat, previous: dict[str, float] | None
) -> dict[str, float]:
    """Gate one finished repeat; returns its exact metrics.

    Outputs must replay correctly, every ticket must be accounted for, and
    the exact metrics must equal the ``previous`` repeat's.
    """
    check_outputs(workload, repeat.tickets)
    counts = exact_metrics(repeat)
    accounted = counts["executed"] + counts["failed"] + counts["throttled"]
    if accounted != counts["submitted"]:
        raise BenchmarkFailure(
            f"{workload.name}: {counts['submitted']} submitted but "
            f"{accounted} executed + failed + throttled"
        )
    if previous is not None and counts != previous:
        changed = {k: (previous[k], v) for k, v in counts.items() if previous[k] != v}
        raise BenchmarkFailure(
            f"{workload.name}: exact metrics differ between repeats: {changed}"
        )
    return counts


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    ticks: int | None = None,
) -> dict:
    """Repeat the workload until ``seconds`` of timed region are measured.

    There are at least ``MIN_REPEATS`` repeats, however slow the machine.
    Every repeat does identical work (same inputs, cold caches), so exact
    metrics must agree across repeats.  Wall-clock metrics come from the
    splice of the repeats' timelines (see :func:`splice`), with each
    repeat's own min/max beside; ``setup_s`` is the median of the cold
    set-ups.  With ``trace`` the last repeat inside the budget runs under
    the tracer instead and contributes only per-layer metrics
    (``result["trace"]`` carries its spans).
    """
    ticks = workload.ticks if ticks is None else ticks
    warmup = min(WARMUP_TICKS, ticks // 3)
    plan = generate_inputs(workload, seed, ticks)
    exact = tickets = None
    timelines: list[Timeline] = []
    setups: list[float] = []
    walls: list[float] = []
    while True:
        repeat = run_repeat(workload, plan, warmup)
        exact = settle(workload, repeat, exact)
        if tickets is None:
            tickets = TimedTickets.of(repeat, plan, warmup)
        timelines.append(Timeline.of(repeat, tickets, warmup))
        setups.append(repeat.setup_s)
        walls.append(repeat.timed_s)
        del repeat  # or the next repeat's service would share the heap with it
        # A traced run keeps room in its budget for the traced repeat.
        planned = (walls + [walls[-1]]) if trace else walls
        if sum(planned) >= seconds and len(planned) >= MIN_REPEATS:
            break
    spliced = timing_metrics(splice(timelines, tickets), tickets)
    per_repeat = [timing_metrics(timeline, tickets) for timeline in timelines]
    result = {
        "workload": workload.name,
        "seed": seed,
        "ticks": ticks,
        "warmup_ticks": warmup,
        "repeats": len(timelines),
        "timed_s": statistics.median(walls),
        "latency_samples": int((tickets.resolved_in >= 0).sum()),
        "timed_ticks": len(timelines[0].tick_s),
        "exact": exact,
    }
    if not trace:
        check_coverage(workload, exact)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["end_to_end"] = {
            "setup_s": _stats(statistics.median(setups), setups),
            **{
                name: _stats(spliced[name], [timing[name] for timing in per_repeat])
                for name in ("cmds_per_s", "lat_p50_ms", "lat_p95_ms")
            },
            "node_ops_per_cmd": _stats(exact["node_ops_per_cmd"]),
            "peak_rss_mb": _stats(rss_mb),
        }
        return result

    tracer = Tracer()
    with tracer.installed():
        traced = run_repeat(workload, plan, warmup, tracer)
    settle(workload, traced, exact)
    self_seconds = tracer.self_seconds_by_name(since=traced.timed_start)
    per_layer = {
        name: value for name, value in (exact | spliced).items() if name in PER_LAYER_UNITS
    }
    per_layer.update(layer_metrics(tracer, self_seconds, traced.timed_s, result["timed_s"]))
    check_coverage(workload, per_layer)
    if per_layer["trace.other_s"] > 0.10 * traced.timed_s:
        raise BenchmarkFailure(
            f"{workload.name}: {per_layer['trace.other_s']:.3f}s of "
            f"{traced.timed_s:.3f}s traced wall is outside every span"
        )
    result["per_layer"] = per_layer
    result["trace"] = {
        "traced_timed_s": traced.timed_s,
        "timed_start": traced.timed_start,
        "self_seconds": self_seconds,
        "span_fields": ["name", "start", "end", "parent", "tick"],
        "spans": tracer.spans,
    }
    return result


def _stats(value: float, observed: list[float] | None = None) -> dict[str, float]:
    """A reported value with the min/max of the per-repeat observations."""
    observed = [value] if observed is None else observed
    return {"value": value, "min": min(observed), "max": max(observed)}
