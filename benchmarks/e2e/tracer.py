"""Span tracer for the traced benchmark pass.

The tracer lives entirely in the benchmark: it swaps the layers' public
callables for wrappers at class level (so every instance the layers build
internally is covered), records one span per call in memory, and puts the
originals back afterwards.  Nothing under ``src/`` knows it exists.

A span is ``[name, start, end, parent, tick]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``tick`` the scheduler tick the
harness was in — the identifier every ticket resolved by that tick shares.
A span's *self* time is its duration minus the durations of its direct
children, so self times of all spans partition the traced wall-clock.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.analysis.measurement import wall_clock
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.erasure import ErasureDecoder
from repro.consensus.interface import ConsensusProtocol
from repro.core.execution import CodedExecutionEngine
from repro.core.protocol import CSMProtocol
from repro.faults import FaultInjector
from repro.gf.prime_field import PrimeField
from repro.intermix.delegation import DelegatedCodingService
from repro.intermix.rounds import DelegationRoundProtocol
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.machine.interface import StateMachine
from repro.machine.polynomial_machine import PolynomialTransition
from repro.net.network import MessagePlane
from repro.net.signatures import KeyRegistry
from repro.replication.protocol import ReplicationProtocol
from repro.service import ClientSession, CSMService, RoundScheduler, ShardedCSMService

NAME, START, END, PARENT, TICK = range(5)

#: (span name, class, method) — the layer boundaries the traced pass wraps.
#: Per-message helpers (``PhaseView.messages_for``, ``MessagePlane.content_key``)
#: are deliberately absent: ~10^6 calls per run would measure the tracer.
TRACE_POINTS: tuple[tuple[str, type, str], ...] = (
    ("service.submit", ClientSession, "submit"),
    ("service.plan", RoundScheduler, "plan"),
    ("service.drive", CSMService, "drive"),
    ("service.shard", ShardedCSMService, "drive"),
    ("rounds.run", CSMProtocol, "run_rounds_batched"),
    ("rounds.run", CSMProtocol, "run_rounds_pipelined"),
    ("rounds.run", ReplicationProtocol, "run_rounds_batched"),
    ("rounds.run", DelegationRoundProtocol, "run_rounds_batched"),
    ("core.execute_batched", CodedExecutionEngine, "execute_rounds"),
    ("core.execute_pipelined", CodedExecutionEngine, "execute_rounds_pipelined"),
    ("lcc.encode", CodedStateEncoder, "encode_batch"),
    ("lcc.decode", CodedResultDecoder, "decode_fast"),
    ("lcc.decode", CodedResultDecoder, "decode_batch"),
    ("lcc.verify", CodedResultDecoder, "stacked_verification"),
    ("coding.scalar_decode", BerlekampWelchDecoder, "decode"),
    ("coding.scalar_decode", ErasureDecoder, "decode_with_erasures"),
    ("machine.step", StateMachine, "step_batch"),
    ("machine.step", PolynomialTransition, "evaluate_result_vectors"),
    ("gf.matmul", PrimeField, "matmul"),
    ("consensus.decide", ConsensusProtocol, "decide_rounds"),
    ("net.broadcast_phase", MessagePlane, "broadcast_phase"),
    ("net.collect_phase", MessagePlane, "collect_phase"),
    ("net.sign", KeyRegistry, "sign_batch"),
    ("net.verify", KeyRegistry, "verify_batch"),
    ("intermix.elect", DelegatedCodingService, "elect_committee"),
    ("intermix.encode", DelegatedCodingService, "encode_vectors_verified"),
    ("intermix.decode", DelegatedCodingService, "decode_results_verified_fast"),
    ("faults.inject", FaultInjector, "run"),
)


class Tracer:
    """Records nested spans around wrapped callables, in memory."""

    def __init__(self, clock: Callable[[], float] = wall_clock) -> None:
        self.spans: list[list] = []
        self.tick = 0
        self._clock = clock
        self._stack: list[int] = []

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` recorded around each call."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.tick]
            stack.append(len(spans))
            spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    @contextmanager
    def installed(
        self, points: tuple[tuple[str, type, str], ...] = TRACE_POINTS
    ) -> Iterator["Tracer"]:
        """Wrap every trace point for the duration of the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in points]
        try:
            for (name, owner, attr), (_, _, original) in zip(points, originals):
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_seconds_by_name(self, since: float = 0.0) -> dict[str, float]:
        """Self seconds summed per span name over spans started at/after ``since``."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[START] >= since:
                totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def calls_by_name(self) -> dict[str, int]:
        """Outermost calls per span name (a span nested directly or
        indirectly under one of its own name is the same logical call)."""
        counts: dict[str, int] = {}
        for span in self.spans:
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != span[NAME]:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def calls_without_child(self, name: str, child: str) -> int:
        """Spans named ``name`` with no direct child span named ``child``."""
        with_child = {
            span[PARENT] for span in self.spans if span[NAME] == child and span[PARENT] >= 0
        }
        return sum(
            1
            for index, span in enumerate(self.spans)
            if span[NAME] == name and index not in with_child
        )
