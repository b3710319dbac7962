"""Shared fixtures for the CSM reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import settings

from reference import consensus as consensus_oracle
from reference import network as wire
from reference.network import DeliveryRecord
from repro.gf.prime_field import PrimeField
from repro.gf.extension_field import BinaryExtensionField
from repro.net.message import PhaseBatch
from repro.net.network import MessagePlane

# Tier-1 gives the same answer twice: every property test draws a fixed,
# derandomised example sequence and no example database replays old
# failures.  ``--hypothesis-profile=default`` explores fresh seeds.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def small_field() -> PrimeField:
    """A small prime field (GF(97)) convenient for exhaustive checks."""
    return PrimeField(97)


@pytest.fixture
def big_field() -> PrimeField:
    """The default production field GF(2**31 - 1)."""
    return PrimeField()


@pytest.fixture
def gf256() -> BinaryExtensionField:
    """GF(2**8), the extension field used by most Appendix A tests."""
    return BinaryExtensionField(8)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _phase_records(batch: PhaseBatch, node_ids: list[str]) -> list[DeliveryRecord]:
    """One phase's non-self copies, in the order ``broadcast`` returns them."""
    out: list[DeliveryRecord] = []
    # The per-copy verdict: a copy a live link fault severed is not delivered.
    delivered = np.broadcast_to(batch.delivered, batch.delivery_time.shape)
    for a, message in enumerate(batch.templates):
        sender = int(batch.sender_index[a])
        times = batch.delivery_time[a]
        for j, node_id in enumerate(node_ids):
            if j == sender:
                continue  # own copy never hits the log (as in broadcast)
            out.append(
                DeliveryRecord(
                    message.with_recipient(node_id),
                    batch.send_time,
                    float(times[j]),
                    delivered=bool(delivered[a, j]),
                )
            )
    return out


@contextmanager
def _recording_deliveries() -> Iterator[list[DeliveryRecord]]:
    log: list[DeliveryRecord] = []
    deliver = wire._deliver
    broadcast_phase = MessagePlane.broadcast_phase
    send_targeted = MessagePlane.send_targeted

    def recording_deliver(net, copy, valid, delivery_time):
        # Every non-self copy the oracle's send/broadcast settle passes here.
        record = deliver(net, copy, valid, delivery_time)
        log.append(record)
        return record

    def recording_broadcast_phase(self, templates, payload_refs):
        batch = broadcast_phase(self, templates, payload_refs)
        if batch is not None:
            log.extend(_phase_records(batch, self.node_ids))
        return batch

    def recording_send_targeted(self, messages):
        send_time = self.network.now
        delivery_time, delivered = send_targeted(self, messages)
        log.extend(
            DeliveryRecord(message, send_time, time, delivered=ok)
            for message, time, ok in zip(
                messages, delivery_time.tolist(), delivered.tolist()
            )
        )
        return delivery_time, delivered

    wire._deliver = recording_deliver
    MessagePlane.broadcast_phase = recording_broadcast_phase
    MessagePlane.send_targeted = recording_send_targeted
    try:
        yield log
    finally:
        wire._deliver = deliver
        MessagePlane.broadcast_phase = broadcast_phase
        MessagePlane.send_targeted = send_targeted


@pytest.fixture(scope="session")
def record_deliveries():
    """Context-manager factory: every attempted copy sent inside the block.

    ``with record_deliveries() as log:`` appends one
    :class:`reference.network.DeliveryRecord` per non-self broadcast copy and
    per targeted copy that is sent in the block — the per-copy ``send`` and
    ``broadcast`` of :mod:`reference.network` (through its ``_deliver``) and
    the message plane's phases and targeted sends alike, in dispatch order —
    so two runs that must make the same sends can be compared copy for copy.
    The network itself keeps only counters; ``len(log)`` equals the
    ``messages_sent`` the block added.  Session-scoped so Hypothesis tests
    can take it.
    """
    return _recording_deliveries


def _pin_oracle(protocol):
    consensus_oracle.pin(getattr(protocol, "consensus", protocol))
    return protocol


@pytest.fixture(scope="session")
def pin_oracle():
    """``pin_oracle(protocol)``: that protocol decides every block per copy.

    ``protocol`` is a round protocol with a ``consensus`` or a consensus
    protocol itself.  Binds the per-copy view of
    :mod:`reference.consensus` onto that one consensus protocol's
    ``_attempt_view`` (an instance attribute, so no other protocol is
    touched): the same driver decides the *same blocks* per copy — the
    reference oracle the message plane must match bit for bit.  Returns the
    protocol.  Session-scoped so Hypothesis tests can take it.
    """
    return _pin_oracle
