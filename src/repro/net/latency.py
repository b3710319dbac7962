"""Network delay models: synchronous and partially synchronous.

The two timing assumptions of Section 2.1 are captured as delay models that
assign a delivery latency to every message:

* :class:`SynchronousDelay` — latency is drawn uniformly from
  ``[min_delay, max_delay]``; ``max_delay`` is *known* to the protocols, so a
  round timeout of ``max_delay`` is guaranteed to collect every honest
  message.
* :class:`PartiallySynchronousDelay` — before the (unknown) global
  stabilisation time GST, latency can be arbitrarily large (modelled as an
  extra heavy-tailed delay); after GST the network behaves synchronously.
  Protocols cannot rely on any timeout before GST, which is why the paper's
  partially synchronous bounds use ``N - b`` responses and PBFT-style
  consensus.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class DelayModel(ABC):
    """Assigns a delivery delay to each message send."""

    @abstractmethod
    def sample_delay(self, send_time: float, rng: np.random.Generator) -> float:
        """Delay (in simulated time units) for a message sent at ``send_time``."""

    def sample_delays(
        self, send_time: float, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` delays for messages all sent at ``send_time``.

        The contract that makes the vectorised message plane possible:
        the returned array — and the generator state left behind — must be
        bit-identical to ``count`` sequential :meth:`sample_delay` calls.
        The default loops; models whose distribution admits an exact
        vectorised draw (numpy's ``Generator.uniform(size=n)`` consumes the
        stream identically to ``n`` scalar draws) override it.
        """
        if count <= 0:
            return np.empty(0, dtype=float)
        return np.array(
            [self.sample_delay(send_time, rng) for _ in range(count)], dtype=float
        )

    @property
    @abstractmethod
    def synchronous_bound(self) -> float:
        """The post-stabilisation latency bound ``Delta`` known to protocols."""

    def is_synchronous_at(self, time: float) -> bool:
        """Whether the synchronous bound already holds at ``time``."""
        return True


@dataclass
class SynchronousDelay(DelayModel):
    """Bounded-latency network with a known bound.

    Attributes
    ----------
    max_delay:
        Known upper bound on latency (the protocols' round timeout).
    min_delay:
        Lower bound, purely cosmetic for realism.
    """

    max_delay: float = 1.0
    min_delay: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.min_delay <= self.max_delay:
            raise ValueError(
                f"need 0 <= min_delay <= max_delay, got {self.min_delay}, {self.max_delay}"
            )

    def sample_delay(self, send_time: float, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.min_delay, self.max_delay))

    def sample_delays(
        self, send_time: float, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=float)
        return rng.uniform(self.min_delay, self.max_delay, size=count)

    @property
    def synchronous_bound(self) -> float:
        return self.max_delay


@dataclass
class PartiallySynchronousDelay(DelayModel):
    """Unbounded latency before GST, synchronous afterwards.

    Attributes
    ----------
    gst:
        Global stabilisation time (unknown to the protocols).
    max_delay:
        Post-GST latency bound.
    pre_gst_extra:
        Scale of the additional exponential delay applied to messages sent
        before GST; individual messages can be delayed far beyond any fixed
        timeout, which is what breaks timeout-based fault detection.
    """

    gst: float = 10.0
    max_delay: float = 1.0
    min_delay: float = 0.1
    pre_gst_extra: float = 50.0

    def sample_delay(self, send_time: float, rng: np.random.Generator) -> float:
        base = float(rng.uniform(self.min_delay, self.max_delay))
        if send_time >= self.gst:
            return base
        # Before GST, messages may be delayed arbitrarily; they are still
        # delivered eventually (no message loss), as the model requires.
        extra = float(rng.exponential(self.pre_gst_extra))
        # Delivery never happens before GST for heavily delayed messages,
        # so a receiver cannot distinguish slow honest senders from silent
        # Byzantine ones.
        return base + extra

    def sample_delays(
        self, send_time: float, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=float)
        if send_time >= self.gst:
            return rng.uniform(self.min_delay, self.max_delay, size=count)
        # Pre-GST each message interleaves one uniform and one exponential
        # draw; a two-pass vectorised draw would consume the stream in a
        # different order, so bit-identity forces the per-message loop.
        return super().sample_delays(send_time, rng, count)

    @property
    def synchronous_bound(self) -> float:
        return self.max_delay

    def is_synchronous_at(self, time: float) -> bool:
        return time >= self.gst
