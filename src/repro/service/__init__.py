"""Client-session serving layer over any round-driving backend.

The canonical client API of the reproduction (see the README's "Serving
clients" section):

* :class:`~repro.service.service.CSMService` — wraps a
  :class:`~repro.rounds.RoundProtocol` backend (the coded
  :class:`~repro.core.protocol.CSMProtocol` or a replication baseline via
  :class:`~repro.replication.protocol.ReplicationProtocol`);
* :class:`~repro.service.sharding.ShardedCSMService` — the same service
  over ``S`` disjoint shards, each with its own backend, command pool,
  round scheduler, fault injector, retry backlog and
  :class:`~repro.service.service.ShardHealth`; one implementation, of which
  ``CSMService`` is the one-shard case (one clock, one ticket index, one
  ``qos_report()`` schema for both shapes);
* :class:`~repro.service.service.ClientSession` — per-client handle returned
  by ``service.connect(client_id)``;
* :class:`~repro.service.tickets.CommandTicket` /
  :class:`~repro.service.tickets.TicketState` /
  :class:`~repro.service.tickets.FailureReason` /
  :class:`~repro.service.tickets.ThrottleReason` — per-command lifecycle
  (``PENDING -> COMMITTED -> EXECUTED | FAILED``, plus the backpressure
  edge ``PENDING -> THROTTLED``), delivered output, machine-readable
  failure/throttle causes and per-edge logical timestamps;
* :class:`~repro.service.scheduler.RoundScheduler` — adaptive batching of
  ragged traffic with noop padding for idle machines and a
  ``max_wait_ticks`` starvation override;
* :class:`~repro.service.qos.QosPolicy` — per-session queue caps, shard
  admission control and weighted-fair slot selection
  (:class:`~repro.service.qos.WeightedFairSelection`), disabled by default
  and bit-identical to no policy when disabled;
* :class:`~repro.service.retry.RetryPolicy` — the self-healing layer:
  rounds failing with a retryable cause re-enqueue their commands with
  backoff (``COMMITTED -> RETRYING -> COMMITTED``) instead of terminally
  failing, replaying against backend state no failed round advanced;
  pairs with the :mod:`repro.faults` injection plane and the per-shard
  :class:`~repro.service.service.ShardHealth` tracking;
* :mod:`repro.service.traffic` — deterministic open-loop workloads
  (:class:`~repro.service.traffic.PoissonProcess`,
  :class:`~repro.service.traffic.BurstyProcess`) and the
  :class:`~repro.service.traffic.OpenLoopDriver` tick loop with
  commit/execute latency percentiles.
"""

from repro.service.qos import (
    FifoSelection,
    QosPolicy,
    SelectionPolicy,
    WeightedFairSelection,
)
from repro.service.retry import RetryPolicy
from repro.service.scheduler import NOOP_CLIENT, RoundScheduler, ScheduledRound
from repro.service.service import ClientSession, CSMService, ShardedRound, ShardHealth
from repro.service.sharding import ShardedCSMService
from repro.service.tickets import (
    CommandTicket,
    FailureReason,
    LogicalClock,
    ThrottleReason,
    TicketState,
)
from repro.service.traffic import (
    ArrivalProcess,
    BurstyProcess,
    OpenLoopDriver,
    PoissonProcess,
    TrafficReport,
    latency_percentiles,
)

__all__ = [
    "NOOP_CLIENT",
    "ArrivalProcess",
    "BurstyProcess",
    "CSMService",
    "ClientSession",
    "CommandTicket",
    "FailureReason",
    "FifoSelection",
    "LogicalClock",
    "OpenLoopDriver",
    "PoissonProcess",
    "QosPolicy",
    "RetryPolicy",
    "RoundScheduler",
    "ScheduledRound",
    "SelectionPolicy",
    "ShardHealth",
    "ShardedCSMService",
    "ShardedRound",
    "ThrottleReason",
    "TicketState",
    "TrafficReport",
    "WeightedFairSelection",
    "latency_percentiles",
]
