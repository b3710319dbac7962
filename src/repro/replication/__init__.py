"""State machine replication baselines (Section 3 of the paper).

Two classic schemes are implemented so the Table 1 comparison can be
regenerated empirically, as two layouts of one array round
(:mod:`repro.replication.engine`):

* :class:`~repro.replication.engine.FullReplicationSMR` — every node stores
  and executes all ``K`` machines.  Security ``floor((N-1)/2)`` (majority of
  responses), storage efficiency 1, throughput ``Theta(1)``.
* :class:`~repro.replication.engine.PartialReplicationSMR` — the nodes are
  partitioned into ``K`` groups of ``q = N / K`` nodes and each group
  replicates one machine.  Storage efficiency and throughput improve by a
  factor ``K``, but security drops to ``floor((q-1)/2)`` because an adversary
  can concentrate its corruptions on a single group.

Both report faults through the coded engine's rule
(:func:`~repro.net.byzantine.faulty_reports`) and deliver outputs to clients
through the matching-responses rule of :mod:`repro.replication.client`.
"""

from repro.replication.client import accept_matching
from repro.replication.engine import FullReplicationSMR, PartialReplicationSMR
from repro.replication.protocol import ReplicationProtocol

__all__ = [
    "accept_matching",
    "FullReplicationSMR",
    "PartialReplicationSMR",
    "ReplicationProtocol",
]
