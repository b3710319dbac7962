"""INTERMIX — information-theoretically verifiable matrix-vector multiplication.

Section 6 of the paper introduces INTERMIX so that all of CSM's coding
operations can be delegated to a single worker node without trusting it:

* a **worker** computes ``Y = A X`` and broadcasts the result;
* a small random committee of **auditors** (size ``J = log eps / log mu``)
  recomputes the product; an honest auditor that detects a wrong result
  interactively bisects the disputed row (Algorithm 1) until the worker is
  forced into an inconsistency of constant size;
* every other node (**commoners**) checks that final inconsistency in
  constant time and rejects the worker's output.

The protocol is information-theoretically sound — no computational
assumptions on the worker — at the price of ``O(log K)`` interaction rounds.

:mod:`repro.intermix.delegation` applies INTERMIX to CSM's three coding
operations (command encoding, state updating, result decoding) exactly as
Section 6.2 prescribes, which is what makes the per-node coding cost drop to
polylogarithmic and the throughput scale as ``Theta(N / log^2 N log log N)``.
"""

from repro.intermix.committee import CommitteeElection, Committee
from repro.intermix.worker import Worker, WorkerStrategy
from repro.intermix.auditor import Auditor, AuditTranscript
from repro.intermix.commoner import Commoner, CommonerVerdict
from repro.intermix.protocol import (
    IntermixProtocol,
    VerificationBatch,
    VerificationOutcome,
)
from repro.intermix.delegation import DelegatedCodingService, DelegatedRoundReport
from repro.intermix.rounds import DelegationRoundProtocol

__all__ = [
    "CommitteeElection",
    "Committee",
    "Worker",
    "WorkerStrategy",
    "Auditor",
    "AuditTranscript",
    "Commoner",
    "CommonerVerdict",
    "IntermixProtocol",
    "VerificationBatch",
    "VerificationOutcome",
    "DelegatedCodingService",
    "DelegatedRoundReport",
    "DelegationRoundProtocol",
]
