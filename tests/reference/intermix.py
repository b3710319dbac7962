"""The per-column INTERMIX round: the oracle ``run_batch`` is compared against.

:meth:`~repro.intermix.protocol.IntermixProtocol.run_batch` computes the
worker's and every auditor's recomputation of a whole batch as one stacked
matrix product, splits its cost evenly across the columns, and finds the
disputed columns by one array comparison: role objects exist only where an
auditor accuses, and every other column is acknowledged without one.  Here
every column has its own :class:`~repro.intermix.worker.Worker`, and every
role recomputes its one column ``A X`` itself with
:func:`~repro.gf.linalg.gf_matvec`, charged what the counting oracle
(:mod:`reference.counting`) overhears it spend, every
auditor running :meth:`~repro.intermix.auditor.Auditor.audit` whatever the
claim — the way Section 6.1 describes a single verified product.  Only the
final publication and validation of the transcripts
(``IntermixProtocol._judge``) is shared with the batch.
"""

from __future__ import annotations

import numpy as np

from reference.counting import counted
from repro.gf.field import Field
from repro.gf.linalg import gf_matvec
from repro.intermix.auditor import Auditor, AuditTranscript
from repro.intermix.committee import Committee
from repro.intermix.protocol import IntermixProtocol, VerificationOutcome
from repro.intermix.worker import Worker, WorkerStrategy


def matvec_with_cost(
    field: Field, matrix: np.ndarray, vector: np.ndarray
) -> tuple[np.ndarray, int]:
    """``A X`` by ``gf_matvec`` with its overheard operation count."""
    product, count = counted(field, gf_matvec, field, matrix, vector)
    return product, count.total


def compute(worker: Worker, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray | None:
    """The worker's broadcast after recomputing ``A X`` on its own."""
    return worker.compute(matrix, vector, *matvec_with_cost(worker.field, matrix, vector))


def audit(
    auditor: Auditor,
    matrix: np.ndarray,
    vector: np.ndarray,
    claimed: np.ndarray | None,
    worker: Worker,
) -> AuditTranscript:
    """Algorithm 1 after the auditor recomputes ``A X`` on its own."""
    return auditor.audit(
        matrix, vector, claimed, worker, *matvec_with_cost(auditor.field, matrix, vector)
    )


def scalar_run(
    protocol: IntermixProtocol,
    matrix: np.ndarray,
    vector: np.ndarray,
    committee: Committee | None = None,
) -> VerificationOutcome:
    """One verified product ``A X`` with a ``gf_matvec`` per role."""
    field = protocol.field
    committee = committee or protocol.election.elect()
    matrix = field.array(matrix)
    vector = field.array(vector).reshape(-1)
    strategy = protocol.worker_strategies.get(committee.worker, WorkerStrategy.HONEST)
    worker = Worker(committee.worker, field, strategy=strategy, rng=protocol.rng)
    claimed = compute(worker, matrix, vector)
    transcripts: list[AuditTranscript] = []
    auditor_ops: dict[str, int] = {}
    for auditor_id in committee.auditors:
        auditor = Auditor(
            auditor_id, field, dishonest=auditor_id in protocol.dishonest_auditors
        )
        transcripts.append(audit(auditor, matrix, vector, claimed, worker))
        auditor_ops[auditor_id] = auditor.operations
    return protocol._judge(
        matrix, vector, committee, worker, claimed, transcripts, auditor_ops
    )
