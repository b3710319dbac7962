"""The INTERMIX auditor — Algorithm 1 of the paper.

An auditor recomputes ``Y = A X`` locally.  If the worker's broadcast ``Y^``
matches, the auditor acknowledges it.  Otherwise the auditor picks a row
``i`` with ``Y^_i != Y_i`` and interactively bisects it: at every level it
asks the worker for the two half inner-products and

* if the halves do not sum to the parent claim, it publishes that
  inconsistency (a commoner verifies it with one addition);
* otherwise at least one half must be wrong; the auditor recurses into a
  wrong half, shrinking the disputed range by half each round.

After at most ``log2 K`` rounds the disputed range is a single entry and the
claim ``Y^(j) = A^(j) X^(j)`` is itself checkable in constant time.  The
transcript of the interaction (the string ``zeta`` plus the final claims) is
what the commoners verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf import charges
from repro.gf.field import Field
from repro.intermix.worker import Worker


@dataclass
class AuditTranscript:
    """Everything a commoner needs to validate an auditor's accusation.

    Attributes
    ----------
    auditor_id:
        Who raised the alert.
    accepted:
        ``True`` when the auditor found the worker's result correct.
    row_index:
        The disputed output row ``i`` (when not accepted).
    path:
        The bisection string ``zeta``: a list of 1/2 choices, one per level.
    failure_kind:
        ``"sum-mismatch"`` when the halves did not add up to the parent claim,
        ``"leaf-mismatch"`` when the final single-entry claim is wrong,
        ``"no-response"`` when the worker refused to answer.
    parent_claim, half_claims:
        The worker's claims at the level where the inconsistency surfaced.
    leaf_range:
        ``(start, stop)`` of the final disputed segment (for leaf mismatches).
    queries_issued:
        Number of sub-product queries the auditor sent (at most ``2 log2 K``).
    """

    auditor_id: str
    accepted: bool
    row_index: int = -1
    path: list[int] = field(default_factory=list)
    failure_kind: str = ""
    parent_claim: int = 0
    half_claims: tuple[int, int] = (0, 0)
    leaf_range: tuple[int, int] = (0, 0)
    queries_issued: int = 0


class Auditor:
    """An elected committee member that re-checks the worker's product."""

    def __init__(self, node_id: str, field: Field, dishonest: bool = False) -> None:
        self.node_id = str(node_id)
        self.field = field
        self.dishonest = bool(dishonest)
        #: Field operations this auditor has been charged.
        self.operations = 0

    # -- the audit -------------------------------------------------------------------
    def audit(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        claimed: np.ndarray | None,
        worker: Worker,
        true_product: np.ndarray,
        operations: int,
        mismatches: np.ndarray | None = None,
    ) -> AuditTranscript:
        """Run Algorithm 1 against the worker's claimed result.

        ``true_product`` is the auditor's recomputation ``Y = A X`` and
        ``operations`` its share of that cost (the protocol
        computes every auditor's recomputation of a batch as one stacked
        matrix product).  The auditor then accepts, raises a baseless alert
        when dishonest, or bisects interactively against the worker.
        ``mismatches`` optionally shares one precomputed comparison of
        ``true_product`` against ``claimed`` across all auditors.
        """
        matrix = self.field.array(matrix)
        vector = self.field.array(vector).reshape(-1)
        if claimed is None:
            # Worker never broadcast a result: under the synchronous broadcast
            # assumption that alone convicts it.
            return AuditTranscript(
                auditor_id=self.node_id, accepted=False, failure_kind="no-response"
            )
        claimed = self.field.array(claimed).reshape(-1)
        if claimed.shape[0] != matrix.shape[0]:
            raise ConfigurationError(
                f"claimed result has {claimed.shape[0]} rows, matrix has {matrix.shape[0]}"
            )
        self.operations += operations
        if mismatches is None:
            mismatches = np.nonzero(self.field.array(true_product).reshape(-1) != claimed)[0]
        if mismatches.shape[0] == 0:
            if self.dishonest:
                # A dishonest auditor may raise a baseless alert; commoners
                # will dismiss it in constant time.
                return AuditTranscript(
                    auditor_id=self.node_id,
                    accepted=False,
                    row_index=0,
                    failure_kind="leaf-mismatch",
                    parent_claim=int(claimed[0]),
                    leaf_range=(0, 1),
                )
            return AuditTranscript(auditor_id=self.node_id, accepted=True)
        return self._bisect(matrix, vector, claimed, worker, int(mismatches[0]))

    def _bisect(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        claimed: np.ndarray,
        worker: Worker,
        row_index: int,
    ) -> AuditTranscript:
        start, stop = 0, vector.shape[0]
        parent_claim = int(claimed[row_index])
        path: list[int] = []
        queries = 0
        while stop - start > 1:
            midpoint = start + (stop - start) // 2
            left_claim = worker.answer_query(row_index, start, midpoint)
            right_claim = worker.answer_query(row_index, midpoint, stop)
            queries += 2
            if left_claim is None or right_claim is None:
                return AuditTranscript(
                    auditor_id=self.node_id,
                    accepted=False,
                    row_index=row_index,
                    path=path,
                    failure_kind="no-response",
                    parent_claim=parent_claim,
                    queries_issued=queries,
                )
            claimed_sum = self.field.add(int(left_claim), int(right_claim))
            self.operations += 1
            if claimed_sum != parent_claim:
                return AuditTranscript(
                    auditor_id=self.node_id,
                    accepted=False,
                    row_index=row_index,
                    path=path,
                    failure_kind="sum-mismatch",
                    parent_claim=parent_claim,
                    half_claims=(int(left_claim), int(right_claim)),
                    leaf_range=(start, stop),
                    queries_issued=queries,
                )
            # The halves add up: at least one of them is wrong; find it.
            left_truth = int(
                self.field.dot(matrix[row_index, start:midpoint], vector[start:midpoint])
            )
            self.operations += charges.dot(midpoint - start)
            if left_truth != int(left_claim):
                stop = midpoint
                parent_claim = int(left_claim)
                path.append(1)
            else:
                start = midpoint
                parent_claim = int(right_claim)
                path.append(2)
        return AuditTranscript(
            auditor_id=self.node_id,
            accepted=False,
            row_index=row_index,
            path=path,
            failure_kind="leaf-mismatch",
            parent_claim=parent_claim,
            leaf_range=(start, stop),
            queries_issued=queries,
        )
