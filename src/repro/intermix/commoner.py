"""The INTERMIX commoners: constant-time verification of audit outcomes.

A commoner never recomputes the matrix-vector product.  It only ever checks:

* a **sum mismatch** — one field addition and one comparison against the
  worker's published claims (``Y^(j,1) + Y^(j,2) != Y^(j)``);
* a **leaf mismatch** — one scalar multiplication ``A^(j) X^(j)`` and a
  comparison (the disputed segment has length 1);
* a **missing response** — the worker failed to broadcast or to answer,
  which under the broadcast/synchronous assumption is directly observable.

If every auditor acknowledged the result, the commoner accepts it outright.
This is exactly why the per-commoner verification cost is ``O(1)`` and the
network-wide overhead of INTERMIX stays additive (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gf.field import Field
from repro.intermix.auditor import AuditTranscript


@dataclass
class CommonerVerdict:
    """One commoner's conclusion about one audit transcript."""

    commoner_id: str
    transcript_author: str
    fraud_confirmed: bool
    operations: int


class Commoner:
    """A node that only performs constant-time checks."""

    def __init__(self, node_id: str, field: Field) -> None:
        self.node_id = str(node_id)
        self.field = field
        #: Field operations this commoner has been charged.
        self.operations = 0

    def verify_transcript(
        self,
        transcript: AuditTranscript,
        matrix: np.ndarray,
        vector: np.ndarray,
        claimed: np.ndarray | None,
    ) -> CommonerVerdict:
        """Check an auditor's accusation in constant time.

        ``matrix`` and ``vector`` are passed so the commoner can read the
        *single* disputed entry for a leaf mismatch; it never touches more
        than one row element and one vector element.
        """
        fraud = False
        cost = 0
        if transcript.accepted:
            fraud = False
        elif transcript.failure_kind == "no-response" or claimed is None:
            # Missing broadcast/answers are directly observable misbehaviour.
            fraud = True
        elif transcript.failure_kind == "sum-mismatch":
            total = self.field.add(*transcript.half_claims)
            cost = 1
            fraud = int(total) != int(transcript.parent_claim)
        elif transcript.failure_kind == "leaf-mismatch":
            start, stop = transcript.leaf_range
            if stop - start != 1:
                fraud = False  # malformed accusation; dismiss it
            else:
                matrix_arr = self.field.array(matrix)
                vector_arr = self.field.array(vector).reshape(-1)
                product = self.field.mul(
                    int(matrix_arr[transcript.row_index, start]),
                    int(vector_arr[start]),
                )
                cost = 1
                fraud = int(product) != int(transcript.parent_claim)
        self.operations += cost
        return CommonerVerdict(
            commoner_id=self.node_id,
            transcript_author=transcript.auditor_id,
            fraud_confirmed=fraud,
            operations=cost,
        )
