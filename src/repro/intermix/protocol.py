"""Orchestration of one INTERMIX verification round.

The protocol ties the roles together for a single delegated product
``Y = A X``:

1. elect a worker and ``J`` auditors (the caller may also fix the roles, as
   CSM's delegation layer does when it re-uses a committee across rounds);
2. the worker broadcasts its claimed ``Y^``;
3. every auditor runs Algorithm 1; auditors that accept broadcast an
   acknowledgement, the others broadcast their accusation transcripts;
4. the commoners validate each accusation in constant time (the interaction
   between the worker and the auditors is public, so the worker's claims the
   commoners check against are re-read from the worker itself);
5. the outcome is *accepted* iff no validated accusation exists **and** the
   worker actually broadcast a result.

The outcome also carries the complexity accounting used to reproduce the
worst-case overhead formula of Section 6.1:
``(J + 1) c(AX) + 8 J K + 3 J log K + N - J - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gf.field import Field, OperationCounter
from repro.intermix.auditor import Auditor, AuditTranscript
from repro.intermix.commoner import Commoner, CommonerVerdict
from repro.intermix.committee import Committee, CommitteeElection
from repro.intermix.worker import Worker, WorkerStrategy
from repro.rng import default_stream


@dataclass
class VerificationOutcome:
    """Result of one verified matrix–vector multiplication."""

    accepted: bool
    result: np.ndarray | None
    committee: Committee
    transcripts: list[AuditTranscript] = field(default_factory=list)
    verdicts: list[CommonerVerdict] = field(default_factory=list)
    worker_operations: int = 0
    auditor_operations: dict[str, int] = field(default_factory=dict)
    commoner_operations: dict[str, int] = field(default_factory=dict)
    confirmed_fraud: bool = False

    @property
    def fraud_detected(self) -> bool:
        return self.confirmed_fraud or any(v.fraud_confirmed for v in self.verdicts)

    @property
    def total_operations(self) -> int:
        return (
            self.worker_operations
            + sum(self.auditor_operations.values())
            + sum(self.commoner_operations.values())
        )

    def operations_for(self, node_id: str) -> int:
        if node_id == self.committee.worker:
            return self.worker_operations
        if node_id in self.auditor_operations:
            return self.auditor_operations[node_id]
        return self.commoner_operations.get(node_id, 0)


class IntermixProtocol:
    """Runs verified matrix-vector multiplications over a fixed node set."""

    def __init__(
        self,
        field: Field,
        node_ids: list[str],
        fault_fraction: float,
        failure_probability: float = 1e-6,
        rng: np.random.Generator | None = None,
        worker_strategies: dict[str, WorkerStrategy] | None = None,
        dishonest_auditors: set[str] | None = None,
    ) -> None:
        self.field = field
        self.node_ids = list(node_ids)
        self.rng = rng if rng is not None else default_stream()
        self.election = CommitteeElection(
            node_ids, fault_fraction, failure_probability, rng=self.rng
        )
        self.worker_strategies = dict(worker_strategies or {})
        self.dishonest_auditors = set(dishonest_auditors or set())

    # -- main entry point -----------------------------------------------------------------
    def run(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        committee: Committee | None = None,
    ) -> VerificationOutcome:
        """Delegate ``A X`` to a worker and verify the result (a batch of one)."""
        return self.run_batch(matrix, vector, committee=committee)[0]

    def run_batch(
        self,
        matrix: np.ndarray,
        vectors: np.ndarray,
        committee: Committee | None = None,
    ) -> list[VerificationOutcome]:
        """Verify many delegated products ``A @ vectors[:, r]`` in one batch.

        One committee serves every column (elected here when not supplied),
        and the worker's — and all auditors' — recomputations collapse into a
        single stacked :meth:`~repro.gf.field.Field.matmul` whose operation
        count is split evenly across the columns (exact, because the matmul
        cost is shape-based and identical per column to
        :func:`~repro.gf.linalg.gf_matvec`).  The returned outcomes are
        bit-identical — verdicts, transcripts, per-role operation counts and
        rng stream — to every role recomputing its column with its own
        ``gf_matvec``, one column after another (the property-tested
        per-column reference in ``tests/reference/intermix.py``).
        """
        committee = committee or self.election.elect()
        matrix_arr = self.field.array(matrix)
        vectors_arr = self.field.array(vectors)
        if vectors_arr.ndim == 1:
            vectors_arr = vectors_arr.reshape(-1, 1)
        num_rounds = vectors_arr.shape[1]
        if num_rounds == 0:
            return []
        strategy = self.worker_strategies.get(committee.worker, WorkerStrategy.HONEST)
        batch_counter = OperationCounter()
        self.field.attach_counter(batch_counter)
        try:
            true_products = self.field.matmul(matrix_arr, vectors_arr)
        finally:
            self.field.attach_counter(None)
        per_muls = batch_counter.multiplications // num_rounds
        per_adds = batch_counter.additions // num_rounds
        outcomes: list[VerificationOutcome] = []
        for index in range(num_rounds):
            column = np.ascontiguousarray(vectors_arr[:, index])
            truth = np.ascontiguousarray(true_products[:, index])
            worker = Worker(
                committee.worker, self.field, strategy=strategy, rng=self.rng
            )
            claimed = worker.compute(matrix_arr, column, truth, per_muls, per_adds)
            # One stacked comparison serves every auditor of this round.
            mismatches = None if claimed is None else np.nonzero(truth != claimed)[0]
            transcripts: list[AuditTranscript] = []
            auditor_ops: dict[str, int] = {}
            for auditor_id in committee.auditors:
                auditor = Auditor(
                    auditor_id,
                    self.field,
                    dishonest=auditor_id in self.dishonest_auditors,
                )
                transcripts.append(
                    auditor.audit(
                        matrix_arr,
                        column,
                        claimed,
                        worker,
                        truth,
                        per_muls,
                        per_adds,
                        mismatches=mismatches,
                    )
                )
                auditor_ops[auditor_id] = auditor.operations
            outcomes.append(
                self._judge(
                    matrix_arr, column, committee, worker, claimed, transcripts, auditor_ops
                )
            )
        return outcomes

    def _judge(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        committee: Committee,
        worker: Worker,
        claimed: np.ndarray | None,
        transcripts: list[AuditTranscript],
        auditor_ops: dict[str, int],
    ) -> VerificationOutcome:
        """Publish the auditors' transcripts and validate the accusations."""
        # Publish the worker's claims the accusations refer to (the commoners
        # "overhear the entire conversation" in the paper's model).
        public_transcripts = [
            transcript
            if transcript.accepted
            else self._with_overheard_claims(transcript, worker, claimed)
            for transcript in transcripts
        ]
        verdicts: list[CommonerVerdict] = []
        commoner_ops: dict[str, int] = {}
        for commoner_id in committee.commoners:
            commoner = Commoner(commoner_id, self.field)
            for transcript in public_transcripts:
                if transcript.accepted:
                    continue
                verdicts.append(
                    commoner.verify_transcript(transcript, matrix, vector, claimed)
                )
            commoner_ops[commoner_id] = commoner.operations

        # The accept/reject decision is taken by every node for itself; the
        # auditors validated the same public accusations (at no extra cost —
        # they already hold the data), so a committee with no commoners still
        # rejects a convicted worker.
        validator = Commoner("__validator__", self.field)
        fraud_confirmed = any(
            validator.verify_transcript(t, matrix, vector, claimed).fraud_confirmed
            for t in public_transcripts
            if not t.accepted
        )
        no_result = claimed is None
        accepted = not fraud_confirmed and not no_result
        return VerificationOutcome(
            accepted=accepted,
            result=None if claimed is None else claimed.copy(),
            committee=committee,
            transcripts=transcripts,
            verdicts=verdicts,
            worker_operations=worker.operations,
            auditor_operations=auditor_ops,
            commoner_operations=commoner_ops,
            confirmed_fraud=fraud_confirmed or no_result,
        )

    # -- internals --------------------------------------------------------------------------
    def _with_overheard_claims(
        self, transcript: AuditTranscript, worker: Worker, claimed: np.ndarray | None
    ) -> AuditTranscript:
        """Replace the auditor-reported claims by the worker's own (overheard) answers.

        The commoners hear the worker's answers directly on the broadcast
        channel, so a dishonest auditor cannot attribute fabricated claims to
        an honest worker.  For a leaf mismatch we re-read the worker's claim
        for the single disputed entry; for a sum mismatch we re-read the two
        half claims.
        """
        if transcript.accepted or claimed is None:
            return transcript
        if transcript.failure_kind not in ("leaf-mismatch", "sum-mismatch"):
            return transcript
        start, stop = transcript.leaf_range
        row = transcript.row_index
        vector_length = worker.vector_length if worker.vector_length is not None else stop

        def worker_claim_for(range_start: int, range_stop: int) -> int | None:
            """The worker's public claim for a sub-range of the disputed row."""
            if (range_start, range_stop) == (0, vector_length):
                return int(claimed[row])
            return worker.answer_query(row, range_start, range_stop)

        if transcript.failure_kind == "leaf-mismatch":
            if stop - start != 1:
                return transcript
            overheard = worker_claim_for(start, stop)
            if overheard is None:
                failure_kind, parent, halves = "no-response", 0, (0, 0)
            else:
                failure_kind, parent, halves = "leaf-mismatch", int(overheard), (0, 0)
        else:  # sum-mismatch
            midpoint = start + (stop - start) // 2
            parent_claim = worker_claim_for(start, stop)
            left = worker.answer_query(row, start, midpoint)
            right = worker.answer_query(row, midpoint, stop)
            if parent_claim is None or left is None or right is None:
                failure_kind, parent, halves = "no-response", 0, (0, 0)
            else:
                failure_kind = "sum-mismatch"
                parent = int(parent_claim)
                halves = (int(left), int(right))
        return AuditTranscript(
            auditor_id=transcript.auditor_id,
            accepted=False,
            row_index=row,
            path=transcript.path,
            failure_kind=failure_kind,
            parent_claim=parent,
            half_claims=halves,
            leaf_range=transcript.leaf_range,
            queries_issued=transcript.queries_issued,
        )
