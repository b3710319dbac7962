"""Orchestration of INTERMIX verification rounds.

The protocol ties the roles together for a batch of delegated products
``Y = A X`` (one column of ``X`` per product):

1. elect a worker and ``J`` auditors (the caller may also fix the roles, as
   CSM's delegation layer does when it re-uses a committee across rounds);
2. the worker broadcasts its claimed ``Y^``;
3. every auditor recomputes ``A X`` and compares it with the claim; auditors
   that agree broadcast an acknowledgement, the others run Algorithm 1 and
   broadcast their accusation transcripts;
4. the commoners validate each accusation in constant time (the interaction
   between the worker and the auditors is public, so the worker's claims the
   commoners check against are the ones the worker itself broadcast);
5. a product is *accepted* iff no validated accusation exists **and** the
   worker actually broadcast a result.

Steps 2 and 3 are one verdict table per batch: a single stacked matrix
product serves the worker and every auditor, and one array comparison of the
claims against it tells which columns anyone disputes.  Role objects —
:class:`~repro.intermix.worker.Worker` query answering, the auditors'
bisection, the commoners' checks — exist only for those columns, which is
the protocol's own accuse branch; an undisputed column costs every commoner
nothing and is acknowledged by every auditor.

The outcome also carries the complexity accounting used to reproduce the
worst-case overhead formula of Section 6.1:
``(J + 1) c(AX) + 8 J K + 3 J log K + N - J - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.gf import charges
from repro.gf.field import Field
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


@dataclass
class VerificationBatch:
    """The verdict table of one :meth:`IntermixProtocol.run_batch`.

    Column ``c`` is the verified product ``A @ vectors[:, c]``.  The
    per-role operation counts are arrays over the columns: ``auditor_operations``
    has one row per auditor (in ``committee.auditors`` order) and
    ``commoner_operations[c]`` is what *each* commoner paid for column ``c``
    (every commoner checks the same public accusations).  Transcripts and
    verdicts exist only for the disputed columns, as full per-column
    outcomes in ``disputes``; indexing or iterating the batch yields a
    :class:`VerificationOutcome` per column either way, an undisputed column
    being ``J`` acknowledgements and no verdicts.
    """

    committee: Committee
    accepted: np.ndarray
    results: np.ndarray | None
    worker_operations: np.ndarray
    auditor_operations: np.ndarray
    commoner_operations: np.ndarray
    disputes: dict[int, VerificationOutcome] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        """Columns whose worker stands convicted (fraud or no broadcast)."""
        return int(np.count_nonzero(~self.accepted))

    def __len__(self) -> int:
        return int(self.accepted.shape[0])

    def __iter__(self) -> Iterator[VerificationOutcome]:
        return (self[column] for column in range(len(self)))

    def __getitem__(self, column: int) -> VerificationOutcome:
        column = range(len(self))[column]
        if column in self.disputes:
            return self.disputes[column]
        auditors = self.committee.auditors
        return VerificationOutcome(
            accepted=True,
            result=self.results[:, column].copy(),
            committee=self.committee,
            transcripts=[AuditTranscript(auditor_id=a, accepted=True) for a in auditors],
            worker_operations=int(self.worker_operations[column]),
            auditor_operations={
                a: int(ops) for a, ops in zip(auditors, self.auditor_operations[:, column])
            },
            commoner_operations={c: 0 for c in self.committee.commoners},
        )


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
    ) -> VerificationBatch:
        """Verify many delegated products ``A @ vectors[:, c]`` as one verdict table.

        One committee serves every column (elected here when not supplied),
        and the worker's — and all auditors' — recomputations collapse into a
        single stacked :meth:`~repro.gf.field.Field.matmul`; each role is
        charged :func:`repro.gf.charges.matmul` of one column, what
        :func:`~repro.gf.linalg.gf_matvec` performs.  The worker's claims
        are one ``(rows, columns)`` array; comparing it with the stacked
        truth gives the disputed columns, and only the ``(column, auditor)``
        pairs that accuse — a mismatching or missing claim, or a dishonest
        auditor's baseless alert — run Algorithm 1 and the commoners' checks.

        Every column of the returned :class:`VerificationBatch` is
        bit-identical — verdict, transcripts, per-role operation counts and
        rng stream — to every role recomputing its column with its own
        ``gf_matvec``, one column after another (the property-tested
        per-column reference in ``tests/reference/intermix.py``).
        """
        committee = committee or self.election.elect()
        matrix_arr = self.field.array(matrix)
        vectors_arr = self.field.array(vectors)
        if vectors_arr.ndim == 1:
            vectors_arr = vectors_arr.reshape(-1, 1)
        num_columns = vectors_arr.shape[1]
        truth = self.field.matmul(matrix_arr, vectors_arr)
        share = charges.matmul(matrix_arr.shape[0], matrix_arr.shape[1], 1)

        # The worker's broadcast.  A cheating worker corrupts each column on
        # its own (one rng draw per column, in column order); its per-column
        # state answers the auditors' queries.
        strategy = self.worker_strategies.get(committee.worker, WorkerStrategy.HONEST)
        workers: dict[int, Worker] = {}
        claims: np.ndarray | None = truth.copy()
        if strategy is not WorkerStrategy.HONEST:
            for index in range(num_columns):
                worker = workers[index] = Worker(
                    committee.worker, self.field, strategy=strategy, rng=self.rng
                )
                claim = worker.compute(
                    matrix_arr, vectors_arr[:, index], truth[:, index], share
                )
                if claim is None:
                    claims = None
                elif claims is not None:
                    claims[:, index] = claim

        # The verdict table.  An undisputed column is acknowledged by every
        # auditor: the worker and each auditor paid their share of the
        # product, the commoners nothing.  A column is disputed when its claim
        # is missing or wrong, or when a dishonest auditor sits on the
        # committee (it raises a baseless alert on every column it agrees with).
        worker_ops = np.full(num_columns, share, dtype=np.int64)
        auditor_ops = np.full((len(committee.auditors), num_columns), share, dtype=np.int64)
        commoner_ops = np.zeros(num_columns, dtype=np.int64)
        accepted = np.ones(num_columns, dtype=bool)
        mismatch = np.ones(truth.shape, dtype=bool) if claims is None else truth != claims
        disputed = mismatch.any(axis=0)
        if not self.dishonest_auditors.isdisjoint(committee.auditors):
            disputed[:] = True
        disputes: dict[int, VerificationOutcome] = {}
        for index in np.flatnonzero(disputed).tolist():
            outcome = self._dispute(
                matrix_arr,
                vectors_arr[:, index],
                truth[:, index],
                None if claims is None else claims[:, index],
                np.flatnonzero(mismatch[:, index]),
                committee,
                workers.get(index),
                share,
            )
            disputes[index] = outcome
            accepted[index] = outcome.accepted
            worker_ops[index] = outcome.worker_operations
            auditor_ops[:, index] = [
                outcome.auditor_operations[a] for a in committee.auditors
            ]
            # Every commoner checked the same accusations at the same cost.
            commoner_ops[index] = next(iter(outcome.commoner_operations.values()), 0)
        return VerificationBatch(
            committee=committee,
            accepted=accepted,
            results=claims,
            worker_operations=worker_ops,
            auditor_operations=auditor_ops,
            commoner_operations=commoner_ops,
            disputes=disputes,
        )

    def _dispute(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        truth: np.ndarray,
        claimed: np.ndarray | None,
        mismatches: np.ndarray,
        committee: Committee,
        worker: Worker | None,
        share: int,
    ) -> VerificationOutcome:
        """The accuse branch for one disputed column: Algorithm 1 and the checks."""
        if worker is None:
            # An honest worker only answers queries when someone accuses it.
            worker = Worker(committee.worker, self.field, rng=self.rng)
            worker.compute(matrix, vector, truth, share)
        transcripts: list[AuditTranscript] = []
        auditor_ops: dict[str, int] = {}
        for auditor_id in committee.auditors:
            dishonest = auditor_id in self.dishonest_auditors
            if claimed is not None and mismatches.shape[0] == 0 and not dishonest:
                transcripts.append(AuditTranscript(auditor_id=auditor_id, accepted=True))
                auditor_ops[auditor_id] = share
                continue
            auditor = Auditor(auditor_id, self.field, dishonest=dishonest)
            transcripts.append(
                auditor.audit(
                    matrix, vector, claimed, worker, truth, share, mismatches=mismatches
                )
            )
            auditor_ops[auditor_id] = auditor.operations
        return self._judge(
            matrix, vector, committee, worker, claimed, transcripts, auditor_ops
        )

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
        """Publish the auditors' transcripts and validate the accusations.

        The accusations are public and every commoner runs the same
        constant-time check on each, so each accusation is checked once and
        its verdict recorded for every commoner.  The accept/reject decision
        is taken by every node for itself; the auditors validate the same
        public accusations (at no extra cost — they already hold the data),
        so a committee with no commoners still rejects a convicted worker.
        """
        # Publish the worker's claims the accusations refer to (the commoners
        # "overhear the entire conversation" in the paper's model).
        accusations = [
            self._with_overheard_claims(transcript, worker, claimed)
            for transcript in transcripts
            if not transcript.accepted
        ]
        checker = Commoner("__validator__", self.field)
        checks = [
            checker.verify_transcript(transcript, matrix, vector, claimed)
            for transcript in accusations
        ]
        verdicts = [
            CommonerVerdict(
                commoner_id, check.transcript_author, check.fraud_confirmed, check.operations
            )
            for commoner_id in committee.commoners
            for check in checks
        ]
        commoner_cost = checker.operations
        fraud_confirmed = any(check.fraud_confirmed for check in checks)
        no_result = claimed is None
        return VerificationOutcome(
            accepted=not fraud_confirmed and not no_result,
            result=None if claimed is None else claimed.copy(),
            committee=committee,
            transcripts=transcripts,
            verdicts=verdicts,
            worker_operations=worker.operations,
            auditor_operations=auditor_ops,
            commoner_operations={c: commoner_cost for c in committee.commoners},
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
        half claims.  Re-reading is not re-asking: a range the worker already
        answered is read from its broadcast log (see
        :meth:`~repro.intermix.worker.Worker.broadcast_answer`), so the
        worker pays for each answer once.
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
            return worker.broadcast_answer(row, range_start, range_stop)

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
            left = worker.broadcast_answer(row, start, midpoint)
            right = worker.broadcast_answer(row, midpoint, stop)
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
