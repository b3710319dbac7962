"""The INTERMIX worker.

The worker is the single node to which the coding operations are delegated.
It is asked to broadcast ``Y^ = A X`` and subsequently to answer the
auditors' sub-product queries ``Y^(j, l) = A^(j, l) X^(j, l)``.  Since the
soundness analysis must hold against an *arbitrary* (computationally
unbounded) adversary, the simulation provides several cheating strategies:

* ``HONEST`` — computes everything correctly.
* ``CORRUPT_RESULT`` — broadcasts a wrong ``Y^`` but answers sub-queries
  truthfully; the very first bisection step exposes
  ``Z^1 + Z^2 != Y^_i``.
* ``CONSISTENT_LIAR`` — broadcasts a wrong ``Y^`` and fabricates sub-answers
  that always sum to its previous lie (the strongest strategy: the
  inconsistency is only exposed at the last, constant-size check
  ``Y^(j) != A^(j) X^(j)``).
* ``SILENT`` — refuses to answer queries; under the broadcast/synchronous
  assumption the commoners treat the missing answer as an admission of
  fraud.

Every query the worker answers is counted so the complexity accounting of
Section 6.1 (worst case ``8JK`` extra inner-product work) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf import charges
from repro.gf.field import Field
from repro.rng import default_stream


class WorkerStrategy(str, Enum):
    HONEST = "honest"
    CORRUPT_RESULT = "corrupt-result"
    CONSISTENT_LIAR = "consistent-liar"
    SILENT = "silent"


@dataclass
class QueryRecord:
    """One sub-product query answered by the worker (for complexity audits)."""

    row_index: int
    start: int
    stop: int
    answer: int
    truthful: bool


class Worker:
    """The delegated computation node."""

    def __init__(
        self,
        node_id: str,
        field: Field,
        strategy: WorkerStrategy = WorkerStrategy.HONEST,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.node_id = str(node_id)
        self.field = field
        self.strategy = WorkerStrategy(strategy)
        self.rng = rng if rng is not None else default_stream()
        #: Field operations this worker has been charged.
        self.operations = 0
        self.query_log: list[QueryRecord] = []
        self._matrix: np.ndarray | None = None
        self._vector: np.ndarray | None = None
        # For the consistent liar: remembered claims per (row, start, stop).
        self._claims: dict[tuple[int, int, int], int] = {}

    # -- main computation ------------------------------------------------------------
    def compute(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        true_product: np.ndarray,
        operations: int,
    ) -> np.ndarray | None:
        """Broadcast (or mis-broadcast) ``Y^ = A X`` and remember the inputs.

        ``true_product`` is ``A X`` and ``operations`` the worker's share of
        computing it: the protocol computes the products of a whole batch in
        one stacked matrix product and hands each round's worker its column
        and its per-column cost.  The strategy then decides what is
        broadcast.  Returns ``None`` for the silent strategy (no broadcast,
        nothing charged).
        """
        self._matrix = self.field.array(matrix)
        self._vector = self.field.array(vector).reshape(-1)
        if self._matrix.ndim != 2 or self._matrix.shape[1] != self._vector.shape[0]:
            raise ConfigurationError(
                f"matrix {self._matrix.shape} and vector {self._vector.shape} mismatch"
            )
        if self.strategy is WorkerStrategy.SILENT:
            return None
        self.operations += operations
        true_product = self.field.array(true_product).reshape(-1)
        if self.strategy is WorkerStrategy.HONEST:
            return true_product.copy()
        # Cheating strategies corrupt at least one output row.
        corrupted = true_product.copy()
        victim = int(self.rng.integers(0, corrupted.shape[0]))
        corrupted[victim] = self.field.add(int(corrupted[victim]), 1)
        self._claims.clear()
        for row in range(corrupted.shape[0]):
            self._claims[(row, 0, self._vector.shape[0])] = int(corrupted[row])
        return corrupted

    @property
    def vector_length(self) -> int | None:
        """Length of the delegated vector ``X``, or ``None`` before any compute."""
        return None if self._vector is None else int(self._vector.shape[0])

    # -- query answering ----------------------------------------------------------------
    def answer_query(self, row_index: int, start: int, stop: int) -> int | None:
        """Answer an auditor's sub-product query ``A_row[start:stop] . X[start:stop]``.

        The honest and ``CORRUPT_RESULT`` strategies answer truthfully; the
        ``CONSISTENT_LIAR`` fabricates answers whose halves always sum to the
        parent claim; the ``SILENT`` strategy refuses (returns ``None``).
        """
        if self._matrix is None or self._vector is None:
            raise ConfigurationError("worker has not been given a computation yet")
        if self.strategy is WorkerStrategy.SILENT:
            return None
        truthful_answer = self._true_subproduct(row_index, start, stop)
        if self.strategy in (WorkerStrategy.HONEST, WorkerStrategy.CORRUPT_RESULT):
            self.query_log.append(
                QueryRecord(row_index, start, stop, truthful_answer, truthful=True)
            )
            return truthful_answer
        # Consistent liar: keep the lie additive across splits.
        answer = self._consistent_lie(row_index, start, stop, truthful_answer)
        self.query_log.append(
            QueryRecord(row_index, start, stop, answer, truthful=(answer == truthful_answer))
        )
        return answer

    def broadcast_answer(self, row_index: int, start: int, stop: int) -> int | None:
        """The worker's public answer for a sub-range, as the commoners overhear it.

        Every answer goes out on the broadcast channel, so a range the worker
        already answered is read from its log; only a range nobody has asked
        yet (a dishonest auditor's baseless alert, say) is answered — and
        charged — now, once.
        """
        for record in self.query_log:
            if (record.row_index, record.start, record.stop) == (row_index, start, stop):
                return record.answer
        return self.answer_query(row_index, start, stop)

    def _true_subproduct(self, row_index: int, start: int, stop: int) -> int:
        segment_a = self._matrix[row_index, start:stop]
        segment_x = self._vector[start:stop]
        if segment_a.shape[0] == 0:
            return 0
        value = int(self.field.dot(segment_a, segment_x))
        self.operations += charges.dot(segment_a.shape[0])
        return value

    def _consistent_lie(
        self, row_index: int, start: int, stop: int, truthful_answer: int
    ) -> int:
        key = (row_index, start, stop)
        if key in self._claims:
            return self._claims[key]
        # Find the parent claim this query is a half of; keep halves summing
        # to the parent so the auditor's running check Z1 + Z2 == parent holds
        # and the fraud survives to the leaf.
        parent = self._find_parent_claim(row_index, start, stop)
        if parent is None:
            # Query outside any previous claim: answer truthfully, nothing to hide.
            self._claims[key] = truthful_answer
            return truthful_answer
        parent_key, parent_value = parent
        sibling_key = self._sibling_of(parent_key, key)
        sibling_truth = self._true_subproduct(row_index, sibling_key[1], sibling_key[2])
        if sibling_key in self._claims:
            lie = self.field.sub(parent_value, self._claims[sibling_key])
        else:
            # Tell the truth about the sibling, absorb the whole discrepancy here.
            self._claims[sibling_key] = sibling_truth
            lie = self.field.sub(parent_value, sibling_truth)
        self._claims[key] = int(lie)
        return int(lie)

    def _find_parent_claim(
        self, row_index: int, start: int, stop: int
    ) -> tuple[tuple[int, int, int], int] | None:
        best: tuple[tuple[int, int, int], int] | None = None
        for (row, p_start, p_stop), value in self._claims.items():
            if row != row_index:
                continue
            if p_start <= start and stop <= p_stop and (p_stop - p_start) > (stop - start):
                if best is None or (p_stop - p_start) < (best[0][2] - best[0][1]):
                    best = ((row, p_start, p_stop), value)
        return best

    @staticmethod
    def _sibling_of(
        parent_key: tuple[int, int, int], child_key: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        row, p_start, p_stop = parent_key
        _, c_start, c_stop = child_key
        midpoint = p_start + (p_stop - p_start) // 2
        if c_start == p_start:
            return (row, midpoint, p_stop)
        return (row, p_start, midpoint)
