"""Delegated (centralised) coding for CSM, verified with INTERMIX (Section 6.2).

Instead of every node encoding commands / updating its coded state / decoding
results on its own (``Theta(NK)`` aggregate work), all three coding
operations are performed once by a single worker and merely *verified* by the
rest of the network:

* **Encoding of input commands** — the worker computes ``X~ = C X`` (per
  command component); INTERMIX verifies the product against the public
  coefficient matrix ``C``.
* **Updating coded states** — identical, with the decoded next states in
  place of the commands.
* **Decoding of results** — the worker runs Reed–Solomon decoding to obtain
  the coefficients ``b_0..b_K'`` of the composite polynomial and an agreement
  set ``tau`` of size at least ``(N + K' + 1) / 2``; equation (9)
  (``g_tau = V_tau b``) and equation (8) (``outputs = V_omega b``) are both
  matrix–vector products that INTERMIX verifies.  Auditors additionally check
  the claimed evaluations against the results every node already received;
  any single mismatching position is a constant-time accusation.

The :class:`DelegatedRoundReport` records how much work each role performed,
which is the quantity behind the paper's throughput theorem: the worker and
the auditors pay ``O(N log^2 N log log N)`` while every other node pays
``O(1)`` per coding operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DecodingError
from repro.gf.field import Field, OperationCounter
from repro.gf.vandermonde import vandermonde_matrix
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.scheme import LagrangeScheme
from repro.intermix.committee import Committee
from repro.intermix.protocol import IntermixProtocol, VerificationOutcome
from repro.intermix.worker import WorkerStrategy
from repro.rng import default_stream


@dataclass
class DelegatedRoundReport:
    """Complexity and audit outcome of one delegated coding operation."""

    operation: str
    accepted: bool
    worker_id: str
    worker_operations: int = 0
    auditor_operations: dict[str, int] = field(default_factory=dict)
    commoner_operations: dict[str, int] = field(default_factory=dict)
    outcomes: list[VerificationOutcome] = field(default_factory=list)

    @property
    def max_non_worker_operations(self) -> int:
        """Worst per-node cost outside the worker — the quantity that must stay flat."""
        costs = list(self.auditor_operations.values()) + list(
            self.commoner_operations.values()
        )
        return max(costs) if costs else 0

    @property
    def max_commoner_operations(self) -> int:
        return max(self.commoner_operations.values()) if self.commoner_operations else 0

    def merge(self, other: "DelegatedRoundReport") -> None:
        self.accepted = self.accepted and other.accepted
        self.worker_operations += other.worker_operations
        for key, value in other.auditor_operations.items():
            self.auditor_operations[key] = self.auditor_operations.get(key, 0) + value
        for key, value in other.commoner_operations.items():
            self.commoner_operations[key] = self.commoner_operations.get(key, 0) + value
        self.outcomes.extend(other.outcomes)


class DelegatedCodingService:
    """Performs CSM's coding operations at a single verified worker."""

    def __init__(
        self,
        scheme: LagrangeScheme,
        transition_degree: int,
        node_ids: list[str],
        fault_fraction: float,
        rng: np.random.Generator | None = None,
        worker_strategies: dict[str, WorkerStrategy] | None = None,
        corrupt_decoder_workers: set[str] | None = None,
        failure_probability: float = 1e-6,
        dishonest_auditors: set[str] | None = None,
    ) -> None:
        self.scheme = scheme
        self.field: Field = scheme.field
        self.transition_degree = int(transition_degree)
        self.node_ids = list(node_ids)
        self.rng = rng if rng is not None else default_stream()
        self.intermix = IntermixProtocol(
            self.field,
            self.node_ids,
            fault_fraction=fault_fraction,
            failure_probability=failure_probability,
            rng=self.rng,
            worker_strategies=worker_strategies,
            dishonest_auditors=dishonest_auditors,
        )
        self.corrupt_decoder_workers = set(corrupt_decoder_workers or set())
        self._decoder = CodedResultDecoder(scheme, transition_degree)
        self._omega_matrix_cache: dict[int, np.ndarray] = {}

    # -- committee handling ---------------------------------------------------------------
    def elect_committee(
        self, exclude: set[str] | frozenset[str] = frozenset()
    ) -> Committee:
        return self.intermix.election.elect(exclude=exclude)

    # -- operation 1/2: encoding commands and updating states ------------------------------
    def encode_vectors_verified(
        self,
        values: np.ndarray,
        committee: Committee | None = None,
        operation: str = "encode-commands",
    ) -> tuple[np.ndarray, DelegatedRoundReport]:
        """Compute ``C @ values`` at the worker, verified as one INTERMIX batch.

        Every component column goes through a single
        :meth:`~repro.intermix.protocol.IntermixProtocol.run_batch` (one
        stacked matrix product for the worker and every auditor).  The
        state-update path is the same product with the decoded next states
        in place of the commands (``operation="update-states"``).
        """
        committee = committee or self.elect_committee()
        arr = self.field.array(values)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        matrix = self.scheme.coefficient_matrix
        coded = np.zeros((self.scheme.num_nodes, arr.shape[1]), dtype=np.int64)
        report = DelegatedRoundReport(
            operation=operation, accepted=True, worker_id=committee.worker
        )
        for component, outcome in enumerate(
            self.intermix.run_batch(matrix, arr, committee=committee)
        ):
            self._merge_outcome(report, outcome)
            if not outcome.accepted or outcome.result is None:
                report.accepted = False
                continue
            coded[:, component] = outcome.result
        return coded, report

    # -- operation 3: decoding results ----------------------------------------------------------
    def decode_results_verified_fast(
        self,
        coded_results: np.ndarray,
        committee: Committee | None = None,
    ) -> tuple[np.ndarray, DelegatedRoundReport]:
        """Decode one round's coded results at the worker and verify eqs. (9)/(8).

        The worker decodes via :meth:`~repro.lcc.decoder.CodedResultDecoder.decode_fast`
        (cached-matrix interpolation + re-encode verification), the agreement
        set is the complement of the decoder's confirmed error nodes, and the
        eq. (9) / eq. (8) verifications each run once across *all* components
        as one :meth:`~repro.intermix.protocol.IntermixProtocol.run_batch`.

        Returns the ``(K, result_dim)`` decoded outputs and the audit report.
        A cheating worker never raises: ``report.accepted`` carries the
        verdict, so round drivers can record the failed round (and its
        operation counts) instead of unwinding.
        :class:`~repro.exceptions.DecodingError` is raised only when even an
        honest decode is impossible.
        """
        committee = committee or self.elect_committee()
        results = self.field.array(coded_results)
        if results.ndim == 1:
            results = results.reshape(-1, 1)
        report = DelegatedRoundReport(
            operation="decode-results", accepted=True, worker_id=committee.worker
        )
        composite_degree = self.scheme.composite_degree(self.transition_degree)
        num_coefficients = composite_degree + 1
        agreement_threshold = (self.scheme.num_nodes + composite_degree + 1 + 1) // 2
        worker_counter = OperationCounter()
        self.field.attach_counter(worker_counter)
        try:
            decoded = self._decoder.decode_fast(results)
        finally:
            self.field.attach_counter(None)
        coefficients = np.zeros((num_coefficients, results.shape[1]), dtype=np.int64)
        for component, polynomial in enumerate(decoded.polynomials):
            coefficients[:, component] = polynomial.coefficient_array(num_coefficients)
        if committee.worker in self.corrupt_decoder_workers:
            coefficients[0, :] = self.field.add(coefficients[0, :], 1)
        agreement_set = [
            i for i in range(self.scheme.num_nodes) if i not in decoded.error_nodes
        ]
        if len(agreement_set) < agreement_threshold:
            raise DecodingError(
                f"agreement set of size {len(agreement_set)} below the "
                f"threshold {agreement_threshold}"
            )
        # Equation (9): the received results on tau match V_tau @ b — every
        # component against the one shared agreement set.
        tau_points = [self.scheme.alphas[i] for i in agreement_set]
        tau_matrix = vandermonde_matrix(self.field, tau_points, num_coefficients)
        outputs = np.zeros(
            (self.scheme.num_machines, results.shape[1]), dtype=np.int64
        )
        for component, outcome9 in enumerate(
            self.intermix.run_batch(tau_matrix, coefficients, committee=committee)
        ):
            self._merge_outcome(report, outcome9)
            if outcome9.accepted and outcome9.result is not None:
                received_tau = results[agreement_set, component]
                if not np.array_equal(
                    self.field.array(outcome9.result), self.field.array(received_tau)
                ):
                    report.accepted = False
            else:
                report.accepted = False
        # Equation (8): evaluate the decoded polynomials at the omegas.
        omega_matrix = self._omega_matrix(num_coefficients)
        for component, outcome8 in enumerate(
            self.intermix.run_batch(omega_matrix, coefficients, committee=committee)
        ):
            self._merge_outcome(report, outcome8)
            if outcome8.accepted and outcome8.result is not None:
                outputs[:, component] = outcome8.result
            else:
                report.accepted = False
        report.worker_operations += worker_counter.total
        return outputs, report

    # -- internals ----------------------------------------------------------------------------------
    def _omega_matrix(self, num_coefficients: int) -> np.ndarray:
        if num_coefficients not in self._omega_matrix_cache:
            self._omega_matrix_cache[num_coefficients] = vandermonde_matrix(
                self.field, self.scheme.omegas, num_coefficients
            )
        return self._omega_matrix_cache[num_coefficients]

    @staticmethod
    def _merge_outcome(report: DelegatedRoundReport, outcome: VerificationOutcome) -> None:
        report.outcomes.append(outcome)
        report.worker_operations += outcome.worker_operations
        for node, ops in outcome.auditor_operations.items():
            report.auditor_operations[node] = report.auditor_operations.get(node, 0) + ops
        for node, ops in outcome.commoner_operations.items():
            report.commoner_operations[node] = report.commoner_operations.get(node, 0) + ops
