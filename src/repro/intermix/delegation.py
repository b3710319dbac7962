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

from repro.exceptions import ConfigurationError, DecodingError
from repro.gf.field import Field
from repro.gf.matrix_cache import cached_vandermonde
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.scheme import LagrangeScheme
from repro.intermix.committee import Committee
from repro.intermix.protocol import IntermixProtocol, VerificationBatch
from repro.intermix.worker import WorkerStrategy
from repro.rng import default_stream


@dataclass
class DelegatedRoundReport:
    """Complexity and audit outcome of one delegated coding operation.

    The per-role operation counts are the committee's vectors:
    ``auditor_operations[j]`` is what ``committee.auditors[j]`` paid and
    ``commoner_operations`` what *each* commoner paid (every commoner checks
    the same public accusations).
    """

    operation: str
    accepted: bool
    committee: Committee
    worker_operations: int = 0
    auditor_operations: np.ndarray = field(init=False)
    commoner_operations: int = 0
    #: Verified products (batch columns) whose worker stands convicted.
    rejected_operations: int = 0

    def __post_init__(self) -> None:
        self.auditor_operations = np.zeros(len(self.committee.auditors), dtype=np.int64)

    @property
    def max_non_worker_operations(self) -> int:
        """Worst per-node cost outside the worker — the quantity that must stay flat."""
        costs = self.auditor_operations.tolist()
        if self.committee.commoners:
            costs.append(self.commoner_operations)
        return max(costs, default=0)

    @property
    def max_commoner_operations(self) -> int:
        return self.commoner_operations if self.committee.commoners else 0

    def merge(self, other: "DelegatedRoundReport") -> None:
        self._check_committee(other.committee)
        self.accepted = self.accepted and other.accepted
        self.worker_operations += other.worker_operations
        self.auditor_operations += other.auditor_operations
        self.commoner_operations += other.commoner_operations
        self.rejected_operations += other.rejected_operations

    def add_batch(self, batch: VerificationBatch) -> None:
        """Charge one ``run_batch``'s per-role operation vectors to this report."""
        self._check_committee(batch.committee)
        rejected = batch.rejected
        self.accepted = self.accepted and rejected == 0
        self.worker_operations += int(batch.worker_operations.sum())
        self.auditor_operations += batch.auditor_operations.sum(axis=1)
        self.commoner_operations += int(batch.commoner_operations.sum())
        self.rejected_operations += rejected

    def _check_committee(self, committee: Committee) -> None:
        if committee != self.committee:
            raise ConfigurationError(
                "a delegated report only adds up work of its own committee"
            )


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
        # Equations (9) and (8) evaluate the decoded polynomials at the alphas
        # and at the omegas: both Vandermonde matrices come from the shared
        # matrix cache, and eq. (9) takes the agreement set's rows of the
        # first, so the cache holds one entry per scheme whatever tau is.
        num_coefficients = scheme.composite_degree(self.transition_degree) + 1
        self._alpha_vandermonde = cached_vandermonde(
            self.field, scheme.alphas, num_coefficients
        )
        self._omega_vandermonde = cached_vandermonde(
            self.field, scheme.omegas, num_coefficients
        )

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
        report = DelegatedRoundReport(
            operation=operation, accepted=True, committee=committee
        )
        batch = self.intermix.run_batch(
            self.scheme.coefficient_matrix, arr, committee=committee
        )
        report.add_batch(batch)
        return self._accepted_columns(batch, self.scheme.num_nodes), report

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
            operation="decode-results", accepted=True, committee=committee
        )
        composite_degree = self.scheme.composite_degree(self.transition_degree)
        agreement_threshold = (self.scheme.num_nodes + composite_degree + 1 + 1) // 2
        decoded = self._decoder.decode_fast(results)
        report.worker_operations += decoded.ops
        coefficients = decoded.coefficients
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
        batch9 = self.intermix.run_batch(
            self._alpha_vandermonde[agreement_set], coefficients, committee=committee
        )
        report.add_batch(batch9)
        report.accepted = report.accepted and np.array_equal(
            batch9.results, results[agreement_set]
        )
        # Equation (8): evaluate the decoded polynomials at the omegas.
        batch8 = self.intermix.run_batch(
            self._omega_vandermonde, coefficients, committee=committee
        )
        report.add_batch(batch8)
        return self._accepted_columns(batch8, self.scheme.num_machines), report

    # -- internals ----------------------------------------------------------------------------------
    @staticmethod
    def _accepted_columns(batch: VerificationBatch, num_rows: int) -> np.ndarray:
        """The batch's results, with every rejected column left at zero."""
        values = np.zeros((num_rows, len(batch)), dtype=np.int64)
        if batch.results is not None:
            values[:, batch.accepted] = batch.results[:, batch.accepted]
        return values
