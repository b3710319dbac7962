"""Decoding of coded computation results back into per-machine outputs.

After the execution step every node has broadcast its coded result
``g_i = f(S~_i, X~_i)``, a vector whose every component is the evaluation at
``alpha_i`` of some polynomial of degree at most ``d(K - 1)``.  The decoder
runs noisy interpolation (Reed–Solomon decoding) independently on each
component, then evaluates the recovered polynomials at the ``omega_k`` to
obtain ``(S_k(t+1), Y_k(t)) = f(S_k(t), X_k(t))`` for every machine ``k``.

Both the synchronous case (all ``N`` results present, up to ``b`` wrong) and
the partially synchronous case (``b`` results missing *and* up to ``b`` of the
present ones wrong) are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DecodingError, FieldError
from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.erasure import ErasureDecoder
from repro.coding.gao import GaoDecoder
from repro.coding.reed_solomon import ReedSolomonCode
from repro.gf.matrix_cache import cached_interpolation_matrix, cached_transfer_matrix
from repro.gf.polynomial import Poly
from repro.lcc.scheme import LagrangeScheme


@dataclass
class DecodedRound:
    """Result of decoding one round of coded computations.

    Attributes
    ----------
    outputs:
        Array of shape ``(K, result_dim)``: row ``k`` is the true result
        ``f(S_k, X_k)`` for machine ``k``.
    polynomials:
        The recovered composite polynomial for each result component.
    error_nodes:
        Node indices whose contributed results were found to be erroneous in
        at least one component (the set the protocol may flag as suspects).
    """

    outputs: np.ndarray
    polynomials: list[Poly]
    error_nodes: tuple[int, ...]


class CodedResultDecoder:
    """Noisy-interpolation decoder bound to a :class:`LagrangeScheme`."""

    def __init__(
        self,
        scheme: LagrangeScheme,
        transition_degree: int,
        decoder: str = "berlekamp-welch",
    ) -> None:
        if transition_degree < 1:
            raise FieldError(
                f"transition degree must be at least 1, got {transition_degree}"
            )
        if decoder not in ("berlekamp-welch", "gao"):
            raise FieldError(f"unknown decoder '{decoder}'")
        self.scheme = scheme
        self.field = scheme.field
        self.transition_degree = int(transition_degree)
        self.decoder_kind = decoder
        self.code = ReedSolomonCode(
            scheme.field,
            scheme.alphas,
            scheme.decoding_dimension(transition_degree),
        )
        self._error_decoder = (
            BerlekampWelchDecoder(self.code)
            if decoder == "berlekamp-welch"
            else GaoDecoder(self.code)
        )
        self._erasure_decoder = ErasureDecoder(self.code)

    # -- public API -------------------------------------------------------------------
    @property
    def max_errors(self) -> int:
        """Errors correctable when all results are present."""
        return self.code.correction_radius

    def decode(self, coded_results: np.ndarray) -> DecodedRound:
        """Decode a full set of ``N`` coded results (synchronous setting).

        ``coded_results`` has shape ``(N, result_dim)``; up to
        ``max_errors`` rows may be arbitrary garbage.
        """
        results = self.field.array(coded_results)
        if results.ndim == 1:
            results = results.reshape(-1, 1)
        if results.shape[0] != self.scheme.num_nodes:
            raise DecodingError(
                f"expected {self.scheme.num_nodes} coded results, got {results.shape[0]}"
            )
        polynomials: list[Poly] = []
        error_nodes: set[int] = set()
        outputs = np.zeros(
            (self.scheme.num_machines, results.shape[1]), dtype=np.int64
        )
        for component in range(results.shape[1]):
            decoded = self._error_decoder.decode(results[:, component])
            polynomials.append(decoded.polynomial)
            error_nodes.update(decoded.error_positions)
            outputs[:, component] = decoded.polynomial.evaluate_many(self.scheme.omegas)
        return DecodedRound(
            outputs=outputs,
            polynomials=polynomials,
            error_nodes=tuple(sorted(error_nodes)),
        )

    def decode_fast(
        self,
        coded_results: "np.ndarray | list[np.ndarray | None]",
        suspects: set[int] | None = None,
    ) -> DecodedRound:
        """Decode one round through the cached-matrix fast path.

        Instead of solving a Berlekamp–Welch system per component, the fast
        path interpolates a candidate polynomial through ``dimension`` pivot
        rows (one cached-matrix product for all components at once), re-encodes
        it at every point (a second product) and accepts any component whose
        mismatch count fits the erasure/error budget ``2e <= present - K`` —
        by the uniqueness of the codeword within that radius the candidate
        *is* the Berlekamp–Welch answer.  Components that exceed the budget
        (e.g. because a faulty node sat among the pivots) fall back to the
        scalar decoders, so results are always bit-identical to
        :meth:`decode` / :meth:`decode_partial`.

        ``suspects`` is the engine's persistent set of node indices caught
        erring in earlier components or rounds; pivots avoid them, which is
        what reduces a faulty batch to a single scalar decode per new fault
        pattern.  The set is updated in place with every error found.
        """
        if suspects is None:
            suspects = set()
        num_nodes = self.scheme.num_nodes
        if isinstance(coded_results, np.ndarray):
            matrix = self.field.array(coded_results)
            if matrix.ndim == 1:
                matrix = matrix.reshape(-1, 1)
            present = list(range(matrix.shape[0]))
        else:
            if len(coded_results) != num_nodes:
                raise DecodingError(
                    f"expected {num_nodes} result slots, got {len(coded_results)}"
                )
            present = [i for i, entry in enumerate(coded_results) if entry is not None]
            if not present:
                raise DecodingError("no coded results available to decode")
            width = self.field.array(coded_results[present[0]]).reshape(-1).shape[0]
            matrix = np.zeros((num_nodes, width), dtype=np.int64)
            for i in present:
                vec = self.field.array(coded_results[i]).reshape(-1)
                if vec.shape[0] != width:
                    raise DecodingError(
                        "all coded results must share the same dimension"
                    )
                matrix[i] = vec
        if matrix.shape[0] != num_nodes:
            raise DecodingError(
                f"expected {num_nodes} coded results, got {matrix.shape[0]}"
            )

        dimension = self.code.dimension
        full_presence = len(present) == num_nodes
        if len(present) < dimension:
            raise DecodingError(
                f"only {len(present)} symbols present, need at least "
                f"{dimension} to decode"
            )
        budget = len(present) - dimension
        present_arr = np.array(present, dtype=np.int64)
        all_points = tuple(int(a) for a in self.scheme.alphas)
        omega_points = tuple(int(w) for w in self.scheme.omegas)

        pivot: list[int] | None = None
        reencoded = candidate_outputs = candidate_coeffs = None
        polynomials: list[Poly] = []
        error_nodes: set[int] = set()
        outputs = np.zeros((self.scheme.num_machines, matrix.shape[1]), dtype=np.int64)
        for component in range(matrix.shape[1]):
            if pivot is None:
                pivot = [i for i in present if i not in suspects][:dimension]
                if len(pivot) < dimension:
                    pivot = present[:dimension]
                pivot_points = tuple(int(self.scheme.alphas[i]) for i in pivot)
                to_all = cached_transfer_matrix(self.field, pivot_points, all_points)
                to_omegas = cached_transfer_matrix(
                    self.field, pivot_points, omega_points
                )
                to_coeffs = cached_interpolation_matrix(self.field, pivot_points)
                sub = matrix[pivot, :]
                reencoded = self.field.matmul(to_all, sub)
                candidate_outputs = self.field.matmul(to_omegas, sub)
                candidate_coeffs = self.field.matmul(to_coeffs, sub)
            row_mismatch = reencoded[present_arr, component] != matrix[present_arr, component]
            errors = [int(present_arr[j]) for j in np.nonzero(row_mismatch)[0]]
            if 2 * len(errors) <= budget:
                outputs[:, component] = candidate_outputs[:, component]
                polynomials.append(Poly(self.field, candidate_coeffs[:, component]))
                error_nodes.update(errors)
                suspects.update(errors)
                continue
            # Fast path inconclusive for this component (errors among the
            # pivots, or genuinely past the radius): scalar decode decides.
            if full_presence:
                decoded = self._error_decoder.decode(matrix[:, component])
            else:
                column: list[int | None] = [None] * num_nodes
                for i in present:
                    column[i] = int(matrix[i, component])
                decoded = self._erasure_decoder.decode_with_erasures(column)
            polynomials.append(decoded.polynomial)
            error_nodes.update(decoded.error_positions)
            suspects.update(decoded.error_positions)
            outputs[:, component] = decoded.polynomial.evaluate_many(self.scheme.omegas)
            if any(index in suspects for index in pivot):
                pivot = None  # re-pivot away from the newly learnt suspects
        return DecodedRound(
            outputs=outputs,
            polynomials=polynomials,
            error_nodes=tuple(sorted(error_nodes)),
        )

    def pivot_rows(self, present: "list[int]", suspects: set[int]) -> list[int]:
        """The interpolation pivot the fast path derives from ``suspects``.

        First ``dimension`` present non-suspect rows, falling back to the
        first ``dimension`` present rows when too few remain — exactly the
        rule :meth:`decode_fast` applies, factored out so the speculative
        execution pipeline picks bit-identical pivots.
        """
        dimension = self.code.dimension
        pivot = [i for i in present if i not in suspects][:dimension]
        if len(pivot) < dimension:
            pivot = list(present[:dimension])
        return pivot

    def pivot_matrices(
        self, pivot: "list[int]"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(to_all, to_omegas, to_coeffs)`` maps for one pivot set."""
        pivot_points = tuple(int(self.scheme.alphas[i]) for i in pivot)
        all_points = tuple(int(a) for a in self.scheme.alphas)
        omega_points = tuple(int(w) for w in self.scheme.omegas)
        return (
            cached_transfer_matrix(self.field, pivot_points, all_points),
            cached_transfer_matrix(self.field, pivot_points, omega_points),
            cached_interpolation_matrix(self.field, pivot_points),
        )

    def stacked_verification(
        self, stacked: np.ndarray, reencoded: np.ndarray, width: int
    ) -> tuple[list[tuple[int, ...]], int | None]:
        """Walk a stacked run of full-presence rounds against the error budget.

        ``stacked`` is ``width``-column rounds hstacked to ``(N, B * width)``;
        ``reencoded`` is the pivot candidate re-encoded at every point.
        Returns ``(confirmed_error_nodes, rollback_offset)``: one error-node
        tuple per round of the maximal confirmed prefix, and the offset of
        the first round with an over-budget component (``None`` when the
        whole run confirmed).  This is the acceptance rule of
        :meth:`decode_fast` — ``2e <= present - dimension``, the uniqueness
        radius — factored out for the execution engine's speculative window
        resolution.
        """
        budget = stacked.shape[0] - self.code.dimension
        mismatch = reencoded != stacked
        if not mismatch.any():  # fault-free run: every round confirms clean
            return [()] * (stacked.shape[1] // width), None
        errors_per_column = mismatch.sum(axis=0)
        confirmed: list[tuple[int, ...]] = []
        for offset in range(stacked.shape[1] // width):
            columns = slice(offset * width, (offset + 1) * width)
            if np.any(2 * errors_per_column[columns] > budget):
                return confirmed, offset
            rows = np.nonzero(mismatch[:, columns].any(axis=1))[0]
            confirmed.append(tuple(int(i) for i in rows))
        return confirmed, None

    def decode_batch(
        self,
        rounds: "np.ndarray | list[np.ndarray | list[np.ndarray | None]]",
        suspects: set[int] | None = None,
    ) -> list[DecodedRound]:
        """Decode a batch of rounds: :meth:`decode_fast`, round by round.

        ``rounds`` is a ``(B, N, result_dim)`` array (full presence) or a list
        whose entries are per-round result matrices / ``None``-marked lists
        (partially synchronous rounds).  A single ``suspects`` set is threaded
        through the whole batch, so a persistent fault pattern costs one
        scalar decode in total rather than one per component per round.
        """
        if suspects is None:
            suspects = set()
        if isinstance(rounds, np.ndarray) and rounds.ndim == 2:
            rounds = rounds[None, :, :]
        return [self.decode_fast(entry, suspects) for entry in rounds]

    def decode_partial(
        self, coded_results: list[np.ndarray | None]
    ) -> DecodedRound:
        """Decode when some results are missing (partially synchronous setting).

        ``coded_results`` is a length-``N`` list whose missing entries are
        ``None``; present entries are result vectors.  Decoding succeeds as
        long as ``2 * errors <= present - dimension`` for every component,
        which matches the paper's ``3b + 1 <= N - d(K - 1)`` bound when
        ``b`` nodes are silent and ``b`` present results are wrong.
        """
        if len(coded_results) != self.scheme.num_nodes:
            raise DecodingError(
                f"expected {self.scheme.num_nodes} result slots, got {len(coded_results)}"
            )
        present = [r for r in coded_results if r is not None]
        if not present:
            raise DecodingError("no coded results available to decode")
        result_dim = self.field.array(present[0]).reshape(-1).shape[0]
        polynomials: list[Poly] = []
        error_nodes: set[int] = set()
        outputs = np.zeros((self.scheme.num_machines, result_dim), dtype=np.int64)
        for component in range(result_dim):
            column: list[int | None] = []
            for entry in coded_results:
                if entry is None:
                    column.append(None)
                else:
                    vec = self.field.array(entry).reshape(-1)
                    if vec.shape[0] != result_dim:
                        raise DecodingError(
                            "all coded results must share the same dimension"
                        )
                    column.append(int(vec[component]))
            decoded = self._erasure_decoder.decode_with_erasures(column)
            polynomials.append(decoded.polynomial)
            error_nodes.update(decoded.error_positions)
            outputs[:, component] = decoded.polynomial.evaluate_many(self.scheme.omegas)
        return DecodedRound(
            outputs=outputs,
            polynomials=polynomials,
            error_nodes=tuple(sorted(error_nodes)),
        )
