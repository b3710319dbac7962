"""The coded execution phase (Section 5.2).

Given the commands agreed in the consensus phase, the engine:

1. has every node form its coded command ``X~_i`` and compute the coded
   result ``g_i = f(S~_i, X~_i)`` (each node charged its share by shape);
2. collects the results each (honest) node would receive — Byzantine nodes
   may corrupt, equivocate, delay, or stay silent;
3. runs noisy polynomial interpolation (Reed–Solomon decoding) to recover
   the composite polynomial ``h`` and evaluates it at the ``omega_k`` to
   obtain every machine's true ``(S_k(t+1), Y_k(t))``;
4. has every honest node update its coded state with its own coefficient
   row (equation (1));
5. reports per-node operation counts for the throughput metric.

A round is ``correct`` when it decodes within the radius — what the nodes
themselves can observe.  The engine runs no uncoded machine beside the coded
one: a round that fails to decode advances nothing, and the engine keeps only
the last decoded states.  Beyond the radius a crafted corruption can decode,
and verify, to a wrong output that is then delivered; the paper promises
nothing there, and the replaying checker of :mod:`repro.analysis.safety` is
what flags it.

Both the synchronous rule (decode from all ``N`` results, up to ``b`` wrong)
and the partially synchronous rule (decode from ``N - b`` results, up to
``b`` of them wrong — silent nodes become erasures) are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DecodingError
from repro.gf import charges
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme
from repro.machine.interface import StateMachine
from repro.net.byzantine import ByzantineBehavior, HonestBehavior, faulty_reports
from repro.core.config import CSMConfig
from repro.core.node import CSMNode
from repro.rng import default_stream
from repro.rounds import RoundResult, command_batch


def check_verify_window(verify_window: int) -> None:
    """A speculative verification window holds at least one round."""
    if verify_window < 1:
        raise ConfigurationError(f"verify_window must be positive, got {verify_window}")


@dataclass
class _SpeculativeRound:
    """A round executed speculatively, awaiting its deferred verification.

    ``matrix`` is the full-presence reported-result matrix the round's
    speculative decode was based on; ``faulty_rows`` caches the Byzantine
    nodes' transformed rows so a rollback replay re-uses them instead of
    re-drawing from the rng stream (which would desynchronise it from the
    batched path and break bit-identity).  ``ops`` is the per-node tally up
    to and including the speculative refresh; ``pivot_entry`` the
    :meth:`CodedExecutionEngine._pipeline_pivot_cache` entry speculated on.
    """

    batch_index: int
    coded_commands: np.ndarray
    matrix: np.ndarray
    faulty_rows: dict
    ops: np.ndarray
    pivot_entry: tuple


class CodedExecutionEngine:
    """Executes CSM rounds over an in-memory bank of nodes."""

    def __init__(
        self,
        config: CSMConfig,
        machine: StateMachine,
        node_ids: list[str] | None = None,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if machine.degree != config.degree:
            raise ConfigurationError(
                f"configuration degree {config.degree} does not match the machine's "
                f"transition degree {machine.degree}"
            )
        self.config = config
        self.machine = machine
        self.field = config.field
        self.rng = rng if rng is not None else default_stream()
        self.node_ids = list(node_ids) if node_ids is not None else [
            f"node-{i}" for i in range(config.num_nodes)
        ]
        if len(self.node_ids) != config.num_nodes:
            raise ConfigurationError(
                f"expected {config.num_nodes} node ids, got {len(self.node_ids)}"
            )
        self.behaviors = dict(behaviors or {})
        self.scheme = LagrangeScheme(
            self.field, config.num_machines, config.num_nodes
        )
        self.encoder = CodedStateEncoder(self.scheme)
        self.decoder = CodedResultDecoder(self.scheme, transition_degree=config.degree)
        # The last decoded states, shape (K, state_dim): what a failed round
        # reports, what a resynced node re-encodes and what a pipelined
        # rollback restores the honest rows to.
        self.states = np.tile(machine.initial_state, (config.num_machines, 1))
        # The one resident copy of the coded states, shape (N, state_dim):
        # row i *is* node i's storage (CodedStateStore adopts the canonical
        # row it is given), so the stacked rounds evaluate and refresh the
        # bank directly and a node's store always reads the current row.
        self._bank = self.encoder.encode(self.states)
        self.nodes: list[CSMNode] = [
            CSMNode(
                node_id=node_id,
                node_index=index,
                field=self.field,
                transition=machine.transition,
                coefficient_row=self.scheme.coefficient_row(index),
                initial_coded_state=self._bank[index],
                behavior=self.behaviors.get(node_id, HonestBehavior()),
            )
            for index, node_id in enumerate(self.node_ids)
        ]
        self.round_index = 0
        # Node indices caught reporting erroneous results; the batched decode
        # fast path avoids picking these as interpolation pivots (see
        # CodedResultDecoder.decode_fast).
        self._suspects: set[int] = set()
        # pivot -> entry of _pipeline_pivot_cache.
        self._fused_refresh_cache: dict[tuple, tuple] = {}
        # The first round index of the pipelined call in flight.
        self._pipeline_round_base = 0

    # -- structural metrics --------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def num_machines(self) -> int:
        return self.config.num_machines

    @property
    def num_faulty(self) -> int:
        return sum(1 for node in self.nodes if node.is_faulty)

    @property
    def storage_efficiency(self) -> float:
        """gamma = (K states of data) / (one coded state per node) = K."""
        return float(self.num_machines)

    def honest_nodes(self) -> list[CSMNode]:
        return [node for node in self.nodes if not node.is_faulty]

    def node_by_id(self, node_id: str) -> CSMNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ConfigurationError(f"unknown node id {node_id}")

    def resync_node(self, node_id: str) -> None:
        """Re-install a node's coded state from the last decoded states.

        The state-transfer step of crash recovery (and of a Byzantine burst
        ending): a node that sat out — or corrupted — rounds never refreshed
        its coded row, so before it can contribute to decoding again it must
        re-encode the states the honest nodes last decoded, as a replica's
        state transfer would.  Uncounted (out-of-band repair,
        not part of the per-round cost model); also clears the node from the
        decoder's suspect set, since its row is now trustworthy.
        """
        node = self.node_by_id(node_id)
        coded = self.encoder.encode(self.states)
        node.storage.replace(coded[node.node_index])
        self._suspects.discard(node.node_index)

    # -- round execution ------------------------------------------------------------------
    def execute_round(self, commands: np.ndarray) -> RoundResult:
        """One round of ``(K, command_dim)`` agreed commands: a batch of one."""
        (result,) = self.execute_rounds(np.asarray(commands)[None])
        return result

    def execute_rounds(self, commands_batch: np.ndarray) -> list[RoundResult]:
        """Run a batch of ``B`` rounds through the cached-matrix pipeline.

        ``commands_batch`` has shape ``(B, K, command_dim)`` (a single
        ``(K, command_dim)`` round is promoted to a batch of one).  Per
        batch:

        * all ``B * N`` coded commands come from **one** ``GF(p)``
          matrix–matrix product with the cached coefficient matrix;
        * decoding runs through :meth:`CodedResultDecoder.decode_fast` with a
          persistent suspect set, so a stable fault pattern costs one scalar
          Berlekamp–Welch decode for the whole batch instead of one per
          component per round;
        * the honest nodes' coded-state refresh is one matrix product per
          round.

        The coded execution itself stays sequential: round ``t + 1``
        operates on coded states refreshed from round ``t``'s decode.  Every
        node is charged the encode, transition and refresh operations it
        would spend doing its own part of the round, and every honest node
        the one decode all honest nodes perform; the per-node round of
        ``tests/reference/coded_round.py`` is the oracle for both the
        records and those charges.

        Rounds need not carry one *real* command per machine: the service
        scheduler pads idle machines' rows with
        :meth:`StateMachine.noop_command` (an identity transition for the
        library machines), and a noop row is coded, executed and decoded
        exactly like any other command — ragged traffic costs nothing extra
        in this pipeline.
        """
        batch_arr = command_batch(self.machine, self.num_machines, commands_batch)
        # Stage 1: encode every round's commands in one matrix product.  The
        # product itself is charged to no one; each node is charged the operations it
        # would have spent encoding its own coded command (the batched
        # pipeline changes who *performs* the multiply, not the per-node
        # protocol cost model).
        coded_commands = self.encoder.encode_batch(batch_arr)
        results: list[RoundResult] = []
        for b in range(batch_arr.shape[0]):
            ops = self._round_ops()
            true_results = self._coded_step(coded_commands[b], ops)
            faulty_rows = self._draw_faulty_rows(true_results)
            results.append(
                self._resolve_round(
                    self.round_index, self._reported(true_results, faulty_rows), ops
                )
            )
            self.round_index += 1
        return results

    # -- speculative pipelined execution -------------------------------------------------
    def execute_rounds_pipelined(
        self, commands_batch: np.ndarray, verify_window: int = 16
    ) -> list[RoundResult]:
        """Run ``B`` rounds with decoding of round ``t`` overlapped past ``t+1``.

        The batched pipeline of :meth:`execute_rounds` still pays a full
        suspect-learning decode on every round's critical path before the
        next round may execute.  This mode splits each full-presence round
        into two phases:

        * a cheap **speculative** phase: interpolate a candidate through the
          ``dimension`` non-suspect pivot rows only (one small matrix
          product), refresh the honest coded states from the candidate
          immediately, and let round ``t + 1`` execute on them;
        * a deferred **verify** phase: once a verification window fills, the
          full error-locating re-encode check runs for the whole window as
          **one** stacked matrix product.  A window whose components all fit
          the error budget confirms that every speculative candidate *was*
          the unique decoding (same uniqueness argument as
          :meth:`~repro.lcc.decoder.CodedResultDecoder.decode_fast`), so the
          speculated state advance already matches the batched path bit for
          bit.

        On a verification mismatch the engine rolls back: the first
        unconfirmed round is decoded through the suspect-learning
        :meth:`~repro.lcc.decoder.CodedResultDecoder.decode_fast`, the
        honest coded states are restored from the last verified checkpoint
        (the last decoded states), and the invalidated suffix of
        the window is deterministically re-executed — honest results are
        recomputed from the repaired states while the Byzantine rows and
        the rng stream are replayed from the speculation-time cache.  The
        verification window grows adaptively (1, 2, 4, ... up to
        ``verify_window``) and collapses back to 1 after a rollback, so a
        cold-start or fresh fault pattern costs at most one mis-speculated
        window before the suspect set catches up.

        Rounds with missing results (silent/delayed nodes) flush the window
        and resolve inline through the erasure-capable decode, exactly as
        the batched path would.

        The returned :class:`RoundResult` records carry outputs, states,
        correctness flags and flagged error nodes bit-identical to
        :meth:`execute_rounds` (property-tested, including rollback).  Only
        the *operation counts* differ — each round is charged the
        speculative interpolation plus an even share of its window's
        stacked verification instead of a full per-round decode, which is
        precisely the cost the pipeline removes.
        """
        check_verify_window(verify_window)
        batch_arr = command_batch(self.machine, self.num_machines, commands_batch)
        coded_commands = self.encoder.encode_batch(batch_arr)
        num_rounds = batch_arr.shape[0]
        results: list[RoundResult | None] = [None] * num_rounds
        window: list[_SpeculativeRound] = []
        self._pipeline_round_base = self.round_index
        window_target = 1
        pivot_cache: tuple | None = None
        state_dim = self.machine.state_dim
        for b in range(num_rounds):
            ops = self._round_ops()
            true_results = self._coded_step(coded_commands[b], ops)
            faulty_rows = self._draw_faulty_rows(true_results)
            if any(row is None for row in faulty_rows.values()):
                # Partial presence: flush speculation, then resolve this
                # round inline through the erasure-capable decode.  If the
                # flush rolled back, this round's honest results were
                # computed on the mis-speculated bank: recompute them on the
                # repaired states (the tally re-charges exactly as a
                # replay does; Byzantine rows and the rng stream come from
                # the cache, so no draw is repeated).
                window_target, rolled_back = self._resolve_pipeline_window(
                    window, results, window_target, verify_window
                )
                pivot_cache = None
                if rolled_back:
                    ops = self._round_ops()
                    true_results = self._coded_step(coded_commands[b], ops)
                results[b] = self._resolve_round(
                    self._pipeline_round_base + b,
                    self._reported(true_results, faulty_rows),
                    ops,
                    "inline",
                )
                continue
            matrix = self._reported(true_results, faulty_rows)
            if pivot_cache is None:
                pivot_cache = self._pipeline_pivot_cache()
            pivot, fused_refresh = pivot_cache[:2]
            # Fused speculative decode + refresh: ``(C @ T_omega) @ sub`` is
            # the same canonical product as refreshing from the interpolated
            # candidate states, in one matrix multiply; the entry's
            # ``spec_ops`` charges the interpolation the fusion absorbed.
            self._refresh_honest_states(
                self.field.matmul(fused_refresh, matrix[pivot, :state_dim])
            )
            self._charge_refresh(ops)
            window.append(
                _SpeculativeRound(b, coded_commands[b], matrix, faulty_rows, ops, pivot_cache)
            )
            if len(window) >= min(window_target, verify_window):
                next_target, rolled_back = self._resolve_pipeline_window(
                    window, results, window_target, verify_window
                )
                if rolled_back or next_target != window_target:
                    pivot_cache = None  # suspects may have shifted the pivot
                window_target = next_target
        self._resolve_pipeline_window(window, results, window_target, verify_window)
        self.round_index = self._pipeline_round_base + num_rounds
        return results

    def _resolve_pipeline_window(
        self,
        window: list[_SpeculativeRound],
        results: list,
        window_target: int,
        verify_window: int,
    ) -> tuple[int, bool]:
        """Verify a window of speculated rounds.

        One stacked re-encode product checks every component of every round
        in the window against the error budget.  Confirmed rounds emit their
        (already-installed) speculative result; the first unconfirmed round
        triggers the rollback path and the suffix replay.  Returns
        ``(next_window_target, rolled_back)`` — callers must recompute
        anything derived from the speculative state bank when a rollback
        repaired it.
        """
        if not window:
            return window_target, False
        state_dim = self.machine.state_dim
        pivot, _fused, spec_ops, to_all, to_omegas = window[0].pivot_entry
        stacked = (
            window[0].matrix
            if len(window) == 1
            else np.hstack([entry.matrix for entry in window])
        )
        sub = stacked[pivot, :]
        reencoded = self.field.matmul(to_all, sub)
        candidates = self.field.matmul(to_omegas, sub)
        width = window[0].matrix.shape[1]
        confirmed, rollback_at = self.decoder.stacked_verification(
            stacked, reencoded, width
        )
        verify_share = sum(
            charges.matmul(rows, sub.shape[0], sub.shape[1])
            for rows in (self.num_nodes, self.num_machines)
        ) // len(window)
        for offset, error_nodes in enumerate(confirmed):
            entry = window[offset]
            columns = slice(offset * width, (offset + 1) * width)
            self._suspects.update(error_nodes)
            candidate = np.ascontiguousarray(candidates[:, columns])
            results[entry.batch_index] = self._round_result(
                self._pipeline_round_base + entry.batch_index,
                candidate,
                error_nodes,
                entry.ops,
                spec_ops + verify_share,
                {"batched": True, "pipelined": True, "speculation": "confirmed"},
            )
            for node in self.honest_nodes():
                node.storage.note_refresh()
            self.states = candidate[:, :state_dim]
        if rollback_at is None:
            window.clear()
            return min(window_target * 2, verify_window), False
        # Rollback: the offending round decodes through decode_fast
        # (repairing or restoring honest state), then the invalidated
        # suffix re-executes deterministically on the repaired states:
        # honest results are recomputed (their speculative inputs were
        # wrong) while Byzantine rows come from the speculation-time cache,
        # so no rng draw is repeated and the reported matrix matches the
        # batched path's.
        entry = window[rollback_at]
        results[entry.batch_index] = self._resolve_round(
            self._pipeline_round_base + entry.batch_index,
            entry.matrix,
            entry.ops,
            "rollback",
        )
        for entry in window[rollback_at + 1 :]:
            ops = self._round_ops()
            true_results = self._coded_step(entry.coded_commands, ops)
            results[entry.batch_index] = self._resolve_round(
                self._pipeline_round_base + entry.batch_index,
                self._reported(true_results, entry.faulty_rows),
                ops,
                "replayed",
            )
        window.clear()
        return 1, True

    def _resolve_round(
        self,
        round_index: int,
        reported: "np.ndarray | list[np.ndarray | None]",
        ops: np.ndarray,
        speculation: str | None = None,
    ) -> RoundResult:
        """Steps 3-5 of one stacked round: decode, settle honest state, account.

        The one non-speculative round completion: every batched round
        (``speculation=None``) and the pipelined driver's inline
        partial-presence, rollback and replayed rounds decode through the
        suspect-learning fast path and refresh every honest row of the bank
        in one write.  ``ops`` is the round's per-node tally so far.  A
        rollback round's speculative refresh already charged ``chi_i`` (so
        repairing the installed values must not charge it twice).  A round
        that fails to decode advances nothing: the honest rows keep (a
        rollback round restores) the encoding of the last decoded states.
        """
        extras: dict = {"batched": True}
        if speculation is not None:
            extras.update(pipelined=True, speculation=speculation)
        try:
            decoded = self.decoder.decode_fast(reported, self._suspects)
        except DecodingError as exc:
            if speculation == "rollback":
                self._restore_honest_states()
            extras["decoding_error"] = str(exc)
            return self._round_result(
                round_index, self._unadvanced(), (), ops, exc.ops, extras,
                decoding_failed=True,
            )
        self.states = decoded.outputs[:, : self.machine.state_dim]
        self._refresh_honest_states(self._encode_states(self.states))
        for node in self.honest_nodes():
            node.storage.note_refresh()
        if speculation != "rollback":
            self._charge_refresh(ops)
        return self._round_result(
            round_index, decoded.outputs, decoded.error_nodes, ops, decoded.ops, extras
        )

    def _round_result(
        self,
        round_index: int,
        decoded_outputs: np.ndarray,
        error_nodes: tuple[int, ...],
        ops: np.ndarray,
        decode_ops: int,
        extras: dict,
        decoding_failed: bool = False,
    ) -> RoundResult:
        """The record of one stacked round, correct when it decoded.

        Every honest node performs the (identical) decoding, so a decode
        that succeeded is charged to each of them on top of the round's
        per-node tally ``ops``.
        """
        state_dim = self.machine.state_dim
        if not decoding_failed:
            ops[self._honest_rows()] += decode_ops
        return RoundResult(
            round_index=round_index,
            outputs=decoded_outputs[:, state_dim:],
            states=decoded_outputs[:, :state_dim].copy(),
            correct=not decoding_failed,
            ops_per_node={
                node.node_id: total for node, total in zip(self.nodes, ops.tolist())
            },
            diagnostics={
                "error_nodes": tuple(error_nodes),
                "num_faulty": self.num_faulty,
                "decoding_failed": decoding_failed,
                "decode_ops": decode_ops,
                **extras,
            },
        )

    def _pipeline_pivot_cache(self) -> tuple:
        """``(pivot, C @ T_omega, spec_ops, T_all, T_omega)`` for the current suspects.

        The fused matrix maps pivot rows straight to refreshed coded states;
        it is memoised per pivot (suspect churn across a run touches only a
        handful of pivots) beside the two transfer matrices the window
        verification multiplies by.  ``spec_ops`` is the operation count of
        the candidate-state interpolation the fusion absorbs — the cost each
        speculative round charges as its decode share.
        """
        pivot = self.decoder.pivot_rows(list(range(self.num_nodes)), self._suspects)
        key = tuple(pivot)
        entry = self._fused_refresh_cache.get(key)
        if entry is None:
            to_all, to_omegas, _ = self.decoder.pivot_matrices(pivot)
            fused = self.field.matmul(self.scheme.coefficient_matrix, to_omegas)
            spec_ops = charges.matmul(
                self.num_machines, self.decoder.code.dimension, self.machine.state_dim
            )
            entry = self._fused_refresh_cache[key] = (
                pivot, fused, spec_ops, to_all, to_omegas
            )
        return entry

    def _round_ops(self) -> np.ndarray:
        """A stacked round's per-node operation tally, opened with ``rho_i``.

        Every node is charged the ``K`` multiplications and ``K - 1``
        additions per command component of forming its own coded command —
        the one place the encode charging formula lives for the batched
        round loop, the speculative rounds and every replay.
        """
        encode = self.machine.command_dim * charges.dot(self.num_machines)
        return np.full(self.num_nodes, encode, dtype=np.int64)

    def _honest_rows(self) -> list[int]:
        return [node.node_index for node in self.nodes if not node.is_faulty]

    def _coded_step(self, coded_commands: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Evaluate every node's coded transition in one stacked pass.

        One :meth:`~repro.machine.polynomial_machine.PolynomialTransition.\
evaluate_result_vectors` over the whole bank (faulty nodes keep computing on
        their — possibly stale — row) against the round's coded commands; row
        ``i`` is node ``i``'s coded result, and every node's entry of ``ops``
        is charged one evaluation of ``f`` (the transition's ``row_cost``).
        """
        ops += sum(self.machine.transition.row_cost)
        return self.machine.transition.evaluate_result_vectors(self._bank, coded_commands)

    def _draw_faulty_rows(self, true_results: np.ndarray) -> dict:
        """What each Byzantine node reports this round (``None``: nothing).

        The shared fault-report rule (:func:`~repro.net.byzantine.\
faulty_reports`) over one row per node, in node order.  The rows are kept
        apart from the honest stack so a rollback replay can re-use them
        without re-drawing.
        """
        senders = [
            (node.node_index, node.node_id, node.behavior)
            for node in self.nodes
            if node.is_faulty
        ]
        return faulty_reports(self.field, senders, true_results, self.rng)

    def _reported(
        self, true_results: np.ndarray, faulty_rows: dict
    ) -> "np.ndarray | list[np.ndarray | None]":
        """The round as the network sees it: honest rows from the stack,
        Byzantine rows over them — a matrix at full presence, else a list
        with ``None`` at the missing senders."""
        if not faulty_rows:
            return true_results
        if any(row is None for row in faulty_rows.values()):
            return [
                faulty_rows[i] if i in faulty_rows else true_results[i]
                for i in range(self.num_nodes)
            ]
        matrix = true_results.copy()
        for index, row in faulty_rows.items():
            matrix[index] = row
        return matrix

    def _encode_states(self, decoded_states: np.ndarray) -> np.ndarray:
        """``C @ decoded_states``: all ``N`` next coded states at once."""
        return self.field.matmul(self.scheme.coefficient_matrix, decoded_states)

    def _refresh_honest_states(self, coded: np.ndarray) -> None:
        """Write the honest rows of ``coded`` (``(N, state_dim)``) into the bank.

        Step 4 (``chi_i`` of equation (1)) at every honest node at once: the
        bank rows *are* the nodes' stores, so one write refreshes them all.
        It serves resolved rounds, the fused speculative advance and the
        checkpoint restore alike.  The stores count nothing here; a round is
        counted (:meth:`~repro.core.storage.CodedStateStore.note_refresh`)
        once it is resolved or its speculation confirmed.
        """
        rows = self._honest_rows()
        self._bank[rows] = coded[rows]

    def _charge_refresh(self, ops: np.ndarray) -> None:
        """Each honest node pays the ``chi_i`` re-encoding a refresh replaces."""
        ops[self._honest_rows()] += self.machine.state_dim * charges.dot(self.num_machines)

    def _restore_honest_states(self) -> None:
        """Roll honest coded states back to the last verified checkpoint:
        the encoding of the last decoded states."""
        self._refresh_honest_states(self._encode_states(self.states))

    def _unadvanced(self) -> np.ndarray:
        """A failed round's ``(K, result_dim)`` record: the last decoded
        states, and no output."""
        unadvanced = np.zeros(
            (self.num_machines, self.machine.transition.result_dim), dtype=np.int64
        )
        unadvanced[:, : self.machine.state_dim] = self.states
        return unadvanced
