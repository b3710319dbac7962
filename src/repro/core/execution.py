"""The coded execution phase (Section 5.2).

Given the commands agreed in the consensus phase, the engine:

1. has every node form its coded command ``X~_i`` and compute the coded
   result ``g_i = f(S~_i, X~_i)`` (operation-counted per node);
2. collects the results each (honest) node would receive — Byzantine nodes
   may corrupt, equivocate, delay, or stay silent;
3. runs noisy polynomial interpolation (Reed–Solomon decoding) to recover
   the composite polynomial ``h`` and evaluates it at the ``omega_k`` to
   obtain every machine's true ``(S_k(t+1), Y_k(t))``;
4. has every honest node update its coded state with its own coefficient
   row (equation (1));
5. verifies the recovered values against the reference (uncoded) execution
   and reports per-node operation counts for the throughput metric.

Both the synchronous rule (decode from all ``N`` results, up to ``b`` wrong)
and the partially synchronous rule (decode from ``N - b`` results, up to
``b`` of them wrong — silent nodes become erasures) are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DecodingError
from repro.gf.field import OperationCounter
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme
from repro.machine.interface import StateMachine
from repro.net.byzantine import ByzantineBehavior, HonestBehavior
from repro.replication.base import BatchExecutionMixin, RoundResult
from repro.core.config import CSMConfig
from repro.core.node import CSMNode
from repro.rng import default_stream


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
    reference: np.ndarray
    ops: np.ndarray
    pivot_entry: tuple


class CodedExecutionEngine(BatchExecutionMixin):
    """Executes CSM rounds over an in-memory bank of nodes."""

    def __init__(
        self,
        config: CSMConfig,
        machine: StateMachine,
        node_ids: list[str] | None = None,
        behaviors: dict[str, ByzantineBehavior] | None = None,
        rng: np.random.Generator | None = None,
        decoder: str = "berlekamp-welch",
        decode_at_every_node: bool = False,
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
        self.decode_at_every_node = bool(decode_at_every_node)
        self.node_ids = list(node_ids) if node_ids else [
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
        self.decoder = CodedResultDecoder(
            self.scheme, transition_degree=config.degree, decoder=decoder
        )
        # Reference (true) states; shape (K, state_dim).
        self.states = np.tile(machine.initial_state, (config.num_machines, 1))
        # The one resident copy of the coded states, shape (N, state_dim):
        # row i *is* node i's storage (CodedStateStore adopts the canonical
        # row it is given), so the stacked rounds evaluate and refresh the
        # bank directly while the scalar per-node path reads and writes the
        # same memory.
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
        # Rollback anchors of the pipelined call in flight: its first round
        # index, the bank entering it, and the decoded states of the last
        # resolved round that refreshed (None until one has).
        self._pipeline_round_base = 0
        self._pipeline_initial_bank: np.ndarray | None = None
        self._pipeline_resolved_refresh: np.ndarray | None = None
        # When True, a round that fails verification (or fails to decode)
        # advances *nothing*: the reference states stay put and honest nodes
        # keep their coded states, so resubmitting the same commands is
        # idempotent.  The service retry path enables this; the default False
        # preserves the legacy "the true machines move on regardless" rule.
        self.freeze_on_failure = False

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
        """Re-install a node's coded state from the current reference states.

        The state-transfer step of crash recovery (and of a Byzantine burst
        ending): a node that sat out — or corrupted — rounds never refreshed
        its coded row, so before it can contribute to decoding again it must
        re-encode the current true states.  Uncounted (out-of-band repair,
        not part of the per-round cost model); also clears the node from the
        decoder's suspect set, since its row is now trustworthy.
        """
        node = self.node_by_id(node_id)
        coded = self.encoder.encode(self.states)
        node.storage.replace(coded[node.node_index])
        self._suspects.discard(node.node_index)

    # -- round execution ------------------------------------------------------------------
    def execute_round(self, commands: np.ndarray) -> RoundResult:
        """Run the coded execution phase for one agreed command vector."""
        commands_arr = self._check_commands(commands)
        for node in self.nodes:
            node.reset_counter()
        # Step 1-2: every node encodes its command and computes on coded data.
        true_results = np.zeros(
            (self.num_nodes, self.machine.transition.result_dim), dtype=np.int64
        )
        for node in self.nodes:
            coded_command = node.encode_command(commands_arr)
            true_results[node.node_index] = node.execute_coded(coded_command)
        return self._complete_round(commands_arr, true_results)

    def execute_rounds(self, commands_batch: np.ndarray) -> list[RoundResult]:
        """Run a batch of ``B`` rounds through the cached-matrix pipeline.

        ``commands_batch`` has shape ``(B, K, command_dim)`` (a single
        ``(K, command_dim)`` round is promoted to a batch of one).  Compared
        with calling :meth:`execute_round` ``B`` times:

        * all ``B * N`` coded commands come from **one** ``GF(p)``
          matrix–matrix product with the cached coefficient matrix;
        * decoding runs through :meth:`CodedResultDecoder.decode_fast` with a
          persistent suspect set, so a stable fault pattern costs one scalar
          Berlekamp–Welch decode for the whole batch instead of one per
          component per round;
        * the honest nodes' coded-state refresh is one matrix product per
          round instead of ``N - b`` per-node inner-product loops.

        The coded execution itself stays sequential — round ``t + 1``
        operates on coded states refreshed from round ``t``'s decode, exactly
        as in the scalar path — and every returned ``RoundResult`` carries
        outputs, states and correctness flags bit-identical to the scalar
        path (operation *counts* are lower on the decode side: that cost
        reduction is precisely what the batched pipeline buys).

        Per-node decoding (``decode_at_every_node=True``) models per-receiver
        equivocation and falls back to the scalar path unchanged.

        Rounds need not carry one *real* command per machine: the service
        scheduler pads idle machines' rows with
        :meth:`StateMachine.noop_command` (an identity transition for the
        library machines), and a noop row is coded, executed and decoded
        exactly like any other command — ragged traffic costs nothing extra
        in this pipeline.
        """
        batch_arr = self._validate_batch(commands_batch)
        if self.decode_at_every_node:
            return [self.execute_round(batch_arr[b]) for b in range(batch_arr.shape[0])]
        # Stage 1: encode every round's commands in one matrix product.  The
        # product itself is uncounted; each node is charged the operations it
        # would have spent encoding its own coded command (the batched
        # pipeline changes who *performs* the multiply, not the per-node
        # protocol cost model).
        coded_commands = self.encoder.encode_batch(batch_arr)
        results: list[RoundResult] = []
        for b in range(batch_arr.shape[0]):
            ops = self._round_ops()
            true_results = self._coded_step(coded_commands[b], ops)
            next_states, reference = self._reference_round(batch_arr[b])
            faulty_rows = self._draw_faulty_rows(true_results)
            result = self._resolve_round(
                self.round_index,
                self._reported(true_results, faulty_rows),
                reference,
                ops,
            )
            # The true machines move on regardless — unless the round is
            # frozen for retry.
            if "state_frozen" not in result.diagnostics:
                self.states = next_states
            self.round_index += 1
            results.append(result)
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
        unconfirmed round is decoded through the scalar-capable path, the
        honest coded states are restored from the last verified checkpoint
        (the decoded states of the last resolved round that refreshed, or
        the states this call started from), and the invalidated suffix of
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
        if verify_window < 1:
            raise ConfigurationError(
                f"verify_window must be positive, got {verify_window}"
            )
        batch_arr = self._validate_batch(commands_batch)
        batch_eval = getattr(self.machine.transition, "evaluate_result_vectors", None)
        if self.decode_at_every_node or batch_eval is None or self.freeze_on_failure:
            # Per-recipient decoding models equivocation, non-polynomial
            # transitions have no stacked surface to speculate over, and
            # freeze-on-failure contradicts speculation (which eagerly
            # advances state every round): in all three cases the
            # batched/scalar path runs unchanged.
            return self.execute_rounds(batch_arr)
        coded_commands = self.encoder.encode_batch(batch_arr)
        num_rounds = batch_arr.shape[0]
        results: list[RoundResult | None] = [None] * num_rounds
        window: list[_SpeculativeRound] = []
        # Rollback anchors: the coded states entering this call, then the
        # decoded states of the last resolved round that refreshed.
        self._pipeline_round_base = self.round_index
        self._pipeline_initial_bank = self._bank.copy()
        self._pipeline_resolved_refresh = None
        window_target = 1
        pivot_cache: tuple | None = None
        state_dim = self.machine.state_dim
        for b in range(num_rounds):
            ops = self._round_ops()
            true_results = self._coded_step(coded_commands[b], ops)
            self.states, reference = self._reference_round(batch_arr[b])
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
                    reference,
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
                _SpeculativeRound(
                    b, coded_commands[b], matrix, faulty_rows, reference, ops, pivot_cache
                )
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
        window_counter = OperationCounter()
        self.field.attach_counter(window_counter)
        try:
            reencoded = self.field.matmul(to_all, sub)
            candidates = self.field.matmul(to_omegas, sub)
        finally:
            self.field.attach_counter(None)
        width = window[0].matrix.shape[1]
        confirmed, rollback_at = self.decoder.stacked_verification(
            stacked, reencoded, width
        )
        verify_share = window_counter.total // len(window)
        for offset, error_nodes in enumerate(confirmed):
            entry = window[offset]
            columns = slice(offset * width, (offset + 1) * width)
            self._suspects.update(error_nodes)
            candidate = np.ascontiguousarray(candidates[:, columns])
            results[entry.batch_index] = self._round_result(
                self._pipeline_round_base + entry.batch_index,
                candidate,
                error_nodes,
                bool(np.array_equal(candidate, entry.reference)),
                entry.ops,
                spec_ops + verify_share,
                {"batched": True, "pipelined": True, "speculation": "confirmed"},
            )
            for node in self.honest_nodes():
                node.storage.note_refresh()
            self._pipeline_resolved_refresh = candidate[:, :state_dim]
        if rollback_at is None:
            window.clear()
            return min(window_target * 2, verify_window), False
        # Rollback: the offending round decodes through the scalar-capable
        # path (repairing or restoring honest state), then the invalidated
        # suffix re-executes deterministically on the repaired states:
        # honest results are recomputed (their speculative inputs were
        # wrong) while Byzantine rows come from the speculation-time cache,
        # so no rng draw is repeated and the reported matrix matches the
        # batched path's.
        entry = window[rollback_at]
        results[entry.batch_index] = self._resolve_round(
            self._pipeline_round_base + entry.batch_index,
            entry.matrix,
            entry.reference,
            entry.ops,
            "rollback",
        )
        for entry in window[rollback_at + 1 :]:
            ops = self._round_ops()
            true_results = self._coded_step(entry.coded_commands, ops)
            results[entry.batch_index] = self._resolve_round(
                self._pipeline_round_base + entry.batch_index,
                self._reported(true_results, entry.faulty_rows),
                entry.reference,
                ops,
                "replayed",
            )
        window.clear()
        return 1, True

    def _resolve_round(
        self,
        round_index: int,
        reported: "np.ndarray | list[np.ndarray | None]",
        reference: np.ndarray,
        ops: np.ndarray,
        speculation: str | None = None,
    ) -> RoundResult:
        """Steps 3-5 of one stacked round: decode, settle honest state, account.

        The one non-speculative round completion: every batched round
        (``speculation=None``) and the pipelined driver's inline
        partial-presence, rollback and replayed rounds decode through the
        suspect-learning fast path and have every honest node install its
        refreshed row.  ``ops`` is the round's per-node tally so far.  A
        rollback round's speculative refresh already charged ``chi_i`` (so
        repairing the installed values must not charge it twice) and, when
        it fails to decode, the last verified checkpoint is restored instead.
        """
        extras: dict = {"batched": True}
        if speculation is not None:
            extras.update(pipelined=True, speculation=speculation)
        decode_counter = OperationCounter()
        self.field.attach_counter(decode_counter)
        try:
            decoded = self.decoder.decode_fast(reported, self._suspects)
        except DecodingError as exc:
            decoded = None
            extras["decoding_error"] = str(exc)
        finally:
            self.field.attach_counter(None)
        state_dim = self.machine.state_dim
        if decoded is None:
            # The true states stand in for book-keeping; no output is accepted.
            outputs = np.zeros_like(reference)
            outputs[:, :state_dim] = reference[:, :state_dim]
            error_nodes: tuple[int, ...] = ()
        else:
            outputs, error_nodes = decoded.outputs, decoded.error_nodes
        correct = decoded is not None and bool(np.array_equal(outputs, reference))
        if self.freeze_on_failure and not correct:
            # A frozen round (retry mode, verification or decode failed)
            # must not advance anything — neither the honest coded states
            # (a refresh from a wrong decode would desynchronise them from
            # the frozen reference) nor the reference states — so the same
            # commands can be re-driven later against identical state.
            extras["state_frozen"] = True
        elif decoded is not None:
            self._install_decoded_states(outputs[:, :state_dim])
            if speculation != "rollback":
                self._charge_refresh(ops)
            if speculation is not None:
                self._pipeline_resolved_refresh = outputs[:, :state_dim]
        elif speculation == "rollback":
            self._restore_honest_states()
        return self._round_result(
            round_index,
            outputs,
            error_nodes,
            correct,
            ops,
            decode_counter.total,
            extras,
            decoding_failed=decoded is None,
        )

    def _round_result(
        self,
        round_index: int,
        decoded_outputs: np.ndarray,
        error_nodes: tuple[int, ...],
        correct: bool,
        ops: np.ndarray,
        decode_ops: int,
        extras: dict,
        decoding_failed: bool = False,
    ) -> RoundResult:
        """The record of one stacked round.

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
            correct=correct,
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
            dimension = self.decoder.code.dimension
            state_dim = self.machine.state_dim
            spec_ops = self.num_machines * dimension * state_dim + (
                self.num_machines * max(dimension - 1, 0) * state_dim
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
        round loop, the speculative rounds and every replay.  The stacked
        paths tally in this vector; ``CSMNode.counter`` belongs to the
        scalar reference path.
        """
        encode = self.machine.command_dim * (2 * self.num_machines - 1)
        return np.full(self.num_nodes, encode, dtype=np.int64)

    def _honest_rows(self) -> list[int]:
        return [node.node_index for node in self.nodes if not node.is_faulty]

    def _coded_step(self, coded_commands: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Evaluate every node's coded transition in one stacked pass.

        Evaluates each component polynomial once over the whole bank (faulty
        nodes keep computing on their — possibly stale — row, exactly as in
        the scalar path) against the round's coded commands.  The values are
        bit-identical to ``N`` per-node :meth:`CSMNode.execute_coded` calls;
        every node's entry of ``ops`` is charged its exact per-node share of
        the counted field operations, which equals the scalar per-node cost
        because vectorised field ops count one scalar operation per element.
        """
        batch_eval = getattr(self.machine.transition, "evaluate_result_vectors", None)
        if batch_eval is None:
            # Non-polynomial transitions have no stacked surface; keep the
            # per-node loop (values and counts unchanged).
            true_results = np.zeros(
                (self.num_nodes, self.machine.transition.result_dim), dtype=np.int64
            )
            for node in self.nodes:
                node.reset_counter()
                true_results[node.node_index] = node.execute_coded(
                    coded_commands[node.node_index]
                )
                ops[node.node_index] += node.counter.total
            return true_results
        step_counter = OperationCounter()
        self.field.attach_counter(step_counter)
        try:
            true_results = batch_eval(self._bank, coded_commands)
        finally:
            self.field.attach_counter(None)
        ops += step_counter.additions // self.num_nodes
        ops += step_counter.multiplications // self.num_nodes
        return true_results

    def _draw_faulty_rows(self, true_results: np.ndarray) -> dict:
        """What each Byzantine node reports this round (``None``: nothing).

        Only the sparse set of faulty nodes runs its behaviour transform —
        in node order, so the rng stream is consumed exactly as in the
        scalar path's dense loop (honest transforms never draw from it and
        never delay).  The rows are kept apart from the honest stack so a
        rollback replay can re-use them without re-drawing.
        """
        faulty_rows: dict[int, np.ndarray | None] = {}
        for node in self.nodes:
            if not node.is_faulty:
                continue
            value = node.report_result(
                true_results[node.node_index], self.rng, recipient=None
            )
            if value is None or node.behavior.delays_message():
                faulty_rows[node.node_index] = None
            else:
                faulty_rows[node.node_index] = self.field.array(value).reshape(-1)
        return faulty_rows

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

    def _install_decoded_states(self, decoded_states: np.ndarray) -> None:
        """Step 4 of a resolved round: ``chi_i`` of equation (1) at every honest node.

        ``C @ decoded_states`` yields all ``N`` next coded states in one
        product; each honest node then installs its own row through the node
        API — validated, written in place into its row of the bank, and
        counted as one round by its store — the per-node protocol step of
        the scalar reference.
        """
        coded = self._encode_states(decoded_states)
        for node in self.honest_nodes():
            node.install_coded_state(coded[node.node_index])

    def _refresh_honest_states(self, coded: np.ndarray) -> None:
        """Write the honest rows of ``coded`` (``(N, state_dim)``) into the bank.

        The engine-level bulk write speculation needs and the protocol does
        not have: the fused speculative advance and the checkpoint restore.
        The stores count nothing here; a speculated round is counted when it
        is confirmed.
        """
        rows = self._honest_rows()
        self._bank[rows] = coded[rows]

    def _charge_refresh(self, ops: np.ndarray) -> None:
        """Each honest node pays the ``chi_i`` re-encoding a refresh replaces."""
        ops[self._honest_rows()] += self.machine.state_dim * (2 * self.num_machines - 1)

    def _restore_honest_states(self) -> None:
        """Roll honest coded states back to the last verified checkpoint."""
        if self._pipeline_resolved_refresh is None:
            checkpoint = self._pipeline_initial_bank
        else:
            checkpoint = self._encode_states(self._pipeline_resolved_refresh)
        self._refresh_honest_states(checkpoint)

    def _check_commands(self, commands: np.ndarray) -> np.ndarray:
        commands_arr = self.field.array(commands)
        expected_shape = (self.num_machines, self.machine.command_dim)
        if commands_arr.shape != expected_shape:
            raise ConfigurationError(
                f"expected commands of shape {expected_shape}, got {commands_arr.shape}"
            )
        return commands_arr

    def _complete_round(
        self, commands_arr: np.ndarray, true_results: np.ndarray
    ) -> RoundResult:
        """Steps 3-5 of the scalar reference round: decode, update, account."""
        # Reference execution (ground truth used only for verification).
        reference_states, reference_outputs = self._reference_step(commands_arr)
        reference_results = np.concatenate([reference_states, reference_outputs], axis=1)

        # Step 3: gather what each node reports and decode.
        decode_counter = OperationCounter()
        diagnostics: dict = {}
        try:
            decoded_outputs, error_nodes = self._decode_phase(
                true_results, decode_counter, diagnostics
            )
            decoding_failed = False
        except DecodingError as exc:
            decoded_outputs = None
            error_nodes = ()
            decoding_failed = True
            diagnostics["decoding_error"] = str(exc)

        correct = False
        decoded_states = reference_states  # fallback for book-keeping on failure
        accepted_outputs = np.zeros_like(reference_outputs)
        if not decoding_failed:
            decoded_states = decoded_outputs[:, : self.machine.state_dim]
            accepted_outputs = decoded_outputs[:, self.machine.state_dim :]
            correct = bool(
                np.array_equal(decoded_outputs, reference_results)
            )

        # A frozen round (retry mode, verification or decode failed) must
        # not advance anything — neither the honest coded states (a refresh
        # from a wrong decode would desynchronise them from the frozen
        # reference) nor the reference states below — so the same commands
        # can be re-driven later against identical state.
        frozen = self.freeze_on_failure and (decoding_failed or not correct)

        # Step 4: honest nodes refresh their coded states from the decoded states.
        if not decoding_failed and not frozen:
            for node in self.honest_nodes():
                node.update_coded_state(decoded_states)

        # Operation accounting: every honest node performs the (identical)
        # decoding, so the decode cost is charged to each of them (per-node
        # decode counters were already merged inside _decode_phase).
        ops_per_node: dict[str, int] = {}
        for node in self.nodes:
            ops = node.counter.total
            if not node.is_faulty and not decoding_failed:
                ops += decode_counter.total if not self.decode_at_every_node else 0
            ops_per_node[node.node_id] = ops

        # Advance the reference state (the true machines move on regardless
        # — unless the round is frozen for retry).
        if frozen:
            diagnostics["state_frozen"] = True
        else:
            self.states = reference_states
        self.round_index += 1
        diagnostics.update(
            {
                "error_nodes": tuple(error_nodes),
                "num_faulty": self.num_faulty,
                "decoding_failed": decoding_failed,
                "decode_ops": decode_counter.total,
                "batched": False,
            }
        )
        return RoundResult(
            round_index=self.round_index - 1,
            outputs=accepted_outputs,
            states=decoded_states.copy(),
            correct=correct,
            ops_per_node=ops_per_node,
            diagnostics=diagnostics,
        )

    # -- internals ----------------------------------------------------------------------------
    def _reference_step(self, commands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One vectorised pass over the K reference machines; StateMachine
        # falls back to scalar steps for transitions without a batched
        # surface, so the values match the per-machine loop bit for bit.
        return self.machine.step_batch(self.states, commands)

    def _reference_round(self, commands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ground truth for one stacked round: the next true states, and the
        ``(K, result_dim)`` matrix a correct decode must equal."""
        states, outputs = self._reference_step(commands)
        return states, np.concatenate([states, outputs], axis=1)

    def _reported_results(
        self, true_results: np.ndarray, recipient: str | None
    ) -> list[np.ndarray | None]:
        """The per-sender results as seen by ``recipient`` (or by 'the network')."""
        reported: list[np.ndarray | None] = []
        for node in self.nodes:
            value = node.report_result(
                true_results[node.node_index], self.rng, recipient=recipient
            )
            if value is None or node.behavior.delays_message():
                reported.append(None)
            else:
                reported.append(self.field.array(value).reshape(-1))
        return reported

    def _decode_phase(
        self,
        true_results: np.ndarray,
        decode_counter: OperationCounter,
        diagnostics: dict,
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Decode the round; returns (decoded K x result_dim, error node indices)."""
        if self.decode_at_every_node:
            return self._decode_at_each_honest_node(true_results, diagnostics)
        # Single representative decode: all honest nodes receive the same
        # broadcast values (no equivocation), so one decode stands for all.
        reported = self._reported_results(true_results, recipient=None)
        self.field.attach_counter(decode_counter)
        try:
            if any(entry is None for entry in reported):
                decoded = self.decoder.decode_partial(reported)
            else:
                stacked = np.vstack([entry for entry in reported])
                decoded = self.decoder.decode(stacked)
        finally:
            self.field.attach_counter(None)
        return decoded.outputs, decoded.error_nodes

    def _decode_at_each_honest_node(
        self, true_results: np.ndarray, diagnostics: dict
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Faithful per-node decoding (handles equivocating senders).

        Every honest node decodes the set of results *it* received; the
        engine then checks that all honest nodes recovered identical values
        (the paper's claim that equivocation cannot cause divergence) and
        charges each node its own decoding cost.
        """
        per_node_outputs: dict[str, np.ndarray] = {}
        union_errors: set[int] = set()
        for node in self.honest_nodes():
            reported = self._reported_results(true_results, recipient=node.node_id)
            self.field.attach_counter(node.counter)
            try:
                if any(entry is None for entry in reported):
                    decoded = self.decoder.decode_partial(reported)
                else:
                    stacked = np.vstack([entry for entry in reported])
                    decoded = self.decoder.decode(stacked)
            finally:
                self.field.attach_counter(None)
            per_node_outputs[node.node_id] = decoded.outputs
            union_errors.update(decoded.error_nodes)
        values = list(per_node_outputs.values())
        for other in values[1:]:
            if not np.array_equal(values[0], other):
                raise DecodingError(
                    "honest nodes decoded different results despite valid decoding"
                )
        diagnostics["per_node_decode"] = True
        return values[0], tuple(sorted(union_errors))
