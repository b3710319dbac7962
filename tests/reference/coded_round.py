"""The per-node coded round: the oracle the engine's stacked round must match.

:meth:`~repro.core.execution.CodedExecutionEngine.execute_round` runs a round
as a batch of one: one encode product, one stacked evaluation of the
transition over the whole coded-state bank, the suspect-learning
``decode_fast`` and one write refreshing every honest row, and computes each
node's charge from those shapes.  Here every node does its own part of
Section 5.2's round, and its field operations are overheard by the counting
oracle (:mod:`reference.counting`):

1. form its coded command ``X~_i = sum_k c_ik X_k`` (``rho_i``);
2. evaluate the transition on its own coded state, ``g_i = f(S~_i, X~_i)``;
3. the results, as the fault-report rule puts them on the wire, are decoded
   component by component — Berlekamp–Welch when all ``N`` are present, the
   erasure decoder otherwise — and every honest node is charged that decode;
4. every honest node re-encodes the decoded states with its own coefficient
   row (``chi_i``); a round that fails to decode advances nothing.

The round runs on an engine and advances it: it draws the Byzantine rows
from ``engine.rng`` exactly as the engine does, refreshes the nodes' stores
(the rows of the engine's bank) and moves ``engine.states`` and
``engine.round_index``.  Two engines built alike therefore stay comparable
round for round: the records, the coded states and each node's encode,
transition and refresh charges must be equal, and the engine's decode may
only cost less.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.berlekamp_welch import BerlekampWelchDecoder
from repro.coding.erasure import ErasureDecoder
from repro.coding.reed_solomon import horner
from reference.counting import counted
from reference.machine import result_vector
from repro.core.execution import CodedExecutionEngine
from repro.core.node import CSMNode
from repro.exceptions import DecodingError
from repro.lcc.decoder import CodedResultDecoder, DecodedRound
from repro.net.byzantine import faulty_reports
from repro.rounds import RoundResult


def combine(node: CSMNode, values: np.ndarray) -> np.ndarray:
    """``sum_k c_ik values_k``: one inner product per component.

    Node ``i``'s coded command from the ``K`` commands (``rho_i``), and its
    refreshed coded state from the ``K`` decoded states (``chi_i``).
    """
    arr = node.field.array(values)
    return np.array(
        [node.field.dot(node.coefficient_row, arr[:, c]) for c in range(arr.shape[1])],
        dtype=np.int64,
    )


def execute_coded(node: CSMNode, coded_command: np.ndarray) -> np.ndarray:
    """The honest coded result ``g_i = f(S~_i, X~_i)`` on the node's own state."""
    return result_vector(node.transition, node.coded_state, coded_command)


def decode(
    decoder: CodedResultDecoder, reported: Sequence[np.ndarray | None]
) -> DecodedRound:
    """Decode every result component on its own.

    ``reported`` holds one result row per node, ``None`` where the node sent
    nothing.  All present: Berlekamp–Welch; some missing: the erasure
    decoder.  Raises :class:`DecodingError` past the radius.
    """
    scheme = decoder.scheme
    if len(reported) != scheme.num_nodes:
        raise DecodingError(
            f"expected {scheme.num_nodes} result slots, got {len(reported)}"
        )
    rows = [None if row is None else decoder.field.array(row).reshape(-1) for row in reported]
    present = [row for row in rows if row is not None]
    if not present:
        raise DecodingError("no coded results available to decode")
    error_decoder = BerlekampWelchDecoder(decoder.code)
    erasure_decoder = ErasureDecoder(decoder.code)
    width = present[0].shape[0]
    coefficients = np.zeros((decoder.code.dimension, width), dtype=np.int64)
    error_nodes: set[int] = set()
    outputs = np.zeros((scheme.num_machines, width), dtype=np.int64)
    for component in range(width):
        column = [None if row is None else int(row[component]) for row in rows]
        if len(present) == len(rows):
            decoded = error_decoder.decode(column)
        else:
            decoded = erasure_decoder.decode_with_erasures(column)
        coefficients[:, component] = decoded.coefficients
        error_nodes.update(decoded.error_positions)
        outputs[:, component] = horner(decoder.field, decoded.coefficients, scheme.omegas)[0]
    return DecodedRound(outputs, coefficients, tuple(sorted(error_nodes)))


def execute_round(engine: CodedExecutionEngine, commands: np.ndarray) -> RoundResult:
    """One coded round, node by node, on ``engine``."""
    field = engine.field
    commands = field.array(commands)
    state_dim = engine.machine.state_dim
    ops = {node.node_id: 0 for node in engine.nodes}

    def own_result(node: CSMNode) -> np.ndarray:
        result, count = counted(
            field, lambda: execute_coded(node, combine(node, commands))
        )
        ops[node.node_id] += count.total
        return result

    true_results = np.stack([own_result(node) for node in engine.nodes])
    senders = [
        (node.node_index, node.node_id, node.behavior)
        for node in engine.nodes
        if node.is_faulty
    ]
    faulty_rows = faulty_reports(field, senders, true_results, engine.rng)
    reported = [faulty_rows.get(i, row) for i, row in enumerate(true_results)]
    diagnostics: dict = {}
    try:
        decoded, decode_count = counted(field, decode, engine.decoder, reported)
    except DecodingError as exc:
        decoded, decode_count = None, exc.count
        diagnostics["decoding_error"] = str(exc)
    outputs = np.zeros((engine.num_machines, true_results.shape[1]), dtype=np.int64)
    outputs[:, :state_dim] = engine.states
    error_nodes: tuple[int, ...] = ()
    if decoded is not None:
        outputs, error_nodes = decoded.outputs, decoded.error_nodes
        engine.states = outputs[:, :state_dim]
        for node in engine.honest_nodes():
            refreshed, count = counted(field, combine, node, engine.states)
            ops[node.node_id] += count.total
            node.storage.replace(refreshed)
    decode_charged = decode_count.total if decoded is not None else 0
    engine.round_index += 1
    return RoundResult(
        round_index=engine.round_index - 1,
        outputs=outputs[:, state_dim:],
        states=outputs[:, :state_dim].copy(),
        correct=decoded is not None,
        ops_per_node={
            node.node_id: ops[node.node_id] + (0 if node.is_faulty else decode_charged)
            for node in engine.nodes
        },
        diagnostics={
            "error_nodes": error_nodes,
            "num_faulty": engine.num_faulty,
            "decoding_failed": decoded is None,
            "decode_ops": decode_count.total,
            **diagnostics,
        },
    )
