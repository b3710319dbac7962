"""Operation-count models for the throughput analysis.

The paper expresses throughput in units of field operations per node:

* ``c(f)`` — cost of evaluating the transition polynomial once; for a
  polynomial with ``T`` terms of total degree ``<= d`` this is ``O(T * d)``
  multiplications plus ``T`` additions.  The transition computes it once,
  exactly as the nodes are charged, as its ``row_cost``
  (:class:`~repro.machine.polynomial_machine.PolynomialTransition`).
* ``c(coding)`` — the per-node coding cost.  Without delegation every node
  multiplies its coefficient row into the commands (``Theta(K)``) and decodes
  a length-``N`` Reed–Solomon code (``Theta(N^2)`` with the textbook decoder,
  ``O(N log^2 N log log N)`` with fast algorithms).  With INTERMIX delegation
  the non-worker cost collapses to ``O(1)`` per verification and the paper's
  quoted per-node figure becomes ``O(log^2 N log log N)`` after amortising
  the worker's quasilinear cost over the whole network.
"""

from __future__ import annotations

import math


def naive_coding_cost(num_nodes: int, num_machines: int) -> float:
    """Per-node coding cost without delegation.

    Encoding the coded command costs ``2K`` operations (one multiply-add per
    machine); decoding a length-``N`` dimension-``d(K-1)+1`` RS code with a
    quadratic-complexity decoder costs ``c N^2``; updating the coded state is
    another ``2K``.  The constant in front of ``N^2`` is taken as 1.
    """
    return 4.0 * num_machines + float(num_nodes) ** 2


def quasilinear_coding_cost(num_nodes: int) -> float:
    """The paper's fast-polynomial-arithmetic cost model ``N log^2 N log log N``."""
    if num_nodes < 2:
        return 1.0
    log_n = math.log2(num_nodes)
    return num_nodes * log_n**2 * max(math.log2(max(log_n, 2.0)), 1.0)


def per_node_delegated_coding_cost(num_nodes: int) -> float:
    """Amortised per-node coding cost with delegation: ``log^2 N log log N``."""
    return quasilinear_coding_cost(num_nodes) / max(num_nodes, 1)


def intermix_worst_case_overhead(
    num_nodes: int, vector_length: int, committee_size: int, product_cost: float
) -> float:
    """Section 6.1's worst-case complexity of one INTERMIX run.

    ``(J + 1) c(AX) + 8 J K + 3 J log K + N - J - 1`` where ``K`` is the
    vector length and ``J`` the number of auditors.
    """
    j = committee_size
    k = max(vector_length, 2)
    return (
        (j + 1) * product_cost
        + 8.0 * j * k
        + 3.0 * j * math.log2(k)
        + num_nodes
        - j
        - 1
    )


def csm_total_execution_cost(
    num_nodes: int, transition_cost: float, delegated: bool = True
) -> float:
    """Aggregate execution-phase cost across the network for one round.

    With delegation: one quasilinear worker/auditor term plus ``O(1)`` per
    remaining node plus every node's transition evaluation.  Without
    delegation every node pays the naive coding cost itself.
    """
    if delegated:
        return quasilinear_coding_cost(num_nodes) + num_nodes * (transition_cost + 1.0)
    return num_nodes * (naive_coding_cost(num_nodes, max(num_nodes // 2, 1)) + transition_cost)
