"""The Lagrange coding scheme: points and the coefficient matrix ``C``.

Equation (7) of the paper defines the coded state stored at node ``i`` as

    S~_i(t) = sum_k S_k(t) * prod_{l != k} (alpha_i - omega_l) / (omega_k - omega_l)
            = sum_k c_ik S_k(t),

i.e. a fixed linear combination of the ``K`` true states whose coefficients
depend only on the evaluation points — not on the round or on the transition
function (Remark 4).  The same coefficients encode the input commands.

``C`` is the map from a polynomial's values at the ``omega_k`` to its values
at the ``alpha_i``, ``C = V_alpha @ V_omega**-1``: the cached transfer matrix
the decoder uses for its own point sets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, FieldError
from repro.gf.field import Field
from repro.gf.linalg import gf_matvec
from repro.gf.matrix_cache import cached_transfer_matrix


class LagrangeScheme:
    """Evaluation points and coefficient matrix shared by all CSM nodes.

    Parameters
    ----------
    field:
        The finite field; its order must exceed ``num_nodes + num_machines``
        so that distinct points can be chosen.
    num_machines:
        ``K``, the number of state machines (interpolation points).
    num_nodes:
        ``N``, the number of compute nodes (evaluation points).
    omegas, alphas:
        Optional explicit point sets.  By default ``omega_k = k`` and
        ``alpha_i = K + i`` (1-based), which are distinct whenever the field
        is large enough.  The two sets are allowed to overlap in principle
        (a node whose ``alpha_i`` equals some ``omega_k`` simply stores that
        machine's true state), but the default keeps them disjoint.
    """

    def __init__(
        self,
        field: Field,
        num_machines: int,
        num_nodes: int,
        omegas: Sequence[int] | None = None,
        alphas: Sequence[int] | None = None,
    ) -> None:
        if num_machines < 1:
            raise ConfigurationError(f"need at least one state machine, got {num_machines}")
        if num_nodes < num_machines:
            raise ConfigurationError(
                f"need at least as many nodes as machines, got N={num_nodes} < K={num_machines}"
            )
        if field.order <= num_nodes + num_machines:
            raise ConfigurationError(
                f"field of order {field.order} too small for K={num_machines}, N={num_nodes}"
            )
        self.field = field
        self.num_machines = int(num_machines)
        self.num_nodes = int(num_nodes)
        if omegas is None:
            omegas = field.distinct_points(num_machines, start=1)
        if alphas is None:
            alphas = field.distinct_points(num_nodes, start=num_machines + 1)
        self.omegas = [field.element(int(w)) for w in omegas]
        self.alphas = [field.element(int(a)) for a in alphas]
        if len(self.omegas) != num_machines:
            raise ConfigurationError(
                f"expected {num_machines} interpolation points, got {len(self.omegas)}"
            )
        if len(self.alphas) != num_nodes:
            raise ConfigurationError(
                f"expected {num_nodes} evaluation points, got {len(self.alphas)}"
            )
        if len(set(self.omegas)) != len(self.omegas):
            raise ConfigurationError("interpolation points omega must be distinct")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigurationError("evaluation points alpha must be distinct")
        self._coefficient_matrix: np.ndarray | None = None

    # -- coefficient matrix ---------------------------------------------------------
    @property
    def coefficient_matrix(self) -> np.ndarray:
        """The ``N x K`` matrix ``C`` with ``coded = C @ true``.

        The ω→α transfer matrix, served from the process-wide matrix cache
        so that many engines (and many batches) over the same point geometry
        share one build.  The returned array is read-only;
        ``coefficient_row`` hands out copies.
        """
        if self._coefficient_matrix is None:
            self._coefficient_matrix = cached_transfer_matrix(
                self.field, self.omegas, self.alphas
            )
        return self._coefficient_matrix

    def coefficient_row(self, node_index: int) -> np.ndarray:
        """Row ``i`` of ``C`` — the coefficients node ``i`` applies locally."""
        self._check_node_index(node_index)
        return self.coefficient_matrix[node_index, :].copy()

    # -- encoding primitives -----------------------------------------------------------
    def encode_scalars(self, values: Sequence[int]) -> np.ndarray:
        """Encode one scalar per machine into one coded scalar per node."""
        vec = self.field.array(values).reshape(-1)
        if vec.shape[0] != self.num_machines:
            raise FieldError(
                f"expected {self.num_machines} scalars, got {vec.shape[0]}"
            )
        return gf_matvec(self.field, self.coefficient_matrix, vec)

    def encode_vectors(self, values: np.ndarray) -> np.ndarray:
        """Encode ``K`` vectors (shape ``(K, dim)``) into ``N`` coded vectors.

        The encoding is applied independently to each of the ``dim``
        components, exactly as a node would apply equation (7) to each entry
        of its state vector.
        """
        arr = self.field.array(values)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] != self.num_machines:
            raise FieldError(
                f"expected {self.num_machines} rows (one per machine), got {arr.shape[0]}"
            )
        return self.field.matmul(self.coefficient_matrix, arr)

    # -- geometry ------------------------------------------------------------------------
    def composite_degree(self, transition_degree: int) -> int:
        """Degree of ``h(z) = f(u(z), v(z))``: ``d * (K - 1)``."""
        return transition_degree * (self.num_machines - 1)

    def decoding_dimension(self, transition_degree: int) -> int:
        """Reed–Solomon dimension of the coded results: ``d(K-1) + 1``."""
        return self.composite_degree(transition_degree) + 1

    def max_correctable_errors(self, transition_degree: int) -> int:
        """Errors correctable when all ``N`` results arrive (synchronous)."""
        return (self.num_nodes - self.decoding_dimension(transition_degree)) // 2

    def _check_node_index(self, node_index: int) -> None:
        if not 0 <= node_index < self.num_nodes:
            raise ConfigurationError(
                f"node index {node_index} out of range for N={self.num_nodes}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LagrangeScheme(K={self.num_machines}, N={self.num_nodes}, "
            f"field_order={self.field.order})"
        )
