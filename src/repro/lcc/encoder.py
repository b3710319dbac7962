"""Encoding of states and commands into their coded counterparts.

Two equivalent paths are provided, mirroring Sections 5 and 6 of the paper:

* **Distributed path** (:meth:`CodedStateEncoder.encode`): apply the
  coefficient matrix row by row — what every node does for itself in the
  baseline CSM protocol.  Cost ``Theta(N * K)`` field operations in total.
* **Centralised path** (:meth:`CodedStateEncoder.encode_via_interpolation`):
  interpolate the Lagrange polynomial through ``(omega_k, value_k)`` and then
  evaluate it at all ``alpha_i`` with a subproduct tree — the single-worker
  path of Section 6.2 whose cost is quasilinear in ``N``.  INTERMIX verifies
  that both paths agree (they are the same linear map ``C``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FieldError
from repro.gf.fast_eval import SubproductTree
from repro.gf.lagrange import lagrange_interpolate
from repro.lcc.scheme import LagrangeScheme


class CodedStateEncoder:
    """Encoder bound to a :class:`LagrangeScheme`."""

    def __init__(self, scheme: LagrangeScheme) -> None:
        self.scheme = scheme
        self.field = scheme.field
        self._alpha_tree: SubproductTree | None = None

    # -- distributed path ------------------------------------------------------------
    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode ``K`` vectors (shape ``(K, dim)``) into ``N`` coded vectors.

        This is the matrix–vector path: every output row is the inner product
        of one row of the coefficient matrix with the input column.
        """
        return self.scheme.encode_vectors(values)

    def encode_batch(self, values: np.ndarray) -> np.ndarray:
        """Encode ``B`` rounds at once: ``(B, K, dim) -> (B, N, dim)``.

        The batch is flattened to a single ``(K, B * dim)`` matrix so that
        encoding all ``B`` rounds is one ``GF(p)`` matrix–matrix product with
        the cached coefficient matrix — this is the pipeline's replacement
        for ``B`` rounds of per-node inner-product encoding, and every
        ``[b, i, :]`` slice is bit-identical to what node ``i`` would have
        computed for round ``b`` on its own.
        """
        arr = self.field.array(values)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1] != self.scheme.num_machines:
            raise FieldError(
                f"expected a (batch, K={self.scheme.num_machines}, dim) array, "
                f"got {arr.shape}"
            )
        batch, _, dim = arr.shape
        flat = arr.transpose(1, 0, 2).reshape(self.scheme.num_machines, batch * dim)
        coded = self.field.matmul(self.scheme.coefficient_matrix, flat)
        return coded.reshape(self.scheme.num_nodes, batch, dim).transpose(1, 0, 2)

    # -- centralised (worker) path ------------------------------------------------------
    def encode_via_interpolation(self, values: np.ndarray) -> np.ndarray:
        """Encode by polynomial interpolation + multi-point evaluation.

        Step 1 of Section 6.2 interpolates ``v_t(z)`` through
        ``(omega_k, X_k(t))``; step 2 evaluates it at every ``alpha_i``.  The
        result is numerically identical to :meth:`encode` — the benchmark
        suite compares their operation counts.
        """
        arr = self.field.array(values)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] != self.scheme.num_machines:
            raise FieldError(
                f"expected {self.scheme.num_machines} rows, got {arr.shape[0]}"
            )
        tree = self._get_alpha_tree()
        out = np.zeros((self.scheme.num_nodes, arr.shape[1]), dtype=np.int64)
        for component in range(arr.shape[1]):
            poly = lagrange_interpolate(
                self.field, self.scheme.omegas, [int(v) for v in arr[:, component]]
            )
            out[:, component] = tree.evaluate(poly)
        return out

    def interpolation_polynomials(self, values: np.ndarray) -> list:
        """Return the interpolants ``[p_component(z)]`` through the omegas.

        The coded execution analysis needs these polynomials explicitly: the
        state polynomial ``u_t(z)`` and command polynomial ``v_t(z)`` are the
        interpolants of the state/command components.
        """
        arr = self.field.array(values)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] != self.scheme.num_machines:
            raise FieldError(
                f"expected {self.scheme.num_machines} rows, got {arr.shape[0]}"
            )
        return [
            lagrange_interpolate(
                self.field, self.scheme.omegas, [int(v) for v in arr[:, component]]
            )
            for component in range(arr.shape[1])
        ]

    def _get_alpha_tree(self) -> SubproductTree:
        if self._alpha_tree is None:
            self._alpha_tree = SubproductTree(self.field, self.scheme.alphas)
        return self._alpha_tree
