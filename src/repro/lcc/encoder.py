"""Encoding of states and commands into their coded counterparts.

Encoding is the linear map ``C`` of equation (7): coded value ``i`` is row
``i`` of the cached Lagrange coefficient matrix applied to the ``K`` true
values, which is what every node does for itself in the baseline CSM
protocol (``Theta(N * K)`` field operations in total).  A batch of rounds is
one matrix–matrix product with ``C``.  The delegated path of Section 6.2
computes the same map on a worker and has INTERMIX verify it
(:mod:`repro.intermix.delegation`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FieldError
from repro.lcc.scheme import LagrangeScheme


class CodedStateEncoder:
    """Encoder bound to a :class:`LagrangeScheme`."""

    def __init__(self, scheme: LagrangeScheme) -> None:
        self.scheme = scheme
        self.field = scheme.field

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
