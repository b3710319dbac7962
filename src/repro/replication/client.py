"""Client-side output acceptance.

In every replication scheme the client that submitted ``X_k(t)`` receives
candidate outputs from the nodes replicating machine ``k`` and must decide
which value to accept.  The paper's rule is to wait for ``b + 1`` matching
responses, so at least one comes from an honest node; with the responses of
a whole group in hand that becomes a threshold on matching replies.
"""

from __future__ import annotations

import numpy as np


def accept_matching(
    reports: np.ndarray, present: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every machine's client acceptance, over its whole replica group at once.

    ``reports`` has shape ``(K, G, width)``: the value each of machine
    ``k``'s ``G`` replicas sent; ``present`` (``(K, G)``) marks the replies
    that arrived.  A client accepts the value that at least ``threshold``
    present replicas reported.  Two *distinct* values both reaching the
    threshold would each be backed by an honest node under the assumed
    fault bound — contradictory evidence that the bound is broken — so the
    client then accepts neither.

    Returns ``(accepted, found)``: ``accepted[k]`` is the accepted value, or
    zeros where ``found[k]`` is False (no value, or two, reached the
    threshold).
    """
    same = np.all(reports[:, :, None, :] == reports[:, None, :, :], axis=-1)
    same &= present[:, :, None] & present[:, None, :]
    reaching = same.sum(axis=2) >= threshold
    conflict = np.any(reaching[:, :, None] & reaching[:, None, :] & ~same, axis=(1, 2))
    found = reaching.any(axis=1) & ~conflict
    first = reports[np.arange(len(reports)), reaching.argmax(axis=1)]
    return np.where(found[:, None], first, 0), found
