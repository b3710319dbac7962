"""Client-side output acceptance.

In every scheme the client that submitted ``X_k(t)`` receives candidate
outputs ``Y^_ik(t)`` from several nodes and must decide which value to
accept.  The paper's rule for replication is to wait for ``b + 1`` matching
responses (so at least one comes from an honest node); equivalently, with all
``N`` (or all group) responses in hand, take the majority value.  The same
collector is reused by CSM, where honest nodes all report the identical
decoded output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SecurityViolation


def majority_value(values: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The strictly most common value, or ``None`` on an empty list / tie."""
    if not values:
        return None
    counts = Counter(values)
    ranked = counts.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


@dataclass
class OutputCollector:
    """Collects per-node candidate outputs for one (machine, round) pair."""

    machine_index: int
    round_index: int
    responses: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def add_response(self, node_id: str, output: np.ndarray) -> None:
        self.responses[str(node_id)] = tuple(int(v) for v in np.asarray(output).reshape(-1))

    def accept_with_threshold(self, threshold: int) -> tuple[int, ...] | None:
        """Return the unique value supported by at least ``threshold`` nodes.

        This is the "wait for ``b + 1`` matching responses" rule: with
        ``threshold = b + 1`` a returned value is guaranteed to have an honest
        supporter, hence to be correct.  If two *distinct* values both reach
        the threshold, each was backed by at least one honest node under the
        assumed fault bound — mutually contradictory evidence that means the
        adversary exceeded the bound.  Accepting whichever value ``Counter``
        insertion order happens to rank first would silently pick one of two
        conflicting outputs, so that case raises :class:`SecurityViolation`
        instead.
        """
        counts = Counter(self.responses.values())
        reaching = [value for value, count in counts.most_common() if count >= threshold]
        if len(reaching) > 1:
            raise SecurityViolation(
                f"{len(reaching)} distinct outputs for machine {self.machine_index} "
                f"round {self.round_index} each reached the acceptance threshold "
                f"{threshold} — the fault bound is broken"
            )
        return reaching[0] if reaching else None

    def accept_majority(self) -> tuple[int, ...] | None:
        """Majority rule over all received responses."""
        return majority_value(list(self.responses.values()))

    def verify_against(self, expected: np.ndarray, threshold: int) -> bool:
        """True when the accepted value equals the reference output.

        Raises :class:`SecurityViolation` if a value was accepted but is
        wrong — i.e. the adversary actually broke the scheme at this fault
        level, which the security experiments record.
        """
        accepted = self.accept_with_threshold(threshold)
        if accepted is None:
            return False
        reference = tuple(int(v) for v in np.asarray(expected).reshape(-1))
        if accepted != reference:
            raise SecurityViolation(
                f"client accepted an incorrect output for machine {self.machine_index} "
                f"round {self.round_index}"
            )
        return True
