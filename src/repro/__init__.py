"""Coded State Machine (CSM) reproduction library.

This package reproduces *Coded State Machine — Scaling State Machine Execution
under Byzantine Faults* (Li et al., PODC 2019).  It provides:

``repro.gf``
    Finite-field substrate: prime fields, binary extension fields, univariate
    and multivariate polynomial arithmetic, the Lagrange coefficient matrix.
``repro.coding``
    Reed–Solomon codes in the evaluation view, with the Berlekamp–Welch
    decoder for noisy polynomial interpolation and an erasure decoder.
``repro.lcc``
    Lagrange coded computing: the encoder/decoder pair CSM uses for coded
    states and coded commands.
``repro.machine``
    Polynomial state machines (the class of state-transition functions CSM
    supports) and a library of concrete machines, including the Boolean
    function compiler of Appendix A.
``repro.net``
    Discrete-event simulated network with synchronous and partially
    synchronous delay models, authenticated messages, and Byzantine
    behaviour injection.
``repro.consensus``
    Consensus-phase protocols (synchronous authenticated broadcast and a
    simplified PBFT) used identically by CSM and the replication baselines.
``repro.replication``
    Full- and partial-replication state machine replication baselines.
``repro.core``
    The Coded State Machine itself: coded state storage, coded execution,
    and the round protocol for synchronous and partially synchronous
    networks.
``repro.service``
    The client-facing serving layer: client sessions, command tickets with a
    ``PENDING -> COMMITTED -> EXECUTED | FAILED`` lifecycle, and the adaptive
    round scheduler that drains ragged command streams into batched rounds
    over any round-driving backend.
``repro.intermix``
    INTERMIX, the information-theoretically verifiable matrix-vector
    multiplication protocol, and the delegated (centralised) coding path it
    enables.
``repro.analysis``
    Closed-form performance formulas (Table 1, Table 2), information
    theoretic limits, and operation-count based measurement.
``repro.experiments``
    Executable regeneration of every table and figure in the paper.
``repro.rng``
    The single sanctioned construction site for random streams
    (``default_stream``/``derived_stream``) — the anchor of replay
    determinism.
``repro.lint``
    csm-lint, the AST-based determinism and protocol-invariant analyzer
    (``python -m repro.lint src``).
"""

from repro._version import __version__
from repro.exceptions import (
    CSMError,
    ConfigurationError,
    ConsensusError,
    DecodingError,
    FieldError,
    LivenessError,
    SecurityViolation,
    ServiceError,
    VerificationError,
)

__all__ = [
    "__version__",
    "CSMError",
    "ConfigurationError",
    "ConsensusError",
    "DecodingError",
    "FieldError",
    "LivenessError",
    "SecurityViolation",
    "ServiceError",
    "VerificationError",
]
