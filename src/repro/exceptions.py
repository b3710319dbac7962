"""Exception hierarchy shared across the CSM reproduction library.

Every error raised by the library derives from :class:`CSMError`, so callers
can catch a single base class.  Sub-classes distinguish the layer that failed:
field arithmetic, coding/decoding, consensus, protocol security, liveness, and
INTERMIX verification.
"""

from __future__ import annotations


class CSMError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    ``ops`` is the field-operation charge spent before the failure: a decode
    that fails past the radius still cost its nodes that work.
    """

    def __init__(self, *args: object, ops: int = 0) -> None:
        super().__init__(*args)
        self.ops = ops


class ConfigurationError(CSMError):
    """A system configuration is invalid or internally inconsistent.

    Raised, for example, when the requested number of state machines ``K``
    exceeds what the decoding bound permits for the given ``N``, ``d`` and
    fault fraction, or when a field is too small to assign distinct
    evaluation points.
    """


class FieldError(CSMError):
    """Invalid finite-field construction or operation (e.g. inverting zero)."""


class DecodingError(CSMError):
    """Noisy polynomial interpolation / Reed–Solomon decoding failed.

    This occurs when the number of erroneous evaluations exceeds the decoding
    radius, or when the received word is not within distance ``(N - k) / 2``
    of any codeword.
    """


class ConsensusError(CSMError):
    """The consensus phase could not reach agreement under the fault bound."""


class SecurityViolation(CSMError):
    """An invariant that should hold for honest nodes was observed broken.

    Raised by audit hooks in tests and experiments when, e.g., two honest
    nodes decide different command vectors, or an honest node's recovered
    state diverges from the reference execution.
    """


class LivenessError(CSMError):
    """The protocol failed to make progress (e.g. insufficient responses)."""


class ServiceError(CSMError):
    """The client-session service was used inconsistently.

    Raised by :mod:`repro.service` on illegal command-ticket lifecycle
    transitions or when a scheduled batch and the backend's round records
    disagree in shape.
    """


class VerificationError(CSMError):
    """INTERMIX verification rejected a worker's result."""
