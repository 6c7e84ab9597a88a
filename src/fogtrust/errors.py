"""Exception hierarchy.

Every error the package raises descends from FogTrustError so callers can
catch by family. The CLI maps each family to a distinct exit code.
"""


class FogTrustError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- crypto


class CryptoError(FogTrustError):
    """Base class for cryptographic failures."""


class InvalidScalar(CryptoError):
    """Secret scalar outside [1, order-1]."""


class InvalidPoint(CryptoError):
    """Coordinates do not describe a point on the curve."""


class InvalidSignature(CryptoError):
    """Signature fields outside their valid ranges."""


class RecoveryFailed(CryptoError):
    """No public key can be recovered from the signature."""


class DecryptionFailed(CryptoError):
    """Ciphertext failed authentication or is malformed."""


class InvalidKey(CryptoError):
    """Symmetric key of the wrong length."""


class SignerMismatch(CryptoError):
    """Secret key does not match the claimed ring position."""


class RingTooSmall(CryptoError):
    """Ring signatures need at least two members."""


class MalformedRingSignature(CryptoError):
    """Ring signature structure is inconsistent (lengths, duplicates, ranges)."""


# ---------------------------------------------------------------- ledger


class LedgerError(FogTrustError):
    """Base class for ledger operation failures."""


class InvalidParams(LedgerError):
    """Ledger parameters violate their constraints."""


class AlreadyRegistered(LedgerError):
    pass


class NotRegistered(LedgerError):
    pass


class InvalidAmount(LedgerError):
    pass


class InsufficientDeposit(LedgerError):
    pass


class InsufficientFunds(LedgerError):
    pass


class BadSignature(LedgerError):
    """Caller signature missing, malformed or unverifiable."""


class UnknownOracle(LedgerError):
    pass


class UnknownFog(LedgerError):
    pass


class InvalidRingSignature(LedgerError):
    """Ring signature on an audit submission failed verification."""


class RingMemberNotInIoTTable(LedgerError):
    pass


# ------------------------------------------------------------ scheduling


class SchedulingError(FogTrustError):
    """Base class for audit scheduling failures."""


class InvalidDesign(SchedulingError):
    """Scheduler settings are unusable (policy, cluster size or roster), or
    an outcome names a node the weighted roster holds no live weight for."""


# -------------------------------------------------------------- protocol


class AuthError(FogTrustError):
    """Base class for mutual-authentication failures."""


class IoTNotRegistered(AuthError):
    pass


class FogNotRegistered(AuthError):
    pass


class ReputationBelowThreshold(AuthError):
    pass


class NoSession(AuthError):
    """The fog node holds no session with the requesting device."""


class ProtocolError(FogTrustError):
    """Base class for service-exchange failures."""


class PaymentFailed(ProtocolError):
    pass


class ChannelFailure(ProtocolError):
    """A frame the protocol cannot proceed without was lost in transit."""


# ------------------------------------------------------------ simulation


class SimulationError(FogTrustError):
    pass


class NonTerminating(SimulationError):
    """Scenario exceeded its hard attempt cap."""


# --------------------------------------------------------------- config


class InvalidConfig(FogTrustError):
    """Config file or CLI overrides are unusable."""


class IoError(FogTrustError):
    """A file the command needs could not be read or written."""
