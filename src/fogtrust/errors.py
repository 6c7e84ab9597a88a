"""Exception hierarchy.

Every error the package raises descends from FogTrustError so callers can
catch by family. Each family carries its own exit status, ``exit_code``,
which the CLI returns for any error in it; the classes below a family
inherit it.
"""


class FogTrustError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# ---------------------------------------------------------------- crypto


class CryptoError(FogTrustError):
    """Base class for cryptographic failures."""

    exit_code = 9


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

    exit_code = 6


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

    exit_code = 10


class InvalidDesign(SchedulingError):
    """Scheduler settings are unusable (policy, cluster size or roster), or
    an outcome names a node the weighted roster holds no live weight for."""


# -------------------------------------------------------------- protocol


class AuthError(FogTrustError):
    """Base class for mutual-authentication failures."""

    exit_code = 5


class IoTNotRegistered(AuthError):
    pass


class FogNotRegistered(AuthError):
    pass


class ReputationBelowThreshold(AuthError):
    pass


class NoSession(AuthError):
    """The fog node holds no session with the requesting device."""


class SessionKeyMismatch(AuthError):
    """The two sides of a handshake derived different session keys."""


class PeerSignatureInvalid(AuthError):
    """A peer's signature does not verify against the key it presented."""


class ProtocolError(FogTrustError):
    """Base class for service-exchange failures."""

    exit_code = 7


class PaymentFailed(ProtocolError):
    pass


class ChannelFailure(ProtocolError):
    """A frame the protocol cannot proceed without was lost in transit."""


# ------------------------------------------------------------ simulation


class SimulationError(FogTrustError):
    exit_code = 8


class NonTerminating(SimulationError):
    """Scenario exceeded its hard attempt cap."""


# --------------------------------------------------------------- config


class InvalidConfig(FogTrustError):
    """Config file or CLI overrides are unusable."""

    exit_code = 3


class IoError(FogTrustError):
    """A file the command needs could not be read or written."""

    exit_code = 4
