"""The verifier the ledger checks caller signatures and attestations with.

Agents always sign with ``signing`` and ``ring`` directly; only the ledger's
side is swappable.  It names each caller's address and reads each verified
ring attestation's members through this object, so a ledger whose calls are
signed in bulk can take ``simulation.TokenIdentity`` and verify bearer
tokens instead of curve signatures.  The studies need neither: they call
the ledger's state transitions directly and sign nothing.
"""

from __future__ import annotations

from . import keys, ring, signing
from .curve import Point
from .errors import (BadSignature, InvalidRingSignature,
                     MalformedRingSignature, RingTooSmall)


class Secp256k1Identity:
    """Production scheme: ECDSA verified against the key each signature
    carries, plus the audit ring signature."""

    def caller_address(self, message: bytes, signature) -> str:
        """The address of the key ``signature`` carries, when the signature
        verifies over ``message`` against that key; else BadSignature.

        ``signing.verify`` accepts exactly the signatures whose recovery
        returns the key, so this names the caller a recovery would, with
        one sum on the key's table and no square root.
        """
        if not (isinstance(signature, signing.Signature)
                and isinstance(signature.public, Point)):
            raise BadSignature("not an ECDSA signature carrying its key")
        if not signing.verify(message, signature, signature.public):
            raise BadSignature("signature does not verify against the key "
                               "it carries")
        return keys.address_of(signature.public)

    def ring_members(self, message: bytes, attestation) -> tuple:
        """The member addresses of a ring that verifies over ``message``;
        else InvalidRingSignature, caused by the ring check that refused."""
        if not isinstance(attestation, ring.RingSignature):
            raise InvalidRingSignature("not a ring signature")
        try:
            verified = ring.ring_verify(message, attestation)
        except (MalformedRingSignature, RingTooSmall) as exc:
            raise InvalidRingSignature(str(exc)) from exc
        if not verified:
            raise InvalidRingSignature("audit attestation does not verify")
        return tuple(keys.address_of(member) for member in attestation.ring)

    def sign(self, message: bytes, secret: int, rng=None):
        """A signature this scheme verifies; perfbench signs calls with it."""
        return signing.sign(message, secret, rng)


DEFAULT_IDENTITY = Secp256k1Identity()
