"""The verifier the ledger checks caller signatures and attestations with.

Agents always sign with ``signing`` and ``ring`` directly; only the ledger's
side is swappable.  It recovers each caller's address and reads each
verified ring attestation's members through this object, so a ledger whose
calls are signed in bulk can take ``simulation.TokenIdentity`` and verify
bearer tokens instead of curve signatures.  The studies need neither: they
call the ledger's state transitions directly and sign nothing.
"""

from __future__ import annotations

from . import keys, ring, signing
from .errors import (BadSignature, InvalidRingSignature, InvalidSignature,
                     MalformedRingSignature, RecoveryFailed, RingTooSmall)


class Secp256k1Identity:
    """Production scheme: ECDSA public-key recovery plus the audit ring signature."""

    def recover_address(self, message: bytes, signature) -> str:
        if not isinstance(signature, signing.Signature):
            raise BadSignature("not an ECDSA signature")
        try:
            public = signing.recover(message, signature)
        except (InvalidSignature, RecoveryFailed) as exc:
            raise BadSignature(str(exc)) from exc
        return keys.address_of(public)

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
