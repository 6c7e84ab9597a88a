"""The verifier the ledger checks caller signatures and attestations with.

Agents always sign with ``signing`` and ``ring`` directly; only the ledger's
side is swappable.  It recovers each caller's address and checks ring
attestations through this object, so bulk simulation runs can hand it
``simulation.TokenIdentity`` and verify bearer tokens instead of curve
signatures.
"""

from __future__ import annotations

from . import keys, ring, signing
from .errors import (BadSignature, InvalidSignature, MalformedRingSignature,
                     RecoveryFailed, RingTooSmall)


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

    def ring_verify(self, message: bytes, signature) -> bool:
        if not isinstance(signature, ring.RingSignature):
            return False
        try:
            return ring.ring_verify(message, signature)
        except (MalformedRingSignature, RingTooSmall):
            return False

    def ring_addresses(self, signature) -> tuple:
        return tuple(keys.address_of(member) for member in signature.ring)

    def sign(self, message: bytes, secret: int, rng=None):
        """A signature this scheme verifies; perfbench signs calls with it."""
        return signing.sign(message, secret, rng)


DEFAULT_IDENTITY = Secp256k1Identity()
