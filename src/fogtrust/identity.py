"""Pluggable identity scheme bundling the primitives the contract and agents use.

The ledger only ever needs the verifier half (address recovery plus ring
checks), while protocol agents also use the signer half.  Both halves are
gathered on one object so a deployment can swap the whole scheme at once,
e.g. for a lightweight stand-in during large simulations.
"""

from __future__ import annotations

from . import aead, keys, ring, signing
from .errors import (BadSignature, InvalidSignature, MalformedRingSignature,
                     RecoveryFailed, RingTooSmall)


class Secp256k1Identity:
    """Production scheme: ECDSA public-key recovery plus the audit ring signature."""

    name = "secp256k1"

    # -- verifier half (what the ledger consumes) --

    def recover_public(self, message: bytes, signature):
        if not isinstance(signature, signing.Signature):
            raise BadSignature("not an ECDSA signature")
        try:
            return signing.recover(message, signature)
        except (InvalidSignature, RecoveryFailed) as exc:
            raise BadSignature(str(exc)) from exc

    def recover_address(self, message: bytes, signature) -> str:
        return keys.address_of(self.recover_public(message, signature))

    def address_of_public(self, public) -> str:
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

    # -- signer half (what agents consume) --

    def sign(self, message: bytes, secret: int, rng=None):
        return signing.sign(message, secret, rng)

    def ring_sign(self, message: bytes, members, signer_index: int, secret: int, rng=None):
        return ring.ring_sign(message, members, signer_index, secret, rng)

    def shared_key(self, secret: int, peer_public) -> bytes:
        return keys.shared_secret(secret, peer_public)

    def encrypt(self, key: bytes, plaintext: bytes, rng=None) -> bytes:
        return aead.encrypt(key, plaintext, rng)

    def decrypt(self, key: bytes, blob: bytes) -> bytes:
        return aead.decrypt(key, blob)


DEFAULT_IDENTITY = Secp256k1Identity()
