"""ECDSA signing with public-key recovery.

Verification works blockchain-style: the verifier recovers the signer's
public point from (message, signature) and compares the derived address
against the ledger, so no public key travels with the call.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from .constants import digest
from .curve import CURVE_ORDER, FIELD_PRIME, GENERATOR, Point, mult_add, scalar_mult
from .errors import InvalidScalar, InvalidSignature, RecoveryFailed


@dataclass(frozen=True)
class Signature:
    r: int
    s: int
    recovery_hint: int  # bit 0: parity of R.y, bit 1: R.x overflowed the order

    def to_bytes(self) -> bytes:
        return (self.r.to_bytes(32, "big")
                + self.s.to_bytes(32, "big")
                + bytes([self.recovery_hint]))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 65:
            raise InvalidSignature(f"expected 65 bytes, got {len(raw)}")
        return cls(r=int.from_bytes(raw[:32], "big"),
                   s=int.from_bytes(raw[32:64], "big"),
                   recovery_hint=raw[64])


def _hash_to_int(message: bytes) -> int:
    return int.from_bytes(digest(message), "big") % CURVE_ORDER


def sign(message: bytes, secret: int, rng=None) -> Signature:
    if not (1 <= secret < CURVE_ORDER):
        raise InvalidScalar("secret must be in [1, order-1]")
    z = _hash_to_int(message)
    while True:
        if rng is None:
            nonce = 1 + secrets.randbelow(CURVE_ORDER - 1)
        else:
            nonce = rng.randrange(1, CURVE_ORDER)
        R = scalar_mult(nonce, GENERATOR)
        r = R.x % CURVE_ORDER
        if r == 0:
            continue
        s = pow(nonce, -1, CURVE_ORDER) * (z + r * secret) % CURVE_ORDER
        if s == 0:
            continue
        hint = (R.y & 1) | (2 if R.x >= CURVE_ORDER else 0)
        return Signature(r=r, s=s, recovery_hint=hint)


def recover(message: bytes, signature: Signature) -> Point:
    """Recover the signer's public point; raises RecoveryFailed otherwise."""
    r, s, hint = signature.r, signature.s, signature.recovery_hint
    # type() rather than isinstance(): True is an int but not a field value
    if not (type(r) is int and type(s) is int and type(hint) is int):
        raise InvalidSignature("signature fields must be integers")
    if not (1 <= r < CURVE_ORDER and 1 <= s < CURVE_ORDER and 0 <= hint <= 3):
        raise InvalidSignature("signature fields out of range")
    x = r + CURVE_ORDER if hint & 2 else r
    if x >= FIELD_PRIME:
        raise RecoveryFailed("nonce x-coordinate outside the field")
    y_sq = (pow(x, 3, FIELD_PRIME) + 7) % FIELD_PRIME
    y = pow(y_sq, (FIELD_PRIME + 1) // 4, FIELD_PRIME)
    if y * y % FIELD_PRIME != y_sq:
        raise RecoveryFailed("no curve point at the nonce x-coordinate")
    if (y & 1) != (hint & 1):
        y = FIELD_PRIME - y
    nonce_point = Point(x, y)
    z = _hash_to_int(message)
    r_inv = pow(r, -1, CURVE_ORDER)
    u1 = (-z * r_inv) % CURVE_ORDER
    u2 = (s * r_inv) % CURVE_ORDER
    public = mult_add(u1, u2, nonce_point)
    if public is None:
        raise RecoveryFailed("recovered the point at infinity")
    return public
