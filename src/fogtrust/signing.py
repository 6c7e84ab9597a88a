"""ECDSA signatures that carry their signer's public key.

A signature is (r, s, hint) and the signer's 64-byte public point, 129
bytes on the wire: ``r || s || hint || x || y``, as a Bitcoin P2PKH input
carries its key beside its signature.  A verifier checks the signature
against the key it carries with ``verify`` and takes the signer's address
from that key, so it needs no key of its own: the contract checks every
call this way.  ``verify`` accepts exactly the signatures whose recovery
returns that key, so a signature verifies against at most one key.

``recover`` still computes the signer's key from (message, r, s, hint)
alone, the SEC 1 v2 4.1.6 recovery Ethereum uses for its senders: a
square root, then a product on the nonce point, which never gets a
table.  Its one caller is the fog's handshake step, which checks that the
key it recovers is the key the device's hello carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import digest
from .curve import (CURVE_ORDER, FIELD_PRIME, GENERATOR, Point, _sqrt,
                    key_mult_add, mult_add, scalar_mult)
from .errors import InvalidPoint, InvalidSignature, RecoveryFailed
from .keys import derive_public, random_scalar

SIGNATURE_BYTES = 129  # r, s, hint and the signer's 64-byte key


@dataclass(frozen=True)
class Signature:
    r: int
    s: int
    recovery_hint: int  # bit 0: parity of R.y, bit 1: R.x overflowed the order
    public: Point  # the signer's key, which verify checks the rest against

    def to_bytes(self) -> bytes:
        return (self.r.to_bytes(32, "big")
                + self.s.to_bytes(32, "big")
                + bytes([self.recovery_hint])
                + self.public.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if not isinstance(raw, bytes):
            raise InvalidSignature("signature must be bytes")
        if len(raw) != SIGNATURE_BYTES:
            raise InvalidSignature(f"expected {SIGNATURE_BYTES} bytes, "
                                   f"got {len(raw)}")
        try:
            public = Point.from_bytes(raw[65:])
        except InvalidPoint as exc:
            raise InvalidSignature(f"signer key: {exc}") from exc
        return cls(r=int.from_bytes(raw[:32], "big"),
                   s=int.from_bytes(raw[32:64], "big"),
                   recovery_hint=raw[64], public=public)


def _hash_to_int(message: bytes) -> int:
    return int.from_bytes(digest(message), "big") % CURVE_ORDER


def sign(message: bytes, secret: int, rng=None) -> Signature:
    public = derive_public(secret)
    z = _hash_to_int(message)
    while True:
        nonce = random_scalar(rng)
        R = scalar_mult(nonce, GENERATOR)
        r = R.x % CURVE_ORDER
        if r == 0:
            continue
        s = pow(nonce, -1, CURVE_ORDER) * (z + r * secret) % CURVE_ORDER
        if s == 0:
            continue
        hint = (R.y & 1) | (2 if R.x >= CURVE_ORDER else 0)
        return Signature(r=r, s=s, recovery_hint=hint, public=public)


def _fields(signature: Signature) -> tuple:
    """(r, s, hint), or InvalidSignature when they are not in range."""
    r, s, hint = signature.r, signature.s, signature.recovery_hint
    # type() rather than isinstance(): True is an int but not a field value
    if not (type(r) is int and type(s) is int and type(hint) is int):
        raise InvalidSignature("signature fields must be integers")
    if not (1 <= r < CURVE_ORDER and 1 <= s < CURVE_ORDER and 0 <= hint <= 3):
        raise InvalidSignature("signature fields out of range")
    return r, s, hint


def recover(message: bytes, signature: Signature) -> Point:
    """Recover the signer's public point; raises RecoveryFailed otherwise."""
    r, s, hint = _fields(signature)
    x = r + CURVE_ORDER if hint & 2 else r
    if x >= FIELD_PRIME:
        raise RecoveryFailed("nonce x-coordinate outside the field")
    y_sq = (x * x % FIELD_PRIME * x + 7) % FIELD_PRIME
    y = _sqrt(y_sq)
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


def verify(message: bytes, signature: Signature, public: Point) -> bool:
    """True exactly when recover(message, signature) would return public;
    False wherever recover would raise.

    With w = 1/s, the nonce point is R = (z * w) * G + (r * w) * public
    (SEC 1 v2, 4.1.4), summed in one accumulator with one inversion. R
    must be the point the hint names: x equal to r (plus the order when
    bit 1 is set) and y of the parity in bit 0. That pins the one R whose
    recovery gives public, with no square root taken. Each call counts
    one use of public towards a table, as a ring link counts its member:
    a signer's key recurs across calls.
    """
    try:
        r, s, hint = _fields(signature)
    except InvalidSignature:
        return False
    w = pow(s, -1, CURVE_ORDER)
    nonce = key_mult_add(_hash_to_int(message) * w, r * w, public)
    return (nonce is not None
            and nonce.x == (r + CURVE_ORDER if hint & 2 else r)
            and nonce.y & 1 == hint & 1)
