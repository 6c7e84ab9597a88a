"""Keys, addresses and Diffie-Hellman shared secrets.

An identity is a secret scalar k and the public point P = k * G. The
on-ledger address is the last 20 bytes of the hash of the 64-byte public
point encoding, rendered as 0x-prefixed lowercase hex.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from .constants import digest
from .curve import CURVE_ORDER, GENERATOR, Point, scalar_mult
from .errors import InvalidPoint, InvalidScalar

ADDRESS_BYTES = 20


def random_scalar(rng=None) -> int:
    """Uniform in [1, order-1], from rng when given, else from secrets."""
    if rng is None:
        return 1 + secrets.randbelow(CURVE_ORDER - 1)
    return rng.randrange(1, CURVE_ORDER)


def require_secret(secret) -> int:
    """secret itself when it is an int in [1, order-1], else InvalidScalar."""
    # type() rather than isinstance(): True is an int but not a secret
    if type(secret) is not int or not (1 <= secret < CURVE_ORDER):
        raise InvalidScalar("secret must be in [1, order-1]")
    return secret


def derive_public(secret: int) -> Point:
    """P = k * G."""
    require_secret(secret)
    return scalar_mult(secret, GENERATOR)


def address_of(public: Point) -> str:
    """Last 20 bytes of H(x || y), 0x-prefixed."""
    return "0x" + digest(public.to_bytes())[-ADDRESS_BYTES:].hex()


def shared_secret(secret: int, peer_public: Point) -> bytes:
    """H(k_A * P_B); symmetric because k_A * (k_B G) = k_B * (k_A G)."""
    require_secret(secret)
    shared_point = scalar_mult(secret, peer_public)
    return digest(shared_point.to_bytes())


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: Point = field(compare=False)
    address: str = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "address", address_of(self.public))

    @classmethod
    def generate(cls, rng=None) -> "KeyPair":
        secret = random_scalar(rng)
        return cls(secret=secret, public=derive_public(secret))


# ---------------------------------------------------------------- encodings


def _bytes_from_hex(text: str, error, what: str) -> bytes:
    """The bytes of 0x-prefixed or bare hex text, else ``error``."""
    if not isinstance(text, str):
        raise error(f"{what} must be a hex string: {text!r}")
    try:
        return bytes.fromhex(text.removeprefix("0x"))
    except ValueError:
        raise error(f"{what} is not hex: {text!r}")


def secret_to_hex(secret: int) -> str:
    return "0x" + secret.to_bytes(32, "big").hex()


def secret_from_hex(text: str) -> int:
    raw = _bytes_from_hex(text, InvalidScalar, "secret")
    if len(raw) != 32:
        raise InvalidScalar(f"expected 32 bytes of secret, got {len(raw)}")
    return require_secret(int.from_bytes(raw, "big"))


def public_to_hex(public: Point) -> str:
    return "0x" + public.to_bytes().hex()


def public_from_hex(text: str) -> Point:
    return Point.from_bytes(_bytes_from_hex(text, InvalidPoint, "public key"))
