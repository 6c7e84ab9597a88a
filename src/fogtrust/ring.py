"""Ring signatures over secp256k1.

A ring signature proves that one of n listed public keys signed the message
without revealing which. Construction: the ring is hashed once,

    r = H("fogtrust/ring/v2" || P_0 || ... || P_{n-1})

and the signer at position j picks a random q and sets T_j = q * G, then
walks the ring cyclically from j+1, deriving each challenge from the ring
digest, the previous commitment's x-coordinate and the message,

    c_i = H(r || x_{i-1} || message), its first 128 bits
    T_i = sigma_i * G + c_i * P_i      with random sigma_i

and finally closes the loop at the signer's own slot:

    sigma_j = q - c_j * k_j  (mod order)

which makes T_j = sigma_j * G + c_j * P_j = q * G hold for the verifier.
The published signature is (c_0, sigma_0..sigma_{n-1}, P_0..P_{n-1}); the
verifier rebuilds the whole commitment chain and accepts iff it closes back
to the published first challenge.

Every challenge names the ordered ring (Abe, Ohkubo and Suzuki,
ASIACRYPT 2002), so a signature's ring and responses cannot be rotated
into a second encoding that verifies without a secret key. Challenges
keep 128 bits, half the group's length, which keeps secp256k1's ~128-bit
security for Schnorr-type signatures that hash the commitment before the
message (Neven, Smart and Warinschi, J. Math. Cryptology 2009), and lets
c_i * P_i skip the GLV split in ``fogtrust.curve``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .constants import digest
from .curve import CURVE_ORDER, GENERATOR, Point, link_x, scalar_mult
from .errors import InvalidPoint, MalformedRingSignature, RingTooSmall, SignerMismatch
from .keys import derive_public, public_from_hex, public_to_hex, random_scalar

MIN_RING = 2
_CHALLENGE_BYTES = 16
_CHALLENGE_LIMIT = 1 << (8 * _CHALLENGE_BYTES)


@dataclass(frozen=True)
class RingSignature:
    challenge: int                 # c_0, the chain seed the verifier closes on
    responses: tuple               # sigma_i, one per ring slot
    ring: tuple                    # public points, order matters

    def to_json(self) -> str:
        return json.dumps({
            "challenge": hex(self.challenge),
            "responses": [hex(s) for s in self.responses],
            "ring": [public_to_hex(p) for p in self.ring],
        })

    @classmethod
    def from_json(cls, text: str) -> "RingSignature":
        try:
            data = json.loads(text)
            responses, ring = data["responses"], data["ring"]
            for values in (responses, ring):
                if not (isinstance(values, list)
                        and all(isinstance(v, str) for v in values)):
                    raise TypeError("responses and ring must be lists of str")
            return cls(
                challenge=int(data["challenge"], 16),
                responses=tuple(int(s, 16) for s in responses),
                ring=tuple(public_from_hex(p) for p in ring),
            )
        except (KeyError, TypeError, ValueError, InvalidPoint) as exc:
            raise MalformedRingSignature(str(exc)) from exc


def _ring_digest(ring: Sequence[Point]) -> bytes:
    return digest(b"fogtrust/ring/v2" + b"".join(p.to_bytes() for p in ring))


def _chain_challenge(ring_digest: bytes, commitment_x: int, message: bytes) -> int:
    payload = ring_digest + commitment_x.to_bytes(32, "big") + message
    return int.from_bytes(digest(payload)[:_CHALLENGE_BYTES], "big")


def _check_ring(ring: Sequence[Point]) -> None:
    if len(ring) < MIN_RING:
        raise RingTooSmall(f"need at least {MIN_RING} members, got {len(ring)}")
    seen = set()
    for p in ring:
        if not isinstance(p, Point):
            raise MalformedRingSignature("ring members must be curve points")
        if (p.x, p.y) in seen:
            raise MalformedRingSignature("duplicate ring member")
        seen.add((p.x, p.y))


def ring_sign(message: bytes, ring: Sequence[Point], signer_index: int,
              secret: int, rng=None) -> RingSignature:
    _check_ring(ring)
    n = len(ring)
    if not (0 <= signer_index < n):
        raise SignerMismatch(f"signer index {signer_index} outside ring of {n}")
    if derive_public(secret) != ring[signer_index]:
        raise SignerMismatch("secret key does not match the ring slot")

    j = signer_index
    ring_digest = _ring_digest(ring)
    responses = [0] * n
    q = random_scalar(rng)
    commitment = scalar_mult(q, GENERATOR).x

    # walk j+1, j+2, ..., wrapping, and close the loop at j; the published
    # challenge is the one derived for slot 0
    for i in (*range(j + 1, n), *range(j + 1)):
        challenge = _chain_challenge(ring_digest, commitment, message)
        if i == 0:
            first_challenge = challenge
        if i == j:
            responses[j] = (q - challenge * secret) % CURVE_ORDER
        else:
            commitment = None
            while commitment is None:
                responses[i] = random_scalar(rng)
                commitment = link_x(responses[i], challenge, ring[i])

    return RingSignature(challenge=first_challenge,
                         responses=tuple(responses),
                         ring=tuple(ring))


def ring_verify(message: bytes, signature: RingSignature) -> bool:
    ring = signature.ring
    responses = signature.responses
    if not (type(ring) is tuple and type(responses) is tuple):
        raise MalformedRingSignature("ring and responses must be tuples")
    _check_ring(ring)
    if len(responses) != len(ring):
        raise MalformedRingSignature("one response required per ring member")
    # type() rather than isinstance(): True is an int but not a scalar
    if not (type(signature.challenge) is int
            and 0 <= signature.challenge < _CHALLENGE_LIMIT):
        raise MalformedRingSignature("challenge out of range")
    for s in responses:
        if not (type(s) is int and 0 <= s < CURVE_ORDER):
            raise MalformedRingSignature("response out of range")

    ring_digest = _ring_digest(ring)
    commitment = link_x(responses[0], signature.challenge, ring[0])
    if commitment is None:
        return False
    for i in range(1, len(ring)):
        c_i = _chain_challenge(ring_digest, commitment, message)
        commitment = link_x(responses[i], c_i, ring[i])
        if commitment is None:
            return False
    return _chain_challenge(ring_digest, commitment, message) == signature.challenge
