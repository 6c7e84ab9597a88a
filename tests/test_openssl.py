"""Keys, products and signatures against OpenSSL, an independent secp256k1.

OpenSSL is reached through ``cryptography``, which no package module
imports. The seeded cases take the secrets and scalars 1, n - 1, one below
2^128 (no GLV split) and one whose split has two nonzero halves, on points
with and without a table; the Hypothesis cases draw random keys, scalars
and messages, with those four among them.
"""

import random

import pytest
from cryptography.exceptions import InvalidSignature as OpenSSLRejected
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed, decode_dss_signature, encode_dss_signature)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogtrust import curve, keys, signing
from fogtrust.constants import digest
from fogtrust.errors import InvalidPoint, InvalidSignature, RecoveryFailed

N = curve.CURVE_ORDER
P = curve.FIELD_PRIME
SECP256K1 = ec.SECP256K1()
ECDSA = ec.ECDSA(Prehashed(hashes.SHA256()))

RNG = random.Random(0x0551)
HALF_LENGTH = RNG.randrange(1 << 127, 1 << 128)
SPLIT = RNG.randrange(1 << 255, N)
SCALARS = [1, N - 1, HALF_LENGTH, SPLIT]
SCALAR_IDS = ["1", "n-1", "below-2^128", "glv-split"]
MESSAGES = [b"iot_fog_payment 7", b"fog_reward 3"]


def test_scalars_take_the_paths_they_are_named_for():
    assert HALF_LENGTH >> curve._HALF_BITS == 0
    assert all(curve._glv_split(SPLIT))


@pytest.fixture(autouse=True)
def _empty_table_cache():
    """Every test starts with no member table, so "cold" stays cold."""
    curve._tables.clear()
    curve._use_counts.clear()
    yield
    curve._tables.clear()
    curve._use_counts.clear()


def openssl_private(secret):
    return ec.derive_private_key(secret, SECP256K1)


def openssl_public(point):
    return ec.EllipticCurvePublicNumbers(point.x, point.y, SECP256K1).public_key()


def point_of_public(key):
    numbers = key.public_numbers()
    return curve.Point(numbers.x, numbers.y)


def point_of(private):
    """The public point of an OpenSSL private key."""
    return point_of_public(private.public_key())


def cold(point):
    """A fresh copy of point with no table, which one use leaves cold."""
    curve._tables.pop((point.x, point.y), None)
    curve._use_counts.pop((point.x, point.y), None)
    return curve.Point(point.x, point.y)


def warm(point):
    """A fresh copy of point whose coordinates have a table."""
    for _ in range(3):
        curve.scalar_mult(2, curve.Point(point.x, point.y))
    assert (point.x, point.y) in curve._tables
    return curve.Point(point.x, point.y)


def openssl_accepts(message, r, s, public):
    try:
        openssl_public(public).verify(encode_dss_signature(r, s),
                                      digest(message), ECDSA)
    except OpenSSLRejected:
        return False
    return True


def verifying_hints(message, r, s, public, copy=lambda point: point):
    """The hints under which signing.verify accepts (r, s) for public,
    each checked against copy(public)."""
    return [hint for hint in range(4) if signing.verify(
        message, signing.Signature(r, s, hint, copy(public)))]


def recovers(message, r, s, hint, public):
    try:
        return signing.recover(message, signing.Signature(r, s, hint, public)) == public
    except RecoveryFailed:
        return False


@pytest.mark.parametrize("secret", SCALARS, ids=SCALAR_IDS)
def test_derive_public_matches_openssl(secret):
    assert keys.derive_public(secret) == point_of(openssl_private(secret))


@pytest.mark.parametrize("secret", SCALARS, ids=SCALAR_IDS)
def test_openssl_verifies_every_signature_and_rejects_every_flip(secret):
    rng = random.Random(secret)
    public = keys.derive_public(secret)
    for message in MESSAGES:
        sig = signing.sign(message, secret, rng)
        assert openssl_accepts(message, sig.r, sig.s, public)
        assert verifying_hints(message, sig.r, sig.s, public) == [sig.recovery_hint]
        for bit in (0, 77, 255):
            assert not openssl_accepts(message, sig.r ^ 1 << bit, sig.s, public)
            assert not openssl_accepts(message, sig.r, sig.s ^ 1 << bit, public)
            assert verifying_hints(message, sig.r ^ 1 << bit, sig.s, public) == []
            assert verifying_hints(message, sig.r, sig.s ^ 1 << bit, public) == []
        # s -> n - s negates the nonce point: OpenSSL accepts it, and so
        # does verify, but only under the other parity
        assert openssl_accepts(message, sig.r, N - sig.s, public)
        assert verifying_hints(message, sig.r, N - sig.s, public) == \
            [sig.recovery_hint ^ 1]


@pytest.mark.parametrize("secret", SCALARS, ids=SCALAR_IDS)
def test_one_hint_verifies_each_openssl_signature_and_recovers_the_key(secret):
    key = openssl_private(secret)
    for message in MESSAGES:
        r, s = decode_dss_signature(key.sign(digest(message), ECDSA))
        public = point_of(key)
        for copy in (cold, warm):
            (hint,) = verifying_hints(message, r, s, public, copy)
            assert [recovers(message, r, s, h, public) for h in range(4)] == \
                [h == hint for h in range(4)]


def test_a_flipped_bit_in_the_carried_key_is_refused_by_both():
    rng = random.Random(0xF11B)
    secret = SPLIT
    public = keys.derive_public(secret)
    sig = signing.sign(MESSAGES[0], secret, rng)
    raw = sig.to_bytes()
    lifted = 0
    for bit in range(0, 256, 3):
        flipped = bytearray(raw)
        flipped[65 + 31 - bit // 8] ^= 1 << bit % 8  # bit of the key's x
        encoded = b"\x04" + bytes(flipped[65:])
        with pytest.raises(InvalidSignature):
            signing.Signature.from_bytes(bytes(flipped))
        with pytest.raises(ValueError):
            ec.EllipticCurvePublicKey.from_encoded_point(SECP256K1, encoded)
        # the other key at the flipped x, where there is one, is a valid
        # key that did not sign
        x = public.x ^ 1 << bit
        y = pow((x * x * x + 7) % P, (P + 1) // 4, P)
        if x < P and y * y % P == (x * x * x + 7) % P:
            other = curve.Point(x, y)
            lifted += 1
            assert not openssl_accepts(MESSAGES[0], sig.r, sig.s, other)
            assert verifying_hints(MESSAGES[0], sig.r, sig.s, other) == []
    assert lifted


def test_point_from_bytes_refuses_exactly_what_openssl_refuses():
    rng = random.Random(0xB17E)
    public = keys.derive_public(SPLIT)
    y1 = pow(8, (P + 1) // 4, P)  # (1, y1) is on the curve
    encodings = [public.to_bytes(), curve.Point(1, y1).to_bytes(),
                 curve.Point(1, P - y1).to_bytes(),
                 (1 + P).to_bytes(32, "big") + y1.to_bytes(32, "big"),
                 (public.x ^ 1).to_bytes(32, "big") + public.y.to_bytes(32, "big"),
                 bytes(64), b"\xff" * 64]
    encodings += [rng.randbytes(64) for _ in range(8)]
    verdicts = []
    for raw in encodings:
        try:
            ours = curve.Point.from_bytes(raw)
        except InvalidPoint:
            ours = None
        try:
            theirs = point_of_public(ec.EllipticCurvePublicKey.from_encoded_point(
                SECP256K1, b"\x04" + raw))
        except ValueError:
            theirs = None
        assert ours == theirs, raw.hex()
        verdicts.append(ours is not None)
    assert verdicts[:4] == [True, True, True, False]


def test_a_nonce_x_past_the_order_sets_the_overflow_bit():
    """A signature whose nonce point has x >= n, for the key that solves
    the verification equation: OpenSSL accepts it with r = x - n, and
    only the hint with bit 1 set verifies and recovers it."""
    rng = random.Random(0x0F)
    message = MESSAGES[0]
    z = int.from_bytes(digest(message), "big") % N
    r = 1
    while True:
        x = N + r
        y = pow((x * x * x + 7) % P, (P + 1) // 4, P)
        if y * y % P == (x * x * x + 7) % P:
            break
        r += 1
    nonce = curve.Point(x, y)
    s = rng.randrange(1, N)
    # public = (s * R - z * G) / r
    r_inv = pow(r, -1, N)
    public = curve.mult_add(-z * r_inv, s * r_inv, nonce)
    assert openssl_accepts(message, r, s, public)
    for copy in (cold, warm):
        assert verifying_hints(message, r, s, public, copy) == [2 | y & 1]
    assert [recovers(message, r, s, h, public) for h in range(4)] == \
        [h == 2 | y & 1 for h in range(4)]


@pytest.mark.parametrize("k", SCALARS, ids=SCALAR_IDS)
def test_scalar_mult_x_matches_openssl_ecdh_on_cold_and_warm_points(k):
    rng = random.Random(k)
    own = openssl_private(k)
    for _ in range(2):
        peer = point_of(openssl_private(rng.randrange(1, N)))
        want = own.exchange(ec.ECDH(), openssl_public(peer))
        for point in (cold(peer), warm(peer)):
            assert curve.scalar_mult(k, point).x.to_bytes(32, "big") == want


# the autouse fixture empties the cache once per test, not per example;
# cold() and warm() set each example's point up themselves
RANDOM_CASES = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
scalars = st.one_of(st.sampled_from(SCALARS), st.integers(1, N - 1))


@RANDOM_CASES
@given(secret=scalars, message=st.binary(max_size=64),
       copy=st.sampled_from([cold, warm]))
def test_random_keys_and_messages_sign_and_verify_both_ways(secret, message,
                                                           copy):
    key = openssl_private(secret)
    public = point_of(key)
    assert keys.derive_public(secret) == public
    # ours to OpenSSL: it accepts, and verify accepts only the signed hint
    sig = signing.sign(message, secret, random.Random(secret))
    assert sig.public == public
    assert openssl_accepts(message, sig.r, sig.s, public)
    assert verifying_hints(message, sig.r, sig.s, public, copy) == \
        [sig.recovery_hint]
    # OpenSSL to ours: one hint verifies, and it recovers the key
    r, s = decode_dss_signature(key.sign(digest(message), ECDSA))
    (hint,) = verifying_hints(message, r, s, public, copy)
    assert signing.recover(message, signing.Signature(r, s, hint, public)) \
        == public


@RANDOM_CASES
@given(k=scalars, peer_secret=st.integers(1, N - 1),
       copy=st.sampled_from([cold, warm]))
def test_random_scalars_match_openssl_ecdh(k, peer_secret, copy):
    peer = point_of(openssl_private(peer_secret))
    want = openssl_private(k).exchange(ec.ECDH(), openssl_public(peer))
    assert curve.scalar_mult(k, copy(peer)).x.to_bytes(32, "big") == want
