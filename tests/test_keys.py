"""Key derivation, addresses and shared secrets."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import keys
from fogtrust.curve import CURVE_ORDER
from fogtrust.errors import InvalidPoint, InvalidScalar

import oracles

secret_scalars = st.integers(min_value=1, max_value=CURVE_ORDER - 1)


def test_derive_public_matches_oracle_for_small_secrets():
    for k in (1, 2, 3, 7, 64, 12345):
        point = keys.derive_public(k)
        assert (point.x, point.y) == oracles.affine_scalar_mult(k, oracles.GEN)


def test_derive_public_rejects_out_of_range_secrets():
    for bad in (0, -1, CURVE_ORDER, CURVE_ORDER + 5, True):
        with pytest.raises(InvalidScalar):
            keys.derive_public(bad)
    with pytest.raises(InvalidScalar):
        keys.derive_public("2")


def test_address_is_trailing_twenty_bytes_of_hash():
    point = keys.derive_public(99)
    expected = hashlib.sha256(
        point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
    ).digest()[-20:]
    address = keys.address_of(point)
    assert address == "0x" + expected.hex()
    assert len(address) == 42


def test_addresses_distinct_across_sample():
    rng = random.Random(11)
    seen = {keys.address_of(keys.derive_public(rng.randrange(1, CURVE_ORDER)))
            for _ in range(200)}
    assert len(seen) == 200


def test_shared_secret_is_symmetric():
    rng = random.Random(21)
    for _ in range(10):
        a = rng.randrange(1, CURVE_ORDER)
        b = rng.randrange(1, CURVE_ORDER)
        pa = keys.derive_public(a)
        pb = keys.derive_public(b)
        assert keys.shared_secret(a, pb) == keys.shared_secret(b, pa)


def test_shared_secret_against_reference_math():
    # k_a=2, k_b=3 -> shared point is 6*G
    shared_point = oracles.affine_scalar_mult(6, oracles.GEN)
    raw = shared_point[0].to_bytes(32, "big") + shared_point[1].to_bytes(32, "big")
    expected = hashlib.sha256(raw).digest()
    assert keys.shared_secret(2, keys.derive_public(3)) == expected
    assert keys.shared_secret(3, keys.derive_public(2)) == expected


def test_shared_secret_differs_for_third_party():
    a, b, eve = 1001, 2002, 3003
    key_ab = keys.shared_secret(a, keys.derive_public(b))
    key_eb = keys.shared_secret(eve, keys.derive_public(b))
    assert key_ab != key_eb


def test_shared_secret_rejects_bad_secret():
    peer = keys.derive_public(3)
    for bad in (0, CURVE_ORDER, 2.0):
        with pytest.raises(InvalidScalar):
            keys.shared_secret(bad, peer)


def test_keypair_generation_deterministic_with_rng():
    pair1 = keys.KeyPair.generate(random.Random(5))
    pair2 = keys.KeyPair.generate(random.Random(5))
    assert pair1.secret == pair2.secret
    assert pair1.address == pair2.address
    assert pair1.public == keys.derive_public(pair1.secret)


def test_keypair_generation_without_rng_gives_valid_key():
    pair = keys.KeyPair.generate()
    assert 1 <= pair.secret < CURVE_ORDER
    assert pair.address.startswith("0x")


@settings(max_examples=20)
@given(secret_scalars)
def test_secret_hex_roundtrip(secret):
    assert keys.secret_from_hex(keys.secret_to_hex(secret)) == secret


def test_secret_from_hex_validates_range():
    with pytest.raises(InvalidScalar):
        keys.secret_from_hex("0x" + "00" * 32)
    with pytest.raises(InvalidScalar):
        keys.secret_from_hex("0x" + CURVE_ORDER.to_bytes(32, "big").hex())
    with pytest.raises(InvalidScalar):
        keys.secret_from_hex("0xabcd")


def test_secret_from_hex_rejects_non_hex():
    for text in ("0xzz", None, 7, b"\x01" * 32):
        with pytest.raises(InvalidScalar):
            keys.secret_from_hex(text)


def test_public_hex_roundtrip():
    point = keys.derive_public(424242)
    text = keys.public_to_hex(point)
    assert len(text) == 2 + 128
    assert keys.public_from_hex(text) == point


@pytest.mark.parametrize("text", ["zz", "0x" + "zz" * 64, None, 7,
                                  b"\x04" * 64],
                         ids=["short", "long", "none", "int", "bytes"])
def test_public_from_hex_rejects_what_is_not_hex_text(text):
    with pytest.raises(InvalidPoint):
        keys.public_from_hex(text)
