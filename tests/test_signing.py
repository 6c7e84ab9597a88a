"""ECDSA sign/recover/verify behaviour."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import keys, signing
from fogtrust.curve import CURVE_ORDER, FIELD_PRIME
from fogtrust.errors import InvalidScalar, InvalidSignature, RecoveryFailed

import oracles

messages = st.binary(min_size=0, max_size=256)


def test_recover_returns_signer_public_point():
    rng = random.Random(1)
    for _ in range(25):
        secret = rng.randrange(1, CURVE_ORDER)
        message = rng.randbytes(rng.randrange(1, 64))
        sig = signing.sign(message, secret, rng)
        assert signing.recover(message, sig) == keys.derive_public(secret)


@settings(max_examples=15, deadline=None)
@given(messages, st.integers(min_value=1, max_value=CURVE_ORDER - 1))
def test_recover_roundtrip_property(message, secret):
    sig = signing.sign(message, secret, random.Random(0))
    assert signing.recover(message, sig) == keys.derive_public(secret)


def test_signing_is_deterministic_given_rng():
    sig1 = signing.sign(b"payload", 777, random.Random(9))
    sig2 = signing.sign(b"payload", 777, random.Random(9))
    assert sig1 == sig2


def test_recovery_over_wrong_message_yields_other_identity():
    rng = random.Random(2)
    secret = rng.randrange(1, CURVE_ORDER)
    sig = signing.sign(b"original", secret, rng)
    genuine = keys.address_of(keys.derive_public(secret))
    try:
        other = signing.recover(b"tampered", sig)
    except RecoveryFailed:
        return
    assert keys.address_of(other) != genuine


def test_sign_rejects_bad_secret():
    for bad in (0, CURVE_ORDER, 1.5):
        with pytest.raises(InvalidScalar):
            signing.sign(b"x", bad)


def test_recover_rejects_out_of_range_fields():
    rng = random.Random(3)
    sig = signing.sign(b"x", 555, rng)
    for broken in (
        signing.Signature(0, sig.s, sig.recovery_hint, sig.public),
        signing.Signature(sig.r, 0, sig.recovery_hint, sig.public),
        signing.Signature(CURVE_ORDER, sig.s, sig.recovery_hint, sig.public),
        signing.Signature(sig.r, CURVE_ORDER, sig.recovery_hint, sig.public),
        signing.Signature(sig.r, sig.s, 4, sig.public),
    ):
        with pytest.raises(InvalidSignature):
            signing.recover(b"x", broken)


def test_signature_bytes_roundtrip():
    sig = signing.sign(b"frame", 31337, random.Random(4))
    raw = sig.to_bytes()
    assert len(raw) == signing.SIGNATURE_BYTES == 129
    assert raw[65:] == keys.derive_public(31337).to_bytes()
    assert signing.Signature.from_bytes(raw) == sig
    with pytest.raises(InvalidSignature):
        signing.Signature.from_bytes(raw[:128])


def test_signature_bytes_with_a_key_off_the_curve_or_no_key_do_not_decode():
    rng = random.Random(0x0FFC)
    for _ in range(3):
        sig = signing.sign(b"frame", rng.randrange(1, CURVE_ORDER), rng)
        raw = sig.to_bytes()
        # the key's y moved by one is off the curve, and the old 65-byte
        # encoding carries no key at all
        y = (sig.public.y + 1) % FIELD_PRIME
        for broken in (raw[:-32] + y.to_bytes(32, "big"),
                       raw[:65] + bytes(64),
                       raw[:65] + FIELD_PRIME.to_bytes(32, "big") + raw[-32:],
                       raw[:65]):
            with pytest.raises(InvalidSignature):
                signing.Signature.from_bytes(broken)


@pytest.mark.parametrize("raw", ["x" * 65, list(range(65)), None],
                         ids=["str", "list", "none"])
def test_signature_from_bytes_rejects_what_is_not_bytes(raw):
    with pytest.raises(InvalidSignature):
        signing.Signature.from_bytes(raw)


def test_recover_rejects_fields_that_are_not_ints():
    sig = signing.sign(b"x", 555, random.Random(5))
    for field, value in (("r", 1.5), ("s", 1.5), ("recovery_hint", 0.0),
                         ("r", True), ("s", True), ("recovery_hint", True),
                         ("s", str(sig.s)), ("recovery_hint", None)):
        with pytest.raises(InvalidSignature):
            signing.recover(b"x", replace(sig, **{field: value}))


def oracle_recover(message, sig):
    """u1 * G + u2 * R by the affine oracle, R the nonce point."""
    x = sig.r + CURVE_ORDER * (sig.recovery_hint >> 1)
    y = pow(x ** 3 + 7, (FIELD_PRIME + 1) // 4, FIELD_PRIME)
    if (y & 1) != (sig.recovery_hint & 1):
        y = FIELD_PRIME - y
    z = signing._hash_to_int(message)
    r_inv = pow(sig.r, -1, CURVE_ORDER)
    return oracles.affine_add(
        oracles.affine_scalar_mult(-z * r_inv, oracles.GEN),
        oracles.affine_scalar_mult(sig.s * r_inv, (x, y)))


def test_recover_over_other_messages_matches_oracle():
    # each recovery multiplies a fresh nonce point, so this checks the
    # table-free path of u1*G + u2*R on arbitrary results
    rng = random.Random(6)
    for _ in range(6):
        sig = signing.sign(b"signed", rng.randrange(1, CURVE_ORDER), rng)
        message = rng.randbytes(16)
        public = signing.recover(message, sig)
        assert (public.x, public.y) == oracle_recover(message, sig)


def test_recover_fails_when_the_sum_is_infinity():
    # s = z / rho for the nonce R = rho * G makes u1*G = -u2*R
    rng = random.Random(7)
    message = b"cancel"
    z = signing._hash_to_int(message)
    rho = rng.randrange(1, CURVE_ORDER)
    nonce = keys.derive_public(rho)
    sig = signing.Signature(r=nonce.x % CURVE_ORDER,
                            s=z * pow(rho, -1, CURVE_ORDER) % CURVE_ORDER,
                            recovery_hint=(nonce.y & 1)
                            | (2 if nonce.x >= CURVE_ORDER else 0),
                            public=nonce)
    assert oracle_recover(message, sig) is None
    with pytest.raises(RecoveryFailed):
        signing.recover(message, sig)


def _recovers_to(message, sig, public):
    try:
        return signing.recover(message, sig) == public
    except (InvalidSignature, RecoveryFailed):
        return False


TAMPERINGS = ("none", "hint_bit_0", "hint_bit_1", "r_bit", "s_bit",
              "s_negated", "low_s_twin", "out_of_range", "not_int",
              "other_key")
OUT_OF_RANGE = {"r": (0, -1, CURVE_ORDER, FIELD_PRIME),
                "s": (0, -1, CURVE_ORDER),
                "recovery_hint": (-1, 4, 255)}
NOT_INT = (1.5, True, None, "1")
scalars = st.integers(min_value=1, max_value=CURVE_ORDER - 1)


@settings(max_examples=60, deadline=None)
@given(message=messages, secret=scalars, other=scalars,
       tampering=st.sampled_from(TAMPERINGS), data=st.data())
def test_verify_agrees_with_recover_then_compare(message, secret, other,
                                                 tampering, data):
    sig = signing.sign(message, secret, random.Random(secret))
    public = keys.derive_public(secret)
    if tampering == "hint_bit_0":
        sig = replace(sig, recovery_hint=sig.recovery_hint ^ 1)
    elif tampering == "hint_bit_1":
        sig = replace(sig, recovery_hint=sig.recovery_hint ^ 2)
    elif tampering in ("r_bit", "s_bit"):
        name = tampering[0]
        bit = data.draw(st.integers(min_value=0, max_value=255))
        sig = replace(sig, **{name: getattr(sig, name) ^ (1 << bit)})
    elif tampering == "s_negated":
        sig = replace(sig, s=CURVE_ORDER - sig.s)
    elif tampering == "low_s_twin":
        # -s with the other parity names -R, which recovers the same key
        sig = replace(sig, s=CURVE_ORDER - sig.s,
                      recovery_hint=sig.recovery_hint ^ 1)
    elif tampering == "out_of_range":
        name = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        sig = replace(sig, **{name: data.draw(
            st.sampled_from(OUT_OF_RANGE[name]))})
    elif tampering == "not_int":
        name = data.draw(st.sampled_from(["r", "s", "recovery_hint"]))
        sig = replace(sig, **{name: data.draw(st.sampled_from(NOT_INT))})
    elif tampering == "other_key":
        public = keys.derive_public(other)
    expected = _recovers_to(message, sig, public)
    assert signing.verify(message, sig, public) is expected
    if tampering in ("none", "low_s_twin"):
        assert expected
