"""Ring signature construction, rejection paths and signer anonymity."""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from fogtrust import curve, ring
from fogtrust.curve import CURVE_ORDER
from fogtrust.errors import MalformedRingSignature, RingTooSmall, SignerMismatch
from fogtrust.keys import KeyPair

# shared key pool; reuse keeps the curve layer on its precomputed-table path
_RNG = random.Random(0xA11CE)
POOL = [KeyPair.generate(_RNG) for _ in range(33)]


def make_ring(n, rng):
    members = rng.sample(POOL, n)
    return members, [m.public for m in members]


def test_sign_verify_every_position_in_small_rings():
    rng = random.Random(1)
    for n in range(2, 9):
        members, pubs = make_ring(n, rng)
        for j in range(n):
            message = rng.randbytes(24)
            sig = ring.ring_sign(message, pubs, j, members[j].secret, rng)
            assert ring.ring_verify(message, sig), f"n={n} j={j}"


def test_sign_verify_spot_checks_in_larger_rings():
    rng = random.Random(2)
    for n, positions in ((12, (0, 5, 11)), (32, (0, 17, 31))):
        members, pubs = make_ring(n, rng)
        for j in positions:
            message = rng.randbytes(48)
            sig = ring.ring_sign(message, pubs, j, members[j].secret, rng)
            assert ring.ring_verify(message, sig)


# sha256 over seeded signatures: the signer at the first, a middle and the
# last slot of rings of 2, 3 and 8; a change here changes signature bytes
PINNED_RING_SIGN_DIGEST = (
    "ed12968f904c1ba3c37bbc4a52d1a273de8f0e1c687bcf5724ea7d0cd738c2c7")


def test_seeded_signature_bytes_are_pinned():
    rng = random.Random(17)
    signatures = bytearray()
    for n in (2, 3, 8):
        members, pubs = make_ring(n, rng)
        for j in sorted({0, n // 2, n - 1}):
            message = b"pin %d/%d" % (j, n)
            sig = ring.ring_sign(message, pubs, j, members[j].secret, rng)
            signatures += sig.challenge.to_bytes(16, "big")
            for s in sig.responses:
                signatures += s.to_bytes(32, "big")
    assert hashlib.sha256(signatures).hexdigest() == PINNED_RING_SIGN_DIGEST


def test_verification_fails_for_different_message():
    rng = random.Random(3)
    members, pubs = make_ring(4, rng)
    sig = ring.ring_sign(b"genuine", pubs, 2, members[2].secret, rng)
    assert not ring.ring_verify(b"forged", sig)


def test_single_bit_flip_in_message_rejected():
    rng = random.Random(4)
    members, pubs = make_ring(3, rng)
    message = bytearray(rng.randbytes(32))
    sig = ring.ring_sign(bytes(message), pubs, 0, members[0].secret, rng)
    bit = rng.randrange(len(message) * 8)
    message[bit // 8] ^= 1 << (bit % 8)
    assert not ring.ring_verify(bytes(message), sig)


def test_tampered_challenge_rejected():
    rng = random.Random(5)
    members, pubs = make_ring(3, rng)
    sig = ring.ring_sign(b"m", pubs, 1, members[1].secret, rng)
    tampered = ring.RingSignature(challenge=sig.challenge ^ 1,
                                  responses=sig.responses,
                                  ring=sig.ring)
    assert not ring.ring_verify(b"m", tampered)


def test_tampered_response_rejected():
    rng = random.Random(6)
    members, pubs = make_ring(5, rng)
    sig = ring.ring_sign(b"m", pubs, 3, members[3].secret, rng)
    for slot in range(5):
        responses = list(sig.responses)
        responses[slot] = (responses[slot] + 1) % CURVE_ORDER
        tampered = ring.RingSignature(sig.challenge, tuple(responses), sig.ring)
        assert not ring.ring_verify(b"m", tampered), f"slot={slot}"


def test_substituted_ring_member_rejected():
    rng = random.Random(7)
    members, pubs = make_ring(4, rng)
    sig = ring.ring_sign(b"m", pubs, 0, members[0].secret, rng)
    outsider = KeyPair.generate(rng).public
    swapped = list(sig.ring)
    swapped[2] = outsider
    tampered = ring.RingSignature(sig.challenge, sig.responses, tuple(swapped))
    assert not ring.ring_verify(b"m", tampered)


def test_random_forgery_rejected():
    rng = random.Random(8)
    _, pubs = make_ring(4, rng)
    forged = ring.RingSignature(
        challenge=rng.randrange(1 << 128),
        responses=tuple(rng.randrange(CURVE_ORDER) for _ in range(4)),
        ring=tuple(pubs),
    )
    assert not ring.ring_verify(b"anything", forged)
    # a challenge is 128 bits: a full-length one is malformed, not wrong
    full_length = replace(forged, challenge=rng.randrange(1 << 128, CURVE_ORDER))
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"anything", full_length)


def test_rotated_encoding_of_a_signature_is_rejected():
    """Each challenge hashes the ordered ring, so a signature has one
    encoding: rotating the ring and the responses by one, with c_1
    recomputed from link 0 and no secret key, must not verify."""
    rng = random.Random(16)
    members, pubs = make_ring(3, rng)
    message = b"one encoding"
    sig = ring.ring_sign(message, pubs, 1, members[1].secret, rng)
    assert ring.ring_verify(message, sig)
    first_link = curve.link_x(sig.responses[0], sig.challenge, sig.ring[0])
    c_1 = ring._chain_challenge(ring._ring_digest(sig.ring), first_link, message)
    rotated = ring.RingSignature(c_1, sig.responses[1:] + sig.responses[:1],
                                 sig.ring[1:] + sig.ring[:1])
    assert not ring.ring_verify(message, rotated)


def test_ring_too_small():
    rng = random.Random(9)
    members, pubs = make_ring(2, rng)
    with pytest.raises(RingTooSmall):
        ring.ring_sign(b"m", pubs[:1], 0, members[0].secret, rng)
    sig = ring.ring_sign(b"m", pubs, 0, members[0].secret, rng)
    with pytest.raises(RingTooSmall):
        ring.ring_verify(b"m", ring.RingSignature(sig.challenge,
                                                  sig.responses[:1],
                                                  sig.ring[:1]))


def test_signer_mismatch():
    rng = random.Random(10)
    members, pubs = make_ring(3, rng)
    with pytest.raises(SignerMismatch):
        ring.ring_sign(b"m", pubs, 0, members[1].secret, rng)
    with pytest.raises(SignerMismatch):
        ring.ring_sign(b"m", pubs, 5, members[0].secret, rng)


def test_duplicate_ring_member_rejected():
    rng = random.Random(11)
    members, pubs = make_ring(3, rng)
    duped = [pubs[0], pubs[1], pubs[0]]
    with pytest.raises(MalformedRingSignature):
        ring.ring_sign(b"m", duped, 1, members[1].secret, rng)


@pytest.mark.parametrize("attestation", [
    None, object(), b"{}", "{}", (1, (1, 1), ()),
], ids=["none", "object", "bytes", "json-text", "fields-tuple"])
def test_ring_verify_refuses_what_is_not_a_ring_signature(attestation):
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", attestation)


def test_structural_validation_on_verify():
    rng = random.Random(12)
    members, pubs = make_ring(3, rng)
    sig = ring.ring_sign(b"m", pubs, 0, members[0].secret, rng)
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", ring.RingSignature(sig.challenge,
                                                  sig.responses + (1,),
                                                  sig.ring))
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", ring.RingSignature(CURVE_ORDER,
                                                  sig.responses,
                                                  sig.ring))
    bad_responses = (CURVE_ORDER,) + sig.responses[1:]
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", ring.RingSignature(sig.challenge,
                                                  bad_responses,
                                                  sig.ring))
    # True is an int, but not a scalar: no second encoding of 1
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", ring.RingSignature(True, sig.responses,
                                                  sig.ring))
    with pytest.raises(MalformedRingSignature):
        ring.ring_verify(b"m", ring.RingSignature(sig.challenge,
                                                  (True,) + sig.responses[1:],
                                                  sig.ring))


def test_json_roundtrip_still_verifies():
    rng = random.Random(13)
    members, pubs = make_ring(4, rng)
    sig = ring.ring_sign(b"payload", pubs, 2, members[2].secret, rng)
    restored = ring.RingSignature.from_json(sig.to_json())
    assert restored == sig
    assert ring.ring_verify(b"payload", restored)
    with pytest.raises(MalformedRingSignature):
        ring.RingSignature.from_json("{\"challenge\": \"0x1\"}")


def _edited_json(sig, **edits):
    document = json.loads(sig.to_json())
    document.update(edits)
    return json.dumps(document)


def test_from_json_raises_its_typed_error_on_malformed_documents():
    rng = random.Random(15)
    members, pubs = make_ring(2, rng)
    sig = ring.ring_sign(b"m", pubs, 0, members[0].secret, rng)
    ring_hex = json.loads(sig.to_json())["ring"]
    off_curve = "0x" + (1).to_bytes(32, "big").hex() * 2
    documents = [
        _edited_json(sig, ring=[ring_hex[0], 7]),       # not a string
        _edited_json(sig, responses="12"),              # not a list
        _edited_json(sig, ring=ring_hex[0]),            # not a list
        _edited_json(sig, ring=[ring_hex[0], off_curve]),
        _edited_json(sig, ring=[ring_hex[0], "0xzz"]),
        "[]",
        "not json",
        "[" * 100_000,                                  # nested past the stack
    ]
    for document in documents:
        with pytest.raises(MalformedRingSignature) as caught:
            ring.RingSignature.from_json(document)
        assert caught.value.__cause__ is not None


def test_verifier_visible_fields_carry_no_signer_information():
    """Chi-square independence between signer position and published fields."""
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(14)
    members, pubs = make_ring(3, rng)
    buckets = 16
    challenge_table = [[0] * buckets for _ in range(3)]
    response_table = [[0] * buckets for _ in range(3)]
    for _ in range(10_000):
        j = rng.randrange(3)
        message = rng.randbytes(16)
        sig = ring.ring_sign(message, pubs, j, members[j].secret, rng)
        challenge_table[j][sig.challenge % buckets] += 1
        response_table[j][sig.responses[0] % buckets] += 1
    for table in (challenge_table, response_table):
        _, p_value, _, _ = scipy_stats.chi2_contingency(table)
        assert p_value >= 0.01, f"signer leaks through published fields (p={p_value})"
