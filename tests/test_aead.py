"""Authenticated encryption wrapper."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import aead
from fogtrust.errors import DecryptionFailed, InvalidKey

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))


def test_roundtrip():
    blob = aead.encrypt(KEY, b"service result")
    assert aead.decrypt(KEY, blob) == b"service result"


def test_empty_plaintext_roundtrip():
    blob = aead.encrypt(KEY, b"")
    assert aead.decrypt(KEY, blob) == b""
    assert len(blob) == aead.NONCE_BYTES + aead.TAG_BYTES


def test_wrong_key_fails():
    blob = aead.encrypt(KEY, b"secret")
    with pytest.raises(DecryptionFailed):
        aead.decrypt(OTHER_KEY, blob)


def test_truncated_blob_fails():
    with pytest.raises(DecryptionFailed):
        aead.decrypt(KEY, b"\x00" * (aead.NONCE_BYTES + aead.TAG_BYTES - 1))


@settings(max_examples=40)
@given(st.binary(min_size=1, max_size=128), st.data())
def test_any_single_bit_flip_is_rejected(plaintext, data):
    blob = aead.encrypt(KEY, plaintext, random.Random(0))
    position = data.draw(st.integers(min_value=0, max_value=len(blob) * 8 - 1))
    byte_index, bit = divmod(position, 8)
    tampered = bytearray(blob)
    tampered[byte_index] ^= 1 << bit
    with pytest.raises(DecryptionFailed):
        aead.decrypt(KEY, bytes(tampered))


def test_nonces_differ_between_encryptions():
    one = aead.encrypt(KEY, b"x")
    two = aead.encrypt(KEY, b"x")
    assert one[:aead.NONCE_BYTES] != two[:aead.NONCE_BYTES]


def test_deterministic_with_injected_rng():
    one = aead.encrypt(KEY, b"x", random.Random(6))
    two = aead.encrypt(KEY, b"x", random.Random(6))
    assert one == two


def test_key_length_enforced():
    with pytest.raises(InvalidKey):
        aead.encrypt(b"short", b"x")
    with pytest.raises(InvalidKey):
        aead.decrypt(b"short", b"\x00" * 28)


def test_cryptography_loads_only_when_a_payload_is_encrypted():
    script = "\n".join([
        "import random, sys",
        "import fogtrust",
        "from fogtrust import Ledger, Params, KeyPair, sign",
        "from fogtrust.ledger import call_message",
        "pair = KeyPair.generate(random.Random(1))",
        "ledger = Ledger(Params())",
        "ledger.iot_registration(5, sign(call_message('iot_registration', amount=5),",
        "                                pair.secret, random.Random(2)))",
        "assert ledger.iot_table[pair.address].available_funds == 5",
        "print('cryptography' in sys.modules)",
        "fogtrust.encrypt(bytes(32), b'x')",
        "print('cryptography' in sys.modules)",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
