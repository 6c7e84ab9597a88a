"""Authenticated symmetric encryption for session payloads.

AES-256-GCM under the 32-byte session key from the handshake. The nonce is
prepended to the ciphertext; any bit flip anywhere in the blob fails
authentication and raises DecryptionFailed.

``cryptography`` is imported on the first encrypt or decrypt rather than at
import time, so processes that never encrypt (the contract, the simulation
studies) never pay for it.
"""

from __future__ import annotations

import secrets

from .errors import DecryptionFailed, InvalidKey

NONCE_BYTES = 12
TAG_BYTES = 16
KEY_BYTES = 32


def _aesgcm(key: bytes):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM(key)


def encrypt(key: bytes, plaintext: bytes, rng=None) -> bytes:
    if len(key) != KEY_BYTES:
        raise InvalidKey(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    nonce = rng.randbytes(NONCE_BYTES) if rng is not None else secrets.token_bytes(NONCE_BYTES)
    return nonce + _aesgcm(key).encrypt(nonce, plaintext, None)


def decrypt(key: bytes, blob: bytes) -> bytes:
    if len(key) != KEY_BYTES:
        raise InvalidKey(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise DecryptionFailed("ciphertext too short")
    from cryptography.exceptions import InvalidTag

    try:
        return _aesgcm(key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], None)
    except InvalidTag as exc:
        raise DecryptionFailed("authentication tag mismatch") from exc
