"""Fixed primitive choices shared across the package.

One 256-bit hash is used everywhere (addresses, signing challenges,
ring-signature chaining, key derivation) so the pieces stay mutually
consistent. Changing it invalidates every stored address and signature.
"""

import hashlib


def digest(data: bytes) -> bytes:
    """The protocol hash: SHA-256."""
    return hashlib.sha256(data).digest()
