"""Ledger-mediated trust between IoT devices and fog nodes.

The package splits into layers that can be used independently:

- ``keys``, ``signing``, ``ring``, ``aead``: curve arithmetic, signatures
  that carry their signer's key, unlinkable ring signatures, and
  authenticated encryption.
- ``ledger``: the registry/payment/reputation contract emulation.
- ``protocol``: mutual authentication, paid service exchange, and the
  disguised integrity audit, all over a lossy channel model.
- ``scheduling``: which fog nodes an oracle audits next.
- ``simulation``: Monte-Carlo cost and system-health scenarios.
- ``cli``: the ``fogtrust`` command.
"""

from .aead import decrypt, encrypt
from .errors import FogTrustError
from .identity import DEFAULT_IDENTITY, Secp256k1Identity
from .keys import KeyPair, address_of, derive_public
from .ledger import Ledger, Params
from .protocol import (
    Channel,
    FogAgent,
    IoTAgent,
    OracleAgent,
    Session,
    mutual_authenticate,
    service_audit,
    service_exchange,
)
from .ring import RingSignature, ring_sign, ring_verify
from .scheduling import Policy, Scheduler
from .signing import Signature, recover, sign
from .simulation import ScenarioConfig, run_cost_scenario, run_state_scenario

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "DEFAULT_IDENTITY",
    "FogAgent",
    "FogTrustError",
    "IoTAgent",
    "KeyPair",
    "Ledger",
    "OracleAgent",
    "Params",
    "Policy",
    "RingSignature",
    "ScenarioConfig",
    "Scheduler",
    "Secp256k1Identity",
    "Session",
    "Signature",
    "address_of",
    "decrypt",
    "derive_public",
    "encrypt",
    "mutual_authenticate",
    "recover",
    "ring_sign",
    "ring_verify",
    "run_cost_scenario",
    "run_state_scenario",
    "service_audit",
    "service_exchange",
    "sign",
    "__version__",
]
