"""Agent-level flows: mutual authentication, paid service exchange, audits.

Devices, fog nodes and the oracle sign with ``signing``, derive session keys
with ``keys``, seal traffic with ``aead`` and attest verdicts with ``ring``;
only the ledger's verifier is swappable.  Agents talk over an in-process
channel that records a transcript and can drop frames, which is enough to
reproduce timeouts and tampering deterministically.  The disguised
audit reuses the exact same request path as a genuine device, so a fog node
cannot tell the two apart by framing: the oracle's first audit of a fog
runs the handshake, and a repeat audit sends its request over the session
that handshake opened, as a device's follow-up request does.
"""

from __future__ import annotations

import enum
import secrets
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import aead, keys, ring, signing
from . import ledger as ledger_mod
from .constants import digest
from .curve import Point
from .errors import (
    ChannelFailure,
    DecryptionFailed,
    FogNotRegistered,
    InvalidSignature,
    IoTNotRegistered,
    LedgerError,
    NoSession,
    PaymentFailed,
    PeerSignatureInvalid,
    RecoveryFailed,
    ReputationBelowThreshold,
    RingTooSmall,
    SignerMismatch,
    UnknownOracle,
)
from .keys import KeyPair

IOT_AUTH_CONTEXT = b"auth/iot/v1"
FOG_AUTH_CONTEXT = b"auth/fog/v1"
PAYMENT_LIMIT = 2**64  # payments travel as 8-byte unsigned integers
DEFAULT_RING_SIZE = 8

# Sentinel a fog behavior hook returns to refuse a request outright.
REJECT_REQUEST = object()


class FrameType(enum.Enum):
    AUTH1 = 1
    AUTH2 = 2
    REQUEST = 3
    RESULT = 4
    REJECT = 5


@dataclass(frozen=True)
class Frame:
    frame_type: FrameType
    payload: bytes


@dataclass(frozen=True)
class TranscriptEntry:
    sender: str
    frame: Frame


class Channel:
    """Duplex in-process link with fault injection and a full transcript.

    ``loss`` receives (index, sender, frame) for each send; returning True
    drops the frame.  Dropped frames stay in the transcript.
    """

    def __init__(self, loss: Optional[Callable] = None):
        self.loss = loss
        self.transcript = []

    def send(self, sender: str, frame: Frame) -> bool:
        """Records the frame; returns whether it was delivered."""
        index = len(self.transcript)
        self.transcript.append(TranscriptEntry(sender, frame))
        return not (self.loss and self.loss(index, sender, frame))

    def framing_summary(self) -> list:
        """Structural view of the transcript: who sent what kind, how large."""
        return [(entry.sender, entry.frame.frame_type.name,
                 len(entry.frame.payload))
                for entry in self.transcript]


@dataclass(frozen=True)
class Session:
    iot_address: str
    fog_address: str
    symmetric_key: bytes


class ExchangeStatus(enum.Enum):
    REJECTED = "rejected"
    TIMED_OUT = "timed_out"
    PAID = "paid"


@dataclass(frozen=True)
class ServiceExchange:
    status: ExchangeStatus
    result: Optional[bytes] = None


def _approval(keypair: KeyPair, rng, op: str, **fields) -> signing.Signature:
    """Sign the contract call ``op``: the one place agents build a call."""
    return signing.sign(ledger_mod.call_message(op, **fields), keypair.secret,
                        rng)


@dataclass
class IoTAgent:
    keypair: KeyPair
    reputation_threshold: int = 0
    rng: object = None
    sessions: dict = field(default_factory=dict, init=False)

    @property
    def address(self) -> str:
        return self.keypair.address

    def register(self, ledger, funds: int) -> str:
        return ledger.iot_registration(funds, _approval(
            self.keypair, self.rng, "iot_registration", amount=funds))


@dataclass
class FogAgent:
    """Serves a package with its digest; the behavior hook injects faults.

    ``behavior(package, result)`` may return the (possibly modified) result
    bytes, REJECT_REQUEST to refuse, or None to stay silent.  ``sessions``
    maps each authenticated device's address to its session key.  The fog
    keeps no copy of the device's public key: each request carries it,
    and the fog accepts it only under the address the handshake named.
    """

    keypair: KeyPair
    behavior: Optional[Callable] = None
    rng: object = None
    sessions: dict = field(default_factory=dict, init=False)

    @property
    def address(self) -> str:
        return self.keypair.address

    def register(self, ledger, stake: int) -> str:
        return ledger.fog_registration(stake, _approval(
            self.keypair, self.rng, "fog_registration", amount=stake))

    def serve(self, package: bytes):
        result = digest(package)
        if self.behavior is not None:
            return self.behavior(package, result)
        return result


def mutual_authenticate(iot: IoTAgent, fog: FogAgent, ledger,
                        channel: Optional[Channel] = None) -> Session:
    """Seven-step handshake ending in a shared symmetric key.

    Each side decodes the frame its peer sent; every signature carries its
    signer's public key.  The device proves itself first; the fog node
    recovers the device's key, refuses with PeerSignatureInvalid a hello
    that names no signer or carries another key, and answers only after
    finding the device's address in the registry.
    The device verifies the fog's answer against the key it carries, then
    checks that key's registration and reputation before deriving the
    session key.  Each side keeps only that key, under its peer's address;
    nothing on the ledger changes on any failure path.
    """
    if channel is None:
        channel = Channel()

    # Step 1: device signs its context and opens.
    hello = Frame(FrameType.AUTH1, signing.sign(
        IOT_AUTH_CONTEXT, iot.keypair.secret, iot.rng).to_bytes())
    if not channel.send("iot", hello):
        raise ChannelFailure("device hello lost")

    # Steps 2-3: fog recovers the device key, holds it to the key the hello
    # carries, and checks the registry.
    iot_sig = _peer_signature(hello.payload, "device")
    try:
        iot_public = signing.recover(IOT_AUTH_CONTEXT, iot_sig)
    except (InvalidSignature, RecoveryFailed) as exc:
        raise PeerSignatureInvalid("device hello names no signer: %s"
                                   % exc) from exc
    if iot_public != iot_sig.public:
        raise PeerSignatureInvalid("device hello carries a key other than "
                                   "its signer's")
    iot_address = keys.address_of(iot_public)
    if iot_address not in ledger.iot_table:
        raise IoTNotRegistered("%s is not in the device registry" % iot_address)

    # Step 4: fog answers with its signed context, which carries its key.
    answer = Frame(FrameType.AUTH2, signing.sign(
        FOG_AUTH_CONTEXT, fog.keypair.secret, fog.rng).to_bytes())
    if not channel.send("fog", answer):
        raise ChannelFailure("fog answer lost")

    # Steps 5-6: device verifies the fog's signature against the key it
    # carries, then checks that key's registration and reputation.
    fog_sig = _peer_signature(answer.payload, "fog")
    fog_public = fog_sig.public
    if not signing.verify(FOG_AUTH_CONTEXT, fog_sig):
        raise PeerSignatureInvalid("fog signature does not verify against "
                                   "the key it sent")
    fog_address = keys.address_of(fog_public)
    record = ledger.fog_table.get(fog_address)
    if record is None:
        raise FogNotRegistered("%s is not in the fog registry" % fog_address)
    if record.reputation < iot.reputation_threshold:
        raise ReputationBelowThreshold(
            "fog reputation %d below device threshold %d"
            % (record.reputation, iot.reputation_threshold))

    # Step 7: both sides derive the key from their own secret and the
    # peer's authenticated key; the constructions agree by ECDH symmetry.
    iot_key = keys.shared_secret(iot.keypair.secret, fog_public)
    fog_key = keys.shared_secret(fog.keypair.secret, iot_public)
    iot.sessions[fog_address] = iot_key
    fog.sessions[iot_address] = fog_key
    return Session(iot_address=iot_address, fog_address=fog_address,
                   symmetric_key=iot_key)


def _peer_signature(raw: bytes, peer: str) -> signing.Signature:
    """The signature a peer sent, or PeerSignatureInvalid when its bytes
    (the signer's key among them) do not decode."""
    try:
        return signing.Signature.from_bytes(raw)
    except InvalidSignature as exc:
        raise PeerSignatureInvalid("%s sent no valid signature: %s"
                                   % (peer, exc)) from exc


def request_message(payment: int, package: bytes) -> bytes:
    """What the requester signs: the payment amount bound to the package."""
    return b"request|" + payment.to_bytes(8, "big") + digest(package)


def service_exchange(session: Session, iot: IoTAgent, fog: FogAgent,
                     package: bytes, payment: int, ledger,
                     channel: Optional[Channel] = None) -> ServiceExchange:
    """One paid request/response round over an established session.

    The package and result travel encrypted under the session key.  Payment
    is released only after the device holds a result it could decrypt.  A
    rejection costs nothing, and neither does a timeout: a silent fog node
    or a lost REQUEST or RESULT frame.  A payment the ledger could never
    accept fails before any frame is sent.
    """
    # type() rather than isinstance(): True is an int but not an amount
    if type(payment) is not int or not 0 < payment < PAYMENT_LIMIT:
        raise PaymentFailed("payment must be an int in [1, 2**64), got %r"
                            % (payment,))
    if channel is None:
        channel = Channel()

    request_sig = signing.sign(request_message(payment, package),
                               iot.keypair.secret, iot.rng)
    sealed = aead.encrypt(session.symmetric_key, package, iot.rng)
    request = Frame(FrameType.REQUEST, payment.to_bytes(8, "big")
                    + request_sig.to_bytes() + sealed)
    reply = None
    if channel.send("iot", request):
        reply = _fog_reply(session, fog, request.payload)
    if reply is None or not channel.send("fog", reply):
        return ServiceExchange(ExchangeStatus.TIMED_OUT)
    if reply.frame_type is FrameType.REJECT:
        return ServiceExchange(ExchangeStatus.REJECTED)

    result = aead.decrypt(session.symmetric_key, reply.payload)
    payment_sig = _approval(iot.keypair, iot.rng, "iot_fog_payment",
                            amount=payment, fog=session.fog_address)
    try:
        ledger.iot_fog_payment(session.fog_address, payment, payment_sig)
    except LedgerError as exc:
        raise PaymentFailed(str(exc)) from exc
    return ServiceExchange(ExchangeStatus.PAID, result)


def _fog_reply(session: Session, fog: FogAgent,
               payload: bytes) -> Optional[Frame]:
    """Fog side of a REQUEST: unseal with the fog's own session key, verify
    the request signature against the key it carries, serve.  Returns the
    RESULT or REJECT frame, or None for silence.  A fog node without a
    session for the device refuses with NoSession, and a request whose key
    hashes to another address than the handshake's (a 160-bit second
    preimage) is refused as one its peer did not sign."""
    # payload: 8-byte payment | signature | sealed package
    fog_key = fog.sessions.get(session.iot_address)
    if fog_key is None:
        raise NoSession("%s holds no session with %s"
                        % (fog.address, session.iot_address))
    sealed_at = 8 + signing.SIGNATURE_BYTES
    opened = aead.decrypt(fog_key, payload[sealed_at:])
    claimed = int.from_bytes(payload[:8], "big")
    request_sig = _peer_signature(payload[8:sealed_at], "device")
    signer = keys.address_of(request_sig.public)
    if signer != session.iot_address or not signing.verify(
            request_message(claimed, opened), request_sig):
        raise PeerSignatureInvalid("request was not signed by the session peer")

    outcome = fog.serve(opened)
    if outcome is None:
        return None
    if outcome is REJECT_REQUEST:
        return Frame(FrameType.REJECT, b"")
    return Frame(FrameType.RESULT, aead.encrypt(fog_key, outcome, fog.rng))


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    exchange: Optional[ServiceExchange]
    application: object  # the ledger's arithmetic trail for this audit


@dataclass
class OracleAgent:
    """Audit orchestrator with two identities.

    The device identity makes audits look like ordinary paid requests; the
    oracle identity is the one the contract trusts to submit verdicts.  The
    key directory maps device addresses to public keys so rings can be
    assembled from registry addresses.  ``sessions`` maps each fog address
    to the Session its first audit's handshake opened; later audits of that
    fog reuse it, and a verdict that expels the fog drops it.  Without an
    rng the oracle draws rings, packages and nonces from
    ``secrets.SystemRandom()``.
    """

    iot_keypair: KeyPair
    oracle_keypair: KeyPair
    ring_size: int = DEFAULT_RING_SIZE
    rng: object = None
    key_directory: dict = field(default_factory=dict, init=False)
    sessions: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.rng is None:
            self.rng = secrets.SystemRandom()
        if self.iot_keypair.address == self.oracle_keypair.address:
            raise SignerMismatch("the two oracle identities must differ")
        self.key_directory[self.iot_keypair.address] = self.iot_keypair.public

    @property
    def device_address(self) -> str:
        return self.iot_keypair.address

    @property
    def oracle_address(self) -> str:
        return self.oracle_keypair.address

    def learn_key(self, address: str, public):
        """Record a device's key.  Anything but a curve point that hashes to
        ``address`` would put a stranger in the rings, so it is refused."""
        if not (isinstance(public, Point)
                and keys.address_of(public) == address):
            raise SignerMismatch("key does not belong to %s" % address)
        self.key_directory[address] = public

    def register(self, ledger, device_funds: int) -> tuple:
        """Enroll both identities: the device with funds, the oracle in T_O."""
        device_address = ledger.iot_registration(device_funds, _approval(
            self.iot_keypair, self.rng, "iot_registration",
            amount=device_funds))
        oracle_address = ledger.oracle_registration(_approval(
            self.oracle_keypair, self.rng, "oracle_registration"))
        return device_address, oracle_address


def select_ring(oracle: OracleAgent, ledger) -> list:
    """Uniform ring of registry addresses that holds the oracle's device.

    Picks ring_size - 1 other registered devices the oracle knows keys for,
    then shuffles the oracle's own device address in among them, drawing
    from the oracle's rng.  The signature hides the signer within this one
    ring only: the device is in every ring the oracle draws, so the rings
    of several audits intersect in it.
    """
    device = oracle.device_address
    pool = [address for address in ledger.iot_table
            if address != device and address in oracle.key_directory]
    others = min(oracle.ring_size - 1, len(pool))
    if others < ring.MIN_RING - 1:
        raise RingTooSmall(f"need at least {ring.MIN_RING} ring members")
    members = oracle.rng.sample(pool, others) + [device]
    oracle.rng.shuffle(members)
    return members


def service_audit(oracle: OracleAgent, fog: FogAgent, ledger,
                  channel: Optional[Channel] = None) -> AuditReport:
    """Disguised integrity check with an on-ledger verdict.

    The oracle behaves exactly like a paying device: authenticate, send a
    package whose digest it already knows, pay the contract's audit_payment
    on delivery.  It then compares the delivered result with the digest and
    submits a ring-signed reward or penalty, the ring drawn by select_ring.
    A fog node that stays silent, rejects, tampers, or loses a handshake
    frame is judged failed.

    The first audit of a fog runs mutual_authenticate and keeps the session
    in ``oracle.sessions``.  While the fog and the oracle's device are both
    still registered, a later audit reuses it and sends only REQUEST and
    RESULT, like a device's follow-up request; static-static ECDH would
    derive the same key again.  Otherwise the audit runs the handshake,
    which raises FogNotRegistered or IoTNotRegistered as for any device.
    A fog that refuses the kept session with NoSession gets a handshake and
    the request again within the same audit.
    """
    if oracle.oracle_address not in ledger.oracle_table:
        raise UnknownOracle("%s is not a registered oracle"
                            % oracle.oracle_address)
    if channel is None:
        channel = Channel()
    ring_members = select_ring(oracle, ledger)
    package = oracle.rng.getrandbits(128).to_bytes(16, "big")

    # threshold at the floor so an audit never bounces off reputation
    requester = IoTAgent(keypair=oracle.iot_keypair,
                         reputation_threshold=ledger.params.reputation_min,
                         rng=oracle.rng)
    payment = ledger.params.audit_payment
    exchange = None
    session = oracle.sessions.get(fog.address)
    if (fog.address not in ledger.fog_table
            or oracle.device_address not in ledger.iot_table):
        session = None
    try:
        if session is not None:
            try:
                exchange = service_exchange(session, requester, fog, package,
                                            payment, ledger, channel)
            except NoSession:
                # a fog that dropped the session is asked for a new one, as
                # a device would ask; refusing it must not dodge the verdict
                session = None
        if session is None:
            session = mutual_authenticate(requester, fog, ledger, channel)
            oracle.sessions[fog.address] = session
            exchange = service_exchange(session, requester, fog, package,
                                        payment, ledger, channel)
    except (ChannelFailure, DecryptionFailed):
        pass
    passed = (exchange is not None
              and exchange.status is ExchangeStatus.PAID
              and exchange.result == digest(package))
    application = submit_verdict(oracle, fog.address, passed, ledger,
                                 ring_members)
    return AuditReport(passed=passed, exchange=exchange,
                       application=application)


def submit_verdict(oracle: OracleAgent, fog_address: str, passed: bool,
                   ledger, ring_members: list):
    """Ring-sign the verdict and apply it through the contract.  A ring
    without the oracle's device or with a member of unknown key signs
    nothing.  A verdict that expels the fog drops the oracle's session
    with it."""
    device = oracle.device_address
    directory = oracle.key_directory
    if device not in ring_members or not all(
            address in directory for address in ring_members):
        raise SignerMismatch("the ring must hold the oracle's device %s and "
                             "only members of known key" % device)
    members = [directory[address] for address in ring_members]
    message = ledger_mod.audit_message(fog_address, passed)
    attestation = ring.ring_sign(message, members, ring_members.index(device),
                                 oracle.iot_keypair.secret, oracle.rng)
    op = "fog_reward" if passed else "fog_penalize"
    approval = _approval(oracle.oracle_keypair, oracle.rng, op, fog=fog_address)
    application = getattr(ledger, op)(fog_address, attestation, approval)
    if application.removed:
        oracle.sessions.pop(fog_address, None)
    return application
