"""Handshake, paid exchange, and disguised-audit flows between agents."""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fogtrust import cli, keys, protocol, signing
from fogtrust.constants import digest
from fogtrust.errors import (
    BadSignature,
    ChannelFailure,
    DecryptionFailed,
    FogNotRegistered,
    IoTNotRegistered,
    NoSession,
    PaymentFailed,
    ReputationBelowThreshold,
    RingTooSmall,
    SignerMismatch,
    UnknownOracle,
)
from fogtrust.keys import KeyPair
from fogtrust.ledger import Ledger, Params
from fogtrust.protocol import (
    REJECT_REQUEST,
    Channel,
    ExchangeStatus,
    FogAgent,
    FrameType,
    IoTAgent,
    OracleAgent,
    mutual_authenticate,
    select_ring,
    service_audit,
    service_exchange,
    submit_verdict,
)

import oracles

RNG = random.Random(0x9A0710)


def build_world(threshold=0, fee_rate="0.01", behavior=None, devices=3,
                audit_payment=2, iot_funds=200, rng=RNG):
    params = Params(
        reputation_initial=5, reputation_max=10, reputation_min=0,
        reward_step=1, penalty_step=2, fee_rate=fee_rate,
        deposit_requirement=3, deposit_deduction=1,
        audit_payment=audit_payment, oracle_bounty=1,
    )
    ledger = Ledger(params)
    iot = IoTAgent(KeyPair.generate(rng), reputation_threshold=threshold, rng=rng)
    iot.register(ledger, iot_funds)
    fog = FogAgent(KeyPair.generate(rng), behavior=behavior, rng=rng)
    fog.register(ledger, 8)
    oracle = OracleAgent(KeyPair.generate(rng), KeyPair.generate(rng),
                         ring_size=4, rng=rng)
    oracle.register(ledger, device_funds=100)
    extras = []
    for _ in range(devices):
        extra = IoTAgent(KeyPair.generate(rng), rng=rng)
        extra.register(ledger, 50)
        oracle.learn_key(extra.address, extra.keypair.public)
        extras.append(extra)
    oracle.learn_key(iot.address, iot.keypair.public)
    return ledger, iot, fog, oracle, extras


# -- mutual authentication --

def test_handshake_establishes_matching_keys():
    ledger, iot, fog, _, _ = build_world()
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    assert session.iot_address == iot.address
    assert session.fog_address == fog.address
    assert session.symmetric_key == fog.sessions[iot.address]
    assert session.symmetric_key == iot.sessions[fog.address]
    assert channel.framing_summary() == [
        ("iot", "AUTH1", 65), ("fog", "AUTH2", 65)]


def test_handshake_rejects_unregistered_device_before_fog_answers():
    ledger, _, fog, _, _ = build_world()
    stranger = IoTAgent(KeyPair.generate(RNG), rng=RNG)
    channel = Channel()
    with pytest.raises(IoTNotRegistered):
        mutual_authenticate(stranger, fog, ledger, channel)
    kinds = [entry.frame.frame_type for entry in channel.transcript]
    assert kinds == [FrameType.AUTH1]


def test_handshake_rejects_unregistered_fog():
    ledger, iot, _, _, _ = build_world()
    stray = FogAgent(KeyPair.generate(RNG), rng=RNG)
    with pytest.raises(FogNotRegistered):
        mutual_authenticate(iot, stray, ledger)


def test_handshake_enforces_reputation_threshold():
    ledger, _, fog, _, _ = build_world()
    demanding = IoTAgent(KeyPair.generate(RNG), reputation_threshold=6, rng=RNG)
    demanding.register(ledger, 10)
    with pytest.raises(ReputationBelowThreshold):
        mutual_authenticate(demanding, fog, ledger)
    exactly = IoTAgent(KeyPair.generate(RNG), reputation_threshold=5, rng=RNG)
    exactly.register(ledger, 10)
    assert mutual_authenticate(exactly, fog, ledger).fog_address == fog.address


def test_handshake_failures_leave_ledger_untouched():
    ledger, iot, fog, _, _ = build_world()
    stranger = IoTAgent(KeyPair.generate(RNG), rng=RNG)
    before = ledger.to_snapshot()
    with pytest.raises(IoTNotRegistered):
        mutual_authenticate(stranger, fog, ledger)
    picky = IoTAgent(KeyPair.generate(RNG), reputation_threshold=9, rng=RNG)
    picky.register(ledger, 10)
    before = ledger.to_snapshot()
    with pytest.raises(ReputationBelowThreshold):
        mutual_authenticate(picky, fog, ledger)
    assert ledger.to_snapshot() == before


def test_handshake_frame_loss_is_a_channel_failure():
    ledger, iot, fog, _, _ = build_world()
    lossy = Channel(loss=lambda index, sender, frame: index == 0)
    with pytest.raises(ChannelFailure):
        mutual_authenticate(iot, fog, ledger, lossy)


# -- service exchange --

def test_exchange_happy_path_delivers_and_pays():
    ledger, iot, fog, _, _ = build_world()
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    package = b"measurements 42"
    before = ledger.iot_table[iot.address].available_funds
    exchange = service_exchange(session, iot, fog, package, 100, ledger, channel)
    assert exchange.status is ExchangeStatus.PAID
    assert exchange.result == digest(package)
    assert ledger.iot_table[iot.address].available_funds == before - 100
    assert ledger.fog_table[fog.address].available_funds == 99 + 5  # stake rest
    assert ledger.fee_pool == 1
    kinds = [entry.frame.frame_type.name for entry in channel.transcript]
    assert kinds == ["AUTH1", "AUTH2", "REQUEST", "RESULT"]
    assert oracles.conservation_gap(ledger) == 0


def test_exchange_rejection_costs_nothing():
    ledger, iot, fog, _, _ = build_world(
        behavior=lambda package, result: REJECT_REQUEST)
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    before = ledger.to_snapshot()
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger, channel)
    assert exchange.status is ExchangeStatus.REJECTED
    assert exchange.result is None
    assert ledger.to_snapshot() == before
    assert channel.transcript[-1].frame.frame_type is FrameType.REJECT


def test_exchange_silent_fog_times_out():
    ledger, iot, fog, _, _ = build_world(behavior=lambda package, result: None)
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    before = ledger.to_snapshot()
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger, channel)
    assert exchange.status is ExchangeStatus.TIMED_OUT
    assert ledger.to_snapshot() == before


def test_exchange_lost_result_frame_times_out():
    ledger, iot, fog, _, _ = build_world()

    def lose_results(index, sender, frame):
        return frame.frame_type is FrameType.RESULT

    channel = Channel(loss=lose_results)
    session = mutual_authenticate(iot, fog, ledger, channel)
    before = ledger.to_snapshot()
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger, channel)
    assert exchange.status is ExchangeStatus.TIMED_OUT
    assert ledger.to_snapshot() == before


def test_exchange_with_poisoned_session_key_fails_decryption():
    ledger, iot, fog, _, _ = build_world()
    session = mutual_authenticate(iot, fog, ledger)
    fog.sessions[iot.address] = bytes(32)
    with pytest.raises(DecryptionFailed):
        service_exchange(session, iot, fog, b"job", 10, ledger)


def test_exchange_request_must_be_signed_by_session_peer():
    ledger, iot, fog, _, extras = build_world()
    session = mutual_authenticate(iot, fog, ledger)
    impostor = extras[0]
    with pytest.raises(BadSignature):
        service_exchange(session, impostor, fog, b"job", 10, ledger)


@pytest.mark.parametrize("forgotten", ["sessions", "peer_keys"])
def test_exchange_refused_by_fog_without_session(forgotten):
    ledger, iot, fog, _, _ = build_world()
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    getattr(fog, forgotten).clear()
    before = ledger.to_snapshot()
    funds = ledger.iot_table[iot.address].available_funds
    with pytest.raises(NoSession):
        service_exchange(session, iot, fog, b"job", 10, ledger, channel)
    kinds = [entry.frame.frame_type for entry in channel.transcript]
    assert FrameType.RESULT not in kinds
    assert ledger.to_snapshot() == before
    assert ledger.iot_table[iot.address].available_funds == funds


def test_exchange_recovers_only_the_contracts_caller(monkeypatch):
    # the fog verifies against the handshake's key; the ledger recovers
    # the payer, so a paid exchange costs exactly one recovery
    ledger, iot, fog, _, _ = build_world()
    session = mutual_authenticate(iot, fog, ledger)
    calls = []
    recover = signing.recover

    def counting_recover(message, signature):
        calls.append(message)
        return recover(message, signature)

    monkeypatch.setattr(signing, "recover", counting_recover)
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger)
    assert exchange.status is ExchangeStatus.PAID
    assert len(calls) == 1


def test_exchange_payment_failure_propagates():
    ledger, iot, fog, _, _ = build_world(iot_funds=5)
    session = mutual_authenticate(iot, fog, ledger)
    with pytest.raises(PaymentFailed):
        service_exchange(session, iot, fog, b"job", 50, ledger)
    assert oracles.conservation_gap(ledger) == 0


@pytest.mark.parametrize("payment", [-1, 0, True, 2**64])
def test_exchange_rejects_invalid_payment_before_any_frame(payment):
    ledger, iot, fog, _, _ = build_world()
    session = mutual_authenticate(iot, fog, ledger)
    before = ledger.to_snapshot()
    channel = Channel()
    with pytest.raises(PaymentFailed):
        service_exchange(session, iot, fog, b"job", payment, ledger, channel)
    assert channel.transcript == []
    assert ledger.to_snapshot() == before


# -- audits --

def test_audit_of_honest_fog_rewards_reputation():
    ledger, _, fog, oracle, _ = build_world()
    report = service_audit(oracle, fog, ledger)
    assert report.passed
    assert report.exchange.status is ExchangeStatus.PAID
    assert ledger.fog_table[fog.address].reputation == 6
    assert oracles.conservation_gap(ledger) == 0


def test_audit_detects_single_byte_corruption():
    def flip_last_byte(package, result):
        return result[:-1] + bytes([result[-1] ^ 0x01])

    ledger, _, fog, oracle, extras = build_world(behavior=flip_last_byte)
    funds_before = {d.address: ledger.iot_table[d.address].available_funds
                    for d in extras}
    report = service_audit(oracle, fog, ledger)
    assert not report.passed
    # The oracle still paid like any customer before judging.
    assert report.exchange.status is ExchangeStatus.PAID
    record = ledger.fog_table[fog.address]
    assert record.reputation == 3
    assert record.deposit == 2
    assert report.application.deducted == 1
    assert oracles.conservation_gap(ledger) == 0
    total_gain = sum(
        ledger.iot_table[a].available_funds - funds_before[a]
        for a in funds_before)
    assert total_gain == report.application.per_device * len(funds_before)


def test_audit_silent_fog_is_penalized():
    ledger, _, fog, oracle, _ = build_world(behavior=lambda p, r: None)
    report = service_audit(oracle, fog, ledger)
    assert not report.passed
    assert report.exchange.status is ExchangeStatus.TIMED_OUT
    assert ledger.fog_table[fog.address].reputation == 3
    assert oracles.conservation_gap(ledger) == 0


def test_audit_rejecting_fog_is_penalized():
    ledger, _, fog, oracle, _ = build_world(
        behavior=lambda p, r: REJECT_REQUEST)
    report = service_audit(oracle, fog, ledger)
    assert not report.passed
    assert ledger.fog_table[fog.address].reputation == 3


def test_audit_by_oracle_without_rng_draws_system_randomness():
    ledger, _, fog, _, extras = build_world()
    rng = random.Random(0x0AC1E)
    oracle = OracleAgent(KeyPair.generate(rng), KeyPair.generate(rng))
    oracle.register(ledger, device_funds=100)
    for extra in extras:
        oracle.learn_key(extra.address, extra.keypair.public)
    report = service_audit(oracle, fog, ledger)
    assert report.passed is True
    assert oracles.conservation_gap(ledger) == 0


def test_audit_requires_registered_oracle_identity():
    ledger, _, fog, _, _ = build_world()
    rogue = OracleAgent(KeyPair.generate(RNG), KeyPair.generate(RNG), rng=RNG)
    with pytest.raises(UnknownOracle):
        service_audit(rogue, fog, ledger)


def test_select_ring_hides_oracle_among_devices():
    ledger, _, _, oracle, _ = build_world(devices=10)
    oracle.rng = random.Random(5)
    positions = set()
    for _ in range(30):
        ring = select_ring(oracle, ledger)
        assert len(ring) == 4
        assert len(set(ring)) == 4
        assert oracle.device_address in ring
        assert all(address in ledger.iot_table for address in ring)
        positions.add(ring.index(oracle.device_address))
    assert len(positions) > 1  # placement varies


def test_select_ring_hashes_the_oracle_key_once(monkeypatch):
    ledger, _, _, oracle, _ = build_world(devices=10)
    hashed = []
    original = keys.address_of

    def counting(public):
        hashed.append(public)
        return original(public)

    monkeypatch.setattr(keys, "address_of", counting)
    ring = select_ring(oracle, ledger)
    assert hashed == [oracle.iot_keypair.public]
    assert len(ring) == 4


def test_select_ring_needs_other_devices():
    params = Params(deposit_requirement=3)
    ledger = Ledger(params)
    oracle = OracleAgent(KeyPair.generate(RNG), KeyPair.generate(RNG), rng=RNG)
    oracle.register(ledger, device_funds=10)
    with pytest.raises(RingTooSmall):
        select_ring(oracle, ledger)


@pytest.mark.parametrize("fault", ["device-missing", "key-unknown"])
def test_submit_verdict_refuses_a_bad_ring_before_signing(fault):
    ledger, _, fog, oracle, extras = build_world(rng=random.Random(26))
    members = [extra.address for extra in extras]
    if fault == "key-unknown":
        members[0] = KeyPair.generate(RNG).address
        members.append(oracle.device_address)
    before = ledger.to_snapshot()
    drawn = oracle.rng.getstate()
    with pytest.raises(SignerMismatch):
        submit_verdict(oracle, fog.address, True, ledger, members)
    assert oracle.rng.getstate() == drawn  # nothing signed
    assert ledger.to_snapshot() == before


def test_agents_build_call_messages_only_in_the_builder():
    tree = ast.parse(Path(protocol.__file__).read_text())

    def reads(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "call_message"
                   or isinstance(n, ast.Name) and n.id == "call_message"
                   or isinstance(n, ast.alias) and n.name == "call_message"
                   for n in ast.walk(node))

    builders = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_approval"]
    assert len(builders) == 1
    assert reads(builders[0]) == reads(tree) == 1


def test_audit_framing_matches_genuine_request():
    ledger, iot, fog, oracle, _ = build_world()
    package = RNG.getrandbits(128).to_bytes(16, "big")
    payment = ledger.params.audit_payment

    genuine = Channel()
    session = mutual_authenticate(iot, fog, ledger, genuine)
    service_exchange(session, iot, fog, package, payment, ledger, genuine)

    audited = Channel()
    service_audit(oracle, fog, ledger, channel=audited)

    assert genuine.framing_summary() == audited.framing_summary()


# -- pinned outputs --

# sha256 of each frame payload, both session keys and the ledger snapshot
# after one handshake, two paid exchanges and audits of an honest and a
# tampering fog, all seeded; plus the stdout of `demo-auth --seed 7`.
PINNED_PROTOCOL_DIGESTS = {
    "frames": [
        "b55589e9cbb1f989bb84c4009dfb672b43c7968a8b1cfe6cef82c3f125492b4a",
        "b738272641d45c4d1a3acf0d28fdc05335a9a5916c796243422b80f6c35df53e",
        "8729677d7a43ad6eb33053fa206f60dd65d8f166e6e4cca5f02560b58addf6d0",
        "6ae8c3ff55392b625fc94156cc22d9d155dc2d3706cf34a7349a7b60a9d4ae11",
        "31381f91a46dbcab82464280518a3a27e4aa46c96ecd2a5ea68a657c946bf16f",
        "8b48c3587ca0285292ace8041940c1801719dfbc58ce5a09f4efc344a516a17c",
        "9bace385b8a43354f44f280798dc81d9c9810e78581046b014a746e5210814c4",
        "97ade62d4ea947194fb3d3635ce38596c639fdccc96aea5dd6b2a67f05caad38",
        "0452f20312c50e195d2d0f126543b222da2090cfcb633a6453989f563d8e230f",
        "574649c1646b81c124e98c50ebba596acac14e69278d1da0abafa48dbe942b85",
        "042e8eab1475d6181ea50087fe80048a26568f3718070e9694d5072b75936c04",
        "c6bdcf46fc86218f7ec147185df8a4e5b0203a0d9f28561ec601debeec7c855d",
        "8c4e72e7142d5ab348515c471ad7641eee888fd586a19806ec02beea9c734857",
        "d6d4f1ca76ab699fd800c5cb8b6ef11c6ca34695ba6a9c7056d8ef5d1a86ea4b",
    ],
    "iot_session_key": "ebd27e24eafff2ecfc91b98a9f2695b6a325acb2fa01f3a662022444399948f6",
    "fog_session_key": "ebd27e24eafff2ecfc91b98a9f2695b6a325acb2fa01f3a662022444399948f6",
    "snapshot": "01c90782feef0ae4b97e831bcae1db5cee4a53c051cd921bf236b4d36a515d4f",
    "demo_auth_stdout": "cb56c7f909239ee5c644edb61fed3c9d47fd2844958baac92a6a217ebcf471e9",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_protocol_run() -> dict:
    rng = random.Random(0x51A7E)
    ledger, iot, fog, oracle, _ = build_world(rng=rng)
    tamperer = FogAgent(KeyPair.generate(rng), rng=rng,
                        behavior=lambda package, result: result[::-1])
    tamperer.register(ledger, 8)
    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)
    for package in (b"first reading", b"second reading"):
        exchange = service_exchange(session, iot, fog, package, 10, ledger,
                                    channel)
        assert exchange.status is ExchangeStatus.PAID
    assert service_audit(oracle, fog, ledger, channel=channel).passed
    assert not service_audit(oracle, tamperer, ledger, channel=channel).passed
    snapshot = json.dumps(ledger.to_snapshot(), sort_keys=True)
    return {
        "frames": [_sha256(entry.frame.payload)
                   for entry in channel.transcript],
        "iot_session_key": _sha256(iot.sessions[fog.address]),
        "fog_session_key": _sha256(fog.sessions[iot.address]),
        "snapshot": _sha256(snapshot.encode()),
    }


def test_protocol_outputs_match_pinned_digests():
    expected = {key: value for key, value in PINNED_PROTOCOL_DIGESTS.items()
                if key != "demo_auth_stdout"}
    assert _pinned_protocol_run() == expected


def test_demo_auth_stdout_matches_pinned_digest(capsys):
    assert cli.main(["demo-auth", "--seed", "7"]) == 0
    assert (_sha256(capsys.readouterr().out.encode())
            == PINNED_PROTOCOL_DIGESTS["demo_auth_stdout"])


def test_demo_auth_stdout_matches_pinned_digest_with_asserts_stripped():
    # python -O drops every assert, so no check the demo relies on may be one
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-m", "fogtrust.cli", "demo-auth", "--seed", "7"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert _sha256(done.stdout) == PINNED_PROTOCOL_DIGESTS["demo_auth_stdout"]
