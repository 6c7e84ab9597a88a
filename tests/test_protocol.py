"""Handshake, paid exchange, and disguised-audit flows between agents."""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fogtrust import cli, keys, protocol, signing
from fogtrust.constants import digest
from fogtrust.curve import Point
from fogtrust.errors import (
    ChannelFailure,
    DecryptionFailed,
    FogNotRegistered,
    IoTNotRegistered,
    NoSession,
    PaymentFailed,
    PeerSignatureInvalid,
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
        ("iot", "AUTH1", 129), ("fog", "AUTH2", 129)]


def test_handshake_recovers_only_the_devices_key(monkeypatch):
    # the fog recovers the caller, as the contract does; the device checks
    # the fog's answer against the key that answer carries
    ledger, iot, fog, _, _ = build_world()
    calls = {"recover": 0, "verify": 0}

    def counting(name):
        original = getattr(signing, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(signing, name, counting(name))
    session = mutual_authenticate(iot, fog, ledger)
    assert session.fog_address == fog.address
    assert calls == {"recover": 1, "verify": 1}


def _refused_after_answer(ledger, iot, fog):
    """Runs a handshake the device must refuse once it reads AUTH2."""
    before = ledger.to_snapshot()
    channel = Channel()
    with pytest.raises(PeerSignatureInvalid):
        mutual_authenticate(iot, fog, ledger, channel)
    kinds = [entry.frame.frame_type for entry in channel.transcript]
    assert kinds == [FrameType.AUTH1, FrameType.AUTH2]
    assert iot.sessions == {}
    assert fog.sessions == {} and fog.peer_keys == {}
    assert ledger.to_snapshot() == before


def _tamper_signatures(monkeypatch, prefix, **changes):
    """Makes every signature over a message starting with ``prefix`` carry
    ``changes`` (another key, another r) in place of the signed values."""
    sign = signing.sign

    def tampering(message, secret, rng=None):
        signature = sign(message, secret, rng)
        if message.startswith(prefix):
            signature = replace(signature, **changes)
        return signature

    monkeypatch.setattr(signing, "sign", tampering)


def _off_curve(point):
    off_curve = object.__new__(Point)  # skips the constructor's curve check
    off_curve.x, off_curve.y = point.x, 1
    return off_curve


def test_handshake_refuses_a_fog_presenting_another_fogs_key(monkeypatch):
    ledger, iot, fog, _, _ = build_world()
    signer = KeyPair.generate(RNG)
    posing = FogAgent(signer, rng=RNG)
    posing.register(ledger, 8)
    # signs as one registered fog while presenting the other's key
    _tamper_signatures(monkeypatch, protocol.FOG_AUTH_CONTEXT,
                       public=fog.keypair.public)
    _refused_after_answer(ledger, iot, posing)


def test_handshake_refuses_a_fog_key_that_does_not_decode(monkeypatch):
    ledger, iot, fog, _, _ = build_world()
    _tamper_signatures(monkeypatch, protocol.FOG_AUTH_CONTEXT,
                       public=_off_curve(fog.keypair.public))
    _refused_after_answer(ledger, iot, fog)


@pytest.mark.parametrize("fault", ["other-device-key", "off-curve-key",
                                   "r-out-of-range", "r-off-the-curve"])
def test_fog_refuses_a_hello_that_does_not_name_its_signer(monkeypatch,
                                                            fault):
    ledger, iot, fog, _, extras = build_world()
    changes = {
        "other-device-key": {"public": extras[0].keypair.public},
        "off-curve-key": {"public": _off_curve(iot.keypair.public)},
        "r-out-of-range": {"r": 0},
        # x = 5 has no curve point: 5^3 + 7 is not a square mod p
        "r-off-the-curve": {"r": 5, "recovery_hint": 0},
    }[fault]
    _tamper_signatures(monkeypatch, protocol.IOT_AUTH_CONTEXT, **changes)
    before = ledger.to_snapshot()
    channel = Channel()
    with pytest.raises(PeerSignatureInvalid):
        mutual_authenticate(iot, fog, ledger, channel)
    assert _kinds(channel) == ["AUTH1"]
    assert iot.sessions == {}
    assert fog.sessions == {} and fog.peer_keys == {}
    assert ledger.to_snapshot() == before


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
    with pytest.raises(PeerSignatureInvalid):
        service_exchange(session, impostor, fog, b"job", 10, ledger)


def test_exchange_refuses_a_request_carrying_another_key(monkeypatch):
    # signed by the session's device, but carrying another device's key
    ledger, iot, fog, _, extras = build_world()
    session = mutual_authenticate(iot, fog, ledger)
    _tamper_signatures(monkeypatch, b"request|",
                       public=extras[0].keypair.public)
    before = ledger.to_snapshot()
    channel = Channel()
    with pytest.raises(PeerSignatureInvalid):
        service_exchange(session, iot, fog, b"job", 10, ledger, channel)
    assert _kinds(channel) == ["REQUEST"]
    assert ledger.to_snapshot() == before


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
    # the fog verifies against the handshake's key and the contract against
    # the key the payment carries, so a paid exchange recovers nothing
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
    assert len(calls) == 0


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


def test_select_ring_hashes_no_key(monkeypatch):
    ledger, _, _, oracle, _ = build_world(devices=10)
    hashed = []
    original = keys.address_of

    def counting(public):
        hashed.append(public)
        return original(public)

    monkeypatch.setattr(keys, "address_of", counting)
    ring = select_ring(oracle, ledger)
    assert hashed == []
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


def _kinds(channel):
    return [entry.frame.frame_type.name for entry in channel.transcript]


def test_oracle_refuses_a_key_that_is_not_the_addresses():
    # a stranger's key under a helper's address would put the stranger in
    # the ring, and the contract would refuse the verdict after payment
    ledger, _, fog, oracle, extras = build_world()
    directory = dict(oracle.key_directory)
    with pytest.raises(SignerMismatch):
        oracle.learn_key(extras[0].address, KeyPair.generate(RNG).public)
    assert oracle.key_directory == directory
    assert service_audit(oracle, fog, ledger).passed


def test_repeat_audit_reuses_the_session(monkeypatch):
    # the second audit sends the frames of a device's follow-up request and
    # recovers nothing: the contract verifies the payer and the verdict
    # against the keys their signatures carry
    ledger, iot, fog, oracle, _ = build_world()
    assert service_audit(oracle, fog, ledger).passed

    payment = ledger.params.audit_payment
    session = mutual_authenticate(iot, fog, ledger)
    service_exchange(session, iot, fog, bytes(16), payment, ledger)
    follow_up = Channel()
    service_exchange(session, iot, fog, bytes(range(16)), payment, ledger,
                     follow_up)

    calls = []
    recover = signing.recover

    def counting_recover(message, signature):
        calls.append(message)
        return recover(message, signature)

    monkeypatch.setattr(signing, "recover", counting_recover)
    audited = Channel()
    report = service_audit(oracle, fog, ledger, channel=audited)
    assert report.passed
    assert len(calls) == 0
    assert _kinds(audited) == ["REQUEST", "RESULT"]
    assert audited.framing_summary() == follow_up.framing_summary()
    assert oracle.sessions[fog.address].fog_address == fog.address
    assert oracles.conservation_gap(ledger) == 0


def test_expelled_fog_loses_the_session_and_refuses_the_next_audit():
    ledger, _, fog, oracle, _ = build_world(behavior=lambda p, r: r[::-1])
    transcripts = []
    for _ in range(3):
        channel = Channel()
        report = service_audit(oracle, fog, ledger, channel=channel)
        assert not report.passed
        transcripts.append(_kinds(channel))
    assert transcripts == [["AUTH1", "AUTH2", "REQUEST", "RESULT"]] + [
        ["REQUEST", "RESULT"]] * 2
    assert report.application.removed
    assert fog.address not in oracle.sessions
    channel = Channel()
    with pytest.raises(FogNotRegistered):
        service_audit(oracle, fog, ledger, channel=channel)
    assert _kinds(channel) == ["AUTH1", "AUTH2"]


def test_audit_after_the_oracles_device_leaves_runs_a_refused_handshake():
    ledger, _, fog, oracle, _ = build_world()
    assert service_audit(oracle, fog, ledger).passed
    assert fog.address in oracle.sessions
    ledger.iot_remove(protocol._approval(oracle.iot_keypair, RNG, "iot_remove"))
    before = ledger.to_snapshot()
    channel = Channel()
    with pytest.raises(IoTNotRegistered):
        service_audit(oracle, fog, ledger, channel=channel)
    assert _kinds(channel) == ["AUTH1"]
    assert ledger.to_snapshot() == before


@pytest.mark.parametrize("honest", [True, False])
def test_fog_that_drops_the_session_cannot_dodge_the_verdict(honest):
    behavior = None if honest else (lambda package, result: result[::-1])
    ledger, _, fog, oracle, _ = build_world(behavior=behavior)
    service_audit(oracle, fog, ledger)
    reputation = ledger.fog_table[fog.address].reputation
    fog.sessions.clear()
    fog.peer_keys.clear()
    channel = Channel()
    report = service_audit(oracle, fog, ledger, channel=channel)
    assert report.passed is honest
    assert _kinds(channel) == ["REQUEST", "AUTH1", "AUTH2", "REQUEST", "RESULT"]
    assert ledger.fog_table[fog.address].reputation == (
        reputation + 1 if honest else reputation - 2)


def test_audit_that_loses_its_hello_stores_no_session():
    ledger, _, fog, oracle, _ = build_world()
    lossy = Channel(loss=lambda index, sender, frame: index == 0)
    report = service_audit(oracle, fog, ledger, channel=lossy)
    assert not report.passed and report.exchange is None
    assert oracle.sessions == {}
    channel = Channel()
    assert service_audit(oracle, fog, ledger, channel=channel).passed
    assert _kinds(channel) == ["AUTH1", "AUTH2", "REQUEST", "RESULT"]
    assert fog.address in oracle.sessions


# -- pinned outputs --

# sha256 of each frame payload, both session keys and the ledger snapshot
# after one handshake, two paid exchanges and audits of an honest and a
# tampering fog, all seeded; plus the stdout of `demo-auth --seed 7`.
PINNED_PROTOCOL_DIGESTS = {
    "frames": [
        "72afe8e7c5284ef93015608be713e654a9c80fb025b4075f5a92db35891798d6",
        "09a3ca8dc10f47996609e10851115714b4f712e3d89352459e9f514d017d4d05",
        "d78065c3a4964f37012683d544aebf98c75ffe585f189be06b339f470ea344fc",
        "6ae8c3ff55392b625fc94156cc22d9d155dc2d3706cf34a7349a7b60a9d4ae11",
        "8d6b2a850bce375f225969d33f1140711b539e24aba17283204e5d1c06ed637c",
        "8b48c3587ca0285292ace8041940c1801719dfbc58ce5a09f4efc344a516a17c",
        "252e0c2772a225cd627e453f4e913bfd4a8770c3b495a45d0b082ebbfd0f0859",
        "a24bcb65d59b6e6a30a190fad5a1afb53311197bf2021274ac1cd183650fa8f3",
        "f0be4fac82fd7f1e95b206d69bdb03cac40757e4ac4070b9b08a07ccb0d3b7fa",
        "574649c1646b81c124e98c50ebba596acac14e69278d1da0abafa48dbe942b85",
        "0df3a06a575ba0c779eb1a2247a4dd6ea4b11d9a2b490e7bd10650f6bbc28569",
        "8601714128ca0a18132904f14f3fac89c9612ce23842eda12652e41d34ed45df",
        "c632060124eb946eed98ac6ecaca85628b352fdce635378b63016272f795db94",
        "d6d4f1ca76ab699fd800c5cb8b6ef11c6ca34695ba6a9c7056d8ef5d1a86ea4b",
    ],
    "iot_session_key": "ebd27e24eafff2ecfc91b98a9f2695b6a325acb2fa01f3a662022444399948f6",
    "fog_session_key": "ebd27e24eafff2ecfc91b98a9f2695b6a325acb2fa01f3a662022444399948f6",
    "snapshot": "01c90782feef0ae4b97e831bcae1db5cee4a53c051cd921bf236b4d36a515d4f",
    "demo_auth_stdout": "334f319ee04f28b5f98559c8a925233221ca33cb776f602e8a555cce75ca88fa",
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
