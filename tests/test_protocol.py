"""Handshake, paid exchange, and disguised-audit flows between agents."""

import random

import pytest

from fogtrust.constants import digest
from fogtrust.errors import (
    AuditChannelFailure,
    BadSignature,
    ChannelFailure,
    DecryptionFailed,
    FogNotRegistered,
    IoTNotRegistered,
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
    AuditOutcome,
    Channel,
    ExchangeStatus,
    FogAgent,
    Frame,
    FrameType,
    IoTAgent,
    OracleAgent,
    mutual_authenticate,
    select_ring,
    service_audit,
    service_exchange,
)

import oracles

RNG = random.Random(0x9A0710)


def build_world(threshold=0, fee_rate="0.01", behavior=None, devices=3,
                audit_payment=2, iot_funds=200):
    params = Params(
        reputation_initial=5, reputation_max=10, reputation_min=0,
        reward_step=1, penalty_step=2, fee_rate=fee_rate,
        deposit_requirement=3, deposit_deduction=1,
        audit_payment=audit_payment, oracle_bounty=1,
    )
    ledger = Ledger(params)
    iot = IoTAgent(KeyPair.generate(RNG), reputation_threshold=threshold, rng=RNG)
    iot.register(ledger, iot_funds)
    fog = FogAgent(KeyPair.generate(RNG), behavior=behavior, rng=RNG)
    fog.register(ledger, 8)
    oracle = OracleAgent(KeyPair.generate(RNG), KeyPair.generate(RNG),
                         ring_size=4, rng=RNG)
    oracle.register(ledger, device_funds=100)
    extras = []
    for _ in range(devices):
        extra = IoTAgent(KeyPair.generate(RNG), rng=RNG)
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
    before = iot.available_funds(ledger)
    exchange = service_exchange(session, iot, fog, package, 100, ledger, channel)
    assert exchange.status is ExchangeStatus.PAID
    assert exchange.result == digest(package)
    assert iot.available_funds(ledger) == before - 100
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
    tick = channel.clock
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger, channel,
                                timeout_ticks=7)
    assert exchange.status is ExchangeStatus.TIMED_OUT
    assert channel.clock >= tick + 7
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


def test_exchange_late_result_times_out():
    ledger, iot, fog, _, _ = build_world()

    def slow_results(index, sender, frame):
        return 50 if frame.frame_type is FrameType.RESULT else 0

    channel = Channel(latency=slow_results)
    session = mutual_authenticate(iot, fog, ledger, channel)
    exchange = service_exchange(session, iot, fog, b"job", 10, ledger, channel,
                                timeout_ticks=10)
    assert exchange.status is ExchangeStatus.TIMED_OUT


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


def test_exchange_payment_failure_propagates():
    ledger, iot, fog, _, _ = build_world(iot_funds=5)
    session = mutual_authenticate(iot, fog, ledger)
    with pytest.raises(PaymentFailed):
        service_exchange(session, iot, fog, b"job", 50, ledger)
    assert oracles.conservation_gap(ledger) == 0


# -- audits --

def test_audit_of_honest_fog_rewards_reputation():
    ledger, _, fog, oracle, _ = build_world()
    report = service_audit(oracle, fog, ledger)
    assert report.outcome is AuditOutcome.PASSED
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
    assert report.outcome is AuditOutcome.FAILED
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
    assert report.outcome is AuditOutcome.FAILED
    assert report.exchange.status is ExchangeStatus.TIMED_OUT
    assert ledger.fog_table[fog.address].reputation == 3
    assert oracles.conservation_gap(ledger) == 0


def test_audit_silence_can_abort_instead_of_penalizing():
    ledger, _, fog, oracle, _ = build_world(behavior=lambda p, r: None)
    with pytest.raises(AuditChannelFailure):
        service_audit(oracle, fog, ledger, penalize_on_silence=False)
    assert ledger.fog_table[fog.address].reputation == 5


def test_audit_rejecting_fog_is_penalized():
    ledger, _, fog, oracle, _ = build_world(
        behavior=lambda p, r: REJECT_REQUEST)
    report = service_audit(oracle, fog, ledger)
    assert report.outcome is AuditOutcome.FAILED
    assert ledger.fog_table[fog.address].reputation == 3


def test_audit_requires_registered_oracle_identity():
    ledger, _, fog, _, _ = build_world()
    rogue = OracleAgent(KeyPair.generate(RNG), KeyPair.generate(RNG), rng=RNG)
    with pytest.raises(UnknownOracle):
        service_audit(rogue, fog, ledger)


def test_audit_ring_must_contain_oracle_device():
    ledger, _, fog, oracle, extras = build_world()
    ring = [extras[0].address, extras[1].address]
    with pytest.raises(SignerMismatch):
        service_audit(oracle, fog, ledger, ring_members=ring)


def test_select_ring_hides_oracle_among_devices():
    ledger, _, _, oracle, _ = build_world(devices=10)
    rng = random.Random(5)
    positions = set()
    for _ in range(30):
        ring = select_ring(oracle, ledger, rng)
        assert len(ring) == 4
        assert len(set(ring)) == 4
        assert oracle.device_address in ring
        assert all(address in ledger.iot_table for address in ring)
        positions.add(ring.index(oracle.device_address))
    assert len(positions) > 1  # placement varies


def test_select_ring_needs_other_devices():
    params = Params(deposit_requirement=3)
    ledger = Ledger(params)
    oracle = OracleAgent(KeyPair.generate(RNG), KeyPair.generate(RNG), rng=RNG)
    oracle.register(ledger, device_funds=10)
    with pytest.raises(RingTooSmall):
        select_ring(oracle, ledger, random.Random(6))


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


def test_frame_encoding_roundtrip():
    frame = Frame(FrameType.REQUEST, b"\x01\x02payload")
    again = Frame.decode(frame.encode())
    assert again == frame
    with pytest.raises(ValueError):
        Frame.decode(frame.encode()[:-1])
    with pytest.raises(ValueError):
        Frame.decode(b"\x03\x00")
