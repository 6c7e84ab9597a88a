"""contract-verify: serialized contract calls checked by a fresh ledger.

Set-up registers a pool of devices, fogs and one oracle, snapshots that
ledger, and then writes the call list: blocks of ten ``iot_fog_payment``
calls and one ``fog_reward``/``fog_penalize`` attestation, ring sizes
cycling through 2, 8 and 32 with members drawn from the device pool. About
5% of calls are malformed: a flipped signature bit, an unregistered caller,
a bad amount, or a ring member that is not registered. Signatures are
stored as ``Signature.to_bytes`` and attestations as
``RingSignature.to_json``; every message comes from ``ledger.call_message``
and ``ledger.audit_message``.

Each call's expected outcome is recorded at generation by replaying it on
a copy of the snapshot under ``TokenIdentity``, which knows every signer,
so the timed path (signature recovery and ring verification on freshly
decoded points) must reach the same result, or, for a flipped bit, reject.

The timed loop restores the snapshot into a fresh secp256k1 ``Ledger``
(untimed), then decodes and submits one call (timed), and cycles through
the list until time is up. Throughput is counted per round of one block of
each ring size, over the time spent inside the calls. Every ring member
arrives as a fresh ``Point``, so no multiplication table is ever reused.
Times are scaled to reference speed by the speed gauge, which probes
between calls and after every round (``common.SpeedGauge``).
"""

from __future__ import annotations

import random
import time

from fogtrust import ledger as ledger_mod, ring, signing
from fogtrust.curve import Point
from fogtrust.errors import FogTrustError
from fogtrust.identity import DEFAULT_IDENTITY
from fogtrust.keys import KeyPair
from fogtrust.simulation import TokenIdentity, TokenRingSignature, TokenSignature

from common import Outcome, latency, round_rate, sha256_json

RING_SIZES = (2, 8, 32)

SIZES = {
    "devices": 64,
    "fogs": 8,
    "outsiders": 4,
    "blocks": 33,
    "payments_per_block": 10,
    "malformed_share": 0.05,
    "device_funds": 1000,
    "fog_stake": 20,
    "max_payment": 200,
}

PAYMENT_FAULTS = ("flipped_bit", "unregistered_caller", "bad_amount")
# Fixed per ring size: the first two are rejected before the ring is
# verified, the last after, and a seed must not change how much
# verification a run does.
ATTESTATION_FAULTS = {2: "flipped_bit", 8: "unregistered_caller",
                      32: "unregistered_member"}

# A flipped signature bit recovers a random key or none at all.
FLIPPED_PAYMENT = ("BadSignature", "NotRegistered")
FLIPPED_APPROVAL = ("BadSignature", "UnknownOracle")


def _sign(message: bytes, keypair, rng) -> bytes:
    return DEFAULT_IDENTITY.sign(message, keypair.secret, rng).to_bytes()


def _flip_bit(raw: bytes, rng) -> bytes:
    bit = rng.randrange(512)          # inside r or s, not the recovery hint
    data = bytearray(raw)
    data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


class CallSet:
    """Base snapshot plus the generated calls and their expected outcomes."""

    def __init__(self, seed: int, sizes: dict):
        rng = random.Random(seed)
        self.sizes = sizes
        ledger = ledger_mod.Ledger(ledger_mod.Params())
        self.devices = [KeyPair.generate(rng) for _ in range(sizes["devices"])]
        self.fogs = [KeyPair.generate(rng) for _ in range(sizes["fogs"])]
        self.oracle = KeyPair.generate(rng)
        self.outsiders = [KeyPair.generate(rng)
                          for _ in range(sizes["outsiders"])]
        funds = sizes["device_funds"]
        for pair in self.devices:
            ledger.iot_registration(funds, DEFAULT_IDENTITY.sign(
                ledger_mod.call_message("iot_registration", amount=funds),
                pair.secret, rng))
        stake = sizes["fog_stake"]
        for pair in self.fogs:
            ledger.fog_registration(stake, DEFAULT_IDENTITY.sign(
                ledger_mod.call_message("fog_registration", amount=stake),
                pair.secret, rng))
        ledger.oracle_registration(DEFAULT_IDENTITY.sign(
            ledger_mod.call_message("oracle_registration"),
            self.oracle.secret, rng))
        self.base = ledger.to_snapshot()

        # The seed picks which calls are malformed and how, but not how
        # many: a share of the payments, and one attestation of each ring
        # size, each with the malformation ATTESTATION_FAULTS gives it.
        per_block = sizes["payments_per_block"] + 1
        blocks = sizes["blocks"]
        payments = blocks * sizes["payments_per_block"]
        bad_payments = set(rng.sample(range(payments),
                                      round(sizes["malformed_share"] * payments)))
        bad_blocks = {size: rng.randrange(position, blocks, len(RING_SIZES))
                      for position, size in enumerate(RING_SIZES)}
        self.calls = []
        for index in range(blocks * per_block):
            block, position = divmod(index, per_block)
            if position < sizes["payments_per_block"]:
                payment = block * sizes["payments_per_block"] + position
                kind = rng.choice(PAYMENT_FAULTS) if payment in bad_payments \
                    else "valid"
                call = self._payment(rng, kind)
            else:
                size = RING_SIZES[block % len(RING_SIZES)]
                kind = ATTESTATION_FAULTS[size] if bad_blocks[size] == block \
                    else "valid"
                call = self._attestation(rng, size, kind)
            self.calls.append(call)
        self.expected_sha256 = sha256_json(
            [(call["op"], call["expect"]) for call in self.calls])

    # -- generation

    def _payment(self, rng, kind: str) -> dict:
        payer = rng.choice(self.devices)
        fog = rng.choice(self.fogs).address
        amount = rng.randrange(1, self.sizes["max_payment"] + 1)
        if kind == "unregistered_caller":
            payer = rng.choice(self.outsiders)
        elif kind == "bad_amount":
            amount = rng.choice((0, -amount, self.sizes["device_funds"] + amount))
        message = ledger_mod.call_message("iot_fog_payment", amount=amount, fog=fog)
        signature = _sign(message, payer, rng)
        call = {"op": "iot_fog_payment", "kind": kind, "fog": fog,
                "amount": amount, "signature": signature}
        if kind == "flipped_bit":
            call["signature"] = _flip_bit(signature, rng)
            call["expect"] = ("reject", FLIPPED_PAYMENT)
        else:
            call["expect"] = self._expect(
                lambda ledger: ledger.iot_fog_payment(
                    fog, amount, TokenSignature(payer.address, message)))
        return call

    def _attestation(self, rng, size: int, kind: str) -> dict:
        fog = rng.choice(self.fogs).address
        passed = rng.random() < 0.5
        op = "fog_reward" if passed else "fog_penalize"
        members = rng.sample(self.devices, size)
        if kind == "unregistered_member":
            members[rng.randrange(size)] = rng.choice(self.outsiders)
        signer = rng.randrange(size)
        attest_message = ledger_mod.audit_message(fog, passed)
        # Copies keep the pool keys from growing tables while signing.
        attestation = ring.ring_sign(
            attest_message, [Point(m.public.x, m.public.y) for m in members],
            signer, members[signer].secret, rng)
        approver = rng.choice(self.outsiders) if kind == "unregistered_caller" \
            else self.oracle
        message = ledger_mod.call_message(op, fog=fog)
        approval = _sign(message, approver, rng)
        call = {"op": op, "kind": kind, "fog": fog, "ring_size": size,
                "attestation": attestation.to_json(), "signature": approval}
        if kind == "flipped_bit":
            call["signature"] = _flip_bit(approval, rng)
            call["expect"] = ("reject", FLIPPED_APPROVAL)
        else:
            token_ring = TokenRingSignature(
                tuple(m.address for m in members), attest_message)
            call["expect"] = self._expect(
                lambda ledger: getattr(ledger, op)(
                    fog, token_ring, TokenSignature(approver.address, message)))
        return call

    def _expect(self, apply):
        ledger = ledger_mod.Ledger.from_snapshot(self.base,
                                                 identity=TokenIdentity())
        try:
            result = apply(ledger)
        except FogTrustError as exc:
            return ("reject", (type(exc).__name__,))
        return ("accept", result, ledger.to_snapshot())


def submit(ledger, call: dict):
    """Decode one serialized call and hand it to the contract."""
    signature = signing.Signature.from_bytes(call["signature"])
    op = call["op"]
    if op == "iot_fog_payment":
        return ledger.iot_fog_payment(call["fog"], call["amount"], signature)
    attestation = ring.RingSignature.from_json(call["attestation"])
    return getattr(ledger, op)(call["fog"], attestation, signature)


def setup(seed: int, sizes: dict, scratch: str) -> CallSet:
    return CallSet(seed, sizes)


def run(calls: CallSet, seconds: float, tracer=None) -> Outcome:
    outcome = Outcome()
    outcome.output_sha256["expected_outcomes"] = calls.expected_sha256
    base = calls.base
    call_list = calls.calls
    # a round is one block of each ring size
    round_calls = len(RING_SIZES) * (calls.sizes["payments_per_block"] + 1)
    index = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        call = call_list[index % len(call_list)]
        index += 1
        if tracer is not None:
            tracer.request = index
        ledger = ledger_mod.Ledger.from_snapshot(base)
        outcome.attempted += 1
        error = result = None
        outcome.gauge.tick()
        begin = time.perf_counter()
        try:
            result = submit(ledger, call)
        except FogTrustError as exc:
            error = exc
        elapsed = time.perf_counter() - begin
        outcome.request("payment_call" if call["op"] == "iot_fog_payment"
                        else "audit_call", elapsed)
        if index % round_calls == 0:
            outcome.sample("round_rate",
                           round_calls / sum(outcome.settle().values()))

        expect = call["expect"]
        if expect[0] == "accept":
            if error is not None:
                outcome.fail("valid %s rejected: %s" % (call["op"],
                                                        type(error).__name__))
            elif result != expect[1] or ledger.to_snapshot() != expect[2]:
                outcome.fail("%s returned a different result" % call["op"])
        else:
            if error is None:
                outcome.fail("%s %s call accepted" % (call["kind"], call["op"]))
            else:
                outcome.count("rejected")
                if type(error).__name__ not in expect[1]:
                    outcome.fail("%s %s rejected as %s, expected %s"
                                 % (call["kind"], call["op"],
                                    type(error).__name__, "/".join(expect[1])))
                if ledger.to_snapshot() != base:
                    outcome.fail("rejected %s changed the ledger" % call["op"])
    outcome.settle()
    outcome.elapsed = time.perf_counter() - started
    return outcome


def metrics(outcome: Outcome) -> dict:
    """The workload's own end-to-end metrics."""
    return {
        "contract_calls_per_s": round_rate(outcome, "round_rate"),
        "payment_call_p50_ms": latency(outcome, "payment_call", 0.5),
        "audit_call_p50_ms": latency(outcome, "audit_call", 0.5),
        "audit_call_p90_ms": latency(outcome, "audit_call", 0.9),
    }


GENERIC = {
    "ops_per_s": "contract_calls_per_s",
    "light_p50_ms": "payment_call_p50_ms",
    "heavy_p50_ms": "audit_call_p50_ms",
}
