"""protocol-mix: devices, fogs and an oracle running the agent protocol.

A closed loop with one client and real secp256k1 identities. A session
is a handshake between a seeded device and fog, then ``exchanges`` paid
``service_exchange`` calls over it. A round is ``sessions_per_audit``
sessions and then one ``service_audit`` by the oracle, with a ring of
``ring_size``, against a seeded fog: with the defaults, one audit per ten
paid requests. A fixed share of fog slots
tampers with every result through the ``behavior`` hook, so both
``fog_reward`` and ``fog_penalize`` fire. The population stays steady:
devices are topped up through ``iot_add_funds`` and an expelled fog slot is
re-registered under a fresh key. All agents share one seeded RNG, so a seed
fixes every key, nonce and package. Times are scaled to reference speed by
the speed gauge, which probes between requests and after every round
(``common.SpeedGauge``).
"""

from __future__ import annotations

import random
import time

from fogtrust import curve, ledger as ledger_mod, protocol
from fogtrust.constants import digest
from fogtrust.errors import FogTrustError
from fogtrust.identity import DEFAULT_IDENTITY
from fogtrust.keys import KeyPair

from common import Outcome, latency, round_rate, sha256_json

SIZES = {
    "devices": 64,
    "fogs": 8,
    "tampering_fogs": 3,
    "ring_size": 8,
    "exchanges": 5,
    "sessions_per_audit": 2,
    "payment": 100,
    "device_funds": 1000,
    "fog_stake": 10,
    # the ledger snapshot after this many sessions is hashed into the result
    "snapshot_session": 8,
}

# With this many audits against 3 tampering fogs of 8, a run where one
# verdict never fires is a defect, not chance ((5/8)**20 < 1e-4).
MIN_AUDITS_FOR_COVERAGE = 20

# Uses of a point after which the package keeps a multiplication table for it.
WARM_USES = 4


def _tamper(package, result):
    return bytes([result[0] ^ 0x01]) + result[1:]


class World:
    """Everything set-up builds: ledger, agents and the loop's RNG."""

    def __init__(self, seed: int, sizes: dict):
        self.sizes = sizes
        self.rng = random.Random(seed)
        rng = self.rng
        self.ledger = ledger_mod.Ledger(ledger_mod.Params())
        self.devices = []
        for _ in range(sizes["devices"]):
            device = protocol.IoTAgent(KeyPair.generate(rng), rng=rng)
            device.register(self.ledger, sizes["device_funds"])
            self.devices.append(device)
        self.tampering = set(rng.sample(range(sizes["fogs"]),
                                        sizes["tampering_fogs"]))
        self.fogs = [self.fresh_fog(slot) for slot in range(sizes["fogs"])]
        self.oracle = protocol.OracleAgent(KeyPair.generate(rng),
                                           KeyPair.generate(rng),
                                           ring_size=sizes["ring_size"], rng=rng)
        self.oracle.register(self.ledger, sizes["device_funds"])
        for device in self.devices:
            self.oracle.learn_key(device.address, device.keypair.public)
        # Warm the multiplication tables of every long-lived ring member,
        # so the timed loop sees warm audits only.
        for public in self.oracle.key_directory.values():
            for _ in range(WARM_USES):
                curve.scalar_mult(2, public)

    def fresh_fog(self, slot: int):
        behavior = _tamper if slot in self.tampering else None
        fog = protocol.FogAgent(KeyPair.generate(self.rng), behavior=behavior,
                                rng=self.rng)
        fog.register(self.ledger, self.sizes["fog_stake"])
        return fog

    def honest(self, slot: int) -> bool:
        return slot not in self.tampering

    def top_up(self, keypair, floor: int):
        record = self.ledger.iot_table[keypair.address]
        if record.available_funds >= floor:
            return
        amount = self.sizes["device_funds"]
        approval = DEFAULT_IDENTITY.sign(
            ledger_mod.call_message("iot_add_funds", amount=amount),
            keypair.secret, self.rng)
        self.ledger.iot_add_funds(amount, approval)


def setup(seed: int, sizes: dict, scratch: str) -> World:
    return World(seed, sizes)


class _Loop:
    """The timed loop's state: request ids for the tracer, and the outcome."""

    def __init__(self, world: World, tracer):
        self.world = world
        self.tracer = tracer
        self.outcome = Outcome()
        self.request = 0
        self.cycle = 0

    def begin(self) -> float:
        self.request += 1
        if self.tracer is not None:
            self.tracer.request = self.request
        self.outcome.attempted += 1
        self.outcome.gauge.tick()
        return time.perf_counter()

    def finish(self, name: str, begin: float):
        """Record one request that began at ``begin``."""
        self.outcome.request(name, time.perf_counter() - begin)

    def session(self) -> int:
        """One handshake and its paid exchanges; returns operations done."""
        world, outcome = self.world, self.outcome
        rng = world.rng
        device = rng.choice(world.devices)
        slot = rng.randrange(len(world.fogs))
        fog = world.fogs[slot]
        begin = self.begin()
        try:
            session = protocol.mutual_authenticate(device, fog, world.ledger)
        except FogTrustError as exc:
            outcome.fail("handshake: %s: %s" % (type(exc).__name__, exc))
            return 0
        self.finish("handshake", begin)
        if device.sessions.get(fog.address) != fog.sessions.get(device.address):
            outcome.fail("session keys disagree")
        done = 1
        payment = world.sizes["payment"]
        for _ in range(world.sizes["exchanges"]):
            package = rng.randbytes(32)
            begin = self.begin()
            try:
                exchange = protocol.service_exchange(
                    session, device, fog, package, payment, world.ledger)
            except FogTrustError as exc:
                outcome.fail("exchange: %s: %s" % (type(exc).__name__, exc))
                continue
            self.finish("exchange", begin)
            done += 1
            if exchange.status is not protocol.ExchangeStatus.PAID:
                outcome.fail("exchange ended %s" % exchange.status.value)
            elif (exchange.result == digest(package)) != world.honest(slot):
                outcome.fail("exchange result disagrees with the fog's behaviour")
            world.top_up(device.keypair, 2 * payment)
        self.cycle += 1
        if self.cycle == world.sizes["snapshot_session"]:
            outcome.output_sha256["ledger_snapshot"] = sha256_json(
                world.ledger.to_snapshot())
        return done

    def audit(self) -> int:
        """One disguised audit of a seeded fog; returns operations done."""
        world, outcome = self.world, self.outcome
        ledger = world.ledger
        slot = world.rng.randrange(len(world.fogs))
        begin = self.begin()
        try:
            report = protocol.service_audit(world.oracle, world.fogs[slot], ledger)
        except FogTrustError as exc:
            outcome.fail("audit: %s: %s" % (type(exc).__name__, exc))
            return 0
        self.finish("audit", begin)
        honest = world.honest(slot)
        if report.passed != honest or report.application.passed != honest:
            outcome.fail("audit verdict disagrees with the fog's behaviour")
        outcome.count("audits_passed" if report.passed else "audits_failed")
        if report.application.removed:
            if honest:
                outcome.fail("honest fog expelled")
            outcome.count("fogs_replaced")
            world.fogs[slot] = world.fresh_fog(slot)
        world.top_up(world.oracle.iot_keypair, 2 * ledger.params.audit_payment)
        return 1


def run(world: World, seconds: float, tracer=None) -> Outcome:
    """Rounds of ``sessions_per_audit`` sessions and one audit until time is up."""
    loop = _Loop(world, tracer)
    outcome = loop.outcome
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        done = sum(loop.session()
                   for _ in range(world.sizes["sessions_per_audit"]))
        done += loop.audit()
        busy = sum(outcome.settle().values())
        if busy:
            outcome.sample("round_rate", done / busy)
    outcome.elapsed = time.perf_counter() - started

    outcome.check("conservation", world.ledger.conservation_gap() == 0)
    if len(outcome.samples.get("audit", ())) >= MIN_AUDITS_FOR_COVERAGE:
        outcome.check("both verdicts fired",
                      outcome.counts.get("audits_passed", 0) > 0
                      and outcome.counts.get("audits_failed", 0) > 0)
    return outcome


def metrics(outcome: Outcome) -> dict:
    """The workload's own end-to-end metrics."""
    return {
        "handshake_p50_ms": latency(outcome, "handshake", 0.5),
        "handshake_p90_ms": latency(outcome, "handshake", 0.9),
        "exchange_p50_ms": latency(outcome, "exchange", 0.5),
        "audit_p50_ms": latency(outcome, "audit", 0.5),
        "audit_p90_ms": latency(outcome, "audit", 0.9),
        "protocol_ops_per_s": round_rate(outcome, "round_rate"),
    }


# generic end-to-end name -> this workload's metric
GENERIC = {
    "ops_per_s": "protocol_ops_per_s",
    "light_p50_ms": "exchange_p50_ms",
    "heavy_p50_ms": "audit_p50_ms",
}
