"""Release gate: every headline claim checked at its stated tolerance.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line to the real
stdout, so the test transcript doubles as the release checklist even under
pytest's output capture. Statistical criteria use fixed seeds; the margins
involved are wide enough (tens of standard errors) that the checks are not
seed-sensitive.
"""

import json
import math
import random
import time

import oracles
from fogtrust.cli import main as cli_main
from fogtrust.curve import Point
from fogtrust.errors import (
    CryptoError,
    FogNotRegistered,
    IoTNotRegistered,
    LedgerError,
    ReputationBelowThreshold,
)
from fogtrust.identity import DEFAULT_IDENTITY
from fogtrust.keys import KeyPair
from fogtrust.ledger import Ledger, Params, RemovalReason, audit_message, call_message
from fogtrust.protocol import (
    Channel,
    FogAgent,
    IoTAgent,
    OracleAgent,
    mutual_authenticate,
    service_audit,
)
from fogtrust.ring import RingSignature, ring_sign, ring_verify
from fogtrust.scheduling import Policy, Scheduler
from fogtrust.simulation import ScenarioConfig, aggregate, run_cost_scenario, run_state_scenario


def report(capsys, number: int, ok: bool, details: str) -> None:
    line = "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", details)
    with capsys.disabled():
        print("\n" + line, flush=True)


# -- 1. ring signature correctness --

def _verify_rejects(message: bytes, signature) -> bool:
    """Tampered input must be rejected, whether by False or by raising."""
    try:
        return not ring_verify(message, signature)
    except CryptoError:
        return True


def _flip_message_bit(message: bytes, rng) -> bytes:
    data = bytearray(message)
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _signature_with_flipped_bit(signature, rng):
    """One random single-bit tamper across the signature's three fields."""
    which = rng.randrange(3)
    bit = 1 << rng.randrange(256)
    if which == 0:
        return RingSignature(signature.challenge ^ bit, signature.responses,
                             signature.ring)
    if which == 1:
        responses = list(signature.responses)
        index = rng.randrange(len(responses))
        responses[index] ^= bit
        return RingSignature(signature.challenge, tuple(responses),
                             signature.ring)
    index = rng.randrange(len(signature.ring))
    ring = list(signature.ring)
    old = ring[index]
    # flipping a coordinate almost always leaves the curve, which the
    # point constructor itself rejects; that still counts as rejection
    ring[index] = Point(old.x ^ bit, old.y)
    return RingSignature(signature.challenge, signature.responses, tuple(ring))


def _exhaustive_single_bit_sweep(rng) -> int:
    """Flip every bit of every field of one small instance; count escapes."""
    pairs = [KeyPair.generate(rng) for _ in range(2)]
    ring = [pair.public for pair in pairs]
    message = b"\xa5\x5a\xf0\x0d"
    signature = ring_sign(message, ring, 0, pairs[0].secret, rng)
    escapes = 0
    for index in range(len(message)):
        for bit in range(8):
            data = bytearray(message)
            data[index] ^= 1 << bit
            if not _verify_rejects(bytes(data), signature):
                escapes += 1
    for bit_index in range(256):
        bit = 1 << bit_index
        tampered = RingSignature(signature.challenge ^ bit,
                                 signature.responses, signature.ring)
        if not _verify_rejects(message, tampered):
            escapes += 1
        responses = (signature.responses[0] ^ bit, signature.responses[1])
        tampered = RingSignature(signature.challenge, responses, signature.ring)
        if not _verify_rejects(message, tampered):
            escapes += 1
        try:
            moved = Point(signature.ring[1].x ^ bit, signature.ring[1].y)
        except CryptoError:
            continue
        tampered = RingSignature(signature.challenge, signature.responses,
                                 (signature.ring[0], moved))
        if not _verify_rejects(message, tampered):
            escapes += 1
    return escapes


def test_acceptance_1_ring_signature_correctness(capsys):
    rng = random.Random(0xA11CE)
    pool = [KeyPair.generate(rng) for _ in range(64)]
    started = time.perf_counter()
    failures = []
    for trial in range(1000):
        size = rng.randint(2, 32)
        members = rng.sample(pool, size)
        ring = [pair.public for pair in members]
        signer = rng.randrange(size)
        message = rng.randbytes(rng.randint(1, 64))
        signature = ring_sign(message, ring, signer, members[signer].secret, rng)
        if not ring_verify(message, signature):
            failures.append("trial %d: valid signature rejected" % trial)
            continue
        if trial % 2 == 0:
            if not _verify_rejects(_flip_message_bit(message, rng), signature):
                failures.append("trial %d: message tamper accepted" % trial)
        else:
            try:
                tampered = _signature_with_flipped_bit(signature, rng)
            except CryptoError:
                continue
            if not _verify_rejects(message, tampered):
                failures.append("trial %d: signature tamper accepted" % trial)
    escapes = _exhaustive_single_bit_sweep(rng)
    if escapes:
        failures.append("%d escapes in the exhaustive n=2 sweep" % escapes)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    report(capsys, 1, ok, "1000 random (message, n in [2,32], signer) triples verified, "
                  "sampled single-bit tampers + exhaustive n=2 bit sweep all "
                  "rejected, %.1fs (budget 30s)" % elapsed)
    assert not failures, failures[:5]
    assert elapsed < 30.0, "ring criterion took %.1fs" % elapsed


# -- 2. handshake key agreement --

def test_acceptance_2_mutual_auth_agreement(capsys):
    rng = random.Random(0xD1FF1E)
    params = Params()
    ledger = Ledger(params)
    agreed = 0
    for _ in range(1000):
        iot = IoTAgent(KeyPair.generate(rng), rng=rng)
        fog = FogAgent(KeyPair.generate(rng), rng=rng)
        iot.register(ledger, 10)
        fog.register(ledger, params.deposit_requirement)
        session = mutual_authenticate(iot, fog, ledger, Channel())
        if (len(session.symmetric_key) == 32
                and session.symmetric_key == fog.sessions[iot.address]
                and session.symmetric_key == iot.sessions[fog.address]):
            agreed += 1

    probe = Ledger(Params())
    registered_iot = IoTAgent(KeyPair.generate(rng), rng=rng)
    registered_iot.register(probe, 10)
    picky_iot = IoTAgent(KeyPair.generate(rng), reputation_threshold=11, rng=rng)
    picky_iot.register(probe, 10)
    registered_fog = FogAgent(KeyPair.generate(rng), rng=rng)
    registered_fog.register(probe, 10)

    def snapshot():
        return json.dumps(probe.to_snapshot(), sort_keys=True)

    cases = [
        ("unregistered-iot", IoTAgent(KeyPair.generate(rng), rng=rng),
         registered_fog, IoTNotRegistered),
        ("unregistered-fog", registered_iot,
         FogAgent(KeyPair.generate(rng), rng=rng), FogNotRegistered),
        ("reputation-threshold", picky_iot, registered_fog,
         ReputationBelowThreshold),
    ]
    path_failures = []
    for label, iot, fog, expected in cases:
        before = snapshot()
        try:
            mutual_authenticate(iot, fog, probe, Channel())
            path_failures.append("%s: handshake unexpectedly succeeded" % label)
        except expected:
            pass
        except Exception as unexpected:  # noqa: BLE001 - report, then fail
            path_failures.append("%s: raised %s" % (label, type(unexpected).__name__))
        if snapshot() != before:
            path_failures.append("%s: ledger state changed" % label)

    ok = agreed == 1000 and not path_failures
    report(capsys, 2, ok, "1000/1000 handshakes derived matching 32-byte session keys; "
                  "all 3 failure paths left the ledger bit-identical")
    assert agreed == 1000
    assert not path_failures, path_failures


# -- 3. conservation fuzzing --

def _signed_call(identity, pair, op, **fields):
    return identity.sign(call_message(op, **fields), pair.secret)


def test_acceptance_3_ledger_conservation_fuzzing(capsys):
    rng = random.Random(0xFEED5)
    identity = DEFAULT_IDENTITY
    params = Params(fee_rate="0.02", deposit_requirement=6, deposit_deduction=1,
                    reward_step=1, penalty_step=2, audit_payment=1,
                    oracle_bounty=1)
    ledger = Ledger(params)

    iot_pool = {}
    fog_pool = {}

    def register_iot():
        pair = KeyPair.generate(rng)
        amount = rng.randint(20, 120)
        ledger.iot_registration(
            amount, _signed_call(identity, pair, "iot_registration", amount=amount))
        iot_pool[pair.address] = pair
        return pair

    def register_fog():
        pair = KeyPair.generate(rng)
        amount = params.deposit_requirement + rng.randint(0, 20)
        ledger.fog_registration(
            amount, _signed_call(identity, pair, "fog_registration", amount=amount))
        fog_pool[pair.address] = pair
        return pair

    oracle_pair = KeyPair.generate(rng)
    ledger.oracle_registration(
        _signed_call(identity, oracle_pair, "oracle_registration"))
    device_pair = register_iot()  # ring anchor: never removed below
    for _ in range(19):
        register_iot()
    for _ in range(10):
        register_fog()

    def table_snapshot():
        return json.dumps(ledger.to_snapshot(), sort_keys=True)

    def submit_audit(fog_address, passed):
        others = [address for address in iot_pool if address != device_pair.address]
        ring_addresses = [device_pair.address] + rng.sample(others, 2)
        rng.shuffle(ring_addresses)
        index = ring_addresses.index(device_pair.address)
        ring = [iot_pool[address].public for address in ring_addresses]
        attestation = ring_sign(audit_message(fog_address, passed),
                                ring, index, device_pair.secret, rng)
        op = "fog_reward" if passed else "fog_penalize"
        approval = _signed_call(identity, oracle_pair, op, fog=fog_address)
        if passed:
            return ledger.fog_reward(fog_address, attestation, approval)
        return ledger.fog_penalize(fog_address, attestation, approval)

    violations = []
    state_leaks = []
    operations = 0
    while operations < 10_000:
        operations += 1
        before = table_snapshot()
        roll = rng.random()
        try:
            if roll < 0.16:
                pair = iot_pool[rng.choice(list(iot_pool))]
                amount = rng.randint(1, 40)
                ledger.iot_add_funds(
                    amount, _signed_call(identity, pair, "iot_add_funds", amount=amount))
            elif roll < 0.32:
                pair = iot_pool[rng.choice(list(iot_pool))]
                amount = rng.randint(1, 200)  # often overdraws
                ledger.iot_withdraw_funds(
                    amount, _signed_call(identity, pair, "iot_withdraw_funds", amount=amount))
            elif roll < 0.52:
                pair = iot_pool[rng.choice(list(iot_pool))]
                fog_address = rng.choice(list(fog_pool))
                amount = rng.randint(1, 80)
                ledger.iot_fog_payment(
                    fog_address, amount,
                    _signed_call(identity, pair, "iot_fog_payment",
                                 fog=fog_address, amount=amount))
            elif roll < 0.60:
                pair = fog_pool[rng.choice(list(fog_pool))]
                amount = rng.randint(1, 60)
                ledger.fog_withdraw_funds(
                    amount, _signed_call(identity, pair, "fog_withdraw_funds", amount=amount))
            elif roll < 0.80:
                outcome = submit_audit(rng.choice(list(fog_pool)), rng.random() < 0.5)
                if outcome.removed:
                    fog_pool.pop(outcome.fog_address)
                    register_fog()
            elif roll < 0.84:
                # duplicate registration must be refused atomically
                pair = iot_pool[rng.choice(list(iot_pool))]
                ledger.iot_registration(
                    30, _signed_call(identity, pair, "iot_registration", amount=30))
            elif roll < 0.88:
                # signature over different fields recovers an unknown caller
                pair = iot_pool[rng.choice(list(iot_pool))]
                ledger.iot_withdraw_funds(
                    5, _signed_call(identity, pair, "iot_withdraw_funds", amount=6))
            elif roll < 0.92:
                submit_audit("0x" + "00" * 20, rng.random() < 0.5)
            elif roll < 0.96:
                candidates = [a for a in iot_pool if a != device_pair.address]
                pair = iot_pool[rng.choice(candidates)]
                ledger.iot_remove(_signed_call(identity, pair, "iot_remove"))
                iot_pool.pop(pair.address)
                register_iot()
            else:
                pair = fog_pool[rng.choice(list(fog_pool))]
                ledger.fog_remove(_signed_call(identity, pair, "fog_remove"))
                fog_pool.pop(pair.address)
                register_fog()
        except LedgerError:
            if table_snapshot() != before:
                state_leaks.append(operations)
        gap = oracles.conservation_gap(ledger)
        if gap:
            violations.append((operations, gap))

    ok = not violations and not state_leaks
    report(capsys, 3, ok, "10000 randomized ledger operations over 20 IoT + 10 fog: "
                  "%d conservation violations, %d rejected operations that "
                  "touched state (both must be 0)"
                  % (len(violations), len(state_leaks)))
    assert not violations, violations[:5]
    assert not state_leaks, state_leaks[:5]


# -- 4. penalty arithmetic through the full protocol stack --

def _audit_world(params, rng, behavior=None):
    ledger = Ledger(params)
    fog = FogAgent(KeyPair.generate(rng), behavior=behavior, rng=rng)
    fog.register(ledger, params.deposit_requirement)
    oracle = OracleAgent(KeyPair.generate(rng), KeyPair.generate(rng),
                         ring_size=3, rng=rng)
    oracle.register(ledger, device_funds=200)
    for _ in range(3):
        extra = IoTAgent(KeyPair.generate(rng), rng=rng)
        extra.register(ledger, 50)
        oracle.learn_key(extra.address, extra.keypair.public)
    return ledger, fog, oracle


def _always_corrupt(package, result):
    return bytes([result[0] ^ 0xFF]) + result[1:]


def test_acceptance_4_penalty_arithmetic(capsys):
    rng = random.Random(0xC0DE)
    problems = []

    params = Params(reputation_initial=10, reputation_max=10, reputation_min=0,
                    reward_step=1, penalty_step=2, fee_rate="0.01",
                    deposit_requirement=3, deposit_deduction=1,
                    audit_payment=2, oracle_bounty=1)
    ledger, fog, oracle = _audit_world(params, rng, behavior=_always_corrupt)
    for audit_number in (1, 2, 3):
        outcome = service_audit(oracle, fog, ledger, channel=Channel())
        application = outcome.application
        if application.passed:
            problems.append("audit %d passed against a corrupting fog" % audit_number)
        if application.reputation_after != 10 - 2 * audit_number:
            problems.append("audit %d reputation %d"
                            % (audit_number, application.reputation_after))
        if audit_number < 3:
            record = ledger.fog_table.get(fog.address)
            if record is None or record.deposit != 3 - audit_number:
                problems.append("audit %d deposit wrong" % audit_number)
        else:
            if fog.address in ledger.fog_table:
                problems.append("fog survived its third failed audit")
            if not application.removed \
                    or application.removal_reason is not RemovalReason.DEPOSIT_EXHAUSTED:
                problems.append("third audit did not exhaust the deposit")

    honest = Params(reputation_initial=10, reputation_max=10, reputation_min=0,
                    reward_step=1, penalty_step=2, fee_rate="0.01",
                    deposit_requirement=5, deposit_deduction=1,
                    audit_payment=2, oracle_bounty=0)
    ledger2, fog2, oracle2 = _audit_world(honest, rng, behavior=None)
    for _ in range(2):
        outcome = service_audit(oracle2, fog2, ledger2, channel=Channel())
        if not outcome.application.passed:
            problems.append("honest fog failed an audit")
        if outcome.application.reputation_after != 10:
            problems.append("reward did not saturate at the cap")

    floor = Params(reputation_initial=10, reputation_max=10, reputation_min=5,
                   reward_step=1, penalty_step=2, fee_rate="0.01",
                   deposit_requirement=50, deposit_deduction=1,
                   audit_payment=2, oracle_bounty=1)
    ledger3, fog3, oracle3 = _audit_world(floor, rng, behavior=_always_corrupt)
    for audit_number in (1, 2, 3):
        outcome = service_audit(oracle3, fog3, ledger3, channel=Channel())
    if fog3.address in ledger3.fog_table:
        problems.append("fog above deposit floor survived reputation collapse")
    if outcome.application.removal_reason is not RemovalReason.REPUTATION_FLOOR:
        problems.append("reputation collapse removal reason wrong")
    if outcome.application.reputation_after != 4:
        problems.append("reputation after collapse was %d"
                        % outcome.application.reputation_after)

    ok = not problems
    report(capsys, 4, ok, "deposit 3 / deduction 1 fog expelled on exactly its 3rd "
                  "failed audit (deposit exhausted); reward saturates at "
                  "R_max; reputation below R_min auto-removes")
    assert not problems, problems


# -- 5. policy cost ordering --

def test_acceptance_5_policy_cost_ordering(capsys):
    started = time.perf_counter()
    trials = 1000
    lines = []
    ok = True
    for cluster_size in (5, 25):
        stats = {}
        for policy in Policy:
            config = ScenarioConfig(fog_count=100,
                                    cluster_size=cluster_size, deposit=3,
                                    deposit_deduction=1, trials=trials,
                                    policy=policy, seed=0x5EED)
            stats[policy] = aggregate(run_cost_scenario(config))
        weighted = stats[Policy.WEIGHTED]
        rand = stats[Policy.RANDOM]
        bibd = stats[Policy.BIBD]
        se_wr = math.sqrt(weighted.variance / trials + rand.variance / trials)
        se_wb = math.sqrt(weighted.variance / trials + bibd.variance / trials)
        margin_wr = (rand.mean - weighted.mean) / se_wr
        margin_wb = (bibd.mean - weighted.mean) / se_wb
        ok = ok and margin_wr > 2 and margin_wb > 2 \
            and weighted.variance <= rand.variance
        lines.append("C=%d W %.0f R %.0f B %.0f margins %.0f/%.0f se"
                     % (cluster_size, weighted.mean, rand.mean, bibd.mean,
                        margin_wr, margin_wb))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report(capsys, 5, ok, "%s; var(W) <= var(R) at both sizes; %d trials/policy, "
                  "%.0fs (budget 120s)" % ("; ".join(lines), trials, elapsed))
    assert ok, lines
    assert elapsed < 120.0, "cost criterion took %.1fs" % elapsed


# -- 6. adaptive state dynamics --

def _recovery_step(series, target):
    lowest = min(series)
    start = series.index(lowest)
    for step in range(start, len(series)):
        if series[step] >= target:
            return step
    return len(series)


def test_acceptance_6_state_dynamics(capsys):
    trials = 1000
    recovery_means = {}
    dips = 0
    drops = 0
    nonincreasing = 0
    total = 0
    for policy in (Policy.WEIGHTED, Policy.RANDOM, Policy.BIBD):
        config = ScenarioConfig(fog_count=30, cluster_size=5,
                                deposit=10, deposit_deduction=1, trials=trials,
                                adaptive=True, policy=policy,
                                horizon_per_fog=50, seed=0xF00D,
                                reputation_initial=10, reputation_max=10,
                                reputation_min=0)
        recovery_total = 0
        for metrics in run_state_scenario(config):
            total += 1
            if metrics.mean_malicious[-1] < metrics.mean_malicious[0]:
                drops += 1
            if all(later <= earlier for earlier, later
                   in zip(metrics.live_fogs, metrics.live_fogs[1:])):
                nonincreasing += 1
            if policy is Policy.WEIGHTED:
                lowest = min(metrics.mean_reputation)
                at = metrics.mean_reputation.index(lowest)
                if at < len(metrics.mean_reputation) - 1 \
                        and metrics.mean_reputation[-1] > lowest:
                    dips += 1
            recovery_total += _recovery_step(metrics.mean_reputation, 9.5)
        recovery_means[policy] = recovery_total / trials

    weighted_fastest = (recovery_means[Policy.WEIGHTED] < recovery_means[Policy.RANDOM]
                        and recovery_means[Policy.WEIGHTED] < recovery_means[Policy.BIBD])
    ok = (drops >= math.ceil(0.99 * total)
          and dips >= math.ceil(0.95 * trials)
          and nonincreasing == total
          and weighted_fastest)
    report(capsys, 6, ok, "malicious rate fell in %d/%d trials; reputation dipped then "
                  "recovered in %d/%d weighted trials; live count nonincreasing "
                  "in %d/%d; mean steps to 95%% R_max: weighted %.0f < random "
                  "%.0f, bibd %.0f"
                  % (drops, total, dips, trials, nonincreasing, total,
                     recovery_means[Policy.WEIGHTED],
                     recovery_means[Policy.RANDOM],
                     recovery_means[Policy.BIBD]))
    assert drops >= math.ceil(0.99 * total), (drops, total)
    assert dips >= math.ceil(0.95 * trials), (dips, trials)
    assert nonincreasing == total, (nonincreasing, total)
    assert weighted_fastest, recovery_means


# -- 7. block-design balance --

def _design_problems(label, blocks, live, block_size):
    """What keeps drawn ``blocks`` from being a replication-balanced design
    over ``live``: every block B distinct members, every node in B blocks."""
    problems = []
    if any(len(set(block)) != len(block) or len(block) != block_size
           for block in blocks):
        problems.append("%s: a block is not %d distinct nodes" % (label, block_size))
    counts = oracles.occurrence_counts(blocks)
    if sorted(counts) != sorted(live) \
            or any(counts[node] != block_size for node in live):
        problems.append("%s: unbalanced occurrences" % label)
    return problems


def test_acceptance_7_block_design_balance(capsys):
    problems = []
    for count, block_size in ((7, 3), (20, 5), (100, 25)):
        roster = ["fog-%03d" % index for index in range(count)]
        scheduler = Scheduler(Policy.BIBD, block_size, roster, random.Random(count))
        blocks = [scheduler.next_cluster() for _ in range(count)]
        problems += _design_problems("(%d,%d)" % (count, block_size),
                                     blocks, roster, block_size)

    rng = random.Random(0xB1BD)
    roster = ["fog-%03d" % index for index in range(100)]
    scheduler = Scheduler(Policy.BIBD, 25, roster, rng)
    ejected = rng.choice(roster)
    scheduler.eject(ejected)
    survivors = [node for node in roster if node != ejected]
    blocks = [scheduler.next_cluster() for _ in range(99)]
    problems += _design_problems("99 survivors", blocks, survivors, 25)

    ok = not problems
    report(capsys, 7, ok, "(7,3), (20,5), (100,25): N clusters drawn by the block "
                  "scheduler are N blocks of B distinct nodes with every node in "
                  "exactly B; after an ejection the 99 clusters drawn over the "
                  "survivors keep the property")
    assert not problems, problems


# -- 8. CSV determinism --

def test_acceptance_8_deterministic_outputs(tmp_path, capsys):
    config_file = tmp_path / "scenario.cfg"
    config_file.write_text("fog_count = 8\n"
                           "trials = 5\ncluster = 2\nhorizon_per_fog = 10\n")
    mismatches = []
    for scenario in ("cost", "state"):
        digests = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / scenario / attempt
            out_dir.mkdir(parents=True)
            code = cli_main(["simulate", scenario, "--config", str(config_file),
                             "--seed", "20260814", "--out", str(out_dir)])
            if code != 0:
                mismatches.append("%s run exited %d" % (scenario, code))
            blob = b"".join(path.read_bytes()
                            for path in sorted(out_dir.iterdir()))
            digests.append(blob)
        if digests[0] != digests[1]:
            mismatches.append("%s outputs differ between runs" % scenario)

    ok = not mismatches
    report(capsys, 8, ok, "simulate cost and simulate state each rerun with the same "
                  "seed: all CSVs and plot scripts byte-identical")
    assert not mismatches, mismatches
