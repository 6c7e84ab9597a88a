"""Contract-state behaviour: registration, funds, payments, audits, conservation."""

import ast
import inspect
import itertools
import json
import random
import string
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import ledger as ledger_mod
from fogtrust import signing
from fogtrust.errors import (
    AlreadyRegistered,
    BadSignature,
    InsufficientDeposit,
    InsufficientFunds,
    InvalidAmount,
    InvalidParams,
    InvalidRingSignature,
    LedgerError,
    MalformedRingSignature,
    NotRegistered,
    RingMemberNotInIoTTable,
    RingTooSmall,
    UnknownFog,
    UnknownOracle,
)
from fogtrust.keys import KeyPair
from fogtrust.ledger import (
    AuditApplication,
    Ledger,
    Params,
    RemovalReason,
    audit_message,
    call_message,
)
from fogtrust.ring import RingSignature, ring_sign
from fogtrust.signing import Signature
from fogtrust.simulation import TokenIdentity, TokenRingSignature, TokenSignature

import oracles

RNG = random.Random(0xD11E57)


def small_params(**overrides):
    base = dict(
        reputation_initial=5, reputation_max=10, reputation_min=0,
        reward_step=1, penalty_step=2, fee_rate="0.01",
        deposit_requirement=3, deposit_deduction=1,
        audit_payment=0, oracle_bounty=0,
    )
    base.update(overrides)
    return Params(**base)


class Bench:
    """A ledger plus just enough key management to keep signed calls readable."""

    def __init__(self, params=None):
        self.ledger = Ledger(params if params is not None else small_params())

    def approve(self, pair, op, **fields):
        return signing.sign(call_message(op, **fields), pair.secret, RNG)

    def iot(self, funds=100):
        pair = KeyPair.generate(RNG)
        self.ledger.iot_registration(
            funds, self.approve(pair, "iot_registration", amount=funds))
        return pair

    def fog(self, stake=None):
        pair = KeyPair.generate(RNG)
        amount = self.ledger.params.deposit_requirement if stake is None else stake
        self.ledger.fog_registration(
            amount, self.approve(pair, "fog_registration", amount=amount))
        return pair

    def oracle(self):
        pair = KeyPair.generate(RNG)
        self.ledger.oracle_registration(self.approve(pair, "oracle_registration"))
        return pair

    def audit(self, oracle_pair, fog_address, devices, passed, signer=0):
        message = audit_message(fog_address, passed)
        members = [d.public for d in devices]
        attestation = ring_sign(message, members, signer, devices[signer].secret, RNG)
        op = "fog_reward" if passed else "fog_penalize"
        approval = self.approve(oracle_pair, op, fog=fog_address)
        apply_op = self.ledger.fog_reward if passed else self.ledger.fog_penalize
        return apply_op(fog_address, attestation, approval)

    def assert_conserved(self):
        assert oracles.conservation_gap(self.ledger) == 0


# -- parameter validation --

def test_params_accepts_reasonable_values():
    params = small_params()
    assert params.fee(100) == 1
    assert params.fee(99) == 0
    assert params.fee(0) == 0


def test_params_rejects_bad_reputation_band():
    with pytest.raises(InvalidParams):
        small_params(reputation_initial=11)
    with pytest.raises(InvalidParams):
        small_params(reputation_min=6)


def test_params_requires_strictly_larger_penalty():
    with pytest.raises(InvalidParams):
        small_params(reward_step=2, penalty_step=2)
    with pytest.raises(InvalidParams):
        small_params(reward_step=3, penalty_step=2)


def test_params_rejects_fee_rate_outside_unit_interval():
    with pytest.raises(InvalidParams):
        small_params(fee_rate="1")
    with pytest.raises(InvalidParams):
        small_params(fee_rate="-0.25")
    with pytest.raises(InvalidParams):
        small_params(fee_rate="not a number")
    small_params(fee_rate="0.999")
    small_params(fee_rate=0)


def test_params_rejects_nonpositive_knobs():
    with pytest.raises(InvalidParams):
        small_params(deposit_requirement=0)
    with pytest.raises(InvalidParams):
        small_params(deposit_deduction=0)
    with pytest.raises(InvalidParams):
        small_params(audit_payment=-1)


@given(amount=st.integers(min_value=0, max_value=10**9),
       rate=st.sampled_from(["0", "0.01", "0.1", "0.25", "0.5", "0.999"]))
def test_fee_is_exact_floor(amount, rate):
    from fractions import Fraction
    params = small_params(fee_rate=rate)
    exact = Fraction(rate) * amount
    assert params.fee(amount) == exact.numerator // exact.denominator
    assert 0 <= params.fee(amount) <= amount


# -- call messages --

FIELD_NAMES = st.text(alphabet=string.ascii_lowercase + "_", min_size=1,
                      max_size=8).filter(lambda name: name != "op")
FIELD_VALUES = st.one_of(st.text(max_size=12), st.integers(), st.booleans())


@given(op=st.text(max_size=20),
       items=st.lists(st.tuples(FIELD_NAMES, FIELD_VALUES), max_size=3,
                      unique_by=lambda item: item[0]),
       data=st.data())
def test_call_message_matches_a_joined_parts_list(op, items, data):
    # the keywords may come in any order; the message must not depend on it
    shuffled = data.draw(st.permutations(items))
    assert call_message(op, **dict(shuffled)) == oracles.call_message(
        op, **dict(items))


def test_only_caller_recovers_and_every_signed_op_names_itself():
    tree = ast.parse(inspect.getsource(ledger_mod))
    ledger_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "Ledger")
    methods = {node.name: node for node in ledger_class.body
               if isinstance(node, ast.FunctionDef)}

    def recovers(node):
        return sum(isinstance(sub, ast.Attribute) and sub.attr == "recover_address"
                   for sub in ast.walk(node))

    assert recovers(tree) == recovers(methods["_caller"]) == 1

    def calls(node, name):
        """The calls of ``self.<name>`` anywhere in ``node``."""
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute) and sub.func.attr == name
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == "self"]

    signed = set()
    for name, method in methods.items():
        if name.startswith("_"):
            continue
        for call in calls(method, "_caller"):
            message = call.args[0]
            assert isinstance(message, ast.Call)
            assert isinstance(message.func, ast.Name)
            assert message.func.id == "call_message"
            assert ast.literal_eval(message.args[0]) == name
            signed.add(name)
        for call in calls(method, "_audit"):
            assert ast.literal_eval(call.args[0]) == name
            signed.add(name)
    # every public op that takes a signature checks it, and only once
    takes_signature = {name for name, method in methods.items()
                       if not name.startswith("_")
                       and "signature" in [arg.arg for arg in method.args.args]}
    assert signed == takes_signature
    assert len(signed) == 11
    for name in signed:
        assert len(calls(methods[name], "_caller")
                   + calls(methods[name], "_audit")) == 1
    # _audit authenticates the op it was handed
    (audit_call,) = calls(methods["_audit"], "_caller")
    message = audit_call.args[0]
    assert message.func.id == "call_message"
    assert message.args[0].id == methods["_audit"].args.args[1].arg == "op"


@pytest.mark.parametrize("name, signed_op, study", [
    ("_apply_verdict", "ledger.Ledger._audit", "simulation._attempts"),
    ("_register_iot", "ledger.Ledger.iot_registration",
     "simulation._build_population"),
    ("_register_fog", "ledger.Ledger.fog_registration",
     "simulation._build_population"),
], ids=["_apply_verdict", "_register_iot", "_register_fog"])
def test_only_the_audit_and_the_studies_apply_a_verdict(name, signed_op, study):
    """Nothing in the package runs a state transition without its signed
    op's authentication, except one study function, which signs nothing."""
    calls, references = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr == name
                  or isinstance(child, ast.Name) and child.id == name
                  or isinstance(child, ast.Constant) and child.value == name):
                references.append(".".join(scope))
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == name):
                calls.append(".".join(scope))
            visit(child, inner)

    package = Path(ledger_mod.__file__).parent
    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    assert sorted(calls) == sorted(references) == [signed_op, study]


# -- registration --

def test_iot_registration_creates_funded_record():
    bench = Bench()
    pair = bench.iot(funds=100)
    record = bench.ledger.iot_table[pair.address]
    assert record.available_funds == 100
    assert bench.ledger.total_deposited == 100
    bench.assert_conserved()


def test_iot_registration_rejects_duplicate():
    bench = Bench()
    pair = bench.iot(funds=10)
    with pytest.raises(AlreadyRegistered):
        bench.ledger.iot_registration(
            5, bench.approve(pair, "iot_registration", amount=5))
    assert bench.ledger.iot_table[pair.address].available_funds == 10


def test_iot_registration_rejects_nonpositive_amount():
    bench = Bench()
    pair = KeyPair.generate(RNG)
    for bad in (0, -5):
        with pytest.raises(InvalidAmount):
            bench.ledger.iot_registration(
                bad, bench.approve(pair, "iot_registration", amount=bad))
    assert bench.ledger.iot_table == {}


def test_fog_registration_splits_stake_into_deposit_and_funds():
    bench = Bench()  # deposit requirement 3
    pair = bench.fog(stake=8)
    record = bench.ledger.fog_table[pair.address]
    assert record.deposit == 3
    assert record.available_funds == 5
    assert record.reputation == 5
    bench.assert_conserved()


def test_fog_registration_boundaries():
    bench = Bench()
    exact = bench.fog(stake=3)
    assert bench.ledger.fog_table[exact.address].available_funds == 0
    poor = KeyPair.generate(RNG)
    with pytest.raises(InsufficientDeposit):
        bench.ledger.fog_registration(
            2, bench.approve(poor, "fog_registration", amount=2))
    with pytest.raises(AlreadyRegistered):
        bench.ledger.fog_registration(
            3, bench.approve(exact, "fog_registration", amount=3))


def test_oracle_registration_and_duplicate():
    bench = Bench()
    pair = bench.oracle()
    assert pair.address in bench.ledger.oracle_table
    with pytest.raises(AlreadyRegistered):
        bench.ledger.oracle_registration(bench.approve(pair, "oracle_registration"))


def test_malformed_signature_rejected_before_any_state_change():
    bench = Bench()
    with pytest.raises(BadSignature):
        bench.ledger.oracle_registration(Signature(r=1, s=0, recovery_hint=0))
    with pytest.raises(BadSignature):
        bench.ledger.iot_registration(10, Signature(r=0, s=1, recovery_hint=0))
    assert bench.ledger.oracle_table == {}
    assert bench.ledger.iot_table == {}
    assert bench.ledger.total_deposited == 0


@pytest.mark.parametrize("field, value", [
    ("r", 1.5), ("s", "1"), ("recovery_hint", 0.0), ("r", True),
    ("recovery_hint", True),
])
def test_signature_fields_that_are_not_ints_change_nothing(field, value):
    bench = Bench()
    pair = KeyPair.generate(RNG)
    genuine = bench.approve(pair, "iot_registration", amount=10)
    before = bench.ledger.to_snapshot()
    with pytest.raises(BadSignature):
        bench.ledger.iot_registration(10, replace(genuine, **{field: value}))
    assert bench.ledger.to_snapshot() == before


def test_signature_over_different_arguments_is_a_different_caller():
    # Recovery-style authentication: a signature over other arguments still
    # recovers, but to an address that owns nothing here.
    bench = Bench()
    pair = bench.iot(funds=50)
    stale = bench.approve(pair, "iot_add_funds", amount=5)
    with pytest.raises(NotRegistered):
        bench.ledger.iot_add_funds(6, stale)
    assert bench.ledger.iot_table[pair.address].available_funds == 50


# -- funds management --

def test_iot_add_and_withdraw_cycle():
    bench = Bench()
    pair = bench.iot(funds=10)
    bench.ledger.iot_add_funds(5, bench.approve(pair, "iot_add_funds", amount=5))
    record = bench.ledger.iot_table[pair.address]
    assert record.available_funds == 15
    payout = bench.ledger.iot_withdraw_funds(
        15, bench.approve(pair, "iot_withdraw_funds", amount=15))
    assert payout == 15
    assert record.available_funds == 0
    assert bench.ledger.total_withdrawn == 15
    bench.assert_conserved()


def test_bool_amounts_and_params_are_rejected():
    bench = Bench()
    pair = KeyPair.generate(RNG)
    with pytest.raises(InvalidAmount):
        bench.ledger.iot_registration(
            True, bench.approve(pair, "iot_registration", amount=True))
    assert bench.ledger.iot_table == {}
    with pytest.raises(InvalidParams):
        small_params(reward_step=True)


def test_iot_withdraw_overdraft_rejected():
    bench = Bench()
    pair = bench.iot(funds=10)
    with pytest.raises(InsufficientFunds):
        bench.ledger.iot_withdraw_funds(
            11, bench.approve(pair, "iot_withdraw_funds", amount=11))
    assert bench.ledger.iot_table[pair.address].available_funds == 10


def test_nonpositive_amounts_rejected():
    bench = Bench()
    pair = bench.iot(funds=10)
    with pytest.raises(InvalidAmount):
        bench.ledger.iot_add_funds(0, bench.approve(pair, "iot_add_funds", amount=0))
    with pytest.raises(InvalidAmount):
        bench.ledger.iot_withdraw_funds(
            -3, bench.approve(pair, "iot_withdraw_funds", amount=-3))


def test_unregistered_actor_cannot_move_funds():
    bench = Bench()
    ghost = KeyPair.generate(RNG)
    with pytest.raises(NotRegistered):
        bench.ledger.iot_add_funds(5, bench.approve(ghost, "iot_add_funds", amount=5))
    with pytest.raises(NotRegistered):
        bench.ledger.fog_withdraw_funds(
            1, bench.approve(ghost, "fog_withdraw_funds", amount=1))


def test_fog_withdraw_cannot_touch_deposit():
    bench = Bench()
    pair = bench.fog(stake=10)  # deposit 3, available 7
    bench.ledger.fog_withdraw_funds(
        3, bench.approve(pair, "fog_withdraw_funds", amount=3))
    record = bench.ledger.fog_table[pair.address]
    assert record.available_funds == 4
    assert record.deposit == 3
    with pytest.raises(InsufficientFunds):
        bench.ledger.fog_withdraw_funds(
            5, bench.approve(pair, "fog_withdraw_funds", amount=5))


def test_removal_pays_out_everything():
    bench = Bench()
    device = bench.iot(funds=40)
    node = bench.fog(stake=5)  # deposit 3, available 2
    assert bench.ledger.iot_remove(bench.approve(device, "iot_remove")) == 40
    assert device.address not in bench.ledger.iot_table
    assert bench.ledger.fog_remove(bench.approve(node, "fog_remove")) == 5
    assert node.address not in bench.ledger.fog_table
    with pytest.raises(NotRegistered):
        bench.ledger.fog_remove(bench.approve(node, "fog_remove"))
    assert bench.ledger.total_withdrawn == 45
    bench.assert_conserved()


# -- service payment --

def test_payment_splits_fee_exactly():
    bench = Bench()
    payer = bench.iot(funds=150)
    node = bench.fog(stake=3)
    fee = bench.ledger.iot_fog_payment(
        node.address, 100,
        bench.approve(payer, "iot_fog_payment", amount=100, fog=node.address))
    assert fee == 1
    assert bench.ledger.iot_table[payer.address].available_funds == 50
    assert bench.ledger.fog_table[node.address].available_funds == 99
    assert bench.ledger.fee_pool == 1
    assert bench.ledger.fog_table[node.address].requests_served == 1
    bench.assert_conserved()


def test_payment_with_zero_fee_rate_is_a_pure_transfer():
    bench = Bench(small_params(fee_rate="0"))
    payer = bench.iot(funds=10)
    node = bench.fog()
    fee = bench.ledger.iot_fog_payment(
        node.address, 10,
        bench.approve(payer, "iot_fog_payment", amount=10, fog=node.address))
    assert fee == 0
    assert bench.ledger.fog_table[node.address].available_funds == 10
    assert bench.ledger.fee_pool == 0


def test_payment_overdraft_changes_nothing():
    bench = Bench()
    payer = bench.iot(funds=10)
    node = bench.fog()
    before = bench.ledger.to_snapshot()
    with pytest.raises(InsufficientFunds):
        bench.ledger.iot_fog_payment(
            node.address, 11,
            bench.approve(payer, "iot_fog_payment", amount=11, fog=node.address))
    assert bench.ledger.to_snapshot() == before


def test_payment_requires_both_sides_registered():
    bench = Bench()
    payer = bench.iot(funds=10)
    ghost_fog = KeyPair.generate(RNG)
    with pytest.raises(NotRegistered):
        bench.ledger.iot_fog_payment(
            ghost_fog.address, 5,
            bench.approve(payer, "iot_fog_payment", amount=5, fog=ghost_fog.address))
    node = bench.fog()
    ghost_payer = KeyPair.generate(RNG)
    with pytest.raises(NotRegistered):
        bench.ledger.iot_fog_payment(
            node.address, 5,
            bench.approve(ghost_payer, "iot_fog_payment", amount=5, fog=node.address))


# a correctly signed call naming a fog address that is not a string
MALFORMED_FOG_ADDRESSES = {"list-fog": ["x"], "dict-fog": {"x": 1}}


@pytest.mark.parametrize("malformed", list(MALFORMED_FOG_ADDRESSES))
def test_payment_to_malformed_fog_address_is_typed_and_changes_nothing(malformed):
    bench = Bench()
    payer = bench.iot(funds=10)
    bench.fog()
    fog_address = MALFORMED_FOG_ADDRESSES[malformed]
    approval = bench.approve(payer, "iot_fog_payment", amount=5, fog=fog_address)
    before = bench.ledger.to_snapshot()
    with pytest.raises(NotRegistered):
        bench.ledger.iot_fog_payment(fog_address, 5, approval)
    assert bench.ledger.to_snapshot() == before


# -- audits --

# from reputation 5 under a ceiling of 10, each step's rewards in order:
# step 1 and step 5 land exactly on the ceiling, step 3 overshoots it
@pytest.mark.parametrize("step, expected", [
    (1, (6, 7, 8, 9, 10, 10, 10)),
    (5, (10, 10)),
    (3, (8, 10, 10)),
])
def test_reward_saturates_at_reputation_ceiling(step, expected):
    bench = Bench(small_params(reward_step=step, penalty_step=step + 1))
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog()
    keeper = bench.oracle()
    record = bench.ledger.fog_table[node.address]
    for reputation in expected:
        # the formula the contract compares its way to, without min()'s cost
        assert reputation == min(record.reputation + step, 10)
        outcome = bench.audit(keeper, node.address, devices, passed=True)
        assert outcome.reputation_after == reputation
    assert record.reputation == 10
    bench.assert_conserved()


def test_audit_requires_registered_oracle():
    bench = Bench()
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog()
    impostor = KeyPair.generate(RNG)
    with pytest.raises(UnknownOracle):
        bench.audit(impostor, node.address, devices, passed=True)


def test_audit_of_unknown_fog_rejected():
    bench = Bench()
    devices = [bench.iot(10) for _ in range(2)]
    keeper = bench.oracle()
    ghost = KeyPair.generate(RNG)
    with pytest.raises(UnknownFog):
        bench.audit(keeper, ghost.address, devices, passed=True)


def test_audit_rejects_ring_signature_for_wrong_outcome():
    bench = Bench()
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog()
    keeper = bench.oracle()
    # Attestation says "pass" but the oracle submits a penalty.
    message = audit_message(node.address, True)
    attestation = ring_sign(message, [d.public for d in devices], 0,
                            devices[0].secret, RNG)
    approval = bench.approve(keeper, "fog_penalize", fog=node.address)
    with pytest.raises(InvalidRingSignature):
        bench.ledger.fog_penalize(node.address, attestation, approval)
    assert bench.ledger.fog_table[node.address].reputation == 5


MALFORMED_ATTESTATIONS = {
    "one-member-ring": lambda genuine: RingSignature(
        genuine.challenge, genuine.responses[:1], genuine.ring[:1]),
    "not-a-ring-signature": lambda genuine: object(),
    "non-int-challenge": lambda genuine: replace(
        genuine, challenge=str(genuine.challenge)),
    "full-length-challenge": lambda genuine: replace(
        genuine, challenge=genuine.challenge + (1 << 128)),
    "ring-is-none": lambda genuine: RingSignature(1, (1, 1), None),
    "responses-is-none": lambda genuine: RingSignature(1, None, genuine.ring),
    "list-ring": lambda genuine: replace(genuine, ring=list(genuine.ring)),
    "list-responses": lambda genuine: replace(
        genuine, responses=list(genuine.responses)),
    "empty-ring": lambda genuine: replace(genuine, responses=(), ring=()),
    "repeated-member": lambda genuine: replace(
        genuine, ring=(genuine.ring[0],) * 2),
    "non-point-member": lambda genuine: replace(
        genuine, ring=(genuine.ring[0], "not a point")),
}

# the ring primitive's error, chained as the cause of InvalidRingSignature;
# every other malformed input raises with no cause
RING_CHECK_CAUSES = {
    "one-member-ring": RingTooSmall,
    "non-int-challenge": MalformedRingSignature,
    "full-length-challenge": MalformedRingSignature,
    "ring-is-none": MalformedRingSignature,
    "responses-is-none": MalformedRingSignature,
    "list-ring": MalformedRingSignature,
    "list-responses": MalformedRingSignature,
    "empty-ring": RingTooSmall,
    "repeated-member": MalformedRingSignature,
    "non-point-member": MalformedRingSignature,
}


@pytest.mark.parametrize("passed", [True, False])
@pytest.mark.parametrize("malformed, error", [
    ("one-member-ring", InvalidRingSignature),
    ("not-a-ring-signature", InvalidRingSignature),
    ("non-int-challenge", InvalidRingSignature),
    ("full-length-challenge", InvalidRingSignature),
    ("ring-is-none", InvalidRingSignature),
    ("responses-is-none", InvalidRingSignature),
    ("list-ring", InvalidRingSignature),
    ("list-responses", InvalidRingSignature),
    ("empty-ring", InvalidRingSignature),
    ("repeated-member", InvalidRingSignature),
    ("non-point-member", InvalidRingSignature),
    ("not-a-call-signature", BadSignature),
    ("list-fog", UnknownFog),
    ("dict-fog", UnknownFog),
])
def test_malformed_audit_inputs_are_typed_and_change_nothing(
        passed, malformed, error):
    bench = Bench()
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog()
    keeper = bench.oracle()
    op = "fog_reward" if passed else "fog_penalize"
    attestation = ring_sign(audit_message(node.address, passed),
                            [d.public for d in devices], 0,
                            devices[0].secret, RNG)
    fog_address = MALFORMED_FOG_ADDRESSES.get(malformed, node.address)
    approval = bench.approve(keeper, op, fog=fog_address)
    if malformed == "not-a-call-signature":
        approval = object()
    elif malformed in MALFORMED_ATTESTATIONS:
        attestation = MALFORMED_ATTESTATIONS[malformed](attestation)
    before = bench.ledger.to_snapshot()
    with pytest.raises(error) as raised:
        getattr(bench.ledger, op)(fog_address, attestation, approval)
    assert (type(raised.value.__cause__)
            is RING_CHECK_CAUSES.get(malformed, type(None)))
    assert bench.ledger.to_snapshot() == before


def test_audit_rejects_ring_with_unregistered_member():
    bench = Bench()
    registered = bench.iot(10)
    outsider = KeyPair.generate(RNG)
    node = bench.fog()
    keeper = bench.oracle()
    message = audit_message(node.address, True)
    members = [registered.public, outsider.public]
    attestation = ring_sign(message, members, 0, registered.secret, RNG)
    approval = bench.approve(keeper, "fog_reward", fog=node.address)
    with pytest.raises(RingMemberNotInIoTTable):
        bench.ledger.fog_reward(node.address, attestation, approval)
    assert bench.ledger.fog_table[node.address].reputation == 5


# the contract's audit checks, in the order it runs them
AUDIT_FAULTS = {
    "oracle": UnknownOracle,
    "fog": UnknownFog,
    "ring": InvalidRingSignature,
    "member": RingMemberNotInIoTTable,
}


def _token_ledger():
    """Two devices, a fog node with 3 funds beyond its deposit, an oracle."""
    ledger = Ledger(small_params(), identity=TokenIdentity())
    funding = call_message("iot_registration", amount=10)
    for device in ("dev-0", "dev-1"):
        ledger.iot_registration(10, TokenSignature(device, funding))
    ledger.fog_registration(
        6, TokenSignature("fog", call_message("fog_registration", amount=6)))
    ledger.oracle_registration(
        TokenSignature("keeper", call_message("oracle_registration")))
    return ledger


@pytest.mark.parametrize("passed", [True, False])
@pytest.mark.parametrize("faults", list(itertools.combinations(AUDIT_FAULTS, 2)))
def test_audit_with_two_faults_raises_the_earlier_check(passed, faults):
    ledger = _token_ledger()
    op = "fog_reward" if passed else "fog_penalize"
    fog = "ghost" if "fog" in faults else "fog"
    caller = "impostor" if "oracle" in faults else "keeper"
    approval = TokenSignature(caller, call_message(op, fog=fog))
    members = ("dev-0", "outsider" if "member" in faults else "dev-1")
    # an attestation of the other outcome does not verify
    attested = audit_message(fog, passed != ("ring" in faults))
    attestation = TokenRingSignature(members, attested)
    before = ledger.to_snapshot()
    with pytest.raises(LedgerError) as raised:
        getattr(ledger, op)(fog, attestation, approval)
    assert raised.type is AUDIT_FAULTS[faults[0]]
    assert ledger.to_snapshot() == before


# the signed ops whose call messages carry the same fields, each with the
# fields, then per op its caller and the arguments before the signature;
# within a group only the op name tells two approvals apart
SAME_FIELD_OPS = (
    ({"amount": 3}, {
        "iot_registration": ("dev-2", (3,)),
        "iot_add_funds": ("dev-0", (3,)),
        "iot_withdraw_funds": ("dev-0", (3,)),
        "fog_registration": ("fog-2", (3,)),
        "fog_withdraw_funds": ("fog", (3,)),
    }),
    ({}, {
        "iot_remove": ("dev-0", ()),
        "fog_remove": ("fog", ()),
        "oracle_registration": ("keeper-2", ()),
    }),
    ({"fog": "fog"}, {
        op: ("keeper", ("fog", TokenRingSignature(
            ("dev-0", "dev-1"), audit_message("fog", op == "fog_reward"))))
        for op in ("fog_reward", "fog_penalize")
    }),
)


@pytest.mark.parametrize("fields, calls, op, other", [
    pytest.param(fields, calls, op, other, id="%s-%s" % (op, other))
    for fields, calls in SAME_FIELD_OPS
    for op, other in itertools.permutations(calls, 2)
])
def test_approval_of_another_op_with_the_same_fields_is_rejected(
        fields, calls, op, other):
    ledger = _token_ledger()
    caller, arguments = calls[op]
    forged = TokenSignature(caller, call_message(other, **fields))
    before = ledger.to_snapshot()
    with pytest.raises(BadSignature):
        getattr(ledger, op)(*arguments, forged)
    assert ledger.to_snapshot() == before
    # the same call approved for this op goes through
    getattr(ledger, op)(*arguments,
                        TokenSignature(caller, call_message(op, **fields)))
    assert ledger.to_snapshot() != before


def test_penalty_updates_reputation_deposit_and_distribution():
    params = small_params(deposit_requirement=9, deposit_deduction=4)
    bench = Bench(params)
    devices = [bench.iot(10) for _ in range(3)]
    node = bench.fog(stake=9)
    keeper = bench.oracle()
    outcome = bench.audit(keeper, node.address, devices, passed=False)
    assert outcome.reputation_after == 3
    assert outcome.deducted == 4
    assert outcome.per_device == 1
    assert outcome.distributed_remainder == 1
    assert not outcome.removed
    record = bench.ledger.fog_table[node.address]
    assert record.deposit == 5
    for device in devices:
        assert bench.ledger.iot_table[device.address].available_funds == 11
    assert bench.ledger.fee_pool == 1
    bench.assert_conserved()


def test_penalty_share_of_zero_goes_wholly_to_the_fee_pool():
    params = small_params(deposit_requirement=9, deposit_deduction=2)
    bench = Bench(params)
    devices = [bench.iot(10) for _ in range(3)]
    node = bench.fog(stake=9)
    keeper = bench.oracle()
    pool_before = bench.ledger.fee_pool
    outcome = bench.audit(keeper, node.address, devices, passed=False)
    assert (outcome.deducted, outcome.per_device) == (2, 0)
    assert outcome.distributed_remainder == 2
    for device in devices:
        assert bench.ledger.iot_table[device.address].available_funds == 10
    assert bench.ledger.fee_pool == pool_before + 2
    assert bench.ledger.conservation_gap() == 0
    bench.assert_conserved()


def test_distribution_with_no_devices_goes_to_pool():
    # A penalty can only be attested by registered devices, so the empty-table
    # branch of the split is exercised on the helper directly.
    bench = Bench()
    bench.ledger.total_deposited = 10
    per_device, remainder = bench.ledger._distribute(10)
    assert (per_device, remainder) == (0, 10)
    assert bench.ledger.fee_pool == 10
    bench.assert_conserved()


# the last penalty's deduction equals the deposit left in (3, 1), (5, 5) and
# (10, 5), and exceeds it in (10, 3), (7, 2) and (3, 5)
@pytest.mark.parametrize("deposit,deduction,expected", [
    (3, 1, 3), (10, 3, 4), (5, 5, 1), (7, 2, 4), (10, 5, 2), (3, 5, 1),
])
def test_fog_survives_exactly_ceil_deposit_over_deduction_penalties(
        deposit, deduction, expected):
    params = Params(
        reputation_initial=0, reputation_max=10, reputation_min=-10**9,
        reward_step=1, penalty_step=2, fee_rate="0",
        deposit_requirement=deposit, deposit_deduction=deduction,
        audit_payment=0, oracle_bounty=0,
    )
    bench = Bench(params)
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog(stake=deposit)
    keeper = bench.oracle()
    for step in range(1, expected + 1):
        assert node.address in bench.ledger.fog_table
        left = bench.ledger.fog_table[node.address].deposit
        outcome = bench.audit(keeper, node.address, devices, passed=False)
        assert outcome.removed == (step == expected)
        # the formula the contract compares its way to, without min()'s cost
        assert outcome.deducted == min(deduction, left)
    assert node.address not in bench.ledger.fog_table
    assert outcome.removal_reason is RemovalReason.DEPOSIT_EXHAUSTED
    bench.assert_conserved()


def test_audit_application_repr_and_equality_are_pinned():
    # the contract-verify benchmark hashes these records through repr
    def application():
        return AuditApplication("0xab", False, -1, deducted=2, per_device=1,
                                removed=True,
                                removal_reason=RemovalReason.REPUTATION_FLOOR,
                                refunded=12)

    assert repr(application()) == (
        "AuditApplication(fog_address='0xab', passed=False, "
        "reputation_after=-1, deducted=2, per_device=1, "
        "distributed_remainder=0, oracle_paid=0, removed=True, "
        "removal_reason=<RemovalReason.REPUTATION_FLOOR: 'reputation_floor'>, "
        "refunded=12)")
    assert application() == application()
    assert application() != AuditApplication("0xab", False, -1)


def test_reputation_floor_forces_removal_with_refund():
    params = small_params(reputation_initial=1, reputation_max=10,
                          reputation_min=0, deposit_requirement=10,
                          deposit_deduction=2)
    bench = Bench(params)
    devices = [bench.iot(10) for _ in range(2)]
    node = bench.fog(stake=14)  # deposit 10, available 4
    keeper = bench.oracle()
    outcome = bench.audit(keeper, node.address, devices, passed=False)
    assert outcome.removed
    assert outcome.removal_reason is RemovalReason.REPUTATION_FLOOR
    assert outcome.reputation_after == -1
    # Deducted 2 went to devices; the node leaves with the rest.
    assert outcome.refunded == 8 + 4
    assert node.address not in bench.ledger.fog_table
    bench.assert_conserved()


def test_no_surviving_fog_below_floor_or_without_deposit():
    bench = Bench(small_params(reputation_initial=10, deposit_requirement=4))
    devices = [bench.iot(10) for _ in range(3)]
    nodes = [bench.fog(stake=4) for _ in range(3)]
    keeper = bench.oracle()
    rng = random.Random(7)
    for _ in range(20):
        live = [n for n in nodes if n.address in bench.ledger.fog_table]
        if not live:
            break
        target = rng.choice(live)
        bench.audit(keeper, target.address, devices, passed=rng.random() < 0.3)
    for record in bench.ledger.fog_table.values():
        assert record.deposit > 0
        assert record.reputation >= bench.ledger.params.reputation_min
    bench.assert_conserved()


# a payment of 20 leaves a pool of 10 above the 7 owed, then 3 below it;
# one of 14 leaves a pool of exactly 7, then an empty one; one of 12 a pool
# of 6, one below
@pytest.mark.parametrize("payment, paid", [(20, (7, 3)), (14, (7, 0)),
                                           (12, (6,))])
def test_oracle_compensation_capped_by_pool(payment, paid):
    params = small_params(fee_rate="0.5", audit_payment=5, oracle_bounty=2)
    bench = Bench(params)
    devices = [bench.iot(100) for _ in range(2)]
    node = bench.fog(stake=3)
    keeper = bench.oracle()
    first = bench.audit(keeper, node.address, devices, passed=True)
    assert first.oracle_paid == 0  # pool is empty
    bench.ledger.iot_fog_payment(
        node.address, payment,
        bench.approve(devices[0], "iot_fog_payment", amount=payment,
                      fog=node.address))
    assert bench.ledger.fee_pool == payment // 2
    for expected in paid:
        # the formula the contract compares its way to, without min()'s cost
        assert expected == min(5 + 2, bench.ledger.fee_pool)
        outcome = bench.audit(keeper, node.address, devices, passed=True)
        assert outcome.oracle_paid == expected
    assert bench.ledger.fee_pool == 0
    assert bench.ledger.total_withdrawn == payment // 2
    bench.assert_conserved()


@settings(max_examples=12, deadline=None)
@given(devices=st.integers(min_value=1, max_value=6),
       deduction=st.integers(min_value=1, max_value=50))
def test_penalty_distribution_is_exact(devices, deduction):
    params = Params(
        reputation_initial=10, reputation_max=10, reputation_min=0,
        reward_step=1, penalty_step=2, fee_rate="0",
        deposit_requirement=deduction, deposit_deduction=deduction,
        audit_payment=0, oracle_bounty=0,
    )
    bench = Bench(params)
    members = [bench.iot(7) for _ in range(max(devices, 2))]
    node = bench.fog(stake=deduction)
    keeper = bench.oracle()
    outcome = bench.audit(keeper, node.address, members, passed=False)
    n = len(members)
    assert outcome.per_device == deduction // n
    assert outcome.distributed_remainder == deduction - n * (deduction // n)
    for member in members:
        assert bench.ledger.iot_table[member.address].available_funds \
            == 7 + deduction // n
    bench.assert_conserved()


# -- the token verifier --

def test_token_signature_recovers_its_address():
    identity = TokenIdentity()
    signature = TokenSignature("alice", b"msg")
    assert identity.recover_address(b"msg", signature) == "alice"


def test_token_signature_fails_on_other_message():
    identity = TokenIdentity()
    signature = TokenSignature("alice", b"msg")
    with pytest.raises(BadSignature):
        identity.recover_address(b"other", signature)


def test_token_ring_verifies_only_its_message():
    identity = TokenIdentity()
    ring = TokenRingSignature(("a", "b", "c"), b"attest")
    assert identity.ring_members(b"attest", ring) == ("a", "b", "c")
    with pytest.raises(InvalidRingSignature):
        identity.ring_members(b"forged", ring)


# the same inputs under Secp256k1Identity: a call signature of the wrong
# type is BadSignature, an attestation of the wrong type does not verify
@pytest.mark.parametrize("op", ["fog_reward", "fog_penalize"])
@pytest.mark.parametrize("approval, attestation, error", [
    (None, "genuine", BadSignature),
    (b"fog_reward|fog=fog", "genuine", BadSignature),
    ("genuine", None, InvalidRingSignature),
    ("genuine", b"audit|fog|pass", InvalidRingSignature),
])
def test_token_identity_types_malformed_audits_and_changes_nothing(
        op, approval, attestation, error):
    ledger = _token_ledger()
    if approval == "genuine":
        approval = TokenSignature("keeper", call_message(op, fog="fog"))
    if attestation == "genuine":
        attestation = TokenRingSignature(
            ("dev-0", "dev-1"), audit_message("fog", op == "fog_reward"))
    before = ledger.to_snapshot()
    with pytest.raises(error):
        getattr(ledger, op)("fog", attestation, approval)
    assert ledger.to_snapshot() == before


def _reward_with_members(ledger, members):
    approval = TokenSignature("keeper", call_message("fog_reward", fog="fog"))
    attestation = TokenRingSignature(members, audit_message("fog", True))
    return ledger.fog_reward("fog", attestation, approval)


# a token must carry a string address and a tuple of string members; any
# other value is a typed rejection, never a TypeError from the tables.  A
# ring of registered members must also pass the curve scheme's ring rules:
# at least MIN_RING members, none repeated
@pytest.mark.parametrize("submit, error", [
    (lambda ledger: ledger.iot_registration(10, TokenSignature(
        ["x"], call_message("iot_registration", amount=10))), BadSignature),
    (lambda ledger: _reward_with_members(ledger, (["x"],)),
     InvalidRingSignature),
    (lambda ledger: _reward_with_members(ledger, None),
     InvalidRingSignature),
    (lambda ledger: _reward_with_members(ledger, ()),
     InvalidRingSignature),
    (lambda ledger: _reward_with_members(ledger, ("dev-1",)),
     InvalidRingSignature),
    (lambda ledger: _reward_with_members(ledger, ("dev-1",) * 2),
     InvalidRingSignature),
], ids=["unhashable-address", "unhashable-member", "no-members",
        "empty-ring", "one-member", "repeated-member"])
def test_token_identity_types_malformed_tokens_and_changes_nothing(
        submit, error):
    ledger = _token_ledger()
    before = ledger.to_snapshot()
    with pytest.raises(error):
        submit(ledger)
    assert ledger.to_snapshot() == before


def test_token_identity_rejects_a_top_up_without_a_token():
    ledger = _token_ledger()
    before = ledger.to_snapshot()
    with pytest.raises(BadSignature):
        ledger.iot_add_funds(5, None)
    assert ledger.to_snapshot() == before


# -- sequence numbers and snapshots --

def test_seq_counts_accepted_state_changes():
    """``seq`` counts accepted state changes; an expulsion is one more."""
    bench = Bench(small_params(reputation_initial=3))
    payer = bench.iot(funds=30)
    node = bench.fog()
    bench.ledger.iot_fog_payment(
        node.address, 10,
        bench.approve(payer, "iot_fog_payment", amount=10, fog=node.address))
    assert bench.ledger.to_snapshot()["seq"] == 3
    keeper = bench.oracle()
    devices = [payer, bench.iot()]
    assert bench.ledger.to_snapshot()["seq"] == 5
    assert not bench.audit(keeper, node.address, devices, passed=False).removed
    assert bench.ledger.to_snapshot()["seq"] == 6
    assert bench.audit(keeper, node.address, devices, passed=False).removed
    assert bench.ledger.to_snapshot()["seq"] == 8


def test_snapshot_roundtrip_is_lossless_and_json_safe():
    bench = Bench()
    payer = bench.iot(funds=30)
    node = bench.fog(stake=7)
    bench.oracle()
    bench.ledger.iot_fog_payment(
        node.address, 10,
        bench.approve(payer, "iot_fog_payment", amount=10, fog=node.address))
    snapshot = bench.ledger.to_snapshot()
    json.dumps(snapshot)  # must be serializable as-is
    restored = Ledger.from_snapshot(json.loads(json.dumps(snapshot)))
    assert restored.to_snapshot() == snapshot
    assert oracles.conservation_gap(restored) == 0


@pytest.mark.parametrize("edit", ["legacy-key", "missing-key", "not-a-dict"])
def test_snapshot_params_with_other_keys_are_invalid_params(edit):
    snapshot = Bench().ledger.to_snapshot()
    if edit == "legacy-key":
        # every snapshot written before the audit cadence was removed
        snapshot["params"]["audit_interval"] = 1
    elif edit == "missing-key":
        del snapshot["params"]["fee_rate"]
    else:
        snapshot["params"] = list(snapshot["params"].items())
    with pytest.raises(InvalidParams):
        Ledger.from_snapshot(snapshot)


def _negative_pool(snapshot):
    # total_deposited moves with the pool, so only the sign is wrong
    snapshot["total_deposited"] += -5 - snapshot["fee_pool"]
    snapshot["fee_pool"] = -5


def _repeated_address(snapshot):
    # an empty row ahead of the real one: merging them keeps the funds whole
    address = snapshot["iot_table"][0]["address"]
    snapshot["iot_table"].insert(0, {"address": address, "available_funds": 0})


def _set_deposit(snapshot, deposit):
    # total_deposited moves with the deposit, so funds still conserve
    row = snapshot["fog_table"][0]
    snapshot["total_deposited"] += deposit - row["deposit"]
    row["deposit"] = deposit


SNAPSHOT_STATE_EDITS = {
    "string-funds": lambda snapshot: snapshot["iot_table"].append(
        {"address": "a", "available_funds": "10"}),
    "bool-funds": lambda snapshot: snapshot["iot_table"][0].update(
        available_funds=True),
    "extra-row-key": lambda snapshot: snapshot["fog_table"][0].update(stake=1),
    "missing-row-key": lambda snapshot: snapshot["fog_table"][0].pop(
        "requests_served"),
    "negative-pool": _negative_pool,
    # available funds, not the deposit, so that only conservation fails
    "unconserved": lambda snapshot: snapshot["fog_table"][0].update(
        available_funds=snapshot["fog_table"][0]["available_funds"] + 1),
    "zero-deposit": lambda snapshot: _set_deposit(snapshot, 0),
    "deposit-above-requirement": lambda snapshot: _set_deposit(
        snapshot, snapshot["params"]["deposit_requirement"] + 1),
    "string-seq": lambda snapshot: snapshot.update(seq="x"),
    "negative-seq": lambda snapshot: snapshot.update(seq=-1),
    "extra-top-level-key": lambda snapshot: snapshot.update(version=1),
    "missing-fee-pool": lambda snapshot: snapshot.pop("fee_pool"),
    "string-reputation": lambda snapshot: snapshot["fog_table"][0].update(
        reputation="5"),
    "reputation-above-cap": lambda snapshot: snapshot["fog_table"][0].update(
        reputation=snapshot["params"]["reputation_max"] + 1),
    "negative-requests": lambda snapshot: snapshot["fog_table"][0].update(
        requests_served=-1),
    "int-address": lambda snapshot: snapshot["iot_table"][0].update(address=5),
    "int-oracle": lambda snapshot: snapshot["oracle_table"].append(5),
    "list-oracle": lambda snapshot: snapshot["oracle_table"].append(["a"]),
    "repeated-oracle": lambda snapshot: snapshot["oracle_table"].extend(
        ["a", "a"]),
    "repeated-address": _repeated_address,
}


@pytest.mark.parametrize("edit", list(SNAPSHOT_STATE_EDITS))
def test_snapshot_with_malformed_state_is_invalid_params(edit):
    bench = Bench()
    payer = bench.iot(funds=300)
    node = bench.fog(stake=7)
    bench.ledger.iot_fog_payment(
        node.address, 200,
        bench.approve(payer, "iot_fog_payment", amount=200, fog=node.address))
    snapshot = json.loads(json.dumps(bench.ledger.to_snapshot()))
    assert snapshot["fee_pool"] > 0
    SNAPSHOT_STATE_EDITS[edit](snapshot)
    with pytest.raises(InvalidParams):
        Ledger.from_snapshot(snapshot)


# -- randomized conservation fuzz (small; the acceptance suite runs the long one) --

def test_conservation_under_randomized_operations():
    rng = random.Random(20260814)
    bench = Bench(small_params(fee_rate="0.05", deposit_requirement=5,
                               deposit_deduction=2, reputation_initial=8,
                               audit_payment=1))
    devices = [bench.iot(rng.randrange(20, 60)) for _ in range(4)]
    nodes = [bench.fog(stake=rng.randrange(5, 12)) for _ in range(3)]
    keeper = bench.oracle()

    for _ in range(120):
        action = rng.randrange(6)
        try:
            if action == 0:
                pair = rng.choice(devices)
                amount = rng.randrange(1, 10)
                bench.ledger.iot_add_funds(
                    amount, bench.approve(pair, "iot_add_funds", amount=amount))
            elif action == 1:
                pair = rng.choice(devices)
                amount = rng.randrange(1, 30)
                bench.ledger.iot_withdraw_funds(
                    amount, bench.approve(pair, "iot_withdraw_funds",
                                          amount=amount))
            elif action == 2:
                pair = rng.choice(devices)
                node = rng.choice(nodes)
                amount = rng.randrange(1, 25)
                bench.ledger.iot_fog_payment(
                    node.address, amount,
                    bench.approve(pair, "iot_fog_payment", amount=amount,
                                  fog=node.address))
            elif action == 3:
                node = rng.choice(nodes)
                amount = rng.randrange(1, 6)
                bench.ledger.fog_withdraw_funds(
                    amount, bench.approve(node, "fog_withdraw_funds",
                                          amount=amount))
            elif action == 4:
                node = rng.choice(nodes)
                bench.audit(keeper, node.address, devices,
                            passed=rng.random() < 0.6,
                            signer=rng.randrange(len(devices)))
            else:
                node = rng.choice(nodes)
                stake = rng.randrange(5, 12)
                fresh = KeyPair.generate(RNG)
                bench.ledger.fog_remove(bench.approve(node, "fog_remove"))
                bench.ledger.fog_registration(
                    stake, bench.approve(fresh, "fog_registration",
                                         amount=stake))
                nodes[nodes.index(node)] = fresh
        except (InsufficientFunds, NotRegistered, UnknownFog):
            pass
        assert oracles.conservation_gap(bench.ledger) == 0

    bench.assert_conserved()
