"""Emulated on-chain contract state for device/fog monetization and auditing.

The ledger keeps three registry tables (IoT devices, fog nodes, audit
oracles) and a shared fee pool.  Every mutating call carries an ECDSA
signature over a canonical call message, and the signature carries its
signer's public key; the contract verifies the signature against that key
and takes the caller's address from it, never from an argument.  All
currency amounts are integers in the smallest unit, so conservation can be
checked exactly: everything deposited either sits in a table, sits in the
pool, or has been withdrawn.

Three signed ops authenticate, then apply: ``iot_registration``,
``fog_registration`` and ``_audit`` (for ``fog_reward`` and ``fog_penalize``)
authenticate the caller and verify what they must, then run the private
state transitions ``_register_iot``, ``_register_fog`` and
``_apply_verdict``, which keep every other check.  The studies call those
three directly.

Reputation bookkeeping follows the audit contract: a passed audit rewards
the fog node up to a ceiling, a failed audit deducts reputation and seizes
part of the deposit, and a node is expelled the moment its reputation drops
below the floor or its deposit is exhausted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .errors import (
    AlreadyRegistered,
    InsufficientDeposit,
    InsufficientFunds,
    InvalidAmount,
    InvalidParams,
    NotRegistered,
    RingMemberNotInIoTTable,
    UnknownFog,
    UnknownOracle,
)
from .identity import DEFAULT_IDENTITY


def _require_amount(amount, what: str):
    # type() rather than isinstance(): True is an int but not an amount
    if type(amount) is not int or amount <= 0:
        raise InvalidAmount("%s amount must be a positive integer" % what)


class RemovalReason(enum.Enum):
    REPUTATION_FLOOR = "reputation_floor"
    DEPOSIT_EXHAUSTED = "deposit_exhausted"


@dataclass(frozen=True)
class Params:
    """Contract parameters fixed at deployment time.

    ``fee_rate`` is interpreted exactly: it is parsed into a fraction so
    that the fee on an integer amount is ``floor(amount * rate)`` with no
    float rounding anywhere.
    """

    reputation_initial: int = 10
    reputation_max: int = 10
    reputation_min: int = 0
    reward_step: int = 1
    penalty_step: int = 2
    fee_rate: object = "0.01"
    deposit_requirement: int = 10
    deposit_deduction: int = 1
    audit_payment: int = 1
    oracle_bounty: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise InvalidParams("%s must be an integer" % f.name)
        if not self.reputation_min <= self.reputation_initial <= self.reputation_max:
            raise InvalidParams("need reputation_min <= reputation_initial <= reputation_max")
        if self.reward_step < 1:
            raise InvalidParams("reward_step must be positive")
        if self.penalty_step <= self.reward_step:
            raise InvalidParams("penalty_step must exceed reward_step")
        if self.deposit_requirement < 1:
            raise InvalidParams("deposit_requirement must be positive")
        if self.deposit_deduction < 1:
            raise InvalidParams("deposit_deduction must be positive")
        if self.audit_payment < 0:
            raise InvalidParams("audit_payment must not be negative")
        if self.oracle_bounty < 0:
            raise InvalidParams("oracle_bounty must not be negative")
        try:
            rate = Fraction(str(self.fee_rate))
        except (ValueError, ZeroDivisionError):
            raise InvalidParams("fee_rate is not a number: %r" % (self.fee_rate,))
        if not 0 <= rate < 1:
            raise InvalidParams("fee_rate must lie in [0, 1)")
        object.__setattr__(self, "_rate", rate)

    def fee(self, amount: int) -> int:
        """Exact floor of ``amount * fee_rate``."""
        rate = self._rate
        return amount * rate.numerator // rate.denominator


_PARAM_FIELDS = tuple(f.name for f in fields(Params))
_PARAM_NAMES = frozenset(_PARAM_FIELDS)


@dataclass
class IoTRecord:
    address: str
    available_funds: int = 0


@dataclass
class FogRecord:
    address: str
    deposit: int = 0
    available_funds: int = 0
    reputation: int = 0
    requests_served: int = 0


@dataclass(slots=True)
class AuditApplication:
    """Arithmetic trail of one reward or penalty application.

    Slotted rather than frozen: the studies build one per verdict, and a
    frozen dataclass sets each field through ``object.__setattr__``, which
    makes building one several times slower.
    """

    fog_address: str
    passed: bool
    reputation_after: int
    deducted: int = 0
    per_device: int = 0
    distributed_remainder: int = 0
    oracle_paid: int = 0
    removed: bool = False
    removal_reason: Optional[RemovalReason] = None
    refunded: int = 0


def call_message(op: str, **fields) -> bytes:
    """Canonical byte string a caller signs to invoke ``op`` with ``fields``.

    Both the contract and the agents build invocation messages through this
    one function, so a signature can never be replayed against different
    arguments.
    """
    message = op
    for key in sorted(fields):
        message += f"|{key}={fields[key]!s}"
    return message.encode()


def audit_message(fog_address: str, passed: bool) -> bytes:
    """Byte string the device ring signs to attest one audit outcome."""
    outcome = b"pass" if passed else b"fail"
    return b"audit|" + fog_address.encode() + b"|" + outcome


_SNAPSHOT_KEYS = frozenset(("params", "iot_table", "fog_table", "oracle_table",
                            "fee_pool", "total_deposited", "total_withdrawn",
                            "seq"))
_COUNT_FIELDS = ("available_funds", "deposit", "requests_served")


def _snapshot_amount(value, name: str) -> int:
    # type() rather than isinstance(): True is an int but not an amount
    if type(value) is not int or value < 0:
        raise InvalidParams("snapshot %s must be a non-negative integer, got %r"
                            % (name, value))
    return value


def _snapshot_records(rows, record_type) -> dict:
    """Records by address, one per row, each row naming exactly its fields."""
    names = frozenset(f.name for f in fields(record_type))
    if not isinstance(rows, list):
        raise InvalidParams("snapshot %s table must be a list"
                            % record_type.__name__)
    records = {}
    for row in rows:
        if not isinstance(row, dict) or row.keys() != names:
            raise InvalidParams("snapshot %s rows must name exactly %s"
                                % (record_type.__name__,
                                   ", ".join(sorted(names))))
        address = row["address"]
        if type(address) is not str or address in records:
            raise InvalidParams("snapshot %s address %r is not a string or "
                                "repeats" % (record_type.__name__, address))
        for name in _COUNT_FIELDS:
            if name in row:
                _snapshot_amount(row[name], name)
        records[address] = record_type(**row)
    return records


class Ledger:
    """In-memory contract state with signature-checked mutating operations."""

    def __init__(self, params: Params, identity=None):
        self.params = params
        self.identity = identity if identity is not None else DEFAULT_IDENTITY
        self.iot_table = {}
        self.fog_table = {}
        # registered oracle addresses, in registration order
        self.oracle_table = {}
        self.fee_pool = 0
        self.total_deposited = 0
        self.total_withdrawn = 0
        # accepted state changes; an audit that expels its node counts two
        self._seq = 0

    # -- helpers --

    def _caller(self, message: bytes, signature) -> str:
        """The calling address, authenticated by its signature over
        ``message``.

        The one path from a contract call to ``caller_address``.
        """
        return self.identity.caller_address(message, signature)

    def _require_iot(self, address: str) -> IoTRecord:
        record = self.iot_table.get(address)
        if record is None:
            raise NotRegistered("no IoT device at %s" % address)
        return record

    def _require_fog(self, address: str, error=NotRegistered) -> FogRecord:
        # a non-string address, unhashable or not, names no fog node
        record = self.fog_table.get(address) if isinstance(address, str) else None
        if record is None:
            raise error("no fog node at %s" % address)
        return record

    def _withdraw(self, require, caller: str, amount: int) -> int:
        """Pay amount out of the available funds of ``require(caller)``."""
        _require_amount(amount, "withdrawal")
        record = require(caller)
        if amount > record.available_funds:
            raise InsufficientFunds("%s holds %d available, asked for %d"
                                    % (caller, record.available_funds, amount))
        record.available_funds -= amount
        self.total_withdrawn += amount
        self._seq += 1
        return amount

    def _pay_out(self, table: dict, address: str, payout: int) -> int:
        """Delete address from table and pay out what it held."""
        del table[address]
        self.total_withdrawn += payout
        self._seq += 1
        return payout

    # -- device lifecycle --

    def iot_registration(self, amount: int, signature) -> str:
        return self._register_iot(self._caller(
            call_message("iot_registration", amount=amount), signature), amount)

    def _register_iot(self, caller: str, amount: int) -> str:
        """Register the device ``caller``, which ``iot_registration``
        authenticated or a study names."""
        _require_amount(amount, "registration")
        if caller in self.iot_table:
            raise AlreadyRegistered("IoT device %s already registered" % caller)
        self.iot_table[caller] = IoTRecord(address=caller, available_funds=amount)
        self.total_deposited += amount
        self._seq += 1
        return caller

    def iot_add_funds(self, amount: int, signature) -> int:
        caller = self._caller(call_message("iot_add_funds", amount=amount), signature)
        _require_amount(amount, "top-up")
        record = self._require_iot(caller)
        record.available_funds += amount
        self.total_deposited += amount
        self._seq += 1
        return record.available_funds

    def iot_withdraw_funds(self, amount: int, signature) -> int:
        caller = self._caller(call_message("iot_withdraw_funds", amount=amount), signature)
        return self._withdraw(self._require_iot, caller, amount)

    def iot_remove(self, signature) -> int:
        caller = self._caller(call_message("iot_remove"), signature)
        record = self._require_iot(caller)
        return self._pay_out(self.iot_table, caller, record.available_funds)

    # -- fog lifecycle --

    def fog_registration(self, amount: int, signature) -> str:
        return self._register_fog(self._caller(
            call_message("fog_registration", amount=amount), signature), amount)

    def _register_fog(self, caller: str, amount: int) -> str:
        """Register the fog node ``caller``, which ``fog_registration``
        authenticated or a study names."""
        _require_amount(amount, "registration")
        if caller in self.fog_table:
            raise AlreadyRegistered("fog node %s already registered" % caller)
        need = self.params.deposit_requirement
        if amount < need:
            raise InsufficientDeposit("sent %d, deposit requirement is %d" % (amount, need))
        self.fog_table[caller] = FogRecord(
            address=caller,
            deposit=need,
            available_funds=amount - need,
            reputation=self.params.reputation_initial,
        )
        self.total_deposited += amount
        self._seq += 1
        return caller

    def fog_withdraw_funds(self, amount: int, signature) -> int:
        caller = self._caller(call_message("fog_withdraw_funds", amount=amount), signature)
        return self._withdraw(self._require_fog, caller, amount)

    def fog_remove(self, signature) -> int:
        """Voluntary exit: refunds the remaining deposit plus earnings."""
        caller = self._caller(call_message("fog_remove"), signature)
        record = self._require_fog(caller)
        return self._remove_fog(record)

    def _remove_fog(self, record: FogRecord) -> int:
        return self._pay_out(self.fog_table, record.address,
                             record.deposit + record.available_funds)

    # -- service payment --

    def iot_fog_payment(self, fog_address: str, amount: int, signature) -> int:
        """Move ``amount`` from the calling device to a fog node, minus the fee.

        Returns the fee retained by the pool.  Also advances the fog node's
        served-request counter.
        """
        caller = self._caller(call_message("iot_fog_payment", amount=amount,
                                           fog=fog_address), signature)
        _require_amount(amount, "payment")
        payer = self._require_iot(caller)
        payee = self._require_fog(fog_address)
        if amount > payer.available_funds:
            raise InsufficientFunds("%s holds %d, payment needs %d"
                                    % (caller, payer.available_funds, amount))
        fee = self.params.fee(amount)
        payer.available_funds -= amount
        payee.available_funds += amount - fee
        self.fee_pool += fee
        payee.requests_served += 1
        self._seq += 1
        return fee

    # -- oracle and audits --

    def oracle_registration(self, signature) -> str:
        caller = self._caller(call_message("oracle_registration"), signature)
        if caller in self.oracle_table:
            raise AlreadyRegistered("oracle %s already registered" % caller)
        self.oracle_table[caller] = None
        self._seq += 1
        return caller

    def fog_reward(self, fog_address: str, ring_signature, signature) -> AuditApplication:
        return self._audit("fog_reward", fog_address, ring_signature, signature,
                           True)

    def fog_penalize(self, fog_address: str, ring_signature, signature) -> AuditApplication:
        return self._audit("fog_penalize", fog_address, ring_signature, signature,
                           False)

    def _audit(self, op: str, fog_address: str, ring_signature, signature,
               passed: bool) -> AuditApplication:
        """Authenticate a verdict, then apply it; a rejected one changes nothing.

        The checks run in a fixed order, so a verdict with several faults
        raises the first one's error: the caller is not an oracle, the fog
        node is unknown, the attestation does not verify, a ring member is
        not a registered device (the last in ``_apply_verdict``).
        """
        caller = self._caller(call_message(op, fog=fog_address), signature)
        if caller not in self.oracle_table:
            raise UnknownOracle("%s is not a registered oracle" % caller)
        record = self._require_fog(fog_address, UnknownFog)
        members = self.identity.ring_members(audit_message(fog_address, passed),
                                             ring_signature)
        return self._apply_verdict(record, members, passed)

    def _apply_verdict(self, record: FogRecord, members,
                       passed: bool) -> AuditApplication:
        """Apply a verdict that ``_audit`` authenticated, or a study's unsigned one.

        A member of the verified ring ``members`` that is not a registered
        device rejects the verdict before anything changes.
        """
        for member in members:
            if member not in self.iot_table:
                raise RingMemberNotInIoTTable("ring member %s is not a registered device"
                                              % member)

        params = self.params
        deducted = per_device = remainder = 0
        if passed:
            # capped by a comparison: min() costs about five times as much here
            reputation = record.reputation + params.reward_step
            ceiling = params.reputation_max
            record.reputation = reputation if reputation <= ceiling else ceiling
        else:
            record.reputation -= params.penalty_step
            # at most the deposit, by a comparison for the same reason
            deducted = params.deposit_deduction
            if deducted > record.deposit:
                deducted = record.deposit
            record.deposit -= deducted
            per_device, remainder = self._distribute(deducted)
        # The pool reimburses the oracle's disguised service payment and pays
        # a flat bounty on top, to the extent the pool can cover it; a
        # comparison again, since this runs on every study audit attempt.
        oracle_paid = params.audit_payment + params.oracle_bounty
        if oracle_paid > self.fee_pool:
            oracle_paid = self.fee_pool
        self.fee_pool -= oracle_paid
        self.total_withdrawn += oracle_paid
        self._seq += 1
        reputation_after = record.reputation
        if reputation_after < params.reputation_min:
            reason = RemovalReason.REPUTATION_FLOOR
        elif record.deposit == 0:
            reason = RemovalReason.DEPOSIT_EXHAUSTED
        else:
            reason = None
        refunded = self._remove_fog(record) if reason is not None else 0
        # positional, in field order: keywords cost about twice as much here
        return AuditApplication(record.address, passed, reputation_after,
                                deducted, per_device, remainder, oracle_paid,
                                reason is not None, reason, refunded)

    def _distribute(self, amount: int) -> tuple:
        """Split a seized amount evenly over registered devices.

        The integer remainder, and the whole amount when no device is
        registered, goes to the fee pool so nothing leaks.
        """
        count = len(self.iot_table)
        if not count:
            self.fee_pool += amount
            return 0, amount
        per_device = amount // count
        remainder = amount - per_device * count
        if per_device:  # a share of 0 changes no device
            for record in self.iot_table.values():
                record.available_funds += per_device
        self.fee_pool += remainder
        return per_device, remainder

    # -- views and export --

    def conservation_gap(self) -> int:
        """Zero iff no currency has been created or destroyed."""
        held = self.fee_pool
        held += sum(r.available_funds for r in self.iot_table.values())
        held += sum(r.deposit + r.available_funds for r in self.fog_table.values())
        return self.total_deposited - self.total_withdrawn - held

    def to_snapshot(self) -> dict:
        params = {name: getattr(self.params, name) for name in _PARAM_FIELDS}
        params["fee_rate"] = str(params["fee_rate"])
        return {
            "params": params,
            # a record's attributes are its fields, in declaration order;
            # dataclasses.asdict gives the same rows some 30 times slower
            "iot_table": [vars(r).copy() for r in self.iot_table.values()],
            "fog_table": [vars(r).copy() for r in self.fog_table.values()],
            "oracle_table": list(self.oracle_table),
            "fee_pool": self.fee_pool,
            "total_deposited": self.total_deposited,
            "total_withdrawn": self.total_withdrawn,
            "seq": self._seq,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict, identity=None) -> "Ledger":
        if not isinstance(snapshot, dict) or snapshot.keys() != _SNAPSHOT_KEYS:
            raise InvalidParams("snapshot must name exactly %s"
                                % ", ".join(sorted(_SNAPSHOT_KEYS)))
        values = snapshot["params"]
        if not isinstance(values, dict) or values.keys() != _PARAM_NAMES:
            raise InvalidParams("snapshot params must name exactly %s"
                                % ", ".join(sorted(_PARAM_NAMES)))
        params = Params(**values)
        ledger = cls(params, identity=identity)
        ledger.iot_table = _snapshot_records(snapshot["iot_table"], IoTRecord)
        ledger.fog_table = _snapshot_records(snapshot["fog_table"], FogRecord)
        # every contract call leaves a fog node's reputation and deposit in
        # these bands; a deposit that reaches 0 expels the node
        for record in ledger.fog_table.values():
            if type(record.reputation) is not int or not (
                    params.reputation_min <= record.reputation
                    <= params.reputation_max
                    and 1 <= record.deposit <= params.deposit_requirement):
                raise InvalidParams("snapshot fog node %s has reputation %r or "
                                    "deposit %d outside the contract's bands"
                                    % (record.address, record.reputation,
                                       record.deposit))
        oracles = snapshot["oracle_table"]
        if not (isinstance(oracles, list)
                and all(type(address) is str for address in oracles)
                and len(set(oracles)) == len(oracles)):
            raise InvalidParams("snapshot oracle_table must be a list of "
                                "distinct address strings")
        # a dict, not a set: snapshot order must not follow string hashing
        ledger.oracle_table = dict.fromkeys(oracles)
        for name in ("fee_pool", "total_deposited", "total_withdrawn"):
            setattr(ledger, name, _snapshot_amount(snapshot[name], name))
        ledger._seq = _snapshot_amount(snapshot["seq"], "seq")
        gap = ledger.conservation_gap()
        if gap:
            raise InvalidParams("snapshot does not conserve funds (gap %d)" % gap)
        return ledger
