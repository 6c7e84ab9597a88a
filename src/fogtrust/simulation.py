"""Monte-Carlo scenarios: misbehaving fog populations under audit policies.

Two scenario families are modeled.  The cost scenario counts how many audit
attempts each scheduling policy spends before every fog node has been
expelled; the state scenario tracks system health over time while fog nodes
adapt their misbehavior after penalties.

Bulk trials run thousands of audits per second, so they sign nothing.  Each
trial registers its population on a fresh ledger through the contract's own
state transitions, ``Ledger._register_iot`` and ``Ledger._register_fog``, and
each verdict goes straight to ``Ledger._apply_verdict``, which keeps ring
membership, conservation and the reputation arithmetic; no call message,
signature or ring attestation is ever built.  No simulated fog reads a
ring, so every verdict names one fixed two-device ring, not fresh decoys.
The cryptographic layer is exercised end to end by the protocol flows and
their tests; a trial's audit verdict draws from the same Bernoulli law
either way, because a corrupted response never equals the correct one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .constants import digest
from .errors import (BadSignature, InvalidConfig, InvalidParams,
                     InvalidRingSignature, NonTerminating)
from .ledger import Ledger, Params
from .ring import MIN_RING
from .scheduling import Policy, Scheduler


# -- token identities --

# bearer tokens for ledgers whose calls are signed in bulk; the studies
# sign nothing.  Slotted rather than frozen, like ledger.AuditApplication.

@dataclass(slots=True)
class TokenSignature:
    address: str
    message: bytes


@dataclass(slots=True)
class TokenRingSignature:
    members: tuple
    message: bytes


class TokenIdentity:
    """Drop-in identity scheme whose signatures are bearer tokens.

    caller_address returns the address baked into the token if and only if
    the token was minted for exactly the message being checked, mirroring
    how a curve signature only verifies over the signed message.
    """

    def caller_address(self, message: bytes, signature) -> str:
        if not isinstance(signature, TokenSignature):
            raise BadSignature("not a token signature")
        if signature.message != message:
            raise BadSignature("token was minted for a different message")
        if not isinstance(signature.address, str):
            raise BadSignature("token carries no address")
        return signature.address

    def ring_members(self, message: bytes, attestation) -> tuple:
        if isinstance(attestation, TokenRingSignature):
            members = attestation.members
            if (attestation.message == message and type(members) is tuple
                    and all(map(str.__instancecheck__, members))
                    and MIN_RING <= len(set(members)) == len(members)):
                return members
        raise InvalidRingSignature("audit attestation does not verify")


# -- fog behavior --

def adapt_on_penalty(rate: float, rng) -> float:
    """The malicious rate shrunk by a random fraction after a penalty."""
    return rate * rng.random()


# -- scenario configuration --

@dataclass(frozen=True)
class ScenarioConfig:
    fog_count: int = 100
    policy: Policy = Policy.WEIGHTED
    cluster_size: int = 5
    deposit: int = 3
    deposit_deduction: int = 1
    reward_step: int = 1
    penalty_step: int = 2
    reputation_min: int = 0
    reputation_initial: int = 10
    reputation_max: int = 10
    trials: int = 1000
    adaptive: bool = False
    seed: int = 0
    horizon_per_fog: int = 50
    malicious_low: float = 0.4
    malicious_high: float = 1.0
    audit_cap: int = 10**6

    def __post_init__(self):
        # each field takes the type of its default, where a float also takes
        # an int; type() rather than isinstance(), since True is an int
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if type(value) is not kind and (kind, type(value)) != (float, int):
                raise InvalidConfig("%s must be of type %s, not %r"
                                    % (f.name, kind.__name__, value))
        if self.fog_count < 1:
            raise InvalidConfig("fog count must be positive")
        if self.cluster_size < 1:
            raise InvalidConfig("cluster size must be positive")
        if self.trials < 1:
            raise InvalidConfig("need at least one trial")
        if not 0.0 <= self.malicious_low <= self.malicious_high <= 1.0:
            raise InvalidConfig("malicious rate bounds must satisfy 0 <= low <= high <= 1")
        if self.horizon_per_fog < 1:
            raise InvalidConfig("horizon must be positive")
        if self.audit_cap < 1:
            raise InvalidConfig("audit cap must be positive")
        try:
            self.params()
        except InvalidParams as exc:
            raise InvalidConfig(str(exc))

    def params(self) -> Params:
        return Params(
            reputation_initial=self.reputation_initial,
            reputation_max=self.reputation_max,
            reputation_min=self.reputation_min,
            reward_step=self.reward_step,
            penalty_step=self.penalty_step,
            deposit_requirement=self.deposit,
            deposit_deduction=self.deposit_deduction,
        )


def trial_seed(master_seed: int, index: int) -> int:
    """Independent per-trial seed, stable across machines and runs."""
    material = digest(b"trial|%d|%d" % (master_seed, index))
    return int.from_bytes(material, "big")


ORACLE_DEVICE = "oracle-device"
# the two registered devices, a decoy and the oracle's: the smallest ring
# the curve scheme accepts, named by every study verdict
STUDY_RING = ("iot-0000", ORACLE_DEVICE)
# each device's registration funds; no scenario makes a service payment,
# so the amount reaches no output
DEVICE_FUNDS = 10


@dataclass
class _Population:
    ledger: Ledger
    fog_addresses: tuple
    rates: dict


def _build_population(config: ScenarioConfig, rng) -> _Population:
    """One trial's population: a freshly registered ledger and its rates.

    ``STUDY_RING``'s devices and then the fog nodes register through the
    contract's own transitions, and one malicious rate per fog node is
    drawn from ``rng``, in fog order.
    """
    params = config.params()
    ledger = Ledger(params)
    for address in STUDY_RING:
        ledger._register_iot(address, DEVICE_FUNDS)
    fog_addresses = tuple("fog-%04d" % n for n in range(config.fog_count))
    for address in fog_addresses:
        ledger._register_fog(address, params.deposit_requirement)
    low = config.malicious_low
    span = config.malicious_high - low
    rates = {address: low + span * rng.random() for address in fog_addresses}
    return _Population(ledger, fog_addresses, rates)


def _attempts(config: ScenarioConfig, population: _Population, rng):
    """Every audit attempt of one trial, until the last fog node is expelled.

    Yields ``(address, passed, reputation_before, outcome)`` per attempt,
    with ``None`` for the last three when the node was already expelled.
    Each item comes after the scheduler has learned the outcome and before
    the next draw from ``rng``, so a consumer may draw from it in between.
    """
    ledger = population.ledger
    fog_table = ledger.fog_table
    rates = population.rates
    scheduler = Scheduler(config.policy, config.cluster_size,
                          population.fog_addresses, rng)
    while fog_table:
        cluster = scheduler.next_cluster()
        if not cluster:
            raise NonTerminating("scheduler produced an empty cluster while "
                                 "fog nodes remain")
        for address in cluster:
            record = fog_table.get(address)
            if record is None:
                # Wasted attempt: the node was expelled earlier.
                scheduler.record_miss(address)
                yield address, None, None, None
                continue
            passed = rng.random() >= rates[address]
            before = record.reputation
            outcome = ledger._apply_verdict(record, STUDY_RING, passed)
            scheduler.record_outcome(address, passed, outcome.removed)
            yield address, passed, before, outcome
            if not fog_table:
                return


# -- cost scenario --

def run_cost_trial(config: ScenarioConfig, rng) -> int:
    """Audit attempts spent until the last fog node is expelled.

    The three policies differ in what they can know about expulsions:
    the weighted scheduler maintains per-node state and drops a node the
    moment the contract removes it; the block-design scheduler only learns
    of a removal when an audit attempt comes back empty, then drops the
    node from its roster and restarts its cursor at block 0 (each block is
    drawn from the live roster on demand); random sampling is stateless
    and keeps drawing from the initial roster.  An attempt against an
    already-expelled node still costs one audit, which is exactly the
    overhead the policies trade off.
    """
    attempts = 0
    for _ in _attempts(config, _build_population(config, rng), rng):
        attempts += 1
        if attempts > config.audit_cap:
            raise NonTerminating("audit cap %d exceeded" % config.audit_cap)
    return attempts


def run_cost_scenario(config: ScenarioConfig) -> list:
    """All cost trials for one configuration, independently seeded."""
    costs = []
    for index in range(config.trials):
        rng = random.Random(trial_seed(config.seed, index))
        costs.append(run_cost_trial(config, rng))
    return costs


# -- state scenario --

@dataclass
class TrialMetrics:
    mean_malicious: list
    mean_reputation: list
    live_fogs: list


def run_state_trial(config: ScenarioConfig, rng) -> TrialMetrics:
    """System health per audit step over a fixed horizon.

    Each series has exactly ``horizon_per_fog * fog_count`` steps.  After
    every audit attempt the trial records the mean malicious rate over
    live nodes, their mean reputation, and how many are left; once the
    last node is expelled, the remaining steps stay zero.  Fog nodes
    notice their own penalties by watching their ledger record, and
    adaptive ones shrink their malicious rate in response.
    """
    population = _build_population(config, rng)
    rates = population.rates
    fog_table = population.ledger.fog_table
    horizon = config.horizon_per_fog * config.fog_count
    mean_malicious = [0.0] * horizon
    mean_reputation = [0.0] * horizon
    live_fogs = [0] * horizon

    malicious_sum = sum(rates.values())
    reputation_sum = sum(r.reputation for r in fog_table.values())
    # range first, so no attempt is drawn past the horizon
    for step, (address, passed, before, outcome) in zip(
            range(horizon), _attempts(config, population, rng)):
        if outcome is not None:
            reputation_sum += outcome.reputation_after - before
            if outcome.removed:
                malicious_sum -= rates[address]
                reputation_sum -= outcome.reputation_after
            elif not passed and config.adaptive:
                rate = rates[address]
                rates[address] = adapt_on_penalty(rate, rng)
                malicious_sum += rates[address] - rate
        live = len(fog_table)
        if live:
            mean_malicious[step] = malicious_sum / live
            mean_reputation[step] = reputation_sum / live
            live_fogs[step] = live
    return TrialMetrics(mean_malicious, mean_reputation, live_fogs)


def run_state_scenario(config: ScenarioConfig):
    """Generator over state trials, independently seeded per trial."""
    for index in range(config.trials):
        rng = random.Random(trial_seed(config.seed, index))
        yield run_state_trial(config, rng)


# -- aggregation --

@dataclass(frozen=True)
class Summary:
    count: int
    mean: float
    variance: float


def aggregate(values) -> Summary:
    """Sample mean and unbiased sample variance, two-pass for stability."""
    data = list(values)
    count = len(data)
    if count == 0:
        return Summary(0, 0.0, 0.0)
    mean = sum(data) / count
    if count == 1:
        return Summary(1, mean, 0.0)
    variance = sum((value - mean) ** 2 for value in data) / (count - 1)
    return Summary(count, mean, variance)

