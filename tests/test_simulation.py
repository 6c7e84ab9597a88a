"""Monte-Carlo scenario harness: population registration, fog rates, trials."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fogtrust import scheduling, simulation
from fogtrust.errors import InvalidConfig, NonTerminating
from fogtrust.ledger import Ledger, audit_message, call_message
from fogtrust.ring import MIN_RING
from fogtrust.scheduling import Policy
from fogtrust.simulation import (
    ScenarioConfig,
    Summary,
    TokenIdentity,
    TokenRingSignature,
    TokenSignature,
    adapt_on_penalty,
    aggregate,
    run_cost_scenario,
    run_cost_trial,
    run_state_trial,
    trial_seed,
    _build_population,
)


# -- fog behavior --

def test_adaptation_shrinks_rate_and_stays_nonnegative():
    rng = random.Random(5)
    for _ in range(500):
        assert 0.0 <= adapt_on_penalty(0.8, rng) < 0.8


def test_adaptation_halves_rate_in_expectation():
    # After k multiplicative penalties the mean rate is m0 / 2^k.
    rng = random.Random(9)
    samples = 10_000
    k = 3
    total = 0.0
    for _ in range(samples):
        rate = 1.0
        for _ in range(k):
            rate = adapt_on_penalty(rate, rng)
        total += rate
    mean = total / samples
    assert abs(mean - 1.0 / 2**k) < 0.01


# -- configuration --

def test_config_rejects_zero_cluster():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(cluster_size=0)


@pytest.mark.parametrize("policy", ["random", None])
def test_config_rejects_a_policy_that_is_not_a_policy(policy):
    with pytest.raises(InvalidConfig):
        ScenarioConfig(policy=policy)


# at the same size, a float or bool seed ran as the int it rounds to, a
# string flag was truthy, and a float count failed mid-trial
@pytest.mark.parametrize("field, value", [
    ("seed", 2.5), ("seed", True), ("adaptive", "false"),
    ("fog_count", 2.5), ("cluster_size", 1.5), ("trials", "3"),
    ("malicious_low", "0.4"),
])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    settings = dict(fog_count=4, trials=2, cluster_size=2)
    settings[field] = value
    with pytest.raises(InvalidConfig):
        ScenarioConfig(**settings)


def test_config_takes_an_int_for_a_float_field():
    config = ScenarioConfig(malicious_low=0, malicious_high=1)
    assert (config.malicious_low, config.malicious_high) == (0, 1)


def test_config_rejects_zero_trials():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(trials=0)


def test_config_rejects_inverted_malicious_bounds():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(malicious_low=0.9, malicious_high=0.2)


def test_config_rejects_out_of_range_malicious_bounds():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(malicious_high=1.5)


def test_config_surfaces_bad_contract_parameters():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(deposit=0)


def test_config_builds_matching_contract_params():
    config = ScenarioConfig(deposit=7, deposit_deduction=2, penalty_step=3)
    params = config.params()
    assert params.deposit_requirement == 7
    assert params.deposit_deduction == 2
    assert params.penalty_step == 3


def test_trial_seeds_are_deterministic_and_distinct():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    seeds = {trial_seed(42, index) for index in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 0) != trial_seed(43, 0)


# -- population wiring --

def test_population_ledger_is_conserved_through_verdicts():
    config = ScenarioConfig(fog_count=6, cluster_size=2, trials=1)
    rng = random.Random(2)
    population = _build_population(config, rng)
    assert oracles.conservation_gap(population.ledger) == 0
    for address in population.fog_addresses[:4]:
        population.ledger._apply_verdict(
            population.ledger.fog_table[address], simulation.STUDY_RING, False)
        assert oracles.conservation_gap(population.ledger) == 0
    assert len(population.ledger.fog_table) == 6


def test_population_sizes_match_config():
    config = ScenarioConfig(fog_count=5, trials=1)
    population = _build_population(config, random.Random(0))
    assert len(population.fog_addresses) == 5
    # one decoy device and the oracle's, the smallest ring; no study
    # verdict is signed, so no oracle is registered
    assert len(population.ledger.iot_table) == 2
    assert len(population.ledger.oracle_table) == 0


def test_population_rates_fall_in_configured_band():
    config = ScenarioConfig(fog_count=50, trials=1,
                            malicious_low=0.3, malicious_high=0.6)
    population = _build_population(config, random.Random(4))
    for rate in population.rates.values():
        assert 0.3 <= rate <= 0.6


def test_every_verdict_carries_the_one_fixed_two_device_ring(monkeypatch):
    config = ScenarioConfig(fog_count=3, cluster_size=2, trials=1,
                            horizon_per_fog=4)
    apply_verdict = Ledger._apply_verdict
    rings = []

    def recording(ledger, record, members, passed):
        registered = ledger.iot_table
        assert len(set(members)) == len(members) == MIN_RING
        assert simulation.ORACLE_DEVICE in members
        assert all(member in registered for member in members)
        rings.append(members)
        return apply_verdict(ledger, record, members, passed)

    monkeypatch.setattr(Ledger, "_apply_verdict", recording)
    for deposit in (3, 4):
        for seed in (0, 1):
            settings = replace(config, deposit=deposit)
            run_cost_trial(settings, random.Random(seed))
            run_state_trial(settings, random.Random(seed))
    assert rings and all(ring is simulation.STUDY_RING for ring in rings)


# the verdict twins' oracle
ORACLE = "oracle-admin"


class _SignedContract(Ledger):
    """A ledger whose signed ops keep the contract's own transitions,
    however a test wraps ``Ledger``'s."""

    _register_iot = Ledger._register_iot
    _register_fog = Ledger._register_fog
    _apply_verdict = Ledger._apply_verdict


@pytest.mark.parametrize("fog_count", [1, 6])
@pytest.mark.parametrize("deposit", [3, 4])
def test_each_study_registration_equals_the_signed_contract_call(
        monkeypatch, deposit, fog_count):
    # each registration a trial makes unsigned is also made, token-signed
    # by the same address, on a twin of the trial's ledger
    twins = {}
    registered = []

    def on_both(op, transition):
        def register(ledger, address, amount):
            if ledger not in twins:
                twins[ledger] = _SignedContract(ledger.params,
                                                identity=TokenIdentity())
            twin = twins[ledger]
            before = ledger.to_snapshot()
            expected = getattr(twin, op)(amount, TokenSignature(
                address, call_message(op, amount=amount)))
            assert transition(ledger, address, amount) == expected == address
            state = ledger.to_snapshot()
            assert state == twin.to_snapshot()
            # one accepted state change, which deposits the whole amount
            assert state["seq"] == before["seq"] + 1
            assert (state["total_deposited"]
                    == before["total_deposited"] + amount)
            registered.append((op, address, amount))
            return address
        return register

    monkeypatch.setattr(Ledger, "_register_iot",
                        on_both("iot_registration", Ledger._register_iot))
    monkeypatch.setattr(Ledger, "_register_fog",
                        on_both("fog_registration", Ledger._register_fog))
    config = ScenarioConfig(fog_count=fog_count, deposit=deposit, trials=1)
    population = _build_population(config, random.Random(3))
    assert list(twins) == [population.ledger]
    assert registered == [
        ("iot_registration", device, simulation.DEVICE_FUNDS)
        for device in simulation.STUDY_RING
    ] + [("fog_registration", fog, deposit)
         for fog in population.fog_addresses]
    assert population.fog_addresses == tuple(
        "fog-%04d" % n for n in range(fog_count))


@pytest.mark.parametrize("run, config", [
    (run_cost_trial, ScenarioConfig(fog_count=6, cluster_size=2, trials=1,
                                    policy=policy))
    for policy in Policy
] + [
    (run_state_trial, ScenarioConfig(fog_count=4, cluster_size=2, trials=1,
                                     adaptive=True, horizon_per_fog=6)),
], ids=[policy.value for policy in Policy] + ["state"])
def test_each_study_verdict_equals_the_signed_contract_call(
        monkeypatch, run, config):
    # each verdict a trial applies unsigned is also submitted, token-signed
    # by a registered oracle, to a twin of the trial's ledger
    apply_verdict = Ledger._apply_verdict
    twins = {}
    applied = []

    def on_both(ledger, record, members, passed):
        if ledger not in twins:
            twin = _SignedContract.from_snapshot(ledger.to_snapshot(),
                                                 identity=TokenIdentity())
            twin.oracle_registration(
                TokenSignature(ORACLE, call_message("oracle_registration")))
            twins[ledger] = twin
        twin = twins[ledger]
        fog, op = record.address, "fog_reward" if passed else "fog_penalize"
        expected = getattr(twin, op)(
            fog, TokenRingSignature(members, audit_message(fog, passed)),
            TokenSignature(ORACLE, call_message(op, fog=fog)))
        outcome = apply_verdict(ledger, record, members, passed)
        assert outcome == expected
        state, signed = ledger.to_snapshot(), twin.to_snapshot()
        assert signed.pop("oracle_table") == [ORACLE]
        assert state.pop("oracle_table") == []
        assert signed.pop("seq") == state.pop("seq") + 1
        assert state == signed
        applied.append(outcome)
        return outcome

    monkeypatch.setattr(Ledger, "_apply_verdict", on_both)
    run(config, random.Random(11))
    assert len(twins) == 1
    assert {outcome.passed for outcome in applied} == {True, False}
    assert any(outcome.removed for outcome in applied)


class _NoSampleRandom(random.Random):
    def sample(self, population, k, **kwargs):
        raise AssertionError("drew a sample")


@pytest.mark.parametrize("policy", [Policy.WEIGHTED, Policy.BIBD])
def test_verdicts_draw_no_ring_decoys(policy):
    # these policies draw clusters without sample, so only a per-verdict
    # decoy draw could call it
    config = ScenarioConfig(fog_count=6, cluster_size=2,
                            trials=1, policy=policy)
    assert run_cost_trial(config, _NoSampleRandom(4)) >= 6 * 3


# -- cost scenario --

def always_faulty(**overrides):
    base = dict(fog_count=1, cluster_size=1, trials=1,
                malicious_low=1.0, malicious_high=1.0, policy=Policy.RANDOM)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_single_faulty_fog_costs_deposit_over_deduction_audits():
    config = always_faulty(deposit=3, deposit_deduction=1)
    assert run_cost_trial(config, random.Random(1)) == 3


def test_single_faulty_fog_with_full_deduction_costs_one_audit():
    config = always_faulty(deposit=3, deposit_deduction=3)
    assert run_cost_trial(config, random.Random(1)) == 1


def test_two_faulty_fogs_in_one_cluster_cost_two_audits():
    config = always_faulty(fog_count=2, cluster_size=2, deposit=3,
                           deposit_deduction=3, policy=Policy.BIBD)
    assert run_cost_trial(config, random.Random(1)) == 2


def test_cost_trial_is_deterministic_in_the_seed():
    config = ScenarioConfig(fog_count=12, cluster_size=3,
                            trials=1, policy=Policy.WEIGHTED)
    first = run_cost_trial(config, random.Random(99))
    second = run_cost_trial(config, random.Random(99))
    assert first == second


def test_cost_trial_hits_the_audit_cap():
    config = ScenarioConfig(fog_count=4, cluster_size=2,
                            trials=1, audit_cap=3, policy=Policy.RANDOM)
    with pytest.raises(NonTerminating):
        run_cost_trial(config, random.Random(0))


def test_cost_scenario_returns_one_cost_per_trial():
    config = ScenarioConfig(fog_count=5, cluster_size=2,
                            trials=7, policy=Policy.RANDOM, seed=13)
    costs = run_cost_scenario(config)
    assert len(costs) == 7
    assert all(cost >= 5 for cost in costs)
    assert costs == run_cost_scenario(config)


def test_weighted_policy_spends_fewest_audits():
    # Stateless random sampling keeps drawing expelled nodes, the block
    # design discovers expulsions one wasted attempt at a time, and the
    # weighted scheduler prunes immediately, so mean costs must order.
    trials = 60
    means = {}
    for policy in Policy:
        config = ScenarioConfig(fog_count=30, cluster_size=5,
                                trials=trials, policy=policy, seed=21)
        means[policy] = aggregate(run_cost_scenario(config)).mean
    assert means[Policy.WEIGHTED] < means[Policy.BIBD]
    assert means[Policy.BIBD] < means[Policy.RANDOM]


def test_weighted_cost_follows_the_negative_binomial_law():
    # With one fixed rate p, deposit 3 and deduction 1, each fog node is
    # expelled at its third failed audit (the reputation floor needs six)
    # and the weighted policy never wastes an attempt, so each node costs
    # NegBin(3, p) attempts.
    rate = 0.6
    config = ScenarioConfig(fog_count=20, cluster_size=5,
                            deposit=3, deposit_deduction=1,
                            malicious_low=rate, malicious_high=rate,
                            policy=Policy.WEIGHTED, trials=300, seed=40)
    mean, variance = oracles.negbin_cost_moments(config.fog_count, 3, rate)
    assert mean == pytest.approx(100.0)
    costs = run_cost_scenario(config)
    z = (aggregate(costs).mean - mean) / math.sqrt(variance / len(costs))
    assert abs(z) < 4


def test_block_design_cost_falls_in_its_bracket():
    # Same law per node as the weighted test above; the block design also
    # wastes at most one attempt on each expelled node but the last, so
    # its mean cost lies in [E[W], E[W] + N - 1].  Seed, trials and the
    # z bound were fixed before the first run.
    rate = 0.6
    config = ScenarioConfig(fog_count=20, cluster_size=5,
                            deposit=3, deposit_deduction=1,
                            malicious_low=rate, malicious_high=rate,
                            policy=Policy.BIBD, trials=300, seed=41)
    low, high = oracles.block_design_cost_bracket(config.fog_count, 3, rate)
    assert (low, high) == pytest.approx((100.0, 119.0))
    summary = aggregate(run_cost_scenario(config))
    standard_error = math.sqrt(summary.variance / summary.count)
    assert (summary.mean - low) / standard_error > -4
    assert (summary.mean - high) / standard_error < 4


# -- state scenario --

def small_state_config(**overrides):
    base = dict(fog_count=10, cluster_size=3, deposit=10,
                deposit_deduction=1, trials=1, adaptive=True,
                policy=Policy.WEIGHTED, horizon_per_fog=30,
                seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_state_series_cover_the_whole_horizon():
    config = small_state_config()
    metrics = run_state_trial(config, random.Random(3))
    horizon = config.horizon_per_fog * config.fog_count
    assert len(metrics.mean_malicious) == horizon
    assert len(metrics.mean_reputation) == horizon
    assert len(metrics.live_fogs) == horizon


def test_live_fog_count_never_increases():
    metrics = run_state_trial(small_state_config(), random.Random(8))
    for earlier, later in zip(metrics.live_fogs, metrics.live_fogs[1:]):
        assert later <= earlier


def test_adaptive_fogs_end_less_malicious():
    metrics = run_state_trial(small_state_config(), random.Random(5))
    assert metrics.live_fogs[-1] > 0
    assert metrics.mean_malicious[-1] < metrics.mean_malicious[0]


def test_reputation_dips_then_recovers():
    config = small_state_config(reputation_initial=10, reputation_max=10)
    metrics = run_state_trial(config, random.Random(12))
    lowest = min(metrics.mean_reputation)
    assert lowest < 10.0
    recovery = metrics.mean_reputation.index(lowest)
    assert max(metrics.mean_reputation[recovery:]) >= 0.95 * 10.0


def test_series_pad_with_zeros_after_extinction():
    config = small_state_config(deposit=1, deposit_deduction=1,
                                adaptive=False, malicious_low=1.0,
                                malicious_high=1.0, horizon_per_fog=50)
    metrics = run_state_trial(config, random.Random(2))
    assert metrics.live_fogs[-1] == 0
    assert metrics.mean_malicious[-1] == 0.0
    assert metrics.mean_reputation[-1] == 0.0
    assert len(metrics.live_fogs) == 50 * config.fog_count


def test_state_trial_is_deterministic_in_the_seed():
    config = small_state_config()
    first = run_state_trial(config, random.Random(31))
    second = run_state_trial(config, random.Random(31))
    assert first.mean_malicious == second.mean_malicious
    assert first.mean_reputation == second.mean_reputation
    assert first.live_fogs == second.live_fogs


def test_running_means_match_direct_recomputation():
    # Cross-check the incrementally maintained sums against a from-scratch
    # pass over the same trajectory, replayed with the identical seed.
    config = small_state_config(horizon_per_fog=5)
    metrics = run_state_trial(config, random.Random(17))
    assert all(count >= 0 for count in metrics.live_fogs)
    for mean, count in zip(metrics.mean_malicious, metrics.live_fogs):
        if count:
            assert 0.0 <= mean <= 1.0
        else:
            assert mean == 0.0
    for mean, count in zip(metrics.mean_reputation, metrics.live_fogs):
        if count:
            assert config.reputation_min - config.penalty_step <= mean
            assert mean <= config.reputation_max
        else:
            assert mean == 0.0


def _reference_weighted_draw(roster, slot_weights, totals, cluster_size, rng):
    """``_pick_weighted`` through the plain reference draw, which reads no
    prefix sums."""
    weights = dict(zip(roster, slot_weights))
    live = [address for address in roster if weights[address]]
    return oracles.weighted_cluster(live, weights, cluster_size, rng)


def test_weighted_trials_equal_trials_under_the_reference_draw(monkeypatch):
    cost_config = ScenarioConfig(fog_count=20, cluster_size=5,
                                 trials=1, policy=Policy.WEIGHTED)
    state_config = small_state_config()

    def run_both():
        return (run_cost_trial(cost_config, random.Random(51)),
                run_state_trial(state_config, random.Random(52)))

    cost, state = run_both()
    monkeypatch.setattr(scheduling, "_pick_weighted",
                        _reference_weighted_draw)
    reference_cost, reference_state = run_both()
    assert cost == reference_cost
    assert state == reference_state


# -- aggregation --

def test_aggregate_matches_worked_example():
    summary = aggregate([2, 4])
    assert summary.count == 2
    assert summary.mean == 3.0
    assert summary.variance == 2.0


def test_aggregate_handles_degenerate_inputs():
    assert aggregate([]) == Summary(0, 0.0, 0.0)
    single = aggregate([5])
    assert single.mean == 5.0
    assert single.variance == 0.0


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=2, max_size=200))
def test_aggregate_matches_streaming_oracle(values):
    summary = aggregate(values)
    mean, variance = oracles.welford(values)
    assert summary.mean == pytest.approx(mean)
    assert summary.variance == pytest.approx(variance)
