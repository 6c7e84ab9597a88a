"""The three cluster-sampling policies and what each learns."""

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust.errors import InvalidDesign, UnknownFog
from fogtrust.scheduling import (
    Policy,
    Scheduler,
    _sample_weighted,
    update_weight,
)

import oracles


def addresses(count):
    return ["0x%040x" % n for n in range(1, count + 1)]


def live_weights(scheduler):
    """Each live node's weight, read from the scheduler's parallel slots."""
    return {address: weight for address, weight
            in zip(scheduler.slot_addresses, scheduler.slot_weights) if weight}


# -- random sampling --

def test_random_cluster_of_full_size_is_the_whole_roster():
    roster = addresses(6)
    cluster = Scheduler(Policy.RANDOM, 6, roster,
                        random.Random(1)).next_cluster()
    assert sorted(cluster) == sorted(roster)


def test_random_cluster_members_are_distinct():
    roster = addresses(30)
    scheduler = Scheduler(Policy.RANDOM, 7, roster, random.Random(2))
    for _ in range(50):
        cluster = scheduler.next_cluster()
        assert len(set(cluster)) == 7


def test_random_single_draws_are_uniform():
    roster = addresses(100)
    scheduler = Scheduler(Policy.RANDOM, 1, roster, random.Random(4))
    draws = 100_000
    counts = {address: 0 for address in roster}
    for _ in range(draws):
        counts[scheduler.next_cluster()[0]] += 1
    expected = draws / 100
    sigma = math.sqrt(draws * 0.01 * 0.99)
    for address in roster:
        assert abs(counts[address] - expected) < 3.5 * sigma


# -- weighted sampling --

def test_weighted_never_draws_a_zero_slot_and_restores_weights():
    roster = addresses(6)
    slot_weights = [0.0, 2.0, 0.0, 1.0, 4.0, 0.0]
    rng = random.Random(6)
    for _ in range(200):
        cluster = _sample_weighted(roster, slot_weights, 3, rng)
        assert sorted(cluster) == sorted([roster[1], roster[3], roster[4]])
    assert slot_weights == [0.0, 2.0, 0.0, 1.0, 4.0, 0.0]


def test_weighted_draw_reads_its_weights_without_writing_them():
    roster = addresses(6)
    slot_weights = [0.0, 2.0, 1.0, 8.0, 0.0, 4.0]
    expected = _sample_weighted(roster, slot_weights, 3, random.Random(13))
    assert _sample_weighted(roster, tuple(slot_weights), 3,
                            random.Random(13)) == expected


def test_weighted_with_uniform_weights_matches_uniform_sampling():
    roster = addresses(20)
    slot_weights = [1.0] * 20
    rng = random.Random(7)
    draws = 20_000
    counts = {a: 0 for a in roster}
    for _ in range(draws):
        for address in _sample_weighted(roster, slot_weights, 5, rng):
            counts[address] += 1
    inclusion = 5 / 20
    sigma = math.sqrt(draws * inclusion * (1 - inclusion))
    for address in roster:
        assert abs(counts[address] - draws * inclusion) < 4 * sigma


def test_weighted_heavy_node_frequency_matches_analytic_probability():
    roster = addresses(10)
    slot_weights = [1.0] * 10
    slot_weights[0] = 10.0
    rng = random.Random(8)
    draws = 100_000
    hits = 0
    for _ in range(draws):
        if _sample_weighted(roster, slot_weights, 1, rng)[0] == roster[0]:
            hits += 1
    p = 10.0 / 19.0
    sigma = math.sqrt(draws * p * (1 - p))
    assert abs(hits - draws * p) < 4 * sigma


def test_weighted_inclusion_grows_with_repeated_failures():
    roster = addresses(8)
    suspect = 3
    frequencies = []
    for failures in (0, 2, 4):
        slot_weights = [1.0] * 8
        for _ in range(failures):
            slot_weights[suspect] = update_weight(slot_weights[suspect],
                                                  passed=False)
        rng = random.Random(9)
        hits = sum(
            roster[suspect] in _sample_weighted(roster, slot_weights, 2, rng)
            for _ in range(5000))
        frequencies.append(hits)
    assert frequencies[0] < frequencies[1] < frequencies[2]


def test_update_weight_rules():
    assert update_weight(1.0, passed=False) == 2.0
    assert update_weight(4.0, passed=True) == 2.0
    assert update_weight(1.0, passed=True) == 1.0  # floor holds


class _Marks:
    """A stand-in rng replaying fixed marks, 1.0 included, which a real
    ``random()`` never returns, to reach the ``mark == total`` edge."""

    def __init__(self, marks):
        self.marks = marks
        self.calls = 0

    def random(self):
        mark = self.marks[self.calls % len(self.marks)]
        self.calls += 1
        return mark


def _model_weight(outcomes):
    weight = 1.0
    for passed in outcomes:
        weight = max(1.0, weight / 2) if passed else weight * 2
    return weight


@st.composite
def weighted_rosters(draw):
    count = draw(st.integers(min_value=1, max_value=24))
    outcomes = draw(st.lists(st.lists(st.booleans(), max_size=12),
                             min_size=count, max_size=count))
    ejected = draw(st.sets(st.integers(min_value=0, max_value=count - 1),
                           max_size=count - 1))
    cluster = draw(st.integers(min_value=1, max_value=count - len(ejected)))
    marks = draw(st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.one_of(st.just(1.0), st.floats(min_value=0, max_value=1)),
                 min_size=1, max_size=8)))
    return count, outcomes, ejected, cluster, marks


@settings(max_examples=300, deadline=None)
@given(weighted_rosters())
def test_scheduler_draw_equals_the_reference_draw(case):
    count, outcomes, ejected, cluster, marks = case

    def fresh_rng():
        return random.Random(marks) if isinstance(marks, int) else _Marks(marks)

    roster = addresses(count)
    scheduler = Scheduler(Policy.WEIGHTED, cluster, roster, fresh_rng())
    for address, history in zip(roster, outcomes):
        for passed in history:
            scheduler.record_outcome(address, passed, removed=False)
    for index in sorted(ejected):
        scheduler.eject(roster[index])
    expected_weights = {address: _model_weight(history)
                        for index, (address, history)
                        in enumerate(zip(roster, outcomes))
                        if index not in ejected}
    reference_rng = fresh_rng()
    for _ in range(3):
        expected = oracles.weighted_cluster(list(expected_weights),
                                            expected_weights, cluster,
                                            reference_rng)
        assert scheduler.next_cluster() == expected
        assert live_weights(scheduler) == expected_weights


def test_weighted_edge_mark_picks_the_last_live_node():
    roster = addresses(5)
    scheduler = Scheduler(Policy.WEIGHTED, 2, roster, _Marks([1.0]))
    scheduler.eject(roster[4])
    scheduler.eject(roster[1])
    assert scheduler.next_cluster() == [roster[3], roster[2]]
    assert oracles.weighted_cluster([roster[0], roster[2], roster[3]],
                                    dict.fromkeys(roster, 1.0), 2,
                                    _Marks([1.0])) == [roster[3], roster[2]]


# After the heavy first slot is picked, the second mark falls one ulp below
# the end of the first light slot among the three left.  Shifted past the
# heavy slot as a float, that mark rounds onto the boundary and picks the
# next slot.
ULP_BELOW_A_SHIFTED_BOUNDARY = [0.0, math.nextafter(1 / 3, 0)]


@pytest.mark.parametrize("heavy", [1024.0, 10.0])
def test_weighted_mark_one_ulp_below_a_shifted_boundary(heavy):
    roster = addresses(4)
    slot_weights = [heavy, 1.0, 1.0, 1.0]
    expected = oracles.weighted_cluster(
        roster, dict(zip(roster, slot_weights)), 2,
        _Marks(ULP_BELOW_A_SHIFTED_BOUNDARY))
    assert expected == roster[:2]
    assert _sample_weighted(
        roster, slot_weights, 2, _Marks(ULP_BELOW_A_SHIFTED_BOUNDARY)) == expected


def test_scheduler_mark_one_ulp_below_a_shifted_boundary():
    roster = addresses(4)
    scheduler = Scheduler(Policy.WEIGHTED, 2, roster,
                          _Marks(ULP_BELOW_A_SHIFTED_BOUNDARY))
    for _ in range(10):
        scheduler.record_outcome(roster[0], passed=False, removed=False)
    assert live_weights(scheduler)[roster[0]] == 1024
    expected = oracles.weighted_cluster(
        roster, live_weights(scheduler), 2,
        _Marks(ULP_BELOW_A_SHIFTED_BOUNDARY))
    assert expected == roster[:2]
    assert scheduler.next_cluster() == expected


# -- block designs --

def drawn_design(roster, size):
    """One full cycle of clusters drawn by a fresh block-design scheduler."""
    scheduler = Scheduler(Policy.BIBD, size, roster, random.Random(10))
    return [scheduler.next_cluster() for _ in roster]


@pytest.mark.parametrize("count,size", [(7, 3), (20, 5), (12, 1), (9, 9)])
def test_block_design_is_balanced(count, size):
    roster = addresses(count)
    blocks = drawn_design(roster, size)
    assert all(len(set(block)) == len(block) == size for block in blocks)
    counts = oracles.occurrence_counts(blocks)
    assert set(counts) == set(roster)
    assert all(c == size for c in counts.values())


def test_block_design_degenerate_sizes():
    roster = addresses(5)
    singletons = drawn_design(roster, 1)
    assert sorted(b[0] for b in singletons) == sorted(roster)
    full = drawn_design(roster, 5)
    assert all(sorted(block) == sorted(roster) for block in full)


def test_next_cluster_cycles_through_every_block():
    roster = addresses(7)
    blocks = oracles.cyclic_design(roster, 3)
    scheduler = Scheduler(Policy.BIBD, 3, roster, random.Random(10))
    seen = [scheduler.next_cluster() for _ in range(7)]
    assert seen == blocks
    assert scheduler.next_cluster() == blocks[0]


# -- scheduler wrapper --

@pytest.mark.parametrize("policy", list(Policy))
def test_scheduler_caps_cluster_at_roster_size(policy):
    scheduler = Scheduler(policy, 10, addresses(4), random.Random(11))
    cluster = scheduler.next_cluster()
    assert sorted(cluster) == sorted(addresses(4))


@pytest.mark.parametrize("policy", list(Policy))
def test_scheduler_rejects_a_roster_that_repeats_an_address(policy):
    roster = addresses(2)
    with pytest.raises(InvalidDesign):
        Scheduler(policy, 3, [roster[0], roster[0], roster[1]],
                  random.Random(12))


@pytest.mark.parametrize("policy", ["random", "weighted", "bibd", None])
def test_scheduler_refuses_a_policy_that_is_not_a_policy(policy):
    with pytest.raises(InvalidDesign):
        Scheduler(policy, 2, addresses(4), random.Random(12))


@pytest.mark.parametrize("policy", list(Policy))
def test_scheduler_on_empty_roster_returns_nothing(policy):
    scheduler = Scheduler(policy, 3, [], random.Random(12))
    assert scheduler.next_cluster() == []


def test_scheduler_ejection_rebuilds_design_and_resets_cursor():
    roster = addresses(7)
    scheduler = Scheduler(Policy.BIBD, 3, roster, random.Random(13))
    scheduler.next_cluster()
    scheduler.next_cluster()
    gone = roster[2]
    scheduler.eject(gone)
    assert scheduler.block_cursor == 0
    # two cycles over the 6 survivors: each in 2 * 3 blocks of 3
    blocks = [scheduler.next_cluster() for _ in range(12)]
    assert all(len(set(block)) == 3 for block in blocks)
    counts = oracles.occurrence_counts(blocks)
    assert set(counts) == set(roster) - {gone}
    assert all(c == 6 for c in counts.values())


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 30), size=st.integers(1, 35),
       steps=st.lists(st.one_of(st.none(), st.integers(0, 29)), max_size=60))
def test_scheduler_draws_equal_a_design_rebuilt_at_every_ejection(
        count, size, steps):
    # None draws a cluster; an integer ejects that node (again, maybe)
    roster = addresses(count)
    scheduler = Scheduler(Policy.BIBD, size, roster, random.Random(0))
    live = list(roster)
    blocks = oracles.cyclic_design(live, min(size, count))
    cursor = 0
    for step in steps:
        if step is None:
            want = []
            if live:
                want, cursor = oracles.next_bibd_cluster(blocks, cursor)
            assert scheduler.next_cluster() == want
            continue
        gone = roster[step % count]
        scheduler.eject(gone)
        if gone in live:
            live.remove(gone)
            blocks = oracles.cyclic_design(live, min(size, len(live)))
            cursor = 0
        # the next full cycle, drawn from a copy, is the design from cursor
        ahead = copy.deepcopy(scheduler)
        assert [ahead.next_cluster() for _ in live] \
            == blocks[cursor:] + blocks[:cursor]


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("size", [0, -1])
def test_scheduler_block_design_rejects_an_empty_cluster(size, policy):
    with pytest.raises(InvalidDesign):
        Scheduler(policy, size, addresses(3), random.Random(19))
    assert Scheduler(policy, size, [], random.Random(19)).next_cluster() == []


def test_scheduler_single_survivor_keeps_returning_it():
    scheduler = Scheduler(Policy.BIBD, 1, addresses(3), random.Random(14))
    scheduler.eject(addresses(3)[0])
    scheduler.eject(addresses(3)[1])
    for _ in range(3):
        assert scheduler.next_cluster() == [addresses(3)[2]]


def test_scheduler_weighted_learns_from_outcomes():
    roster = addresses(5)
    scheduler = Scheduler(Policy.WEIGHTED, 2, roster, random.Random(15))
    scheduler.record_outcome(roster[0], passed=False, removed=False)
    scheduler.record_outcome(roster[0], passed=False, removed=False)
    assert live_weights(scheduler)[roster[0]] == 4.0
    scheduler.record_outcome(roster[0], passed=True, removed=False)
    assert live_weights(scheduler)[roster[0]] == 2.0
    scheduler.eject(roster[0])
    assert roster[0] not in live_weights(scheduler)
    with pytest.raises(UnknownFog):  # ejected
        scheduler.record_outcome(roster[0], passed=True, removed=False)
    with pytest.raises(UnknownFog):  # never on the roster
        scheduler.record_outcome("missing", passed=True, removed=False)


@pytest.mark.parametrize("policy, drops_on_removal, drops_on_miss", [
    (Policy.RANDOM, False, False),
    (Policy.WEIGHTED, True, False),
    (Policy.BIBD, False, True),
])
def test_scheduler_learns_removals_as_its_policy_allows(
        policy, drops_on_removal, drops_on_miss):
    roster = addresses(5)
    scheduler = Scheduler(policy, 2, roster, random.Random(16))
    scheduler.record_outcome(roster[0], passed=False, removed=True)
    assert (roster[0] not in scheduler.roster) == drops_on_removal
    scheduler.record_miss(roster[1])
    assert (roster[1] not in scheduler.roster) == drops_on_miss
    scheduler.record_outcome(roster[2], passed=False, removed=False)
    assert roster[2] in scheduler.roster


def test_scheduler_same_seed_same_cluster_sequence():
    roster = addresses(9)
    runs = []
    for _ in range(2):
        scheduler = Scheduler(Policy.WEIGHTED, 3, roster, random.Random(17))
        trace = []
        for step in range(20):
            cluster = scheduler.next_cluster()
            trace.append(tuple(cluster))
            scheduler.record_outcome(cluster[0], passed=step % 2 == 0,
                                     removed=False)
        runs.append(trace)
    assert runs[0] == runs[1]
