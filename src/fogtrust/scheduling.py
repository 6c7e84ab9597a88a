"""Audit scheduling: three cluster-sampling policies.

Clusters are returned as lists in draw order rather than sets so that audit
execution order is reproducible under a fixed seed.  Callers that only care
about membership can wrap the result in ``set``.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from itertools import accumulate

from .errors import InvalidDesign

WEIGHT_GAIN = 2
WEIGHT_FLOOR = 1


class Policy(enum.Enum):
    RANDOM = "random"
    WEIGHTED = "weighted"
    BIBD = "bibd"


def _pick_weighted(roster, slot_weights, totals, cluster_size: int,
                   rng) -> list:
    """Successive weighted draws without replacement over parallel slots.

    ``slot_weights[i]`` is the weight of ``roster[i]``; a slot holding 0 is
    out of the draw.  ``totals`` is their prefix sum,
    ``list(accumulate(slot_weights))``, which the scheduler keeps between
    draws.  Each draw picks one node with probability proportional to its
    current weight among the not-yet-chosen, which keeps heavier (more
    suspicious) nodes strictly more likely to appear in the cluster.
    ``slot_weights`` and ``totals`` are only read, never written.

    Weights must be whole numbers: ints (as the scheduler's are), or
    integral floats whose sum stays below 2^53.  Each pick floors its mark
    ``rng.random() * total`` over the remaining weight, which against
    whole-number sums selects the same slot as the mark itself, then shifts
    it past each picked slot, in slot order, that starts at or below it.
    The live, unpicked weight below the shifted mark is then the floored
    mark, so one ``bisect_right`` over the one prefix sum ``totals`` finds
    the slot that the mark selects among the live, unpicked slots alone; a
    zero slot repeats the sum before it and is never found.  Every sum is
    of whole numbers, so each is exact: shifting an unfloored mark would
    round it.  The ``mark == total`` float edge takes the last live,
    unpicked slot, as the mark ``total - 1`` does.

    ``cluster_size`` must not exceed the number of nonzero slots.
    """
    total = totals[-1] if totals else 0
    random = rng.random
    starts = []  # (prefix sum before the slot, weight) per pick, ascending
    cluster = []
    for _ in range(cluster_size):
        mark = int(random() * total)
        if mark >= total:
            mark = total - 1
        for start, weight in starts:
            if start > mark:
                break
            mark += weight
        index = bisect_right(totals, mark)
        weight = slot_weights[index]
        insort(starts, (totals[index] - weight, weight))
        cluster.append(roster[index])
        total -= weight
    return cluster


def update_weight(weight: int, passed: bool) -> int:
    """A node's next weight: halved on a passed audit, down to the floor of
    1, and doubled on a failed one."""
    if passed:
        # a comparison, not max(), which costs some eight times as much
        # here; like max(), it returns the halved weight on the floor tie
        half = weight // WEIGHT_GAIN
        return half if half >= WEIGHT_FLOOR else WEIGHT_FLOOR
    return weight * WEIGHT_GAIN


class Scheduler:
    """Cluster selection under one policy, tracking what the policy knows.

    The scheduler keeps its own roster of nodes it believes are live.  The
    owner reports verdicts through ``record_outcome`` and wasted attempts
    through ``record_miss``; policies differ in what they learn from those,
    so the roster is deliberately the scheduler's view rather than a
    reference to ground truth.

    Weights live in ``slot_weights``, parallel to the initial roster
    ``slot_addresses``: a live node's slot holds its weight, an ejected
    node's slot holds 0.  Every weight is an int power of two of at least
    1 (floor 1, doubled on a failure, halved on a pass), so weighted draws
    are exact at any total (see ``_pick_weighted``).

    A weighted scheduler keeps the prefix sums of ``slot_weights``,
    ``list(accumulate(slot_weights))``, in ``_totals`` between draws.
    They go stale when ``record_outcome`` changes a weight (it writes one
    only when ``update_weight`` changes it) or ``eject`` zeroes one; that
    sets ``_stale``, and the next weighted draw re-sums them.  In a
    default state trial 56% of draws follow a cluster that changed no
    weight (honest nodes passing at the floor), and those draws sum
    nothing.  After a change the lowest changed slot averages 40 of 100,
    but re-summing only from it, by slice assignment, measured no faster
    in a state trial than summing all 100 slots, and tracking that slot
    made weighted cost trials, where nearly every cluster changes a
    weight, 2 to 5% slower; so a stale draw re-sums every slot.

    The policy is fixed for the scheduler's life, so ``__init__`` resolves
    it once into ``_weighted`` and ``_bibd``: every draw and every verdict
    then tests a local bool instead of reading a ``Policy`` member off the
    class, which costs about ten times as much and, at several reads per
    audit attempt, was a measurable share of a study trial.  ``policy``
    still holds the ``Policy`` it was built with, for callers that name
    it; assigning to it later changes no draw.

    Each address holds one slot, so a roster that repeats an address is
    rejected with ``InvalidDesign``, as are a policy that is not a
    ``Policy``, a cluster size that is not an int, and a cluster size
    below 1 under any policy once the roster is non-empty.

    The block design is cyclic and replication-balanced: block i covers
    roster positions i..i+B-1 mod |F|, so each of the |F| blocks holds B
    distinct nodes and every node is in exactly B blocks, for any
    |F| >= B >= 1.  Pairs of nodes do not in general share equally many
    blocks (neighbours share more), so it is not a balanced incomplete
    block design (BIBD), whose pair balance would restrict |F| and B;
    ``Policy.BIBD`` keeps that name.  ``next_cluster`` computes block
    ``block_cursor`` when it is drawn rather than storing the design, so an
    ejection only resets the cursor to 0.
    """

    def __init__(self, policy: Policy, cluster_size: int, fog_addresses, rng):
        if not isinstance(policy, Policy):
            raise InvalidDesign("policy %r is not a Policy" % (policy,))
        self.policy = policy
        self._weighted = policy is Policy.WEIGHTED
        self._bibd = policy is Policy.BIBD
        self.cluster_size = cluster_size
        self.rng = rng
        self.roster = list(fog_addresses)
        self._slot_of = {address: index
                         for index, address in enumerate(self.roster)}
        if len(self._slot_of) != len(self.roster):
            raise InvalidDesign("roster repeats an address")
        self.slot_addresses = list(self.roster)
        self.slot_weights = [WEIGHT_FLOOR] * len(self.roster)
        self._totals = list(accumulate(self.slot_weights))
        self._stale = False
        self.block_cursor = 0
        # type() rather than isinstance(): True is an int but not a size
        if type(cluster_size) is not int or (self.roster and cluster_size < 1):
            raise InvalidDesign("cluster size %r is not an int of at least 1"
                                % (cluster_size,))

    def next_cluster(self) -> list:
        roster = self.roster
        count = len(roster)
        if not count:
            return []
        # a comparison, not min(), which costs some five times as much here
        size = self.cluster_size
        if size > count:
            size = count
        if self._weighted:
            weights = self.slot_weights
            totals = self._totals
            if self._stale:
                self._totals = totals = list(accumulate(weights))
                self._stale = False
            return _pick_weighted(self.slot_addresses, weights, totals, size,
                                  self.rng)
        if not self._bibd:
            return self.rng.sample(roster, size)
        cursor = self.block_cursor
        self.block_cursor = (cursor + 1) % count
        return [roster[(cursor + j) % count] for j in range(size)]

    def record_outcome(self, fog_address: str, passed: bool, removed: bool):
        """Learn from one verdict; only the weighted policy tracks removals."""
        if self._weighted:
            slot = self._slot_of.get(fog_address)
            weights = self.slot_weights
            if slot is None or not weights[slot]:
                raise InvalidDesign("no weight recorded for %s" % fog_address)
            weight = update_weight(weights[slot], passed)
            if weight != weights[slot]:
                weights[slot] = weight
                self._stale = True
            if removed:
                self.eject(fog_address)

    def record_miss(self, fog_address: str):
        """An attempt found the node expelled; only the block design learns."""
        if self._bibd:
            self.eject(fog_address)

    def eject(self, fog_address: str):
        """Drop a node from the roster once the policy learns it is gone."""
        slot = self._slot_of.get(fog_address)
        if slot is None or not self.slot_weights[slot]:
            return
        self.slot_weights[slot] = 0
        self._stale = True
        self.roster.remove(fog_address)
        self.block_cursor = 0
