"""Audit scheduling: three cluster-sampling policies.

Clusters are returned as lists in draw order rather than sets so that audit
execution order is reproducible under a fixed seed.  Callers that only care
about membership can wrap the result in ``set``.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from itertools import accumulate

from .errors import ClusterTooLarge, InvalidDesign, UnknownFog

WEIGHT_GAIN = 2.0
WEIGHT_DECAY = 0.5
WEIGHT_FLOOR = 1.0


class Policy(enum.Enum):
    RANDOM = "random"
    WEIGHTED = "weighted"
    BIBD = "bibd"


def sample_cluster_random(live_fogs, cluster_size: int, rng) -> list:
    pool = list(live_fogs)
    if cluster_size > len(pool):
        raise ClusterTooLarge("cluster %d exceeds %d live nodes"
                              % (cluster_size, len(pool)))
    return rng.sample(pool, cluster_size)


def sample_cluster_weighted(roster, slot_weights, cluster_size: int,
                            rng) -> list:
    """Successive weighted draws without replacement over parallel slots.

    ``slot_weights[i]`` is the weight of ``roster[i]``; a slot holding 0 is
    out of the draw.  Each draw picks one node with probability proportional
    to its current weight among the not-yet-chosen, which keeps heavier
    (more suspicious) nodes strictly more likely to appear in the cluster.
    ``slot_weights`` is only read, never written.

    One prefix sum ``totals`` serves the whole cluster.  Each pick draws
    ``mark = rng.random() * total`` over the remaining weight and takes the
    first slot whose prefix sum, less the weight ``removed`` of the slots
    picked before it, is above ``mark``: the segments between picked slots
    are walked in order and the slot is bisected inside the first segment
    whose last such sum is above ``mark``.  A zero slot never is, so the
    pick is the node that the same mark selects among the live, unpicked
    slots alone, provided every prefix sum, ``total`` and ``removed`` is
    exact; the scheduler's weights keep them exact (see ``Scheduler``).
    """
    live = len(slot_weights) - slot_weights.count(0.0)
    if cluster_size > live:
        raise ClusterTooLarge("cluster %d exceeds %d live nodes"
                              % (cluster_size, live))
    totals = list(accumulate(slot_weights))
    total = totals[-1] if totals else 0.0
    ends = [len(totals)]  # picked slots in slot order, then the end
    picked = []
    for _ in range(cluster_size):
        mark = rng.random() * total
        start = 0
        removed = 0.0
        for end in ends:
            if start < end and totals[end - 1] - removed > mark:
                index = bisect_right(totals, mark, start, end,
                                     key=lambda t: t - removed)
                break
            if end < len(totals):
                removed += slot_weights[end]
            start = end + 1
        else:  # the mark == total float edge: the last live, unpicked slot
            index = max(slot for slot, weight in enumerate(slot_weights)
                        if weight and slot not in picked)
        insort(ends, index)
        picked.append(index)
        total -= slot_weights[index]
    return [roster[index] for index in picked]


def update_weight(weight: float, passed: bool) -> float:
    """A node's next weight: halved on a passed audit, doubled on a failed one."""
    weight *= WEIGHT_DECAY if passed else WEIGHT_GAIN
    if weight < WEIGHT_FLOOR:
        weight = WEIGHT_FLOOR
    return weight


def _check_block_size(block_size: int, count: int):
    if block_size < 1 or block_size > count:
        raise InvalidDesign("block size %d needs between 1 and %d nodes"
                            % (block_size, count))


def build_bibd(live_fogs, block_size: int) -> list:
    """Cyclic-window block design: block i covers positions i..i+B-1 mod |F|.

    Produces |F| blocks of size B with every node in exactly B blocks, for
    any |F| >= B >= 1, so the design always exists regardless of classical
    block-design constraints.
    """
    roster = list(live_fogs)
    count = len(roster)
    _check_block_size(block_size, count)
    return [[roster[(i + j) % count] for j in range(block_size)]
            for i in range(count)]


class Scheduler:
    """Cluster selection under one policy, tracking what the policy knows.

    The scheduler keeps its own roster of nodes it believes are live.  The
    owner reports verdicts through ``record_outcome`` and wasted attempts
    through ``record_miss``; policies differ in what they learn from those,
    so the roster is deliberately the scheduler's view rather than a
    reference to ground truth.

    Weights live in ``slot_weights``, parallel to the initial roster
    ``slot_addresses``: a live node's slot holds its weight, an ejected
    node's slot holds 0.  Weighted draws stay exact because every weight is
    a power of two of at least 1 (floor 1, gain x2, decay x0.5 with the
    floor), so every prefix sum, every sum of picked weights and their
    differences are exact while the total stays below 2^53: a prefix sum
    less the weight of the picked slots before it equals, bit for bit, the
    prefix sum with those slots zeroed.  The total does stay below: a
    weight's exponent is at most the node's failed audits, and each failure
    seizes ``deposit_deduction`` until the deposit is gone, so a node is
    removed after at most ``ceil(deposit / deposit_deduction)`` failures.
    The total is then at most
    ``len(slot_addresses) * 2**ceil(deposit / deposit_deduction)``: far
    below 2^53 for every shipped config, at most 100 * 2^10 (the state
    scenario's deposit of 10).

    Each address holds one slot, so a roster that repeats an address is
    rejected with ``InvalidDesign``.

    Under the block design, block i is ``build_bibd(roster, size)[i]``,
    computed when it is drawn rather than stored, so an ejection only
    resets ``block_cursor`` to 0 instead of rebuilding every block.
    """

    def __init__(self, policy: Policy, cluster_size: int, fog_addresses, rng):
        self.policy = policy
        self.cluster_size = cluster_size
        self.rng = rng
        self.roster = list(fog_addresses)
        self._slot_of = {address: index
                         for index, address in enumerate(self.roster)}
        if len(self._slot_of) != len(self.roster):
            raise InvalidDesign("roster repeats an address")
        self.slot_addresses = list(self.roster)
        self.slot_weights = [float(WEIGHT_FLOOR)] * len(self.roster)
        self.block_cursor = 0
        if policy is Policy.BIBD and self.roster:
            _check_block_size(min(cluster_size, len(self.roster)),
                              len(self.roster))

    @property
    def blocks(self) -> list:
        """The current block design, empty unless the policy is BIBD."""
        if self.policy is not Policy.BIBD or not self.roster:
            return []
        return build_bibd(self.roster, min(self.cluster_size, len(self.roster)))

    def next_cluster(self) -> list:
        if not self.roster:
            return []
        size = min(self.cluster_size, len(self.roster))
        if self.policy is Policy.RANDOM:
            return sample_cluster_random(self.roster, size, self.rng)
        if self.policy is Policy.WEIGHTED:
            return sample_cluster_weighted(self.slot_addresses,
                                           self.slot_weights, size, self.rng)
        roster = self.roster
        count = len(roster)
        cursor = self.block_cursor
        self.block_cursor = (cursor + 1) % count
        return [roster[(cursor + j) % count] for j in range(size)]

    def record_outcome(self, fog_address: str, passed: bool, removed: bool):
        """Learn from one verdict; only the weighted policy tracks removals."""
        if self.policy is Policy.WEIGHTED:
            slot = self._slot_of.get(fog_address)
            if slot is None or not self.slot_weights[slot]:
                raise UnknownFog("no weight recorded for %s" % fog_address)
            self.slot_weights[slot] = update_weight(self.slot_weights[slot],
                                                    passed)
            if removed:
                self.eject(fog_address)

    def record_miss(self, fog_address: str):
        """An attempt found the node expelled; only the block design learns."""
        if self.policy is Policy.BIBD:
            self.eject(fog_address)

    def eject(self, fog_address: str):
        """Drop a node from the roster once the policy learns it is gone."""
        slot = self._slot_of.get(fog_address)
        if slot is None or not self.slot_weights[slot]:
            return
        self.slot_weights[slot] = 0.0
        self.roster.remove(fog_address)
        self.block_cursor = 0
