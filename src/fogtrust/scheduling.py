"""Audit scheduling: three cluster-sampling policies.

Clusters are returned as lists in draw order rather than sets so that audit
execution order, and therefore every downstream ledger event and CSV row, is
reproducible under a fixed seed.  Callers that only care about membership can
wrap the result in ``set``.
"""

from __future__ import annotations

import csv
import enum
from bisect import bisect_right
from itertools import accumulate

from .errors import ClusterTooLarge, EmptyDesign, InvalidDesign, UnknownFog

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


def sample_cluster_weighted(live_fogs, weights, cluster_size: int, rng) -> list:
    """Successive weighted draws without replacement.

    Each draw picks one node with probability proportional to its current
    weight among the not-yet-chosen, which keeps heavier (more suspicious)
    nodes strictly more likely to appear in the cluster.
    """
    pool = list(live_fogs)
    if cluster_size > len(pool):
        raise ClusterTooLarge("cluster %d exceeds %d live nodes"
                              % (cluster_size, len(pool)))
    for address in pool:
        if address not in weights:
            raise UnknownFog("no weight recorded for %s" % address)
    chosen = []
    for _ in range(cluster_size):
        totals = list(accumulate(weights[address] for address in pool))
        mark = rng.random() * totals[-1]
        index = bisect_right(totals, mark)
        if index == len(pool):  # guard the mark == total float edge
            index -= 1
        chosen.append(pool.pop(index))
    return chosen


def update_weight(weights, fog_address: str, passed: bool) -> float:
    """Scale a node's weight down on a passed audit, up on a failed one."""
    if fog_address not in weights:
        raise UnknownFog("no weight recorded for %s" % fog_address)
    weight = weights[fog_address] * (WEIGHT_DECAY if passed else WEIGHT_GAIN)
    if weight < WEIGHT_FLOOR:
        weight = WEIGHT_FLOOR
    weights[fog_address] = weight
    return weight


def build_bibd(live_fogs, block_size: int) -> list:
    """Cyclic-window block design: block i covers positions i..i+B-1 mod |F|.

    Produces |F| blocks of size B with every node in exactly B blocks, for
    any |F| >= B >= 1, so the design always exists regardless of classical
    block-design constraints.
    """
    roster = list(live_fogs)
    count = len(roster)
    if block_size < 1 or block_size > count:
        raise InvalidDesign("block size %d needs between 1 and %d nodes"
                            % (block_size, count))
    return [[roster[(i + j) % count] for j in range(block_size)]
            for i in range(count)]


def next_bibd_cluster(blocks, block_cursor: int) -> tuple:
    """Return (cluster, advanced cursor), cycling through the design."""
    if not blocks:
        raise EmptyDesign("block design has no blocks")
    cluster = blocks[block_cursor % len(blocks)]
    return list(cluster), (block_cursor + 1) % len(blocks)


class Scheduler:
    """Cluster selection under one policy, tracking what the policy knows.

    The scheduler keeps its own roster of nodes it believes are live.  The
    owner reports verdicts through ``record_outcome`` and wasted attempts
    through ``record_miss``; policies differ in what they learn from those,
    so the roster is deliberately the scheduler's view rather than a
    reference to ground truth.
    """

    def __init__(self, policy: Policy, cluster_size: int, fog_addresses, rng):
        self.policy = policy
        self.cluster_size = cluster_size
        self.rng = rng
        self.roster = list(fog_addresses)
        self.weights = {address: float(WEIGHT_FLOOR) for address in self.roster}
        self.blocks = []
        self.block_cursor = 0
        if policy is Policy.BIBD and self.roster:
            self._rebuild()

    def _rebuild(self):
        size = min(self.cluster_size, len(self.roster))
        self.blocks = build_bibd(self.roster, size)
        self.block_cursor = 0

    def next_cluster(self) -> list:
        if not self.roster:
            return []
        size = min(self.cluster_size, len(self.roster))
        if self.policy is Policy.RANDOM:
            return sample_cluster_random(self.roster, size, self.rng)
        if self.policy is Policy.WEIGHTED:
            return sample_cluster_weighted(self.roster, self.weights, size,
                                           self.rng)
        cluster, self.block_cursor = next_bibd_cluster(self.blocks,
                                                       self.block_cursor)
        return cluster

    def record_outcome(self, fog_address: str, passed: bool, removed: bool):
        """Learn from one verdict; only the weighted policy tracks removals."""
        if self.policy is Policy.WEIGHTED:
            update_weight(self.weights, fog_address, passed)
            if removed:
                self.eject(fog_address)

    def record_miss(self, fog_address: str):
        """An attempt found the node expelled; only the block design learns."""
        if self.policy is Policy.BIBD:
            self.eject(fog_address)

    def eject(self, fog_address: str):
        """Drop a node from the roster once the policy learns it is gone."""
        if fog_address not in self.roster:
            return
        self.roster.remove(fog_address)
        self.weights.pop(fog_address, None)
        if self.policy is Policy.BIBD:
            if self.roster:
                self._rebuild()
            else:
                self.blocks = []
                self.block_cursor = 0

    def export_weights_csv(self, path: str):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["fog_address", "weight"])
            for address in self.roster:
                writer.writerow([address, repr(self.weights[address])])

    def export_blocks_csv(self, path: str):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["block_index", "members"])
            for index, block in enumerate(self.blocks):
                writer.writerow([index, ";".join(block)])
