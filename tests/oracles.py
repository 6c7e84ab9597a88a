"""Independent reference implementations used to cross-check production code.

Everything here is deliberately naive and written straight from the published
curve description and textbook definitions, without importing the package.
Slow is fine; these exist to catch the production code lying.
"""

from bisect import bisect_right
from itertools import accumulate

# secp256k1, restated independently from the curve's published parameters
FIELD_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GEN = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)


def on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + 7)) % FIELD_PRIME == 0


def affine_add(p1, p2):
    """Textbook affine chord-and-tangent addition. None is the identity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % FIELD_PRIME == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1) * pow(2 * y1, FIELD_PRIME - 2, FIELD_PRIME)
    else:
        lam = (y2 - y1) * pow(x2 - x1, FIELD_PRIME - 2, FIELD_PRIME)
    lam %= FIELD_PRIME
    x3 = (lam * lam - x1 - x2) % FIELD_PRIME
    y3 = (lam * (x1 - x3) - y1) % FIELD_PRIME
    return (x3, y3)


def affine_scalar_mult(k, pt):
    """Plain LSB-first double-and-add."""
    k %= CURVE_ORDER
    result = None
    addend = pt
    while k:
        if k & 1:
            result = affine_add(result, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return result


def welford(values):
    """Streaming mean and unbiased sample variance."""
    n = 0
    mean = 0.0
    m2 = 0.0
    for v in values:
        n += 1
        delta = v - mean
        mean += delta / n
        m2 += delta * (v - mean)
    if n < 2:
        return mean, 0.0
    return mean, m2 / (n - 1)


def occurrence_counts(blocks):
    """How many blocks each element appears in."""
    counts = {}
    for block in blocks:
        for member in block:
            counts[member] = counts.get(member, 0) + 1
    return counts


def pair_occurrence_counts(blocks):
    """How many blocks each unordered pair of elements shares."""
    counts = {}
    for block in blocks:
        members = sorted(block)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                key = (members[i], members[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def cyclic_design(roster, block_size):
    """The block policy's design written out whole: block i holds roster
    positions i..i+B-1 mod |F|, one block per position."""
    count = len(roster)
    return [[roster[(i + j) % count] for j in range(block_size)]
            for i in range(count)]


def next_bibd_cluster(blocks, cursor):
    """The block at ``cursor`` and the advanced cursor, cycling the design."""
    return list(blocks[cursor % len(blocks)]), (cursor + 1) % len(blocks)


def weighted_cluster(live_fogs, weights, cluster_size, rng):
    """Successive weighted draws without replacement, the plain way.

    Rebuilds the prefix sums over the not-yet-chosen nodes for every pick and
    pops the pick from the pool; ``weights`` maps each node to its weight.
    """
    pool = list(live_fogs)
    assert cluster_size <= len(pool)
    chosen = []
    for _ in range(cluster_size):
        totals = list(accumulate(weights[address] for address in pool))
        mark = rng.random() * totals[-1]
        index = bisect_right(totals, mark)
        if index == len(pool):  # guard the mark == total float edge
            index -= 1
        chosen.append(pool.pop(index))
    return chosen


def negbin_cost_moments(fog_count, failures, rate):
    """Mean and variance of the audit attempts that expel every fog node.

    Each node fails an audit with probability ``rate``, independently, and
    is expelled at its ``failures``-th failure; no attempt is wasted on an
    expelled node.  A node then costs NegBin(failures, rate) attempts, with
    mean failures/rate and variance failures(1-rate)/rate^2, and the total
    over ``fog_count`` independent nodes adds both.
    """
    mean = fog_count * failures / rate
    variance = fog_count * failures * (1 - rate) / rate ** 2
    return mean, variance


def block_design_cost_bracket(fog_count, failures, rate):
    """Bounds on the block design's mean cost, E[W] <= E[B] <= E[W] + N - 1.

    Each node's audits until removal follow the same law as under the
    weighted policy (``negbin_cost_moments``).  The block design learns of
    a removal only when the node's block comes round and the attempt comes
    back empty, then drops the node, so every expelled node wastes at most
    one attempt, except the last, whose removal ends the trial.
    """
    mean, _ = negbin_cost_moments(fog_count, failures, rate)
    return mean, mean + fog_count - 1


def conservation_gap(ledger):
    """Deposits-in minus withdrawals-out minus everything the ledger holds.

    Zero iff the conservation equation holds. Reads only public ledger
    attributes so it stays independent of internal bookkeeping.
    """
    held = ledger.fee_pool
    for record in ledger.iot_table.values():
        held += record.available_funds
    for record in ledger.fog_table.values():
        held += record.deposit + record.available_funds
    return ledger.total_deposited - ledger.total_withdrawn - held


def call_message(op, **fields):
    """The canonical call bytes as a list of parts joined by ``|``.

    The op comes first, then one ``key=value`` part per field in sorted key
    order, each value formatted with ``str``.
    """
    parts = [op]
    for key in sorted(fields):
        parts.append("%s=%s" % (key, fields[key]))
    return "|".join(parts).encode()
