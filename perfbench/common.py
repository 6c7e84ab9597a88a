"""Shared pieces of the workloads: outcome bookkeeping, the speed gauge,
percentiles, environment."""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

# The speed probe's time at reference speed. Every gated time and rate is
# reported at the machine speed where the probe takes this long.
NOMINAL_PROBE_S = 0.015
_FIELD = 2 ** 256 - 2 ** 32 - 977


class _Record:
    __slots__ = ("key", "total", "recent")

    def __init__(self, key):
        self.key = key
        self.total = 0
        self.recent = []


def probe_kernel() -> int:
    """A fixed piece of pure-Python work that does not touch fogtrust.

    Half of it is 256-bit modular arithmetic, the curve's kind of work; the
    other half is dict lookups, small objects and list churn, the ledger's
    and scheduler's kind. The same work on every call, so its time follows
    the speed the machine gives this process and nothing else.
    """
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    y = 0x0FEDCBA9876543210FEDCBA9876543210FEDCBA9876543210FEDCBA987654321
    for i in range(5000):
        x = (x * y + i) % _FIELD
        y = (y * y - x) % _FIELD
    table = {}
    order = []
    key = 12345
    for i in range(5000):
        key = (key * 1103515245 + 12345) & 0xFFF
        record = table.get(key)
        if record is None:
            record = table[key] = _Record(key)
        record.total += i
        record.recent.append(i)
        if len(record.recent) > 8:
            record.recent = record.recent[4:]
        order.append((record.total, key))
    order.sort()
    return x ^ y ^ len(order)


class SpeedGauge:
    """How fast the machine runs this process, read from a fixed probe.

    The benchmark shares a host whose speed changes under it: probe times
    switch between two levels about 1.6x apart every few seconds, and the
    share of time spent at each level drifts over minutes, for every kind
    of work alike (CPU time changes with wall time; no steal is reported).
    The gauge times ``probe_kernel`` at least every ``INTERVAL_S`` between
    timed requests and at the end of every round, and ``scale_at`` turns a
    duration measured at a given moment into one at reference speed: it
    multiplies by the nominal probe time over the mean of the two probes on
    either side of that moment. The program's code is never inside the
    probe, so a change to the program moves the scaled figures as much as
    the raw ones.
    """

    INTERVAL_S = 0.25
    START_PROBES = 3

    def __init__(self):
        self.stamps = []        # midpoint of each probe, perf_counter seconds
        self.readings = []      # its duration
        self.last = -float("inf")
        for _ in range(self.START_PROBES):
            self.probe()

    def probe(self):
        # The collector would add a pass over the program's heap, whose size
        # is the program's business, not the machine's speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            probe_kernel()
            self.last = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.stamps.append((begin + self.last) / 2)
        self.readings.append(self.last - begin)

    def tick(self):
        """Probe if the last probe is older than the interval."""
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.probe()

    def scale_at(self, moment: float) -> float:
        after = bisect.bisect_right(self.stamps, moment)
        around = self.readings[max(after - 1, 0):after + 1]
        return NOMINAL_PROBE_S * len(around) / sum(around)

    def summary(self) -> dict:
        return {"nominal_ms": NOMINAL_PROBE_S * 1e3,
                "probes": len(self.readings),
                "median_ms": median(self.readings) * 1e3,
                "min_ms": min(self.readings) * 1e3,
                "max_ms": max(self.readings) * 1e3,
                "readings_ms": [round(value * 1e3, 3)
                                for value in self.readings]}


@dataclass
class Outcome:
    """What one timed loop did: samples, checks, and failures.

    A timed request goes in through ``request`` and waits until ``settle``,
    at the end of its round, has probed after it; then it is scaled to
    reference speed and becomes a sample. Its raw wall time is kept too.
    """

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    samples: dict = field(default_factory=dict)      # name -> [values]
    raw: dict = field(default_factory=dict)          # name -> [wall values]
    pending: list = field(default_factory=list)      # (name, s, per, moment)
    counts: dict = field(default_factory=dict)       # name -> number
    checks: dict = field(default_factory=dict)       # name -> bool
    output_sha256: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)     # first few, for the log

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def request(self, name: str, seconds: float, per: int = 1):
        """A request that ended just now; its sample is ``seconds / per``."""
        self.pending.append((name, seconds, per,
                             time.perf_counter() - seconds / 2))

    def settle(self) -> dict:
        """Probe, then scale and record every pending request.

        Returns each name's total time at reference speed over the
        requests settled.
        """
        self.gauge.probe()
        totals = {}
        for name, seconds, per, moment in self.pending:
            scaled = seconds * self.gauge.scale_at(moment)
            self.sample(name, scaled / per)
            self.raw.setdefault(name, []).append(seconds / per)
            totals[name] = totals.get(name, 0.0) + scaled
        self.pending.clear()
        return totals

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, name: str, ok: bool):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency(outcome: Outcome, name: str, fraction: float) -> dict:
    """One percentile of a latency sample, in ms at reference speed, with
    its sample counts and the same percentile of the raw wall times."""
    values = outcome.samples.get(name, [])
    if not values:
        return {"value": 0.0, "unit": "ms", "samples": 0, "beyond": 0}
    beyond = len(values) - 1 - int(fraction * (len(values) - 1))
    metric = {"value": percentile(values, fraction) * 1e3, "unit": "ms",
              "samples": len(values), "beyond": beyond}
    if name in outcome.raw:
        metric["raw"] = percentile(outcome.raw[name], fraction) * 1e3
    return metric


def round_rate(outcome: Outcome, name: str) -> dict:
    """Median over the run's rounds of work done per second in the round.

    A round is the workload's repeating unit of work, and its time is its
    requests' time at reference speed. The median keeps a burst of
    interference from other processes, which slows a few rounds, from
    moving the figure, as a run-long mean would.
    """
    rates = outcome.samples.get(name, [])
    return {"value": median(rates) if rates else 0.0, "unit": "1/s",
            "samples": len(rates)}


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(root: str) -> dict:
    try:
        cryptography_version = importlib.metadata.version("cryptography")
    except importlib.metadata.PackageNotFoundError:
        cryptography_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "cryptography": cryptography_version,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
