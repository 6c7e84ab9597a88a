"""simulate-cli: the study runs, through ``fogtrust.cli.main`` in-process.

One round is ``simulate cost --cluster 5`` (all three policies), three
``simulate state`` runs with the command's defaults (weighted, adaptive,
deposit 10), ``simulate cost --cluster 25``, and three more state runs. Each
invocation runs ``trials`` trials per policy with its own seed drawn from
the workload seed, and writes to a temporary ``--out`` directory inside the
checkout, removed at the end. State runs come three to a cost run because a
state trial is the slower sample and its p90 needs the count. The
loop runs whole rounds, and throughput is counted per round over the time
spent inside ``cli.main``. A cost trial's time is taken per round, over
both cost runs, so its median is one of like samples and does not fall
between the two cluster sizes. Times are scaled to reference speed by the
speed gauge, which probes between invocations and after every round
(``common.SpeedGauge``).

Set-up creates the directory and makes one untimed invocation of each kind,
so the timed loop starts warm. Correctness is checked on every invocation's
files, outside the timed region: trial counts match, no cost is below
``fog_count * ceil(deposit / deposit_deduction)`` (every fog needs that many
failed audits before its deposit runs out, and the reputation floor needs
more), and the live-fog series never increases.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import shutil
import tempfile
import time

from fogtrust import cli
from fogtrust.scheduling import Policy
from fogtrust.simulation import ScenarioConfig

from common import Outcome, latency, round_rate, sha256_files, sha256_json

SIZES = {"trials": 1}

ROUND = (("cost", "5"),) + (("state", None),) * 3 \
    + (("cost", "25"),) + (("state", None),) * 3


class Study:
    """The output directory and the seeded invocation schedule."""

    def __init__(self, seed: int, sizes: dict, scratch_root: str):
        self.sizes = sizes
        self.rng = random.Random(seed)
        os.makedirs(scratch_root, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="simulate-", dir=scratch_root)
        defaults = ScenarioConfig()
        self.min_cost = defaults.fog_count * math.ceil(
            defaults.deposit / defaults.deposit_deduction)
        for scenario, cluster in dict.fromkeys(ROUND):
            code, _ = self.invoke(scenario, cluster, self.rng.getrandbits(32))
            if code != cli.EXIT_OK:
                raise RuntimeError("warm-up simulate %s exited %d"
                                   % (scenario, code))

    def argv(self, scenario: str, cluster, seed: int) -> list:
        argv = ["simulate", scenario, "--trials", str(self.sizes["trials"]),
                "--seed", str(seed), "--out", self.out_dir]
        if cluster is not None:
            argv += ["--cluster", cluster]
        return argv

    def invoke(self, scenario: str, cluster, seed: int):
        """Run one command; returns (exit code, seconds)."""
        argv = self.argv(scenario, cluster, seed)
        sink = io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return code, time.perf_counter() - begin

    def files(self, scenario: str) -> list:
        names = (("cost_trials.csv", "cost_summary.csv", "cost_plot.gp")
                 if scenario == "cost"
                 else ("state_trials.csv", "state_series.csv", "state_plot.gp"))
        return [os.path.join(self.out_dir, name) for name in names]

    def read(self, name: str) -> list:
        with open(os.path.join(self.out_dir, name), newline="") as handle:
            return list(csv.DictReader(handle))

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def setup(seed: int, sizes: dict, scratch: str) -> Study:
    return Study(seed, sizes, scratch)


def _check(study: Study, scenario: str, outcome: Outcome):
    trials = study.sizes["trials"]
    if scenario == "cost":
        rows = study.read("cost_trials.csv")
        if len(rows) != trials * len(Policy):
            outcome.fail("cost run wrote %d trial rows" % len(rows))
        if any(int(row["audits"]) < study.min_cost for row in rows):
            outcome.fail("a cost trial ended below %d audits" % study.min_cost)
        return
    if len(study.read("state_trials.csv")) != trials:
        outcome.fail("state run wrote the wrong number of trial rows")
    live = [float(row["mean_live"]) for row in study.read("state_series.csv")]
    if any(later > earlier for earlier, later in zip(live, live[1:])):
        outcome.fail("live-fog series increased")


def run(study: Study, seconds: float, tracer=None) -> Outcome:
    """Whole rounds of invocations until time is up."""
    outcome = Outcome()
    request = 0
    first_round = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        trials = {"cost": 0, "state": 0}
        for scenario, cluster in ROUND:
            request += 1
            if tracer is not None:
                tracer.request = request
            outcome.attempted += 1
            outcome.gauge.tick()
            code, elapsed = study.invoke(scenario, cluster,
                                         study.rng.getrandbits(32))
            if code != cli.EXIT_OK:
                outcome.fail("simulate %s exited %d" % (scenario, code))
                continue
            ran = study.sizes["trials"] * (len(Policy) if scenario == "cost"
                                           else 1)
            trials[scenario] += ran
            outcome.request(scenario + "_trial", elapsed, per=ran)
            _check(study, scenario, outcome)
            if request <= len(ROUND):
                first_round.append(sha256_files(study.files(scenario)))
        settled = outcome.settle()
        busy = {scenario: settled.get(scenario + "_trial", 0.0)
                for scenario in trials}
        for scenario in trials:
            if busy[scenario]:
                outcome.sample(scenario + "_rate", trials[scenario] / busy[scenario])
        if busy["cost"]:
            outcome.sample("cost_round_trial", busy["cost"] / trials["cost"])
        if busy["cost"] or busy["state"]:
            outcome.sample("round_rate", (trials["cost"] + trials["state"])
                           / (busy["cost"] + busy["state"]))
    outcome.elapsed = time.perf_counter() - started
    if len(first_round) == len(ROUND):
        outcome.output_sha256["first_round_out_files"] = sha256_json(first_round)
    return outcome


def metrics(outcome: Outcome) -> dict:
    """The workload's own end-to-end metrics."""
    return {
        "cost_trials_per_s": round_rate(outcome, "cost_rate"),
        "state_trials_per_s": round_rate(outcome, "state_rate"),
        "trials_per_s": round_rate(outcome, "round_rate"),
        "cost_trial_p50_ms": latency(outcome, "cost_round_trial", 0.5),
        "state_trial_p50_ms": latency(outcome, "state_trial", 0.5),
        "state_trial_p90_ms": latency(outcome, "state_trial", 0.9),
    }


GENERIC = {
    "ops_per_s": "trials_per_s",
    "light_p50_ms": "cost_trial_p50_ms",
    "heavy_p50_ms": "state_trial_p50_ms",
}
