"""Tests of the benchmark itself, kept out of the package's test run.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once untraced and once traced at a tiny size. The tests
check the correctness verdicts, that the last output line names exactly the
metrics of BENCHMARK.json with their units, that the untraced run sees no
wrapper and the traced run sees them, that every patched binding is
restored by identity, that the speed gauge scales requests by the probes
around them, and that the command fails without the package.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_package()

import common  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = {
    "protocol-mix": {"devices": 8, "fogs": 3, "tampering_fogs": 1,
                     "ring_size": 4, "snapshot_session": 1},
    "contract-verify": {"devices": 32, "outsiders": 2, "blocks": 3},
    "simulate-cli": {},
}
SECONDS = 0.5
SPEC = bench.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def fogtrust_bindings() -> dict:
    """Every function-valued attribute of every fogtrust module and class."""
    import fogtrust.ledger
    import fogtrust.scheduling
    bindings = {}
    owners = [module for name, module in sys.modules.items()
              if module is not None and name.split(".")[0] == "fogtrust"]
    owners += [fogtrust.ledger.Ledger, fogtrust.scheduling.Scheduler]
    for owner in owners:
        for attribute, value in vars(owner).items():
            if inspect.isfunction(value):
                bindings[(owner, attribute)] = value
    return bindings


def wrapped(bindings: dict) -> list:
    return [key for key, value in bindings.items()
            if getattr(value, "__wrapped_by_perfbench__", False)]


@pytest.fixture(scope="module")
def records():
    """(workload, trace) -> record, plus what the loop saw bound."""
    modules = bench.workload_modules()
    before = fogtrust_bindings()
    seen = {}
    out = {}
    for workload in WORKLOADS:
        module = modules[workload]
        original_run = module.run

        def spying_run(state, seconds, tracer=None, _run=original_run,
                       _name=workload):
            seen[(_name, tracer is not None)] = wrapped(fogtrust_bindings())
            return _run(state, seconds, tracer)

        module.run = spying_run
        try:
            for trace in (False, True):
                out[(workload, trace)], _ = bench.run_workload(
                    workload, 7, SECONDS, trace, TINY[workload])
        finally:
            module.run = original_run
    return {"records": out, "seen": seen, "before": before,
            "after": fogtrust_bindings()}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(records, workload, trace):
    record = records["records"][(workload, trace)]
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failures"]
    assert record["correct"], record["checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_names_exactly_the_declared_metrics(records, workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = bench.result_line(records["records"][(workload, trace)], SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
        json.dumps(line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(records, workload):
    line = bench.result_line(records["records"][(workload, False)], SPEC)
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_every_workload_maps_every_generic_metric():
    names = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    for module in bench.workload_modules().values():
        assert set(module.GENERIC) == names


def test_untraced_run_sees_no_wrapper_and_traced_run_does(records):
    for workload in WORKLOADS:
        assert records["seen"][(workload, False)] == []
        assert records["seen"][(workload, True)] != []


def test_traced_run_restores_every_binding(records):
    before, after = records["before"], records["after"]
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_bindings_imported_by_name_are_patched():
    from fogtrust import cli, curve, keys, ring, signing, simulation
    originals = (curve.scalar_mult, cli.run_cost_scenario,
                 cli.run_state_scenario)
    patches = tracing.install(tracing.Tracer())
    try:
        for module in (keys, signing, ring, curve):
            assert module.scalar_mult.__wrapped_by_perfbench__
        assert cli.run_cost_scenario.__wrapped_by_perfbench__
        assert cli.run_state_scenario.__wrapped_by_perfbench__
        assert simulation.run_cost_scenario is cli.run_cost_scenario
    finally:
        patches.restore()
    assert (curve.scalar_mult, cli.run_cost_scenario,
            cli.run_state_scenario) == originals
    assert keys.scalar_mult is signing.scalar_mult is ring.scalar_mult \
        is curve.scalar_mult


def test_speed_gauge_scales_by_the_probes_on_either_side():
    gauge = common.SpeedGauge()
    gauge.stamps = [1.0, 2.0, 3.0]
    gauge.readings = [0.010, 0.020, 0.030]
    nominal = common.NOMINAL_PROBE_S
    assert gauge.scale_at(1.5) == pytest.approx(nominal / 0.015)
    assert gauge.scale_at(2.5) == pytest.approx(nominal / 0.025)
    assert gauge.scale_at(0.5) == pytest.approx(nominal / 0.010)
    assert gauge.scale_at(3.5) == pytest.approx(nominal / 0.030)


def test_settled_requests_become_scaled_samples():
    outcome = common.Outcome()
    outcome.request("call", 0.004)
    outcome.request("call", 0.006, per=2)
    assert "call" not in outcome.samples
    totals = outcome.settle()
    assert outcome.pending == []
    assert outcome.raw["call"] == [0.004, 0.003]
    scales = [value / raw for value, raw
              in zip(outcome.samples["call"], outcome.raw["call"])]
    assert all(scale > 0 for scale in scales)
    assert totals["call"] == pytest.approx(
        0.004 * scales[0] + 0.006 * scales[1])


def test_probe_kernel_does_the_same_work_every_time():
    assert common.probe_kernel() == common.probe_kernel()


def test_traced_handshake_records_nested_spans():
    from fogtrust import protocol
    module = bench.workload_modules()["protocol-mix"]
    world = module.setup(5, dict(module.SIZES, **TINY["protocol-mix"]), None)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.request = 42
        protocol.mutual_authenticate(world.devices[0], world.fogs[0],
                                     world.ledger)
    finally:
        patches.restore()
    names = {span[3] for span in tracer.spans}
    assert {"protocol.mutual_authenticate", "signing.sign", "signing.recover",
            "keys.shared_secret", "curve.scalar_mult.ladder"} <= names
    ids = {span[0] for span in tracer.spans}
    top = [span for span in tracer.spans if span[1] == 0]
    assert [span[3] for span in top] == ["protocol.mutual_authenticate"]
    assert all(span[1] in ids for span in tracer.spans if span[1])
    assert all(span[2] == 42 for span in tracer.spans)
    total = tracer.ms("protocol.mutual_authenticate")
    assert 0 < tracer.self_ms("protocol.mutual_authenticate") < total


def test_command_prints_the_result_as_its_last_line():
    root = os.path.dirname(HERE)
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "simulate-cli", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_package(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "simulate-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert "{" not in done.stdout
