"""fogtrust benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload protocol-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.
A run sets its workload up at least ``SETUP_REPEATS`` times and for at least
``SETUP_BUDGET_S`` (``setup_s`` is the median), then measures the timed loop
for ``--seconds``. Every time and rate is scaled to reference speed by a
speed probe timed between requests and between set-ups
(``common.SpeedGauge``), because the host's speed drifts over minutes; the
raw wall-clock figures are kept beside them in the report and the record.
With ``--trace 0`` no wrapper is installed and the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` every layer's
public functions are wrapped in spans (perfbench/tracer.py) and the last
line carries the per-layer metrics. Lines before it are the human report: environment, every
metric under the workload's own name with its unit and sample counts, the
correctness checks, and in a traced run the tracing overhead against the
untraced result for the same workload. Everything is also written to
``.perfbench/`` in the checkout. The exit code is 0 when every check passed,
1 when one failed, and 2 when the package cannot be found.

``--all`` runs each workload untraced then traced, each in its own process,
prints every end-to-end metric by name with its unit, and exits nonzero if
any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# Set-up is repeated at least SETUP_REPEATS times and until it has taken
# SETUP_BUDGET_S in all, so a quick set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPEATS = 20
EXIT_CHECK_FAILED = 1
EXIT_NO_PACKAGE = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_package():
    """Import fogtrust from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fogtrust", "__init__.py")):
        raise ImportError("no fogtrust package under %s" % SRC)
    sys.path.insert(0, SRC)
    import fogtrust
    if not os.path.abspath(fogtrust.__file__).startswith(SRC + os.sep):
        raise ImportError("fogtrust was imported from %s" % fogtrust.__file__)
    return fogtrust


def workload_modules() -> dict:
    import contract_verify
    import protocol_mix
    import simulate_cli
    return {"protocol-mix": protocol_mix,
            "contract-verify": contract_verify,
            "simulate-cli": simulate_cli}


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None):
    """Set up, measure and check one workload.

    Returns the full record and the tracer (None when untraced).
    """
    module = workload_modules()[workload]
    sizes = dict(module.SIZES, **(sizes or {}))
    scratch = os.path.join(OUT, "tmp")

    gauge = common.SpeedGauge()
    setup_times = []
    scaled_setup_times = []
    state = None
    while (len(setup_times) < SETUP_REPEATS
           or (sum(setup_times) < SETUP_BUDGET_S
               and len(setup_times) < SETUP_MAX_REPEATS)):
        if state is not None and hasattr(state, "close"):
            state.close()
        begin = time.perf_counter()
        state = module.setup(seed, sizes, scratch)
        end = time.perf_counter()
        gauge.probe()
        setup_times.append(end - begin)
        scaled_setup_times.append(
            (end - begin) * gauge.scale_at((begin + end) / 2))

    tracer = patches = None
    if trace:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
    try:
        outcome = module.run(state, seconds, tracer)
    finally:
        if patches is not None:
            patches.restore()
        if hasattr(state, "close"):
            state.close()

    own = module.metrics(outcome)
    own["setup_s"] = {"value": common.median(scaled_setup_times), "unit": "s",
                      "samples": len(setup_times),
                      "raw": common.median(setup_times)}
    own["peak_rss_mb"] = {"value": common.peak_rss_mb(), "unit": "MB"}
    own["error_rate"] = {"value": outcome.failed / max(outcome.attempted, 1),
                         "unit": "ratio", "samples": outcome.attempted}
    end_to_end = {name: own[target] for name, target in module.GENERIC.items()}
    end_to_end["setup_s"] = own["setup_s"]
    end_to_end["peak_rss_mb"] = own["peak_rss_mb"]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "environment": common.environment(ROOT),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "checks": outcome.checks,
        "counts": outcome.counts,
        "output_sha256": outcome.output_sha256,
        "setup_times_s": setup_times,
        "loop_s": outcome.elapsed,
        "speed": {"setup": gauge.summary(), "loop": outcome.gauge.summary()},
        "metrics": own,
        "end_to_end": end_to_end,
        "generic_names": module.GENERIC,
    }
    if tracer is not None:
        record["per_layer"] = {name: {"value": value, "unit": unit}
                               for name, (value, unit)
                               in tracing.layer_metrics(tracer).items()}
        record["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
        record["span_file"] = os.path.join(
            ".perfbench", "spans-%s-seed%d.jsonl" % (workload, seed))
    return record, tracer


def tracing_overhead(record: dict) -> dict:
    """Traced against untraced, per end-to-end metric, as a slowdown share."""
    path = result_path(record["workload"], record["seed"], 0)
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        untraced = json.load(handle)["metrics"]
    overhead = {}
    for name, metric in record["metrics"].items():
        if name not in untraced or metric["unit"] == "ratio":
            continue
        value, base = metric["value"], untraced[name]["value"]
        if not base or not value:
            continue
        higher_is_better = metric["unit"] == "1/s"
        overhead[name] = base / value - 1 if higher_is_better else value / base - 1
    return overhead


def report(record: dict):
    """Human-readable lines; the machine-readable line comes after them."""
    env = record["environment"]
    print("workload %s  seed %d  seconds %g  trace %d"
          % (record["workload"], record["seed"], record["seconds"],
             record["trace"]))
    print("environment  python %s (%s)  gmpy2 %s  nproc %d  cryptography %s"
          "  git %s" % (env["python"], env["implementation"],
                        "present" if env["gmpy2"] else "absent", env["nproc"],
                        env["cryptography"], env["git_sha"] or "unknown"))
    print("sizes  %s" % json.dumps(record["sizes"], sort_keys=True))
    loop = record["speed"]["loop"]
    print("speed probe  %d probes, median %.2f ms (%.2f-%.2f), nominal %.2f ms;"
          " times below are at nominal speed, raw wall time after 'raw'"
          % (loop["probes"], loop["median_ms"], loop["min_ms"], loop["max_ms"],
             loop["nominal_ms"]))
    for name, metric in record["metrics"].items():
        extra = ""
        if metric.get("samples") is not None:
            extra = "  (n=%d" % metric["samples"]
            if metric.get("beyond") is not None:
                extra += ", %d beyond" % metric["beyond"]
            extra += ")"
        if metric.get("raw") is not None:
            extra += "  raw %.4f" % metric["raw"]
        print("  %-22s %14.4f %-5s%s" % (name, metric["value"], metric["unit"],
                                          extra))
    print("gated as: %s" % ", ".join(
        "%s=%s" % pair for pair in record["generic_names"].items()))
    for name, ok in record["checks"].items():
        print("check %-28s %s" % (name, "ok" if ok else "FAILED"))
    print("attempted %d  failed %d" % (record["attempted"], record["failed"]))
    for message in record["failures"]:
        print("failure: %s" % message)
    for name, digest in record["output_sha256"].items():
        print("output_sha256 %s %s" % (name, digest))
    if record["trace"]:
        for name, metric in record["per_layer"].items():
            print("  %-44s %14.4f %s" % (name, metric["value"], metric["unit"]))
        print("spans kept %d, dropped %d, written to %s"
              % (record["spans"]["kept"], record["spans"]["dropped"],
                 record["span_file"]))
        if record["overhead"]:
            for name, share in record["overhead"].items():
                print("tracing overhead %-22s %+7.1f%%" % (name, 100 * share))
        else:
            print("tracing overhead: no untraced result for this seed in "
                  ".perfbench/")


def result_line(record: dict, spec: dict) -> dict:
    """The last stdout line, holding exactly the metrics BENCHMARK.json names."""
    section = "per_layer" if record["trace"] else "end_to_end"
    produced = record[section]
    metrics = {}
    for declared in spec[section]:
        metric = produced[declared["name"]]
        if metric["unit"] != declared["unit"]:
            raise ValueError("%s is in %s, BENCHMARK.json says %s"
                             % (declared["name"], metric["unit"], declared["unit"]))
        metrics[declared["name"]] = {"value": metric["value"],
                                     "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main_single(args, spec) -> int:
    record, tracer = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    os.makedirs(OUT, exist_ok=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(ROOT, record["span_file"]))
        record["overhead"] = tracing_overhead(record)
    with open(result_path(args.workload, args.seed, int(args.trace)), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=repr)
    report(record)
    print(json.dumps(result_line(record, spec)))
    return 0 if record["correct"] else EXIT_CHECK_FAILED


def main_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    summary = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = 1
                continue
            with open(result_path(name, args.seed, trace), encoding="utf-8") as f:
                summary.append(json.load(f))
    print("\nsummary (seed %d, %gs per run)" % (args.seed, seconds))
    for record in summary:
        if record["trace"]:
            for metric_name, share in record["overhead"].items():
                print("%-16s %-22s %+13.1f%% tracing overhead"
                      % (record["workload"], metric_name, 100 * share))
            continue
        for metric_name, metric in record["metrics"].items():
            print("%-16s %-22s %14.4f %s" % (record["workload"], metric_name,
                                            metric["value"], metric["unit"]))
        print("%-16s %-22s %s" % (record["workload"], "correct",
                                  record["correct"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        import_package()
    except ImportError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return EXIT_NO_PACKAGE
    if args.all:
        return main_all(args, spec)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return main_single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
