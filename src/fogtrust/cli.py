"""Command-line front end: key tooling, an authentication demo, scenarios.

Output is deterministic: every number is formatted with fixed precision,
independent of locale, and a fixed seed reproduces byte-identical files.
Configs are flat ``key = value`` text; each command accepts only the keys
that can change its output, command-line flags override file values, and
defaults follow the evaluation setup shipped with the package.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import fields
from operator import add

from .errors import (
    FogTrustError,
    InvalidConfig,
    InvalidParams,
    IoError,
    SessionKeyMismatch,
)
from .keys import KeyPair, derive_public, public_to_hex, secret_from_hex, secret_to_hex
from .ledger import Ledger, Params
from .protocol import Channel, FogAgent, IoTAgent, mutual_authenticate
from .scheduling import Policy
from .simulation import (
    DEVICE_FUNDS,
    ScenarioConfig,
    aggregate,
    run_cost_scenario,
    run_state_scenario,
)

EXIT_OK = 0


# -- configuration --

# config key -> the ScenarioConfig field it sets; each value parses as the
# type of the field's default
_FIELDS = {("cluster" if f.name == "cluster_size" else f.name): f
           for f in fields(ScenarioConfig)}
SIMULATE_SCHEMA = {key: type(f.default) for key, f in _FIELDS.items()}
# the handshake demo reads the seed, the fog's reputation band (its floor
# is the default threshold), two key files and the device's threshold
_REPUTATION_BAND = ("reputation_initial", "reputation_min", "reputation_max")
DEMO_AUTH_SCHEMA = dict(
    {key: SIMULATE_SCHEMA[key] for key in ("seed",) + _REPUTATION_BAND},
    iot_key=str, fog_key=str, reputation_threshold=int)
KEY_FILE_SCHEMA = {"private": str, "public": str, "address": str}


def _parse_value(key: str, text: str, kind: type):
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise InvalidConfig("%s needs true or false, got %r" % (key, text))
    try:
        return kind(text)  # int, float, str or Policy
    except ValueError as exc:
        raise InvalidConfig("%s: %s" % (key, exc))


def parse_flat_config(text: str, schema: dict) -> dict:
    """Flat ``key = value`` lines; ``#`` comments and blank lines ignored.

    ``schema`` maps each accepted key to the type its value parses as."""
    settings = {}
    set_on = {}  # key -> the line that set it
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig("line %d is not key = value: %r" % (number, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise InvalidConfig("unknown config key %r on line %d" % (key, number))
        if key in set_on:
            raise InvalidConfig("config key %r is set on lines %d and %d"
                                % (key, set_on[key], number))
        set_on[key] = number
        settings[key] = _parse_value(key, value.strip(), schema[key])
    return settings


def _read_ascii(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise IoError("cannot read %s %s: %s" % (what, path, exc))
    except UnicodeDecodeError as exc:
        raise InvalidConfig("%s %s is not ASCII: %s" % (what, path, exc))


def _scenario(settings: dict) -> ScenarioConfig:
    return ScenarioConfig(**{_FIELDS[key].name: value
                             for key, value in settings.items()
                             if key in _FIELDS})


def _write_files(out_dir: str, files) -> list:
    """Write each (name, text) pair into out_dir; return the paths in order."""
    paths = []
    for name, text in files:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="ascii", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise IoError("cannot write %s: %s" % (path, exc))
        paths.append(path)
    return paths


# -- keygen --

KEY_FILE_PATTERN = "key-%02d.txt"


def cmd_keygen(count: int, out_dir: str, rng) -> list:
    """Write ``count`` fresh key pair files and return their paths."""
    pairs = [KeyPair.generate(rng) for _ in range(count)]
    return _write_files(out_dir, [
        (KEY_FILE_PATTERN % index,
         "private = %s\npublic = %s\naddress = %s\n"
         % (secret_to_hex(pair.secret), public_to_hex(pair.public),
            pair.address))
        for index, pair in enumerate(pairs)])


def _load_keypair(path: str) -> KeyPair:
    text = _read_ascii(path, "key file")
    try:
        entries = parse_flat_config(text, KEY_FILE_SCHEMA)
    except InvalidConfig as exc:
        raise InvalidConfig("key file %s: %s" % (path, exc)) from None
    if "private" not in entries:
        raise InvalidConfig("key file %s has no private entry" % path)
    secret = secret_from_hex(entries["private"])
    pair = KeyPair(secret=secret, public=derive_public(secret))
    derived = {"public": public_to_hex(pair.public), "address": pair.address}
    for name, value in derived.items():
        if entries.get(name, value).lower() != value:
            raise InvalidConfig("key file %s: %s does not match the private key"
                                % (path, name))
    return pair


# -- demo-auth --

def cmd_demo_auth(settings: dict) -> None:
    """Register two parties on a fresh ledger and walk the handshake.

    The fog stakes the default deposit, which no output line shows."""
    rng = random.Random(settings.get("seed", 0))

    if "iot_key" in settings:
        iot_pair = _load_keypair(settings["iot_key"])
    else:
        iot_pair = KeyPair.generate(rng)
    if "fog_key" in settings:
        fog_pair = _load_keypair(settings["fog_key"])
    else:
        fog_pair = KeyPair.generate(rng)

    try:
        params = Params(**{key: settings[key] for key in _REPUTATION_BAND
                           if key in settings})
    except InvalidParams as exc:
        raise InvalidConfig(str(exc))
    threshold = settings.get("reputation_threshold", params.reputation_min)
    ledger = Ledger(params)
    iot = IoTAgent(iot_pair, reputation_threshold=threshold, rng=rng)
    fog = FogAgent(fog_pair, rng=rng)

    print("iot address  %s" % iot_pair.address)
    print("fog address  %s" % fog_pair.address)
    iot.register(ledger, funds=DEVICE_FUNDS)
    fog.register(ledger, stake=params.deposit_requirement)
    print("registered both parties on a fresh ledger")

    channel = Channel()
    session = mutual_authenticate(iot, fog, ledger, channel)

    frames = channel.framing_summary()
    print("1. iot -> fog  identity proof (%s, %d bytes)"
          % (frames[0][1], frames[0][2]))
    print("2. fog         recovered device address, registration confirmed")
    print("3. fog -> iot  identity proof (%s, %d bytes)"
          % (frames[1][1], frames[1][2]))
    print("4. iot         verified fog key, registration confirmed")
    print("5. iot         fog reputation %d meets threshold %d"
          % (ledger.fog_table[fog_pair.address].reputation, threshold))
    print("6. iot         session key derived")
    print("7. fog         session key derived")
    # a raise, not an assert: ``python -O`` strips asserts, and the line
    # below must never print over keys that disagree
    if session.symmetric_key != fog.sessions[iot_pair.address]:
        raise SessionKeyMismatch("the device and the fog node derived "
                                 "different session keys")
    print("session established")


# -- simulate --

def _fmt(value: float) -> str:
    return "%.6f" % value


def cmd_simulate(scenario: str, settings: dict, out_dir: str) -> list:
    """Run all trials for one scenario and write CSVs plus a plot script."""
    if scenario not in ("cost", "state"):
        raise InvalidConfig("unknown scenario %r (choose cost or state)"
                            % scenario)
    # the files are written after every trial has run, so a directory that
    # cannot take them must fail the command before the first trial
    if not os.path.isdir(out_dir):
        raise IoError("output directory %s does not exist" % out_dir)
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise IoError("output directory %s is not writable" % out_dir)
    study = _simulate_cost if scenario == "cost" else _simulate_state
    return _write_files(out_dir, study(settings))


def _simulate_cost(settings: dict) -> list:
    """Run the cost study; return its (file name, text) pairs."""
    policies = [settings["policy"]] if "policy" in settings else list(Policy)
    configs = [(policy, _scenario(dict(settings, policy=policy)))
               for policy in policies]

    trial_lines = ["trial,policy,cluster_size,audits"]
    summary_lines = ["policy,cluster_size,trials,mean,variance"]
    print("policy      cluster  trials  mean          variance")
    for policy, config in configs:
        costs = run_cost_scenario(config)
        for index, cost in enumerate(costs):
            trial_lines.append("%d,%s,%d,%d"
                               % (index, policy.value, config.cluster_size, cost))
        summary = aggregate(costs)
        summary_lines.append("%s,%d,%d,%s,%s"
                             % (policy.value, config.cluster_size, summary.count,
                                _fmt(summary.mean), _fmt(summary.variance)))
        print("%-10s  %7d  %6d  %12s  %s"
              % (policy.value, config.cluster_size, summary.count,
                 _fmt(summary.mean), _fmt(summary.variance)))

    return [("cost_trials.csv", "\n".join(trial_lines) + "\n"),
            ("cost_summary.csv", "\n".join(summary_lines) + "\n"),
            ("cost_plot.gp", COST_PLOT_SCRIPT)]


def _simulate_state(settings: dict) -> list:
    """Run the state study; return its (file name, text) pairs."""
    # the adaptive-population study is this scenario's whole point, and it
    # needs a deposit that survives the learning phase
    config = _scenario({"adaptive": True, "deposit": 10, **settings})
    trials = config.trials

    trial_lines = ["trial,final_malicious,final_reputation,live_fogs"]
    # per-step sums in trial order: the first trial's series, then each
    # later trial added to new lists; every trial has the same horizon
    sums = None
    for index, metrics in enumerate(run_state_scenario(config)):
        trial_lines.append("%d,%s,%s,%d"
                           % (index, _fmt(metrics.mean_malicious[-1]),
                              _fmt(metrics.mean_reputation[-1]),
                              metrics.live_fogs[-1]))
        series = (metrics.mean_malicious, metrics.mean_reputation,
                  metrics.live_fogs)
        sums = series if sums is None else [
            list(map(add, total, values))
            for total, values in zip(sums, series)]
    # each distinct mean formatted once; 0.0 + keeps the bytes of -0.0, ints
    malicious, reputation, live = (
        list(map({total: "%.6f" % ((0.0 + total) / trials)
                  for total in set(column)}.__getitem__, column))
        for column in sums)

    series_lines = ["step,mean_malicious,mean_reputation,mean_live"]
    series_lines += map(",".join, zip(map(str, range(1, len(live) + 1)),
                                      malicious, reputation, live))

    print("state scenario: %d trials, %d fog nodes, horizon %d steps"
          % (trials, config.fog_count, len(live)))
    print("mean malicious rate  start %s  end %s"
          % (malicious[0], malicious[-1]))
    print("mean live fog nodes  start %s  end %s" % (live[0], live[-1]))

    return [("state_trials.csv", "\n".join(trial_lines) + "\n"),
            ("state_series.csv", "\n".join(series_lines) + "\n"),
            ("state_plot.gp", STATE_PLOT_SCRIPT)]


COST_PLOT_SCRIPT = """\
# Audit-cost comparison across scheduling policies.
# Run with: gnuplot cost_plot.gp
set datafile separator ","
set terminal svg size 640,480
set output "cost_summary.svg"
set style data histogram
set style histogram errorbars gap 2 lw 1
set style fill solid 0.6
set ylabel "audits until every fog node is expelled"
set xlabel "scheduling policy"
set yrange [0:*]
plot "cost_summary.csv" skip 1 using 4:(sqrt($5)):xtic(1) title "mean, whisker = sd"
"""

STATE_PLOT_SCRIPT = """\
# System health over audit steps while fog nodes adapt.
# Run with: gnuplot state_plot.gp
set datafile separator ","
set terminal svg size 640,480
set output "state_series.svg"
set xlabel "audit step"
set ylabel "mean malicious rate / mean reputation"
set y2label "live fog nodes"
set y2tics
set key outside bottom
plot "state_series.csv" skip 1 using 1:2 with lines title "mean malicious rate", \\
     "state_series.csv" skip 1 using 1:3 with lines title "mean reputation", \\
     "state_series.csv" skip 1 using 1:4 axes x1y2 with lines title "live fog nodes"
"""


# -- argument parsing --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogtrust",
        description="fog-node trust toolkit: keys, handshake demo, audit scenarios")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    def common(sub):
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--seed", type=int, help="master RNG seed")

    keygen = commands.add_parser("keygen", help="generate key pair files")
    keygen.add_argument("--count", type=int, default=1)
    keygen.add_argument("--seed", type=int, help="deterministic key material")
    keygen.add_argument("--out", default=".", help="output directory")

    demo = commands.add_parser("demo-auth", help="run the mutual handshake once")
    common(demo)

    simulate = commands.add_parser("simulate", help="run Monte-Carlo scenarios")
    simulate.add_argument("scenario", choices=["cost", "state"])
    common(simulate)
    simulate.add_argument("--out", default=".", help="output directory")
    simulate.add_argument("--policy", choices=[p.value for p in Policy])
    simulate.add_argument("--cluster", type=int, help="audit cluster size")
    simulate.add_argument("--trials", type=int, help="number of trials")
    return parser


# built once per process: parsing reads the parser and never changes it
_PARSER = build_parser()


def _settings(args: argparse.Namespace, schema: dict) -> dict:
    """The --config file's settings under ``schema``; flags override them."""
    settings = {}
    if args.config:
        settings = parse_flat_config(_read_ascii(args.config, "config"), schema)
    for flag in ("seed", "cluster", "trials", "policy"):
        value = getattr(args, flag, None)
        if value is not None:
            settings[flag] = Policy(value) if flag == "policy" else value
    return settings


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.subcommand == "keygen":
            if args.count < 1:
                _PARSER.error("--count must be at least 1")
            rng = random.Random(args.seed) if args.seed is not None else None
            for path in cmd_keygen(args.count, args.out, rng):
                print("wrote %s" % path)
        elif args.subcommand == "demo-auth":
            cmd_demo_auth(_settings(args, DEMO_AUTH_SCHEMA))
        else:
            cmd_simulate(args.scenario, _settings(args, SIMULATE_SCHEMA),
                         args.out)
    except FogTrustError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
