"""Command-line behavior: flags, config files, outputs, exit codes."""

import contextlib
import hashlib
import io
import random
import re
import tempfile
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import cli, errors, keys
from fogtrust.errors import FogTrustError, InvalidConfig
from fogtrust.scheduling import Policy
from fogtrust.simulation import (
    ScenarioConfig,
    TrialMetrics,
    run_state_trial,
    trial_seed,
)


def run_cli(args):
    return cli.main(args)


# -- config parsing --

def test_flat_config_parses_types_and_comments():
    text = """
    # scenario knobs
    policy = weighted
    cluster = 4

    trials = 9
    adaptive = true
    malicious_low = 0.25
    """
    settings = cli.parse_flat_config(text, cli.SIMULATE_SCHEMA)
    assert settings["policy"] is Policy.WEIGHTED
    assert settings["cluster"] == 4
    assert settings["trials"] == 9
    assert settings["adaptive"] is True
    assert settings["malicious_low"] == 0.25


@pytest.mark.parametrize("policy", list(Policy), ids=lambda policy: policy.value)
def test_flat_config_parses_each_policy_name(policy):
    settings = cli.parse_flat_config("policy = %s" % policy.value,
                                     cli.SIMULATE_SCHEMA)
    assert settings["policy"] is policy


def test_flat_config_rejects_unknown_key():
    with pytest.raises(InvalidConfig):
        cli.parse_flat_config("velocity = 9", cli.SIMULATE_SCHEMA)


def test_flat_config_rejects_bad_number():
    with pytest.raises(InvalidConfig):
        cli.parse_flat_config("trials = soon", cli.SIMULATE_SCHEMA)


def test_flat_config_rejects_bad_boolean():
    with pytest.raises(InvalidConfig):
        cli.parse_flat_config("adaptive = maybe", cli.SIMULATE_SCHEMA)


def test_flat_config_rejects_shapeless_line():
    with pytest.raises(InvalidConfig):
        cli.parse_flat_config("just some words", cli.SIMULATE_SCHEMA)


# each family's exit status; the generic 1 is left for FogTrustError itself
FAMILY_EXIT_CODES = {
    errors.InvalidConfig: 3,
    errors.IoError: 4,
    errors.AuthError: 5,
    errors.LedgerError: 6,
    errors.ProtocolError: 7,
    errors.SimulationError: 8,
    errors.CryptoError: 9,
    errors.SchedulingError: 10,
}
ERROR_CLASSES = [error for error in vars(errors).values()
                 if isinstance(error, type) and issubclass(error, FogTrustError)]


def test_exit_codes_are_distinct_per_family():
    codes = [family.exit_code for family in FAMILY_EXIT_CODES]
    assert codes == list(FAMILY_EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert FogTrustError.exit_code == 1
    # a family's status is said once: no class below a family sets its own
    for error in ERROR_CLASSES:
        if error is not FogTrustError and error not in FAMILY_EXIT_CODES:
            assert "exit_code" not in vars(error), error.__name__


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
def test_every_error_exits_with_its_family_code(error, monkeypatch, capsys):
    # every error but FogTrustError itself lies in exactly one family
    codes = [code for family, code in FAMILY_EXIT_CODES.items()
             if issubclass(error, family)]
    assert len(codes) == (0 if error is FogTrustError else 1)

    def fail(*_):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_demo_auth", fail)
    assert run_cli(["demo-auth"]) == (codes + [1])[0]
    assert "error: %s: boom" % error.__name__ in capsys.readouterr().err


def test_readme_exit_codes_are_the_families_codes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme[readme.index("name the error family"):]
    listing = listing[listing.index("(") + 1:listing.index(")")]
    named = [int(code) for code in re.findall(r"\b(\d+) [a-z]", listing)]
    assert 2 in named
    # 2 is argparse's usage exit, not a family's
    assert sorted(code for code in named if code != 2) == sorted(
        FAMILY_EXIT_CODES.values())


# -- keygen --

def test_keygen_writes_distinct_addressed_keys(tmp_path, capsys):
    assert run_cli(["keygen", "--count", "3", "--seed", "5",
                    "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("key-*.txt"))
    assert len(files) == 3
    addresses = set()
    for path in files:
        fields = dict(line.split(" = ") for line in
                      path.read_text().strip().splitlines())
        assert fields["private"].startswith("0x")
        assert fields["public"].startswith("0x")
        addresses.add(fields["address"])
    assert len(addresses) == 3
    assert capsys.readouterr().out.count("wrote ") == 3


def test_keygen_with_seed_is_reproducible(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    run_cli(["keygen", "--seed", "7", "--out", str(first)])
    run_cli(["keygen", "--seed", "7", "--out", str(second)])
    assert (first / "key-00.txt").read_bytes() == (second / "key-00.txt").read_bytes()


def test_keygen_zero_count_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["keygen", "--count", "0"])
    assert excinfo.value.code == 2


def test_keygen_unwritable_output_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run_cli(["keygen", "--out", str(blocker / "sub")])
    assert code == 4
    assert "IoError" in capsys.readouterr().err


def test_readme_config_block_names_every_config_key():
    # one ini block per command, its first line naming the command
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```ini\n")[1:]]
    schemas = {"simulate": cli.SIMULATE_SCHEMA,
               "demo-auth": cli.DEMO_AUTH_SCHEMA}
    named = set()
    for block in blocks:
        command = block.splitlines()[0].lstrip("# ").split()[0]
        schema = schemas.pop(command)
        keys = [line.partition("=")[0].strip() for line in block.splitlines()
                if line.strip() and not line.startswith("#")]
        assert sorted(keys) == sorted(schema)
        assert set(cli.parse_flat_config(block, schema)) == set(schema)
        named.update(keys)
    assert schemas == {}
    assert named == set(cli.SIMULATE_SCHEMA) | set(cli.DEMO_AUTH_SCHEMA)


# stdout of each README ``python`` block, in README order: the fog serves
# the package's digest, and the audit passes at the reputation ceiling
README_PYTHON_OUTPUTS = [
    "ExchangeStatus.PAID %r\nTrue 10\n"
    % hashlib.sha256(b"compute this").digest(),
]


def test_readme_python_blocks_print_their_seeded_output(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0]
              for part in readme.split("```python\n")[1:]]
    assert len(blocks) == len(README_PYTHON_OUTPUTS)
    for block, expected in zip(blocks, README_PYTHON_OUTPUTS):
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out == expected


# -- demo-auth --

def test_demo_auth_establishes_a_session(capsys):
    assert run_cli(["demo-auth", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("session established")
    for step in range(1, 8):
        assert "%d." % step in out


def test_demo_auth_refuses_session_keys_that_disagree(monkeypatch, capsys):
    derive = keys.shared_secret
    derived = []

    def fog_side_off_by_one_bit(secret, peer_public):
        key = derive(secret, peer_public)
        derived.append(key)
        # the device derives first, then the fog node
        return key if len(derived) == 1 else bytes([key[0] ^ 1]) + key[1:]

    monkeypatch.setattr(keys, "shared_secret", fog_side_off_by_one_bit)
    assert run_cli(["demo-auth", "--seed", "11"]) == errors.AuthError.exit_code
    captured = capsys.readouterr()
    assert len(derived) == 2
    assert "session established" not in captured.out
    assert "SessionKeyMismatch" in captured.err


def test_demo_auth_uses_key_files(tmp_path, capsys):
    run_cli(["keygen", "--count", "2", "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    config = tmp_path / "demo.cfg"
    config.write_text("iot_key = %s\nfog_key = %s\n"
                      % (tmp_path / "key-00.txt", tmp_path / "key-01.txt"))
    assert run_cli(["demo-auth", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    key_fields = dict(line.split(" = ") for line in
                      (tmp_path / "key-00.txt").read_text().strip().splitlines())
    assert "iot address  %s" % key_fields["address"] in out


# keys demo-auth does not read, each with a value simulate would accept
UNREAD_BY_DEMO_AUTH = {
    "policy": "bibd", "cluster": "2", "trials": "5", "fog_count": "3",
    "adaptive": "true", "horizon_per_fog": "2", "malicious_low": "0.5",
    "malicious_high": "0.9", "audit_cap": "100", "deposit": "50",
    "deposit_deduction": "9", "reward_step": "3", "penalty_step": "7",
}


@pytest.mark.parametrize("key", sorted(UNREAD_BY_DEMO_AUTH))
def test_demo_auth_rejects_study_keys(key, tmp_path, capsys):
    # keys demo-auth does not read: the study's settings, and the deposit
    # and step parameters, which reach only a stake no output line shows
    config = tmp_path / "demo.cfg"
    config.write_text("%s = %s\n" % (key, UNREAD_BY_DEMO_AUTH[key]))
    code = run_cli(["demo-auth", "--config", str(config), "--seed", "7"])
    assert code == 3
    captured = capsys.readouterr()
    assert "unknown config key %r" % key in captured.err
    assert captured.out == ""


# a second value for each demo-auth key, set on top of "seed = 7"; a key
# file's name is relative to the test's directory
DEMO_AUTH_SECOND_VALUES = {
    "seed": "8", "iot_key": "key-00.txt", "fog_key": "key-01.txt",
    "reputation_initial": "9", "reputation_min": "3",
    "reputation_threshold": "4", "reputation_max": "12",
}


def _demo_auth_output(tmp_path, capsys, lines):
    """Exit code and stdout of demo-auth on a config of ``lines``."""
    config = tmp_path / "demo.cfg"
    config.write_text("".join(line + "\n" for line in lines))
    code = run_cli(["demo-auth", "--config", str(config)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(cli.DEMO_AUTH_SCHEMA))
def test_every_demo_auth_key_changes_its_output(key, tmp_path, capsys):
    run_cli(["keygen", "--count", "2", "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    value = DEMO_AUTH_SECOND_VALUES[key]
    if key.endswith("_key"):
        value = tmp_path / value
    base = ["seed = 7"]
    if key == "reputation_max":
        # a fog shown above the default ceiling of 10 needs a higher one
        base.append("reputation_initial = 12")
    before = _demo_auth_output(tmp_path, capsys, base)
    changed = [line for line in base if not line.startswith(key + " ")]
    after = _demo_auth_output(tmp_path, capsys,
                              changed + ["%s = %s" % (key, value)])
    assert before[0] == (3 if key == "reputation_max" else 0)
    assert after[0] == 0
    assert after != before


@pytest.mark.parametrize("edit", ["address", "public", "junk line"])
def test_demo_auth_rejects_inconsistent_key_file(edit, tmp_path, capsys):
    run_cli(["keygen", "--count", "2", "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    key = tmp_path / "key-00.txt"
    other = dict(line.split(" = ") for line in
                 (tmp_path / "key-01.txt").read_text().strip().splitlines())
    lines = key.read_text().splitlines()
    if edit == "junk line":
        lines.append("not a key line")
    else:
        lines = ["%s = %s" % (edit, other[edit]) if line.startswith(edit)
                 else line for line in lines]
    key.write_text("\n".join(lines) + "\n")
    config = tmp_path / "demo.cfg"
    config.write_text("iot_key = %s\n" % key)
    assert run_cli(["demo-auth", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert "InvalidConfig: key file %s" % key in captured.err
    assert captured.out == ""


def test_demo_auth_rejects_a_key_file_that_sets_a_key_twice(tmp_path, capsys):
    run_cli(["keygen", "--count", "2", "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    privates = [dict(line.split(" = ") for line in
                     (tmp_path / name).read_text().strip().splitlines())
                ["private"] for name in ("key-00.txt", "key-01.txt")]
    key = tmp_path / "twice.txt"
    key.write_text("".join("private = %s\n" % value for value in privates))
    config = tmp_path / "demo.cfg"
    config.write_text("iot_key = %s\n" % key)
    assert run_cli(["demo-auth", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert ("InvalidConfig: key file %s: config key 'private' is set on "
            "lines 1 and 2" % key) in captured.err
    assert captured.out == ""


def test_demo_auth_takes_no_simulate_flags():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["demo-auth", "--trials", "1"])
    assert excinfo.value.code == 2


def test_demo_auth_low_reputation_exits_with_auth_code(tmp_path, capsys):
    config = tmp_path / "low.cfg"
    config.write_text("reputation_initial = 3\nreputation_threshold = 5\n")
    code = run_cli(["demo-auth", "--config", str(config), "--seed", "1"])
    assert code == 5
    assert "ReputationBelowThreshold" in capsys.readouterr().err


def test_demo_auth_missing_key_file_is_an_io_error(tmp_path, capsys):
    config = tmp_path / "demo.cfg"
    config.write_text("iot_key = %s\n" % (tmp_path / "missing.txt"))
    assert run_cli(["demo-auth", "--config", str(config)]) == 4
    assert "IoError" in capsys.readouterr().err


def test_demo_auth_non_hex_key_is_a_crypto_error(tmp_path, capsys):
    key = tmp_path / "key.txt"
    key.write_text("private = 0xzz\n")
    config = tmp_path / "demo.cfg"
    config.write_text("iot_key = %s\n" % key)
    assert run_cli(["demo-auth", "--config", str(config)]) == 9
    assert "InvalidScalar" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "key file"])
def test_non_ascii_file_is_a_config_error(where, tmp_path, capsys):
    config = tmp_path / "demo.cfg"
    if where == "config":
        config.write_bytes("# caf\u00e9\ntrials = 1\n".encode("utf-8"))
    else:
        key = tmp_path / "key.txt"
        key.write_bytes("# caf\u00e9\nprivate = 0x01\n".encode("utf-8"))
        config.write_text("iot_key = %s\n" % key)
    assert run_cli(["demo-auth", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert "InvalidConfig" in captured.err
    assert captured.out == ""


# -- simulate --

SMALL_COST_CFG = """
fog_count = 8
trials = 4
cluster = 2
"""


def test_simulate_cost_writes_trials_summary_and_plot(tmp_path, capsys):
    config = tmp_path / "cost.cfg"
    config.write_text(SMALL_COST_CFG)
    code = run_cli(["simulate", "cost", "--config", str(config),
                    "--policy", "weighted", "--seed", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    trials = (tmp_path / "cost_trials.csv").read_text().splitlines()
    assert trials[0] == "trial,policy,cluster_size,audits"
    assert len(trials) == 1 + 4
    assert all(line.split(",")[1] == "weighted" for line in trials[1:])
    summary = (tmp_path / "cost_summary.csv").read_text().splitlines()
    assert summary[0] == "policy,cluster_size,trials,mean,variance"
    assert len(summary) == 2
    assert summary[1].startswith("weighted,2,4,")
    assert "gnuplot" in (tmp_path / "cost_plot.gp").read_text()
    assert "weighted" in capsys.readouterr().out


def test_simulate_cost_defaults_to_all_policies(tmp_path):
    config = tmp_path / "cost.cfg"
    config.write_text(SMALL_COST_CFG)
    run_cli(["simulate", "cost", "--config", str(config), "--seed", "2",
             "--out", str(tmp_path)])
    summary = (tmp_path / "cost_summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == \
        [policy.value for policy in Policy]
    trials = (tmp_path / "cost_trials.csv").read_text().splitlines()
    assert len(trials) == 1 + 4 * len(Policy)


def test_simulate_cost_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "cost.cfg"
    config.write_text(SMALL_COST_CFG)
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        out.mkdir()
        run_cli(["simulate", "cost", "--config", str(config), "--seed", "9",
                 "--out", str(out)])
        outputs.append((out / "cost_trials.csv").read_bytes()
                       + (out / "cost_summary.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_flags_override_config_values(tmp_path):
    config = tmp_path / "cost.cfg"
    config.write_text(SMALL_COST_CFG)
    run_cli(["simulate", "cost", "--config", str(config), "--trials", "2",
             "--policy", "random", "--seed", "1", "--out", str(tmp_path)])
    trials = (tmp_path / "cost_trials.csv").read_text().splitlines()
    assert len(trials) == 1 + 2


SMALL_STATE_CFG = ("fog_count = 6\n"
                   "trials = 2\ncluster = 2\nhorizon_per_fog = 10\n")


def test_simulate_state_series_live_count_never_increases(tmp_path):
    config = tmp_path / "state.cfg"
    config.write_text(SMALL_STATE_CFG)
    code = run_cli(["simulate", "state", "--config", str(config),
                    "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    series = (tmp_path / "state_series.csv").read_text().splitlines()
    assert series[0] == "step,mean_malicious,mean_reputation,mean_live"
    assert len(series) == 1 + 6 * 10
    live = [float(line.split(",")[3]) for line in series[1:]]
    for earlier, later in zip(live, live[1:]):
        assert later <= earlier
    per_trial = (tmp_path / "state_trials.csv").read_text().splitlines()
    assert per_trial[0] == "trial,final_malicious,final_reputation,live_fogs"
    assert len(per_trial) == 1 + 2
    assert (tmp_path / "state_plot.gp").exists()


def test_simulate_state_series_is_the_pointwise_mean_of_its_trials(tmp_path):
    config = tmp_path / "state.cfg"
    config.write_text(SMALL_STATE_CFG)
    assert run_cli(["simulate", "state", "--config", str(config),
                    "--seed", "5", "--out", str(tmp_path)]) == 0
    # the state study's own defaults: an adaptive population, deposit 10
    study = ScenarioConfig(fog_count=6, trials=2,
                           cluster_size=2, horizon_per_fog=10, adaptive=True,
                           deposit=10, seed=5)
    first, second = (run_state_trial(study, random.Random(trial_seed(5, index)))
                     for index in range(2))
    expected = ["step,mean_malicious,mean_reputation,mean_live"]
    for step in range(6 * 10):
        means = [(a[step] + b[step]) / 2 for a, b in (
            (first.mean_malicious, second.mean_malicious),
            (first.mean_reputation, second.mean_reputation),
            (first.live_fogs, second.live_fogs))]
        expected.append("%d,%s" % (step + 1, ",".join(map(cli._fmt, means))))
    series = (tmp_path / "state_series.csv").read_text().splitlines()
    assert series == expected


def _zero_started_state_outputs(metrics, trials):
    """state_series.csv and stdout as sums started at 0.0, each mean
    divided out and formatted per value, would write them."""
    horizon = len(metrics[0].live_fogs)
    sums = [[0.0] * horizon for _ in range(3)]
    for trial in metrics:
        sums = [list(map(add, total, values)) for total, values in zip(
            sums, (trial.mean_malicious, trial.mean_reputation,
                   trial.live_fogs))]
    malicious, reputation, live = ([total / trials for total in column]
                                   for column in sums)
    series = "step,mean_malicious,mean_reputation,mean_live\n" + "".join(
        "%d,%.6f,%.6f,%.6f\n" % row
        for row in zip(range(1, horizon + 1), malicious, reputation, live))
    stdout = ("state scenario: %d trials, %d fog nodes, horizon %d steps\n"
              "mean malicious rate  start %.6f  end %.6f\n"
              "mean live fog nodes  start %.6f  end %.6f\n"
              % (trials, ScenarioConfig().fog_count, horizon, malicious[0],
                 malicious[-1], live[0], live[-1]))
    return series, stdout


def _check_state_outputs(metrics):
    """Run ``simulate state`` over crafted trials; its series file and
    stdout must equal the zero-started reference, and no trial's lists may
    change."""
    trials = len(metrics)
    before = [[list(map(repr, values)) for values in vars(trial).values()]
              for trial in metrics]

    def crafted(config):
        assert config.trials == trials
        return iter(metrics)

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() \
            as patch, contextlib.redirect_stdout(io.StringIO()) as stdout:
        patch.setattr(cli, "run_state_scenario", crafted)
        assert run_cli(["simulate", "state", "--trials", str(trials),
                        "--out", out]) == 0
        series = (Path(out) / "state_series.csv").read_text()
    assert (series, stdout.getvalue()) \
        == _zero_started_state_outputs(metrics, trials)
    assert [[list(map(repr, values)) for values in vars(trial).values()]
            for trial in metrics] == before


# -0.0 and -1e-17 print "-0.000000" alone but "0.000000" in a sum from 0.0,
# and an int prints as the float it sums to
SPECIAL_VALUES = [0.0, -0.0, -1e-17, 1e-17, 0, 1, 7, 0.25, 5e-7, 2.5e-7]


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_state_series_formats_as_zero_started_sums(trials):
    runs = [value for value in SPECIAL_VALUES for _ in range(4)]
    metrics = [TrialMetrics(runs[index:] + runs[:index],
                            [-value for value in runs],
                            [int(value * 4) for value in runs])
               for index in range(trials)]
    _check_state_outputs(metrics)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), trials=st.integers(1, 3), horizon=st.integers(1, 40))
def test_state_series_formats_any_trials_as_zero_started_sums(
        data, trials, horizon):
    values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                       st.integers(-1000, 1000),
                       st.floats(-1e6, 1e6, allow_nan=False))

    def series():
        runs = data.draw(st.lists(st.tuples(values, st.integers(1, horizon)),
                                  min_size=1, max_size=6))
        expanded = [value for value, length in runs for _ in range(length)]
        return (expanded * horizon)[:horizon]

    _check_state_outputs([TrialMetrics(series(), series(), series())
                          for _ in range(trials)])


# sha256 of every file and of stdout at seed 7, keyed by test id; a change
# that alters an RNG stream on purpose updates these and says so
PINNED_SIMULATE_DIGESTS = {
    "cost": (("cost", "--trials", "3", "--cluster", "5"), {
        "cost_trials.csv": "8dfb4bbcec275a0e69d7811efdafb5e8f6d5cc50df642ced168f347cba98a07f",
        "cost_summary.csv": "718201245a089b86c9e56a19c48227c0381c0848ce17e66008b64e6546a444ef",
        "cost_plot.gp": "1bb43888d8cbfeedaa93d660c3d5f42504c9c9fa1676fcfbd6b2cf574276ba01",
        "stdout": "d864d17821a43fc549693a50f5b1b7dece91d95d95844a8d5e10cbb8d31e731f",
    }),
    "state": (("state", "--trials", "2"), {
        "state_trials.csv": "214e0869386bcbbb201fe28247a289eb2f998d1d22d424001915bb48ee438762",
        "state_series.csv": "be963b764a9dc63dd77c3278a249ddfad27a95b4b55440eaf1844de06a3f75b4",
        "state_plot.gp": "d83cd420629200eef06c1c6efce4deece66e036f23e8d3542af281fad3609f76",
        "stdout": "861bebeb49ef034fe17b5414b9e0a1bf1033781942139e4926539afe2f67afb4",
    }),
    "state-random": (("state", "--trials", "2", "--policy", "random"), {
        "state_trials.csv": "a33adace0352acc85858dc79edcf18aa4878bc97135f9fc7e4c5f274102be5fb",
        "state_series.csv": "422f41bbd6bcdb4e0ae0d0ba311628e88917e30c56c22ad2037a1fba8227d5a7",
        "state_plot.gp": "d83cd420629200eef06c1c6efce4deece66e036f23e8d3542af281fad3609f76",
        "stdout": "6da8bb2eee51679b3eceba6e0d848240086a6331921b064aab6bc3fbe32fbe4b",
    }),
    "state-bibd": (("state", "--trials", "2", "--policy", "bibd"), {
        "state_trials.csv": "447ecd8966d4d0e5a981a71b665376c59a836f8cd60f2373ac40c281035e07b2",
        "state_series.csv": "01c700f84fd3981ebbc10a2ce3f3003102969e700e9e12fccaafb75828d97001",
        "state_plot.gp": "d83cd420629200eef06c1c6efce4deece66e036f23e8d3542af281fad3609f76",
        "stdout": "a26fa48fc2ae5bfb4d2d03bcb53e74c01c3cd9fc76f4bc9ab43b30cb9f54fb51",
    }),
    "cost-cluster25": (("cost", "--trials", "2", "--cluster", "25"), {
        "cost_trials.csv": "9d45840a48d8650ec575271818556d42530c54ae9c39e5e0336b6cce476e5efa",
        "cost_summary.csv": "bd8abb1b308c7defc8fb8815faa15363a5fd0f8b87e26e4e1100ccd1ffc92795",
        "cost_plot.gp": "1bb43888d8cbfeedaa93d660c3d5f42504c9c9fa1676fcfbd6b2cf574276ba01",
        "stdout": "e7694e946a91f078758b76b591caed4fe51132ff9755f6b94437e1f9005e4418",
    }),
    # the one-trial shapes the simulate-cli benchmark runs
    "state-trials1": (("state", "--trials", "1"), {
        "state_trials.csv": "c3495a2de0f5cae3ddea3a92005292718331fa3b281461023bbc8d0055fb68a6",
        "state_series.csv": "45e1bc38b0eac0ba37fc6de456f8c1075e937715739775021dcee6836c6fb0bf",
        "state_plot.gp": "d83cd420629200eef06c1c6efce4deece66e036f23e8d3542af281fad3609f76",
        "stdout": "73c04c1f409abe2a4ff44c308029320a572ff270bc95e5217fd25be3d8bcf686",
    }),
    "cost-cluster25-trials1": (("cost", "--trials", "1", "--cluster", "25"), {
        "cost_trials.csv": "334a7cbd90525d76192ab646b03be183efc7e1da0f1d4a37851359a84657ddeb",
        "cost_summary.csv": "8aeb72d4aa55d4841de9194aee1489370de73e1d75ed0cd44eda343cff08a98d",
        "cost_plot.gp": "1bb43888d8cbfeedaa93d660c3d5f42504c9c9fa1676fcfbd6b2cf574276ba01",
        "stdout": "25770e749162f7218fba7f04554253e98f169e8b72d4905ea17db4118d7ac656",
    }),
}


@pytest.mark.parametrize("pin", list(PINNED_SIMULATE_DIGESTS))
def test_simulate_outputs_match_pinned_digests(pin, tmp_path, capsys):
    args, expected = PINNED_SIMULATE_DIGESTS[pin]
    assert run_cli(["simulate", *args, "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    digests["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    assert digests == expected


def test_simulate_rejects_zero_cluster(tmp_path, capsys):
    code = run_cli(["simulate", "cost", "--cluster", "0", "--trials", "1",
                    "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "InvalidConfig" in captured.err
    assert "mean" not in captured.out  # fails before any table output


@pytest.mark.parametrize("key", ["fee_rate", "audit_payment",
                                 "oracle_bounty", "iot_funds", "iot_key",
                                 "fog_key", "reputation_threshold",
                                 "iot_count", "ring_size"])
def test_simulate_rejects_contract_keys_no_study_reads(key, tmp_path, capsys):
    # the studies make no service payment and no handshake, and they
    # register one fixed two-device ring, so none of these could change
    # an output
    config = tmp_path / "payment.cfg"
    config.write_text("%s = 0\n" % key)
    code = run_cli(["simulate", "cost", "--config", str(config),
                    "--trials", "1", "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "unknown config key %r" % key in captured.err
    assert captured.out == ""  # fails before any table output


def test_simulate_rejects_a_key_set_twice(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text("fog_count = 4\ntrials = 1\ntrials = 2\n")
    code = run_cli(["simulate", "cost", "--config", str(config),
                    "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "config key 'trials' is set on lines 2 and 3" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


# a second value for each simulate key, one that changes the output of
# TINY_CFG under each scenario that reads the key.  TINY_CFG's reputation
# floor of 7 expels a fog before its deposit runs out, so the reputation
# parameters reach the cost counts; a deposit of 2, or a deduction of 5
# from the state study's deposit of 10, expels a fog before the floor does
SECOND_VALUES = {
    "policy": "random", "cluster": "3", "trials": "3", "seed": "5",
    "fog_count": "5", "adaptive": "false", "horizon_per_fog": "7",
    "malicious_low": "0.1", "malicious_high": "0.6", "audit_cap": "1",
    "deposit": "2", "deposit_deduction": "5", "reward_step": "2",
    "penalty_step": "3", "reputation_initial": "8", "reputation_min": "3",
    "reputation_max": "12",
}
TINY_CFG = ("fog_count = 4\ntrials = 2\ncluster = 2\nhorizon_per_fog = 6\n"
            "reputation_min = 7\n")
# the keys a scenario does not read; both accept them, so that one config
# file serves both scenarios (as in acceptance 8)
UNREAD_KEYS = {"cost": ("adaptive", "horizon_per_fog"), "state": ("audit_cap",)}


def _simulate_output(tmp_path, capsys, scenario, key=None):
    """Exit code, stdout and --out files of one scenario on TINY_CFG.

    With ``key``, the config sets that key to its second value instead.
    """
    name = "%s-%s" % (scenario, key or "base")
    lines = [line for line in TINY_CFG.splitlines()
             if line.partition("=")[0].strip() != key]
    if key is not None:
        lines.append("%s = %s" % (key, SECOND_VALUES[key]))
    config = tmp_path / ("%s.cfg" % name)
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / name
    out.mkdir()
    # no --seed flag, which would override a seed set in the config
    code = run_cli(["simulate", scenario, "--config", str(config),
                    "--out", str(out)])
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("scenario, key", [
    (scenario, key) for scenario in UNREAD_KEYS
    for key in sorted(cli.SIMULATE_SCHEMA) if key not in UNREAD_KEYS[scenario]
])
def test_every_simulate_key_changes_an_output(scenario, key, tmp_path, capsys):
    base = _simulate_output(tmp_path, capsys, scenario)
    assert base[0] == 0
    assert _simulate_output(tmp_path, capsys, scenario, key) != base


@pytest.mark.parametrize("scenario, key", [
    (scenario, key) for scenario, keys in UNREAD_KEYS.items() for key in keys
])
def test_a_key_the_scenario_does_not_read_changes_no_byte(
        scenario, key, tmp_path, capsys):
    base = _simulate_output(tmp_path, capsys, scenario)
    assert base[0] == 0
    assert _simulate_output(tmp_path, capsys, scenario, key) == base


def test_simulate_rejects_unknown_policy_in_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("policy = round-robin\ntrials = 1\n")
    code = run_cli(["simulate", "cost", "--config", str(config),
                    "--out", str(tmp_path)])
    assert code == 3
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, runner", [
    ("cost", "run_cost_scenario"),
    ("state", "run_state_scenario"),
])
def test_simulate_missing_out_dir_fails_before_any_trial(
        scenario, runner, tmp_path, capsys, monkeypatch):
    def no_trials(config):
        raise AssertionError("a trial ran before --out was checked")
    monkeypatch.setattr(cli, runner, no_trials)
    code = run_cli(["simulate", scenario, "--trials", "1",
                    "--out", str(tmp_path / "missing")])
    assert code == 4
    captured = capsys.readouterr()
    assert "IoError" in captured.err
    assert captured.out == ""  # no table row, no statistics line
    assert not (tmp_path / "missing").exists()


def test_simulate_unknown_scenario_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["simulate", "drift"])
    assert excinfo.value.code == 2


def test_consecutive_runs_share_no_state_through_the_parser(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("fog_count = 4\ncluster = 2\n")

    def policies(flags):
        assert run_cli(["simulate", "cost", *flags, "--config", str(config),
                        "--trials", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "cost_summary.csv").read_text().splitlines()
        return [line.split(",")[0] for line in lines[1:]]

    assert policies(["--policy", "random"]) == ["random"]
    assert policies([]) == [policy.value for policy in Policy]
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["keygen", "--count", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert run_cli(["keygen", "--seed", "1", "--out", str(tmp_path)]) == 0
