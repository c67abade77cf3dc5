"""Command-line interface: flags, config files, exit codes."""

import importlib.metadata as md
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otpush import cli, convex_analysis
from otpush.experiments import BoundViolationError, ExperimentReport


def test_example_12_exits_zero(capsys):
    assert cli.main(["example", "--id", "1.2"]) == 0
    out = capsys.readouterr().out
    assert "example-1.2: " in out and "passed=True" in out


@pytest.mark.parametrize("flags", [["--grid", "7"], ["--grid", "9", "--p", "2"], []])
def test_example_13_coarse_grid_exits_zero(capsys, flags):
    # the grid cross-check is held to bounds from the cell width, so a
    # coarse grid is a passing run, not a failed scenario (exit 2)
    assert cli.main(["example", "--id", "1.3"] + flags) == 0
    assert "example-1.3: 2 rows, passed=True" in capsys.readouterr().out


def test_unknown_example_id_exits_one(capsys):
    assert cli.main(["example", "--id", "7.7"]) == 1
    assert "unknown example id" in capsys.readouterr().err


def test_bad_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 1


def test_rate_fit_narrow_grid_exits_one(capsys):
    code = cli.main(["rate-fit", "--eps-min", "0.01", "--eps-max", "0.02",
                     "--eps-count", "6"])
    assert code == 1
    assert "otpush: error" in capsys.readouterr().err


def test_rate_fit_invalid_exponent_pair_exits_one(capsys):
    assert cli.main(["rate-fit", "--p", "3", "--q", "2"]) == 1


def test_partial_eps_flags_exit_one(capsys):
    assert cli.main(["rate-fit", "--eps-min", "0.01"]) == 1


def test_rate_fit_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "rate"
    code = cli.main(["rate-fit", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "slope=" in captured
    text = (out / "rate.csv").read_text()
    assert text.startswith("# scenario=rate\n")
    assert "# slope=" in text


def test_config_file_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"id": "1.3", "eps": [0.1, 0.01]}))
    out = tmp_path / "res"
    code = cli.main(["example", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "example-1.3.csv").exists()


def test_config_flag_precedence(tmp_path, capsys):
    # a flag overrides the same key from the config file: with --seed 9 the
    # run must reproduce a plain --seed 9 run byte for byte
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1}))
    assert cli.main(["demo", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["demo", "--seed", "9", "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["demo", "--seed", "1", "--out", str(tmp_path / "c")]) == 0
    a = (tmp_path / "a" / "demo.csv").read_bytes()
    b = (tmp_path / "b" / "demo.csv").read_bytes()
    c = (tmp_path / "c" / "demo.csv").read_bytes()
    assert a == b
    assert a != c


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epz": [0.1]}))
    assert cli.main(["demo", "--config", str(cfg_path)]) == 1
    assert "otpush: error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert cli.main(["demo", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("command, flag, doc", [
    ("example", ["--seed", "3"], {"count_1d": 5}),
    ("rate-fit", ["--grid", "9"], {"targets": ["a.json", "b.json"]}),
    ("stability-audit", ["--target", "a.json"], {"id": "1.2"}),
    ("singularity", ["--grid", "9"], {"p": 3.0}),
    ("figure1", ["--seed", "3"], {"eps": [0.1]}),
    ("demo", ["--q", "3"], {"id": "1.2"}),
    ("example", ["--id", "1.2", "--r", "9", "--grid", "7", "--eps-min", "0.1",
                 "--eps-max", "0.2", "--eps-count", "2"],
     {"id": "1.2", "r": 9.0, "grid": 7, "eps": [0.1, 0.2]}),
    ("example", ["--id", "1.4", "--grid", "7"], {"id": "1.4", "grid": 7}),
])
def test_unread_setting_exits_one(tmp_path, capsys, command, flag, doc):
    # each was accepted and ignored: the run exited 0 with the default output
    family = doc.get("id") if command == "example" else None
    if family:  # fields that example reads, but not in this family
        assert cli.main([command] + flag) == 1
        flag_error = config_error = (
            f"example {family} does not read {sorted(set(doc) - {'id'})}")
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main([command] + flag)
        assert exc.value.code == 1
        (key,) = doc
        flag_error = f"unrecognized arguments: {' '.join(flag)}"
        config_error = f"{command} does not read config keys ['{key}']"
    assert flag_error in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg_path)]) == 1
    assert f"otpush: error: {config_error}" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("rate-fit", {"eps": 0.1}),
    ("rate-fit", {"eps": [0.1, "0.2"]}),
    ("rate-fit", {"q": "3"}),
    ("demo", {"grid": 2.5}),
    ("stability-audit", {"seed": "x"}),
    ("stability-audit", {"count_1d": True}),
    ("figure1", {"targets": "ab"}),
    ("rate-fit", {"out": 5}),
])
def test_config_value_of_wrong_type_exits_one(tmp_path, capsys, command, doc):
    # each was a traceback, a silent coercion or, for the string, the two
    # target files "a" and "b"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg_path)]) == 1
    (name,) = doc
    assert f"otpush: error: {name} must be " in capsys.readouterr().err


def test_failing_report_exits_two(monkeypatch, capsys):
    def fake_demo(cfg):
        return ExperimentReport(scenario="demo", columns=("a",),
                                rows=np.array([[1.0]]),
                                failures=("synthetic failure",))
    monkeypatch.setattr(cli, "run_demo", fake_demo)
    assert cli.main(["demo"]) == 2
    assert "synthetic failure" in capsys.readouterr().err


def test_bound_violation_exits_two(monkeypatch, capsys):
    def fake_audit(cfg):
        raise BoundViolationError("estimate exceeded the bound",
                                  {"seed": 3, "w_out": 2.0})
    monkeypatch.setattr(cli, "audit_stability_bound", fake_audit)
    assert cli.main(["stability-audit"]) == 2
    assert "bound violation" in capsys.readouterr().err


def test_covering_count_above_bound_is_a_reported_failure(tmp_path, monkeypatch, capsys):
    # the suite judges the bound: a count above it is a failure row, not an
    # exception out of the report
    bound = convex_analysis.count_bound
    monkeypatch.setattr(convex_analysis, "count_bound",
                        lambda *args: 1e-4 * bound(*args))
    assert cli.main(["singularity", "--out", str(tmp_path)]) == 2
    assert "failure: covering count above bound" in capsys.readouterr().err


def test_figure1_requires_zero_or_two_targets(tmp_path, capsys):
    assert cli.main(["figure1", "--target", "only-one.json",
                     "--out", str(tmp_path)]) == 1


def test_figure1_grid_too_small_for_its_targets_exits_one(tmp_path, capsys):
    # grid 8 has 64 cells: 49 of the first built-in target's 113 atoms got
    # weight 0 and were dropped, and the run passed
    assert cli.main(["figure1", "--grid", "8", "--out", str(tmp_path)]) == 1
    assert ("otpush: error: figure target of 113 atoms needs at least 113 grid "
            "cells, got 64") in capsys.readouterr().err


def test_nan_exponent_is_a_usage_error(capsys):
    # a NaN p got past ``p < 2`` and failed the Dirac-split check (exit 2)
    assert cli.main(["example", "--id", "1.2", "--p", "nan"]) == 1
    assert "otpush: error: exponent p must be finite" in capsys.readouterr().err


_BOX = {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def _figure1_with_target(tmp_path, target: dict):
    """Run ``otpush figure1`` in a fresh interpreter, as an installed script
    is run, with ``target`` as the second target file."""
    good = {"kind": "discrete", "domain": _BOX, "points": [[0.3, 0.3], [0.7, 0.7]],
            "weights": [0.5, 0.5]}
    paths = [tmp_path / "good.json", tmp_path / "bad.json"]
    for path, doc in zip(paths, (good, target)):
        path.write_text(json.dumps(doc))  # writes NaN as the bare token NaN
    argv = ["figure1", "--grid", "16", "--out", str(tmp_path / "out")]
    for path in paths:
        argv += ["--target", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "otpush.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("target, message", [
    ({"kind": "discrete", "domain": _BOX, "points": [[0.2, 0.8], [0.8, 0.2]],
      "weights": [math.nan, 1.0]}, "NaN weights"),
    ({"kind": "discrete", "domain": _BOX, "points": [[0.2, 0.8]]},
     "no 'weights' field"),
    ({"kind": "discrete", "domain": {"kind": "ball", "center": [0.5, 0.5]},
      "points": [[0.2, 0.8]], "weights": [1.0]}, "no 'radius' field"),
    ({"kind": "discrete", "domain": _BOX, "points": [[0.2, 0.8], [0.8, 0.2]],
      "weights": {"a": 1}}, "'weights' must be a list of numbers"),
    ({"kind": "discrete", "domain": _BOX, "points": 4, "weights": [1.0]},
     "'points' must be a list of 2-number lists"),
], ids=["nan-weight", "no-weights", "ball-without-radius", "object-weights", "scalar-points"])
def test_malformed_figure_target_is_a_usage_error(tmp_path, target, message):
    # each exited 0 with passed=True (NaN) or died with a KeyError or
    # TypeError traceback
    run = _figure1_with_target(tmp_path, target)
    assert run.returncode == 1
    assert "otpush: error:" in run.stderr and message in run.stderr
    assert "Traceback" not in run.stderr


def test_figure1_small_run(tmp_path):
    out = tmp_path / "fig"
    code = cli.main(["figure1", "--grid", "16", "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "figure1.csv").exists()


def _pyproject_scripts():
    # the wiring's source of truth, found next to the tests rather than in
    # the working directory
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _otpush_installed():
    try:
        md.distribution("otpush")
    except md.PackageNotFoundError:
        return False
    return True


def test_main_entry_point_is_wired(monkeypatch, capsys):
    # checked against pyproject.toml, not installed metadata, so it also
    # holds when the package runs from a source tree on PYTHONPATH
    value = _pyproject_scripts()["otpush"]
    assert value == "otpush.cli:main"
    ep = md.EntryPoint(name="otpush", value=value, group="console_scripts")
    entry = ep.load()
    assert entry is cli.main
    # a console script calls the entry with no arguments; argv comes from sys
    monkeypatch.setattr(sys, "argv", ["otpush", "example", "--id", "1.2"])
    assert entry() == 0
    assert "example-1.2: " in capsys.readouterr().out


@pytest.mark.skipif(not _otpush_installed(),
                    reason="otpush distribution is not installed")
def test_installed_entry_point_matches_pyproject():
    eps = md.entry_points(group="console_scripts")
    ours = [e for e in eps if e.name == "otpush"]
    assert ours and ours[0].value == _pyproject_scripts()["otpush"]
