"""Command-line interface tests (click runner, small grids)."""

import json

import pytest
from click.testing import CliRunner

from fraclab.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_constants_prints_full_precision(runner):
    res = runner.invoke(main, ["constants", "--n", "1", "--s", "0.5"])
    assert res.exit_code == 0
    assert res.output.strip() == "C(1, 0.5) = 0.3183098861837907"


def test_constants_rejects_integer_order(runner):
    res = runner.invoke(main, ["constants", "--s", "1.0"])
    assert res.exit_code == 2
    assert "validation error" in res.output


def test_identity_runs_and_writes_report(runner, tmp_path):
    out = tmp_path / "identity.json"
    res = runner.invoke(
        main,
        ["identity", "--s", "1.25", "--N", "4096", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert "pass" in res.output
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "identity"
    assert doc["params"]["s"] == 1.25
    assert doc["params"]["N"] == 4096
    assert all(v["status"] != "fail" for v in doc["verdicts"])


def test_identity_rejects_out_of_range_order(runner):
    res = runner.invoke(main, ["identity", "--s", "2.0", "--N", "4096"])
    assert res.exit_code == 2


def test_identity_failing_tolerance_exits_one(runner):
    res = runner.invoke(
        main, ["identity", "--s", "1.25", "--N", "4096", "--tol", "1e-9"]
    )
    assert res.exit_code == 1
    assert "fail" in res.output


def test_config_file_supplies_defaults_but_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 2.0, "N": 4096}))
    # config alone would fail validation (s = 2), but the flag overrides it
    res = runner.invoke(
        main, ["identity", "--config", str(cfg), "--s", "1.25"]
    )
    assert res.exit_code == 0, res.output
    bad = runner.invoke(main, ["identity", "--config", str(cfg)])
    assert bad.exit_code == 2


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    res = runner.invoke(main, ["identity", "--config", str(cfg), "--N", "4096"])
    assert res.exit_code == 2
    assert "nonsense" in res.output


def test_config_list_values_reach_the_driver(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_list": [0.5, 1.25], "N": 4096}))
    out = tmp_path / "sweep.json"
    res = runner.invoke(
        main, ["sign-sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["params"]["s_list"] == [0.5, 1.25]
    assert doc["params"]["N"] == 4096


def test_config_rejects_config_path_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config_path": "other.json"}))
    res = runner.invoke(main, ["identity", "--config", str(cfg), "--N", "4096"])
    assert res.exit_code == 2
    assert "config_path" in res.output


def test_csv_report_format(runner, tmp_path):
    out = tmp_path / "identity.csv"
    res = runner.invoke(
        main,
        [
            "identity",
            "--s", "1.25",
            "--N", "4096",
            "--out", str(out),
            "--format", "csv",
        ],
    )
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,quantity,")
    assert all(line.startswith("identity,") for line in lines[1:])


def test_sign_sweep_with_probe_orders(runner):
    res = runner.invoke(
        main,
        ["sign-sweep", "--N", "4096", "--s", "0.5", "--s", "1.25", "--s", "1.75"],
    )
    assert res.exit_code == 0, res.output
    assert "inconclusive" in res.output


def test_counterexample_defaults(runner):
    # default cutoffs reach 1280, which needs the default 16384-node grid
    res = runner.invoke(main, ["counterexample"])
    assert res.exit_code == 0, res.output


def test_truncation_bound_runs(runner):
    res = runner.invoke(
        main,
        [
            "truncation-bound",
            "--N", "4096",
            "--eps", "0.04", "--eps", "0.02", "--eps", "0.01",
        ],
    )
    assert res.exit_code == 0, res.output


def test_interp_subcommand(runner):
    res = runner.invoke(main, ["interp", "--count", "5", "--seed", "7", "--N", "4096"])
    assert res.exit_code == 0, res.output


def test_convergence_n_list_parsing(runner):
    res = runner.invoke(
        main,
        [
            "convergence",
            "--s", "1.25",
            "--N-list", "1024", "--N-list", "2048", "--N-list", "4096",
        ],
    )
    assert res.exit_code == 0, res.output
    bad = runner.invoke(main, ["convergence", "--N-list", "x"])
    assert bad.exit_code == 2


def test_help_lists_all_subcommands(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    for name in (
        "constants",
        "identity",
        "sign-sweep",
        "counterexample",
        "truncation-bound",
        "interp",
        "convergence",
    ):
        assert name in res.output
