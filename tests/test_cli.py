"""Command line interface: subcommands, outputs, exit codes."""

from dataclasses import replace

import pytest

import domd.cli
from domd.cli import main
from domd.config import load_config
from domd.harness import run_experiment

QUAD = """
[experiment]
horizon = 40
gradient_mode = exact

[network]
graph = grid
rows = 2
cols = 2

[geometry]
dim = 2
box_low = -5
box_high = 5

[dynamics]
model = identity

[noise]
kind = zero
target_init = 0.5, -0.5

[loss]
kind = synthetic_quadratic

[schedule]
kind = inv_sqrt
eta0 = 0.2
"""


@pytest.fixture()
def quad_config(tmp_path):
    file = tmp_path / "exp.ini"
    file.write_text(QUAD)
    return str(file)


def test_run_command(quad_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", quad_config, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "dynamic_regret=" in stdout
    assert "sigma2=" in stdout
    assert "guarantee_total=" in stdout
    assert (out / "regret.csv").exists()
    assert (out / "bounds.csv").exists()


def test_run_outputs_are_deterministic(quad_config, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", quad_config, "--out", str(a)]) == 0
    assert main(["run", "--config", quad_config, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("regret.csv", "disagreement.csv", "trajectory.csv", "bounds.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override_changes_hash(quad_config, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", quad_config, "--out", str(a), "--seed", "7"])
    main(["run", "--config", quad_config, "--out", str(b), "--seed", "8"])
    capsys.readouterr()
    head_a = (a / "regret.csv").read_text().splitlines()[0]
    head_b = (b / "regret.csv").read_text().splitlines()[0]
    assert head_a != head_b  # config hash records the effective seed


def test_sweep_command(quad_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", quad_config, "--out", str(out),
                 "--param", "eta0", "--values", "0.1,0.2", "--runs", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "eta0=0.1" in stdout and "eta0=0.2" in stdout
    assert (out / "sweep.csv").exists()


def test_sweep_rejects_bad_values(quad_config, tmp_path, capsys):
    code = main(["sweep", "--config", quad_config, "--out", str(tmp_path / "x"),
                 "--param", "eta0", "--values", "0.1,banana"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_over_horizon_is_a_config_error(quad_config, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["sweep", "--config", quad_config, "--out", str(out),
                 "--param", "experiment.horizon", "--values", "10"])
    assert code == 1
    assert "config error: cannot sweep experiment.horizon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, values, message", [
    ("experiment.runs", "1,5", "cannot sweep experiment.runs"),
    ("network.rows", "2.7", "not an integer"),
    ("loss.obs_noise_low", "5", "obs_noise_low must not exceed"),
])
def test_sweep_refusals_are_config_errors(quad_config, tmp_path, capsys, param, values,
                                          message):
    out = tmp_path / "x"
    code = main(["sweep", "--config", quad_config, "--out", str(out),
                 "--param", param, "--values", values, "--runs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_run_exits_2_on_a_bound_violation(quad_config, tmp_path, capsys, monkeypatch):
    result = run_experiment(load_config(quad_config))
    low = replace(result.bounds, total=result.regret.dynamic_regret - 1.0)
    monkeypatch.setattr(domd.cli, "run_experiment",
                        lambda cfg, **kwargs: replace(result, bounds=low))
    code = main(["run", "--config", quad_config, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bound violation: regret_total" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify-bounds", "--seeds", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "violations=0" in stdout
    assert (out / "verify.csv").exists()


def test_verify_negative_control_exits_two(tmp_path, capsys):
    code = main(["verify-bounds", "--seeds", "1", "--out", str(tmp_path / "v"),
                 "--l-scale", "0.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "VIOLATION" in captured.err
    assert "violations=0" not in captured.out


def test_verify_rejects_bad_seed_count(tmp_path, capsys):
    code = main(["verify-bounds", "--seeds", "0", "--out", str(tmp_path / "v")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_config_errors_exit_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nhorizon = -3\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path / "out")])  # missing --config
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, needle", [
    (["run", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["run", "--run-index", "-1"], "--run-index must be nonnegative, got -1"),
    (["sweep", "--seed", "-2", "--param", "eta0", "--values", "0.1"],
     "--seed must be nonnegative, got -2"),
])
def test_negative_overrides_are_config_errors(quad_config, tmp_path, capsys, argv, needle):
    out = tmp_path / "out"
    code = main(argv[:1] + ["--config", quad_config, "--out", str(out)] + argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: {needle}" in err
    assert not out.exists()


def test_too_few_tracking_agents_is_a_config_error(tmp_path, capsys):
    # one row of three agents cannot observe the four NCV coordinates
    file = tmp_path / "narrow.ini"
    file.write_text("[network]\nrows = 1\ncols = 3\n")
    code = main(["run", "--config", str(file), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: loss.kind=tracking_square needs at least" in capsys.readouterr().err
