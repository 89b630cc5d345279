"""Command line interface: subcommands, outputs, exit codes."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import domd
import domd.cli
from domd.cli import main
from conftest import read_csv
from domd.config import load_config
from domd.harness import run_experiment, sweep

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

# exact gradients of linear losses on the quadratic setup's 2x2 grid and box
LINEAR = """
[experiment]
horizon = 200
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
kind = synthetic_linear
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


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_run_prints_the_guarantee_total_of_its_gradient_mode(tmp_path, capsys, mode):
    # a stochastic run's bound is the G^2 total, an exact run's the L^2 total;
    # the oracle noise sets them apart
    file = tmp_path / "exp.ini"
    file.write_text(QUAD.replace("gradient_mode = exact", f"gradient_mode = {mode}")
                    .replace("kind = synthetic_quadratic", "kind = synthetic_quadratic\n"
                             "oracle_noise = 0.5"))
    bounds = run_experiment(load_config(str(file))).bounds
    assert main(["run", "--config", str(file), "--out", str(tmp_path / "out")]) == 0
    total = bounds.stochastic_total if mode == "stochastic" else bounds.total
    assert f"\nguarantee_total={total:.6g} mode={mode}\n" in capsys.readouterr().out
    if mode == "stochastic":
        assert f"{bounds.stochastic_total:.6g}" != f"{bounds.total:.6g}"


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


def test_sweep_keeps_an_integer_value_exact(quad_config, tmp_path, capsys):
    # 2**53 + 1 has no float64: the sweep must run seed 9007199254740993,
    # not 9007199254740992, and write it as it was given
    big = 2 ** 53 + 1
    out, lib = tmp_path / "sweep", tmp_path / "lib"
    assert main(["sweep", "--config", quad_config, "--out", str(out), "--param",
                 "experiment.seed", "--values", str(big), "--runs", "1"]) == 0
    capsys.readouterr()
    assert [row[0] for row in read_csv(out / "sweep.csv")[2]] == [str(big)] * 40
    sweep(load_config(quad_config), "experiment.seed", (big,), runs=1, out_dir=lib)
    assert (out / "sweep.csv").read_bytes() == (lib / "sweep.csv").read_bytes()


@pytest.mark.parametrize("param, values, shown", [
    ("eta0", "0.25,3,3.0,1e3", ["0.25", "3", "3", "1000"]),
    ("experiment.seed", "3,3.0,1e3", ["3", "3", "1000"]),
])
def test_sweep_values_write_what_their_floats_wrote(quad_config, tmp_path, capsys, param,
                                                   values, shown):
    # integer literals pass as ints, yet every value a float could hold writes
    # the same sweep.csv and stdout as passing the floats
    out, lib = tmp_path / "sweep", tmp_path / "lib"
    assert main(["sweep", "--config", quad_config, "--out", str(out), "--param", param,
                 "--values", values, "--runs", "1"]) == 0
    stdout = capsys.readouterr().out
    assert [line.split(":")[0] for line in stdout.splitlines()[:-1]] == [
        f"{param}={value}" for value in shown]
    floats = tuple(float(v) for v in values.split(","))
    sweep(load_config(quad_config), param, floats, runs=1, out_dir=lib)
    assert (out / "sweep.csv").read_bytes() == (lib / "sweep.csv").read_bytes()


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
    violations = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("VIOLATION")]
    assert violations == [
        f"VIOLATION run seed={result.config.seed} regret_total: "
        f"empirical={result.regret.dynamic_regret:.6g} bound={low.total:.6g}"]


def test_run_exits_0_on_negative_regret(tmp_path, capsys):
    # regret >= 0 is a check of the verify-bounds suite, not a guarantee: linear
    # losses are not least at the target, so a correct run may beat it
    config = tmp_path / "linear.ini"
    config.write_text(LINEAR)
    code = main(["run", "--config", str(config), "--seed", "3", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "VIOLATION" not in captured.err
    regret = float(captured.out.split("dynamic_regret=")[1].split()[0])
    assert regret < 0


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


@pytest.mark.parametrize("l_scale", ["0", "-1", "nan"])
def test_verify_rejects_non_positive_l_scale(tmp_path, capsys, l_scale):
    code = main(["verify-bounds", "--seeds", "1", "--out", str(tmp_path / "v"),
                 "--l-scale", l_scale])
    assert code == 1
    captured = capsys.readouterr()
    assert "config error: --l-scale must be positive" in captured.err
    assert "VIOLATION" not in captured.err
    assert not (tmp_path / "v").exists()


def test_config_errors_exit_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nhorizon = -3\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    # no field declares geometry.kind or network.weights, and every domain is bounded
    for text, needle in (("[geometry]\nkind = kl\n", "unknown key geometry.kind"),
                         ("[network]\nweights = uniform\n", "unknown key network.weights"),
                         ("[geometry]\ndomain = free\n", "expected one of box, simplex")):
        capsys.readouterr()
        bad.write_text(text)
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "config error: " in err and needle in err, err


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


# a one-dimensional static target and linear losses; only [network] is missing
ONE_DIM_LINEAR = """
[geometry]
dim = 1

[dynamics]
model = identity

[noise]
kind = zero
target_init = 0

[loss]
kind = synthetic_linear
"""


@pytest.mark.parametrize("network, needle", [
    ("graph = path\nnodes = 1\n", "network path needs at least two nodes, got 1"),
    ("graph = erdos_renyi\nnodes = 50\nedge_prob = 0.01\n",
     "network.nodes=50, network.edge_prob=0.01"),
    # above DENSE_MIX_MAX_NODES a complete graph would mix by a sum over n^2 nonzeros
    ("graph = complete\nnodes = 257\n",
     "network.graph=complete supports network.nodes up to 256, got 257"),
])
def test_unbuildable_networks_are_config_errors(tmp_path, capsys, network, needle):
    file = tmp_path / "net.ini"
    file.write_text("[network]\n" + network + ONE_DIM_LINEAR)
    out = tmp_path / "out"
    code = main(["run", "--config", str(file), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
    assert not out.exists()


def test_complete_graph_at_the_dense_mixing_limit_runs(tmp_path):
    file = tmp_path / "net.ini"
    file.write_text("[experiment]\nhorizon = 5\n[network]\ngraph = complete\nnodes = 256\n"
                    + ONE_DIM_LINEAR)
    assert main(["run", "--config", str(file), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "regret.csv").exists()


@pytest.mark.parametrize("argv, entry", [
    (["run", "--config", "{config}"], "run_experiment"),
    (["sweep", "--config", "{config}", "--param", "eta0", "--values", "0.1"], "sweep"),
    (["verify-bounds", "--seeds", "1"], "verify_bounds"),
])
def test_unusable_out_fails_before_any_work(quad_config, tmp_path, capsys, monkeypatch,
                                            argv, entry):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(domd.cli, entry, no_work)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    for out in (taken, taken / "sub"):
        code = main([a.format(config=quad_config) for a in argv] + ["--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and str(out) in captured.err
        assert captured.out == ""
    assert taken.read_text() == "a file, not a directory"


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{config}"],
    ["sweep", "--config", "{config}", "--param", "eta0", "--values", "0.1,0.2", "--runs", "1"],
    ["verify-bounds", "--seeds", "1"],
], ids=["run", "sweep", "verify-bounds"])
def test_closed_stdout_exits_141_without_a_traceback(quad_config, tmp_path, argv):
    """A reader that closed the pipe before the summary (`domd run ... | true`)
    gets the outputs written, a status of its own and nothing on stderr."""
    read, write = os.pipe()
    os.close(read)  # closed before the command starts: its first print fails
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(domd.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "domd"]
                              + [a.format(config=quad_config) for a in argv]
                              + ["--out", str(out)],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == domd.cli.BROKEN_PIPE == 141
    assert proc.stderr == b""
    assert os.listdir(out)


# a 1000-agent Erdos-Renyi network: above DENSE_MIX_MAX_NODES, and large
# enough that a dense BLAS product would be split across threads
ER_1000 = """
[experiment]
horizon = 50

[network]
graph = erdos_renyi
nodes = 1000
edge_prob = 0.01
"""


def test_large_network_iterates_do_not_depend_on_blas_threads(tmp_path):
    """domd run on 1000 agents writes the same CSVs, bounds.csv included, on
    one and two OpenBLAS threads, and sigma2 of the 16x16 grid (the smallest
    network whose sigma2 comes from Lanczos) has the same bits on both."""
    file = tmp_path / "er.ini"
    file.write_text(ER_1000)
    src = os.path.dirname(os.path.dirname(domd.__file__))
    grid_sigma2 = ("from domd.network import build_grid_graph, metropolis_weights, "
                   "second_singular_value; print(second_singular_value("
                   "metropolis_weights(build_grid_graph(16, 16))).hex())")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "domd", "run", "--config", str(file),
                        "--out", str(out)], env=env, check=True, timeout=300)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("trajectory.csv", "regret.csv", "disagreement.csv",
                                     "bounds.csv")})
        digests[-1]["grid_16x16_sigma2"] = subprocess.run(
            [sys.executable, "-c", grid_sigma2], env=env, check=True, timeout=300,
            capture_output=True, text=True).stdout
    assert digests[0] == digests[1]
