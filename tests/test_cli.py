"""Command line interface: subcommands, outputs, exit codes."""

import hashlib
import os
import subprocess
import sys
import warnings
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


def test_sweep_summary_names_each_value_as_it_ran(quad_config, tmp_path, capsys):
    # seven significant digits and more: %g printed 1.23457e+06 for both seeds
    for param, values in (("experiment.seed", "1234567,1234568"),
                          ("eta0", "0.1234567,0.12345678")):
        assert main(["sweep", "--config", quad_config, "--out", str(tmp_path / param),
                     "--param", param, "--values", values, "--runs", "1"]) == 0
        stdout = capsys.readouterr().out
        assert [line.split(":")[0] for line in stdout.splitlines()[:-1]] == [
            f"{param}={value}" for value in values.split(",")]


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


def test_a_quadratic_sweep_refused_in_a_later_setup_is_one_config_error_line(
        quad_config, tmp_path, capsys):
    # box_high 5 runs first; 0.6's centres leave its box when its batch is built
    out = tmp_path / "x"
    assert main(["sweep", "--config", quad_config, "--out", str(out),
                 "--param", "geometry.box_high", "--values", "5,0.6", "--runs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: synthetic centers leave the domain; shrink offsets "
                            "or noise (geometry.box_high=0.6, run 0)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["run"], ""),
    (["sweep", "--param", "dynamics.eps", "--values", "0.1,1e150", "--runs", "1"],
     " (dynamics.eps=1e+150, run 0)"),
], ids=["run", "sweep"])
def test_a_variation_tuned_run_whose_path_variation_overflows_is_one_config_error_line(
        tmp_path, capsys, argv, named):
    # eps = 1e150 keeps the path finite but puts its residual norms, so C_T
    # and the tuned step, past the float range
    config = tmp_path / "tuned.ini"
    config.write_text("[experiment]\nhorizon = 20\n[dynamics]\neps = 1e150\n"
                      "[schedule]\nkind = variation_tuned\n")
    out = tmp_path / "x"
    assert main(argv[:1] + ["--config", str(config), "--out", str(out)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: schedule.kind=variation_tuned needs a finite path "
                            f"variation{named}\n")
    assert not out.exists()


def test_sweep_values_may_start_with_a_minus_sign(quad_config, tmp_path, capsys):
    # argparse once took a list such as -20000,-15000 for an option and exited 1
    # with "expected one argument"; only its own negative literals (-2, -0.5) passed
    for values, shown in (("-20000,-15000", ["-20000", "-15000"]), ("-1e5", ["-100000"])):
        assert main(["sweep", "--config", quad_config, "--out", str(tmp_path / values),
                     "--param", "geometry.box_low", "--values", values, "--runs", "1"]) == 0
        stdout = capsys.readouterr().out
        assert [line.split(":")[0] for line in stdout.splitlines()[:-1]] == [
            f"geometry.box_low={value}" for value in shown]
    for values in ("-inf,1", "-.5,1"):  # read as values, then refused as values
        assert main(["sweep", "--config", quad_config, "--out", str(tmp_path / "x"),
                     "--param", "geometry.box_low", "--values", values, "--runs", "1"]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
    # a real option after --values is still a missing list
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", quad_config, "--out", str(tmp_path / "x"),
              "--param", "geometry.box_low", "--values", "--runs", "2"])
    assert exc.value.code == 1
    assert "argument --values: expected one argument" in capsys.readouterr().err


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
    # the suite's dynamics pass their verdict: its violations blame the bound alone
    assert "not a guarantee" not in captured.err


EPS1 = """
[experiment]
gradient_mode = exact
horizon = 60
seed = 406

[network]
graph = erdos_renyi
nodes = 2

[geometry]
box_low = -1

[dynamics]
eps = 1.0

[noise]
sigma_v2 = 0

[schedule]
eta0 = 0.01

[loss]
kind = synthetic_linear
"""


def test_a_violation_names_the_dynamics_assumption_the_run_broke(tmp_path, capsys):
    # NCV at eps = 1.0 sends the box's row 0 to [-2, 20000] and has sigma_max 1.618;
    # the disagreement check then fails, and its line says the bound was no guarantee
    config = tmp_path / "eps1.ini"
    config.write_text(EPS1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ("dynamic_regret=209.015\nnormalized_final=3.48358\nsigma2=0\n"
                            f"guarantee_total=4.0008e+10 mode=exact\noutputs written to {out}\n")
    assert captured.err == (
        "VIOLATION run seed=406 disagreement: empirical=0.0144452 bound=0.0141421 "
        "(not a guarantee: row 0 maps the box onto [-2, 20000], outside [-1, 10000]; "
        "sigma_max(A)=1.61803)\n")


def test_verify_rejects_bad_seed_count(tmp_path, capsys):
    code = main(["verify-bounds", "--seeds", "0", "--out", str(tmp_path / "v")])
    assert code == 1
    assert capsys.readouterr().err == "config error: need at least one seed\n"
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("l_scale", ["0", "-1", "nan"])
def test_verify_rejects_non_positive_l_scale(tmp_path, capsys, l_scale):
    code = main(["verify-bounds", "--seeds", "1", "--out", str(tmp_path / "v"),
                 "--l-scale", l_scale])
    assert code == 1
    captured = capsys.readouterr()
    want = f"config error: l_scale must be positive and finite, got {float(l_scale)}\n"
    assert captured.err == want
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


# the library refuses each option's value: --seed as experiment.seed, --run-index
# in run_experiments
@pytest.mark.parametrize("argv, needle", [
    (["run", "--seed", "-1"], "experiment.seed: value -1 out of range"),
    (["run", "--run-index", "-1"], "run index must be non-negative, got -1"),
    (["sweep", "--seed", "-2", "--param", "eta0", "--values", "0.1"],
     "experiment.seed: value -2 out of range"),
], ids=["run-seed", "run-run-index", "sweep-seed"])
def test_negative_overrides_are_config_errors(quad_config, tmp_path, capsys, argv, needle):
    out = tmp_path / "out"
    code = main(argv[:1] + ["--config", quad_config, "--out", str(out)] + argv[1:])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {needle}\n"
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


@pytest.mark.parametrize("argv, where", [
    (["run"], "round 885 (replicate 0, agent 17)"),
    (["sweep", "--param", "noise.sigma_v2", "--values", "100000000000000000", "--runs", "1"],
     "round 3 (noise.sigma_v2=1e+17, run 0, agent 0)"),
    # the failing replicate is the batch's third, yet it is value 1e+17's run 0
    (["sweep", "--param", "noise.sigma_v2", "--values", "0.5,100000000000000000",
      "--runs", "2"], "round 3 (noise.sigma_v2=1e+17, run 0, agent 0)"),
], ids=["run", "sweep", "sweep_second_value"])
def test_a_run_whose_anchors_leave_the_domain_is_one_run_error_line(tmp_path, capsys, argv,
                                                                     where):
    # the default box run at sigma_v2 = 1000 pushes the target, and so an
    # iterate, past 10^4; the next round's anchor is outside: exit 1, no
    # traceback, and a just-made --out is removed as for a config error
    config = tmp_path / "wild.ini"
    config.write_text("[noise]\nsigma_v2 = 1000\n")
    out = tmp_path / "out"
    code = main([argv[0], "--config", str(config), "--out", str(out)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"run error: mixed anchors left the domain in {where}\n"
    assert not out.exists()
    out.mkdir()  # an --out that was there before stays
    assert main([argv[0], "--config", str(config), "--out", str(out)] + argv[1:]) == 1
    assert out.is_dir()


def test_a_run_whose_bound_overflows_prints_an_inf_bound(tmp_path, capsys):
    # at eta0 = 1.1e-308 the guarantee's 2 R^2 / eta passes the float range;
    # it once ended in a RuntimeWarning (a traceback under warnings as errors)
    config = tmp_path / "tiny.ini"
    config.write_text("[experiment]\nhorizon = 39\n[network]\nrows = 4\ncols = 4\n"
                      "[schedule]\neta0 = 1.1125369292536007e-308\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "guarantee_total=inf mode=stochastic\n" in captured.out and captured.err == ""
    comments, _, _ = read_csv(tmp_path / "out" / "bounds.csv")
    assert "total=inf" in comments


def test_a_target_path_past_the_float_range_is_one_config_error_line(tmp_path, capsys):
    # the path overflows in round 3; it once ended in prox's "gradient has
    # non-finite entries" traceback, or with warnings as errors in the roll's
    # RuntimeWarning
    config = tmp_path / "drift.ini"
    config.write_text("[experiment]\nhorizon = 10\n[dynamics]\nmodel = identity\n"
                      "[noise]\nkind = constant_drift\ndrift = 1e308, 0, 0, 0\n"
                      "target_init = 0, 0, 0, 0\n")
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: the target path is not finite from round 3\n"


def test_an_ncv_factor_past_the_float_range_is_one_config_error_line(tmp_path, capsys):
    # eps ** 1.5 once raised OverflowError in the noise factor, in both warning modes
    config = tmp_path / "eps.ini"
    config.write_text("[dynamics]\neps = 1e300\n")
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: the target path is not finite from round 2\n"


@pytest.mark.parametrize("text, err", [
    # residual_norms overflowed in np.linalg.norm: a RuntimeWarning traceback,
    # or without warnings as errors four warning lines before this one
    ("[dynamics]\neps = 1.5531511037296899e+103\n",
     "run error: mixed anchors left the domain in round 2 (replicate 0, agent 2)\n"),
    # the tracking floor's (high - low) ** 2 raised OverflowError
    ("[experiment]\nhorizon = 1\n[loss]\nobs_noise_high = 1.3407807929942597e+154\n",
     "config error: loss.kind=tracking_square needs a finite noise variance "
     "(loss.obs_noise_high - loss.obs_noise_low)^2 / 12, got a spread of "
     "1.3407807929942597e+154\n"),
], ids=["huge_eps", "huge_noise_support"])
def test_an_overflow_is_one_error_line_in_either_warning_mode(tmp_path, capsys, text, err):
    config = tmp_path / "huge.ini"
    config.write_text(text)
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err


HUGE_BOX = "[geometry]\nbox_low = -1e160\nbox_high = 1e160\n"


@pytest.mark.parametrize("text, mode", [
    # the box's span overflowed in dual_diameter's dot
    ("[experiment]\nhorizon = 20\n" + HUGE_BOX, "stochastic"),
    # K = inf times a zero mismatch sum made the bound NaN: a VIOLATION against bound=nan
    ("[experiment]\ngradient_mode = exact\nhorizon = 20\n" + HUGE_BOX
     + "[dynamics]\nmodel = identity\n[noise]\nkind = zero\ntarget_init = 0, 0, 0, 0\n"
     "[loss]\nkind = synthetic_quadratic\n", "exact"),
    # G^2 overflowed at g * g in synthetic_suite
    ("[experiment]\nhorizon = 20\n[dynamics]\nmodel = identity\n[noise]\nkind = zero\n"
     "[loss]\nkind = synthetic_quadratic\noracle_noise = 1e160\n", "stochastic"),
    # the disagreement envelope L sqrt(n) A[t] overflowed in regret_guarantee
    ("[schedule]\neta0 = 1.2451206769130281e+303\n", "stochastic"),
], ids=["box_span", "still_target_in_the_box", "oracle_noise", "huge_step"])
def test_a_constant_past_the_float_range_gives_an_inf_bound(tmp_path, capsys, text, mode):
    config = tmp_path / "huge.ini"
    config.write_text(text)
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert f"guarantee_total=inf mode={mode}\n" in captured.out and captured.err == ""
        comments, _, _ = read_csv(tmp_path / "out" / "bounds.csv")
        assert f"{'total' if mode == 'exact' else 'stochastic_total'}=inf" in comments
        assert "local_gap_rhs=nan" not in comments and "total=nan" not in comments


def test_verify_with_an_l_squared_past_the_float_range_exits_0(tmp_path, capsys):
    # (1e200)**2 raised OverflowError in the bound's L^2 term; the term is +inf
    assert main(["verify-bounds", "--seeds", "1", "--l-scale", "1e200",
                 "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("checks=34 seeds=1 violations=0\n") and captured.err == ""


def test_a_one_dimensional_simplex_is_one_config_error_line(tmp_path, capsys):
    # it passed validation once, and the run ended in a simplex_domain traceback
    config = tmp_path / "simplex1.ini"
    config.write_text("[geometry]\ndomain = simplex\ndim = 1\n[dynamics]\nmodel = identity\n"
                      "[noise]\nkind = zero\ntarget_init =\n[loss]\nkind = synthetic_quadratic\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: geometry.domain=simplex needs geometry.dim >= 2, "
                            "got 1\n")


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
