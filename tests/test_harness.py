"""Experiment assembly: run construction, sweeps, bound verification."""

import os
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import domd.engine
import domd.harness
import domd.metrics
from conftest import read_csv, target_position_path_length
from domd.config import (ConfigError, ExperimentConfig, config_hash, cross_validate,
                         parse_config)
from domd.engine import EngineError, run
from domd.dynamics import _ncv_noise_factor, residual_norms
from domd.harness import (_build_case, _case_runs, _derive_seed, _ORACLE, _PATH, _same,
                          _suite_case,
                          SLACK_TOL, CheckRow, build_domain, build_dynamics, build_graph,
                          build_geometry, build_noise, build_schedule,
                          build_weights, bound_suite, check_rows, exact_run_violations,
                          run_experiment, run_experiments, stochastic_mean_regret,
                          sweep, tracking_error_stats, variation_scaling_study,
                          verify_bounds)
from domd.geometry import box_domain, dynamics_verdict, geometry_constants, simplex_domain
from domd.metrics import (BoundReport, dynamic_regret, network_disagreement,
                          per_agent_loss_gap, regret_guarantee, tuned_step)
from domd.network import (WeightMatrix, build_grid_graph, build_path_graph,
                          metropolis_weights, random_connected_graph,
                          second_singular_value, uniform_complete_weights)

EXACT_QUAD = """
[experiment]
horizon = 50
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


def _tracking_cfg(**overrides):
    return replace(parse_config("", env={}), **overrides)


def _quad_cfg(**overrides):
    return replace(parse_config(EXACT_QUAD, env={}), **overrides)


# the refusal of a variation-tuned replicate whose path variation C_T is +inf
VT_OVERFLOW = "schedule.kind=variation_tuned needs a finite path variation"


def test_build_graph_kinds():
    assert build_graph(_tracking_cfg()).n == 25
    assert build_graph(_tracking_cfg(graph="path", nodes=7)).n == 7
    complete = build_graph(_tracking_cfg(graph="complete", nodes=5))
    assert len(complete.edges) == 10
    cfg = _tracking_cfg(graph="erdos_renyi", nodes=10, edge_prob=0.4)
    assert np.array_equal(build_graph(cfg).edges, build_graph(cfg).edges)
    other = build_graph(replace(cfg, seed=99))
    assert not np.array_equal(other.edges, build_graph(cfg).edges)


def test_same_weights_compare_their_nonzeros():
    # above 256 agents there is no dense w: the nonzeros decide
    def large(seed):
        return metropolis_weights(random_connected_graph(300, 0.03, seed))

    assert large(2).w is None and _same(large(2), large(2))
    assert not _same(large(2), large(3))
    small = metropolis_weights(build_grid_graph(5, 5))
    assert _same(small, WeightMatrix(25, small.w.copy()))
    assert not _same(small, uniform_complete_weights(25))


def test_unsampleable_random_graph_is_a_config_error():
    # p = 0.01 on 50 nodes (about 12 edges) never samples a connected graph
    cfg = _tracking_cfg(graph="erdos_renyi", nodes=50, edge_prob=0.01)
    with pytest.raises(ConfigError, match=r"network\.nodes=50, network\.edge_prob=0\.01"):
        build_graph(cfg)


def test_build_weights_and_domain_and_geometry():
    cfg = _tracking_cfg(graph="complete", nodes=4)
    w = build_weights(cfg, build_graph(cfg))
    assert w.w.tobytes() == uniform_complete_weights(4).w.tobytes()  # Metropolis is 1/n here
    metro = build_weights(_tracking_cfg(), build_graph(_tracking_cfg()))
    np.testing.assert_allclose(metro.w.sum(axis=1), 1.0, atol=1e-12)

    box = build_domain(_tracking_cfg())
    assert box.kind == "box" and box.d == 4 and box.hi[0] == 10000.0
    simplex_cfg = _tracking_cfg(domain_kind="simplex", dim=3, dynamics_model="identity",
                                noise_kind="zero", target_init=(),
                                loss_kind="synthetic_quadratic")
    simplex = build_domain(simplex_cfg)
    assert simplex.kind == "simplex"
    # the domain is the geometry
    assert build_geometry(_tracking_cfg(), box) is box
    assert build_geometry(simplex_cfg, simplex) is simplex


def test_a_scaled_identity_of_one_is_no_motion():
    # scale 1.0 builds I exactly, so its runs take the identity path, bit for
    # bit the identity model's; one ulp above 1.0 is a push
    identity = run_experiment(_quad_cfg(dynamics_model="identity"))
    one = _quad_cfg(dynamics_model="scaled_identity", dynamics_scale=1.0)
    assert build_dynamics(one).is_identity
    assert _same_bits(run_experiment(one).trace.x, identity.trace.x)
    assert not build_dynamics(replace(one, dynamics_scale=1.0 + 2**-52)).is_identity


def test_build_dynamics_and_noise():
    assert build_dynamics(_tracking_cfg()).d == 4
    scaled = build_dynamics(_tracking_cfg(dynamics_model="scaled_identity", dim=2,
                                          noise_kind="zero", target_init=()))
    np.testing.assert_allclose(scaled.a, 0.9 * np.eye(2))
    # each kind is exactly the (horizon, dim) array it stands for
    zero = _tracking_cfg(noise_kind="zero", horizon=7)
    assert np.array_equal(build_noise(zero, 0), np.zeros((7, 4)))
    drifty = _tracking_cfg(noise_kind="constant_drift", dynamics_model="identity",
                           drift=(0.1, 0.0, -0.3, 0.0), horizon=7)
    assert np.array_equal(build_noise(drifty, 2), np.tile([0.1, 0.0, -0.3, 0.0], (7, 1)))
    ncv = _tracking_cfg(horizon=7, seed=5, sigma_v2=0.7, eps=0.2)
    for run_index in (0, 3):
        rng = np.random.default_rng(_derive_seed(5, _PATH, run_index))
        drawn = rng.standard_normal((7, 4)) @ _ncv_noise_factor(0.2, 0.7).T
        assert np.array_equal(build_noise(ncv, run_index), drawn)
    fixed = _tracking_cfg(fixed_path=True)
    assert np.array_equal(build_noise(fixed, 0), build_noise(fixed, 3))
    loose = _tracking_cfg(fixed_path=False)
    assert not np.array_equal(build_noise(loose, 0), build_noise(loose, 3))


def test_build_schedule_kinds():
    cfg = _tracking_cfg(horizon=100, eta0=0.5)
    assert np.array_equal(build_schedule(cfg, 0.5, 1.0), np.full(101, 0.5))
    decaying = replace(cfg, schedule_kind="inv_sqrt")
    assert np.array_equal(build_schedule(decaying, 0.5, 1.0),
                          0.5 / np.sqrt(np.arange(1, 102)))
    tuned = replace(cfg, schedule_kind="variation_tuned")
    assert np.array_equal(build_schedule(tuned, 0.75, 16.0),
                          np.full(101, tuned_step(16.0, 0.75, 100)))
    # zero anticipated variation falls back to the configured constant step
    assert np.array_equal(build_schedule(tuned, 0.75, 0.0), np.full(101, 0.5))
    with pytest.raises(ValueError, match="sigma2"):
        build_schedule(tuned, 1.0, 16.0)
    with pytest.raises(ValueError, match="horizon"):
        build_schedule(replace(tuned, horizon=0), 0.75, 16.0)
    # suite cases share the builder
    case = _suite_case("box_quad_static_n9_t300")
    assert np.array_equal(_build_case(case, 0)[5], 0.2 / np.sqrt(np.arange(1, 302)))


def test_run_experiment_tracking_defaults():
    cfg = _tracking_cfg(horizon=60)
    result = run_experiment(cfg)
    assert result.trace.x.shape == (61, 25, 4)
    assert result.sigma2 == pytest.approx(0.9162129380194001, abs=1e-9)
    assert result.ensemble.lipschitz == pytest.approx(40000.0)
    assert result.bounds is not None
    assert np.isfinite(result.bounds.stochastic_total)
    assert result.regret.path_variation > 0
    assert result.regret.static_regret is not None


def test_negative_run_index_is_rejected_before_assembly(monkeypatch):
    def no_build(cfg):
        raise AssertionError("graph built before the run index was checked")

    monkeypatch.setattr(domd.harness, "build_graph", no_build)
    cfg = _quad_cfg(horizon=10)
    with pytest.raises(ConfigError, match="run index must be non-negative, got -1"):
        run_experiment(cfg, run_index=-1)
    with pytest.raises(ConfigError, match="got -3"):
        run_experiments(cfg, [0, -3])  # on the call, before the first result is asked for


def test_run_experiment_writes_outputs(tmp_path):
    cfg = _quad_cfg()
    out = tmp_path / "run"
    result = run_experiment(cfg, out_dir=out)
    for name in ("regret.csv", "disagreement.csv", "trajectory.csv", "bounds.csv"):
        assert (out / name).exists()
    comments, header, rows = read_csv(out / "trajectory.csv")
    assert any(f"config_hash={config_hash(cfg)}" in c for c in comments)
    assert header[:3] == ["t", "target1", "target2"]
    assert len(header) == 1 + 2 + 4 * 2
    assert len(rows) == 51
    _, _, regret_rows = read_csv(out / "regret.csv")
    assert len(regret_rows) == 50
    assert float(regret_rows[-1][2]) == pytest.approx(
        result.regret.dynamic_regret)


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = _quad_cfg()
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a)
    run_experiment(cfg, out_dir=b)
    for name in ("regret.csv", "disagreement.csv", "trajectory.csv", "bounds.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_target_init_must_be_feasible():
    cfg = _quad_cfg(target_init=(9.0, 0.0))
    with pytest.raises(ConfigError, match="outside"):
        run_experiment(cfg)


def test_offsets_that_escape_the_domain_are_rejected():
    cfg = _quad_cfg(target_init=(4.9, -4.9), offset_scale=3.0)
    with pytest.raises(ConfigError, match="centers"):
        run_experiment(cfg)


def test_exact_run_satisfies_guarantees():
    result = run_experiment(_quad_cfg())
    assert exact_run_violations(result) == ()
    assert np.isnan(result.bounds.stochastic_total)  # G^2 enters stochastic runs only
    # stochastic runs are exempt: single draws may exceed the expected bound
    noisy = run_experiment(_quad_cfg(gradient_mode="stochastic"))
    assert exact_run_violations(noisy) == ()


def test_exact_run_violations_names_each_broken_guarantee():
    result = run_experiment(_quad_cfg())
    regret = result.regret.dynamic_regret
    dis = network_disagreement(result.trace)[1:]
    gap = per_agent_loss_gap(result.trace, result.ensemble, result.path)
    assert dis.max() > SLACK_TOL

    def shrunk(**changes):
        return replace(result, bounds=replace(result.bounds, **changes))

    low_total = {"total": regret - 1e-6}
    low_curve = {"disagreement_curve": np.zeros_like(dis)}
    assert exact_run_violations(shrunk(**low_total)) == ("regret_total",)
    assert exact_run_violations(shrunk(**low_curve)) == ("disagreement",)
    assert exact_run_violations(shrunk(local_gap_rhs=gap - 1e-6)) == ("local_gap",)
    # in verify.csv order
    assert exact_run_violations(shrunk(**low_total, **low_curve)) == (
        "disagreement", "regret_total")
    # an overshoot within SLACK_TOL is rounding, not a violation
    assert exact_run_violations(shrunk(total=regret - 0.5 * SLACK_TOL)) == ()


# the exact run of ROADMAP item 1 whose disagreement check fails: NCV with
# eps = 1.0 (sigma_max(A) = 1.618) on a two-node network (sigma2 = 0)
EPS1 = dict(gradient_mode="exact", horizon=60, seed=406, graph="erdos_renyi", nodes=2,
            box_low=-1.0, eps=1.0, sigma_v2=0.0, eta0=0.01, loss_kind="synthetic_linear")
NCV_ROW_0 = ("not a guarantee: row 0 maps the box onto [-11000, 11000], outside "
             "[-10000, 10000]; sigma_max(A)=1.05125")
EPS1_ROW_0 = ("not a guarantee: row 0 maps the box onto [-2, 20000], outside [-1, 10000]; "
              "sigma_max(A)=1.61803")


def _not_a_guarantee(result):
    return [note for note in result.bounds.notes if note.startswith("not a guarantee")]


@pytest.mark.parametrize("changes, note", [
    ({"gradient_mode": "exact"}, NCV_ROW_0),
    ({}, NCV_ROW_0),
    (EPS1, EPS1_ROW_0),
], ids=["default_exact", "default_stochastic", "eps_1"])
def test_a_run_whose_dynamics_leave_the_box_carries_one_note_naming_row_0(changes, note,
                                                                            tmp_path):
    result = run_experiment(_tracking_cfg(**changes), out_dir=tmp_path)
    assert _not_a_guarantee(result) == [note]
    comments = read_csv(tmp_path / "bounds.csv")[0]
    assert [c for c in comments if c.startswith("note=not a guarantee")] == [f"note={note}"]
    assert not any(c.startswith("note") for c in read_csv(tmp_path / "regret.csv")[0])


def test_the_eps_1_run_fails_its_disagreement_check_with_the_verdict_noted():
    result = run_experiment(_tracking_cfg(**EPS1))
    assert exact_run_violations(result) == ("disagreement",)
    # sigma2 = 0 keeps its own note, ahead of the verdict's
    assert len(result.bounds.notes) == 2 and result.bounds.notes[1] == EPS1_ROW_0


def test_the_verdict_is_taken_once_per_setup_and_never_by_a_sweep(monkeypatch):
    cfg = _tracking_cfg(horizon=20)
    calls = _record_calls(monkeypatch, "dynamics_verdict", "run")
    # one replicate a batch: three batches of one setup
    monkeypatch.setattr(domd.harness, "BATCH_TRACE_BYTES", 1)
    results = list(run_experiments(cfg, range(3)))
    assert calls == ["run", "dynamics_verdict", "run", "run"]
    assert [_not_a_guarantee(r) for r in results] == [[NCV_ROW_0]] * 3
    calls.clear()
    sweep(cfg, "noise.sigma_v2", (0.25, 0.5), runs=2)
    assert "dynamics_verdict" not in calls


def test_no_suite_case_carries_a_not_a_guarantee_note():
    # so verify.csv, which has no notes, means what it did before the verdict
    for case in bound_suite():
        _, domain, dyn = domd.harness._assemble(case.cfg)
        assert dynamics_verdict(domain, dyn.a) == (True, True, ""), case.name
        [result] = _case_runs(case, [0], 0)
        assert _not_a_guarantee(result) == [], case.name


def test_check_rows_skip_a_stochastic_run_before_measuring_it(monkeypatch):
    noisy = run_experiment(_quad_cfg(gradient_mode="stochastic"))

    def refuse(*args):
        raise AssertionError("a stochastic run was measured for its checks")

    monkeypatch.setattr(domd.harness, "network_disagreement", refuse)
    monkeypatch.setattr(domd.harness, "per_agent_loss_gap", refuse)
    assert check_rows(noisy, "run", 0) == ()
    assert exact_run_violations(noisy) == ()


def test_verify_bounds_rows_are_each_runs_check_rows_then_regret_nonneg():
    case = _suite_case("box_quad_static_n4_t100")
    results = list(_case_runs(case, range(2), 0))
    rows = [r for r in verify_bounds(seeds=2).rows if r.case == case.name]
    for s, result in enumerate(results):
        checks = check_rows(result, case.name, s)
        assert [r.check for r in checks] == ["disagreement", "regret_total", "local_gap"]
        assert tuple(rows[4 * s:4 * s + 3]) == checks
        assert rows[4 * s + 3].check == "regret_nonneg"
        assert rows[4 * s + 3].empirical == result.regret.dynamic_regret


def test_tracking_error_stats_and_path_length():
    cfg = _quad_cfg(horizon=40)
    result = run_experiment(cfg)
    stats = tracking_error_stats(result.trace, result.path, tail=10)
    assert stats.shape == (4,)
    err = result.trace.x[-11:-1] - result.path[-11:-1, None, :]
    np.testing.assert_allclose(stats, np.linalg.norm(err, axis=2).mean(axis=0),
                               atol=1e-14)
    # tail longer than the run clips to the horizon
    full = tracking_error_stats(result.trace, result.path, tail=10_000)
    assert np.all(np.isfinite(full))

    from domd.dynamics import generate_path, identity_dynamics

    path = generate_path(identity_dynamics(2), np.tile([0.01, 0.0], (100, 1)),
                         np.array([-10.0, 0.0]), 100)
    assert target_position_path_length(path, position_dims=(0, 1)) == pytest.approx(1.0)


def test_tracking_error_stats_rejects_empty_tail():
    result = run_experiment(_quad_cfg(horizon=10))
    for tail in (0, -1, -5):
        with pytest.raises(ValueError, match="tail"):
            tracking_error_stats(result.trace, result.path, tail=tail)


def test_sweep_parameter_resolution():
    cfg = _quad_cfg(horizon=10, runs=1)
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "kind", (0.1,))
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "experiment.gradient_mode", (0.1,))
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "bogus", (0.1,))
    with pytest.raises(ConfigError, match="out of range"):
        sweep(cfg, "loss.offset_scale", (-1.0,))
    with pytest.raises(ConfigError, match="at least one run"):
        sweep(cfg, "eta0", (0.1,), runs=0)
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(cfg, "eta0", ())
    # the curves share the base horizon; sweeping it is refused before any
    # run, even for a value equal to the base horizon
    for param, value in (("experiment.horizon", 5), ("horizon", 10)):
        with pytest.raises(ConfigError, match="cannot sweep experiment.horizon"):
            sweep(cfg, param, (value,))
    # the replicate count is the runs argument, so a swept runs is refused too
    for param, value in (("experiment.runs", 5), ("runs", 1)):
        with pytest.raises(ConfigError, match="cannot sweep experiment.runs"):
            sweep(cfg, param, (value,))
    # an integral float is a valid value for an int key
    assert sweep(cfg, "network.rows", (3.0,)).values == (3.0,)


@pytest.mark.parametrize("cfg, param, values, message", [
    (_quad_cfg(horizon=10, runs=1), "network.rows", (2.0, 2.7), "not an integer"),
    (_quad_cfg(horizon=10, runs=1), "geometry.box_low", (-6.0, 20000.0),
     "box_low must be below geometry.box_high"),
    (_tracking_cfg(horizon=10, runs=1), "loss.obs_noise_low", (0.0, 5.0),
     "obs_noise_low must not exceed"),
    (_tracking_cfg(horizon=10, runs=1), "geometry.dim", (4, 3),
     "dynamics.model=ncv requires geometry.dim=4"),
    # the start target (0, 1, 0, 1) leaves a box whose upper bound is 0.5
    (_tracking_cfg(horizon=10, runs=2), "geometry.box_high", (10000.0, 0.5),
     "target_init lies outside the domain"),
    (_quad_cfg(horizon=10, runs=1, graph="path", nodes=4), "network.nodes", (3, 1),
     "network path needs at least two nodes"),
    # drawn inputs, refused as the values' one batch is built, name their replicate:
    # the default config's NCV path overflows in round 2 at eps = 1e300
    (_tracking_cfg(horizon=10, runs=2), "dynamics.eps", (0.1, 1e300),
     "the target path is not finite from round 2 (dynamics.eps=1e+300, run 0)"),
    (_quad_cfg(horizon=10, runs=2), "loss.offset_scale", (0.2, 100.0),
     "synthetic centers leave the domain; shrink offsets or noise (loss.offset_scale=100, run 0)"),
    # a value its key's check refuses, named as in a config file
    (_tracking_cfg(horizon=10, runs=1), "noise.sigma_v2", (0.5, -1),
     "noise.sigma_v2: value -1.0 out of range"),
    # a finite path whose residual norms pass the float range: C_T is +inf
    (_tracking_cfg(horizon=20, runs=1, schedule_kind="variation_tuned"), "dynamics.eps",
     (0.1, 1e150), f"{VT_OVERFLOW} (dynamics.eps=1e+150, run 0)"),
])
def test_sweep_checks_every_value_before_any_run(cfg, param, values, message, monkeypatch):
    # the config-file rules, cross-field ones included, hold for swept values
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every value was checked")

    monkeypatch.setattr(domd.harness, "run", no_run)  # the engine call of every sweep run
    with pytest.raises(ConfigError, match=re.escape(message)):
        sweep(cfg, param, values)


def test_a_variation_tuned_run_whose_path_variation_overflows_is_a_config_error(monkeypatch):
    # eps = 1e150 keeps the 20-round NCV path finite, but its residual norms
    # overflow, so the tuned step would be +inf; refused before the engine runs
    monkeypatch.setattr(domd.harness, "run", None)
    cfg = _tracking_cfg(horizon=20, eps=1e150, schedule_kind="variation_tuned")
    assert np.isfinite(build_noise(cfg, 0)).all()
    with pytest.raises(ConfigError, match=f"^{re.escape(VT_OVERFLOW)}$"):
        run_experiment(cfg)


def _count_engine_runs(monkeypatch):
    calls = []
    engine_run = domd.harness.run
    monkeypatch.setattr(domd.harness, "run",
                        lambda *a, **k: calls.append(1) or engine_run(*a, **k))
    return calls


def test_sweep_checks_synthetic_centres_before_any_engine_call(monkeypatch):
    # the centres come from each replicate's drawn losses, yet a value whose
    # centres leave the domain stops the sweep before the first value runs
    calls = _count_engine_runs(monkeypatch)
    with pytest.raises(ConfigError, match="synthetic centers leave the domain"):
        sweep(_quad_cfg(horizon=50, runs=2), "loss.offset_scale", (0.2, 100.0))
    assert calls == []
    sweep(_quad_cfg(horizon=50, runs=2), "loss.offset_scale", (0.2,))
    assert calls == [1]


def test_sweep_samples_erdos_renyi_graphs_before_any_engine_call(monkeypatch):
    # 50 nodes at edge_prob 0.01 never draw a connected graph
    calls = _count_engine_runs(monkeypatch)
    cfg = _tracking_cfg(graph="erdos_renyi", nodes=50, horizon=20)
    with pytest.raises(ConfigError, match="network.nodes=50, network.edge_prob=0.01"):
        sweep(cfg, "network.edge_prob", (0.5, 0.01), runs=2)
    assert calls == []


@pytest.mark.parametrize("cfg", [_tracking_cfg(horizon=20), _quad_cfg(horizon=20)],
                         ids=["tracking", "quadratic"])
def test_sweep_rolls_each_batch_of_paths_once(cfg, monkeypatch):
    # one roll of the engine batch's paths, both values', which also checks
    # a quadratic sweep's centres
    calls = []
    roll = domd.harness.generate_path
    monkeypatch.setattr(domd.harness, "generate_path",
                        lambda dyn, noise, *a: calls.append(np.shape(noise)) or roll(dyn, noise, *a))
    sweep(cfg, "eta0", (0.1, 0.2), runs=3)
    assert calls == [(6, 20, cfg.dim)]


def test_a_quadratic_sweep_across_setups_refuses_a_later_setup_after_the_first_ran(
        tmp_path, monkeypatch):
    # box_high 0.6 builds a second setup, whose centres leave its box: the
    # first setup runs, then the second is refused, and no sweep.csv is written
    calls = _count_engine_runs(monkeypatch)
    with pytest.raises(ConfigError) as info:
        sweep(_quad_cfg(runs=2), "geometry.box_high", (5.0, 0.6), out_dir=tmp_path / "sweep")
    assert str(info.value) == ("synthetic centers leave the domain; shrink offsets or noise "
                               "(geometry.box_high=0.6, run 0)")
    assert calls == [1]
    assert not (tmp_path / "sweep").exists()


def test_sweep_shapes_and_outputs(tmp_path):
    cfg = _quad_cfg(horizon=30, runs=2)
    out = tmp_path / "sweep"
    result = sweep(cfg, "eta0", (0.1, 0.2), out_dir=out)
    assert result.mean_curves.shape == (2, 30)
    assert result.std_curves.shape == (2, 30)
    np.testing.assert_allclose(result.final_mean, result.mean_curves[:, -1])
    comments, header, rows = read_csv(out / "sweep.csv")
    assert header == ["value", "t", "mean_normalized", "std_normalized"]
    assert len(rows) == 2 * 30
    assert any("param=eta0" in c for c in comments)


def test_sweep_csv_value_column_as_passed(tmp_path):
    # int keys print as ints, one block of horizon rows per value
    sweep(ExperimentConfig(horizon=5, runs=1), "network.rows", (2, 3), out_dir=tmp_path)
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    assert [row[:2] for row in rows[::5]] == [["2", "1"], ["3", "1"]]
    assert [row[1] for row in rows] == ["1", "2", "3", "4", "5"] * 2


def test_sweep_csv_keeps_values_a_float_would_round(tmp_path):
    # 2**53 + 1 has no float64; its cells must not print as 9007199254740992
    big = 2 ** 53 + 1
    result = sweep(ExperimentConfig(horizon=5, runs=1), "experiment.seed", (big, 3),
                   out_dir=tmp_path)
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    assert [row[0] for row in rows] == [str(big)] * 5 + ["3"] * 5
    assert [row[1] for row in rows] == ["1", "2", "3", "4", "5"] * 2
    cells = np.array([[float(c) for c in row[2:]] for row in rows])
    np.testing.assert_array_equal(cells[:, 0], result.mean_curves.ravel())
    np.testing.assert_array_equal(cells[:, 1], result.std_curves.ravel())


def test_sweep_replicates_redraw_paths_unless_fixed():
    base = _tracking_cfg(horizon=20, runs=2, gradient_mode="exact")
    fixed = sweep(replace(base, fixed_path=True), "noise.sigma_v2", (0.5,))
    np.testing.assert_allclose(fixed.std_curves, 0.0, atol=1e-12)
    redrawn = sweep(replace(base, fixed_path=False), "noise.sigma_v2", (0.5,))
    assert redrawn.std_curves.max() > 1e-6


def test_batched_runs_equal_runs_alone(monkeypatch):
    # batches of 3 and 1 replicates, each one engine.run call
    cfg = _tracking_cfg(horizon=60)
    monkeypatch.setattr(domd.harness, "BATCH_TRACE_BYTES", 3 * 61 * 25 * 4 * 8)
    batched = list(run_experiments(cfg, range(4)))
    curves = []
    for r, result in enumerate(batched):
        alone = run_experiment(cfg, run_index=r)
        assert np.array_equal(result.trace.x, alone.trace.x)
        assert np.array_equal(result.regret.normalized, alone.regret.normalized)
        assert result.regret.static_regret == alone.regret.static_regret
        assert np.array_equal(result.bounds.disagreement_curve,
                              alone.bounds.disagreement_curve)
        curves.append(alone.regret.normalized)
    assert batched[0].trace.x.base is batched[2].trace.x.base
    assert batched[3].trace.x.base is not batched[0].trace.x.base
    result = sweep(cfg, "noise.sigma_v2", (0.5,), runs=4)
    assert np.array_equal(result.mean_curves[0], np.mean(curves, axis=0))
    assert np.array_equal(result.std_curves[0], np.std(curves, axis=0))


def test_executor_runs_each_batch_in_one_engine_call(monkeypatch):
    # a batch of one included: verify's three seeds of a case are one batch,
    # and the static and contracting box cases at n = 4 and n = 9 share one
    # each; a sweep's values share one loop unless they change what the engine
    # is built from (here the network) or what its replicates must share to
    # stack (here the observation noise), and the dynamics is neither
    calls = _count_engine_runs(monkeypatch)
    verify_bounds(seeds=3)
    assert len(calls) == len(bound_suite()) - 2 == 8
    calls.clear()
    sweep(_tracking_cfg(horizon=20), "dynamics.eps", (0.05, 0.1), runs=2)
    assert len(calls) == 1
    calls.clear()
    sweep(_tracking_cfg(horizon=20), "noise.sigma_v2", (0.25, 0.5, 0.75, 1.0), runs=4)
    assert len(calls) == 1
    calls.clear()
    sweep(_tracking_cfg(horizon=20), "eta0", (0.25, 0.5, 1.0), runs=2)
    assert len(calls) == 1
    calls.clear()
    sweep(_tracking_cfg(horizon=20), "network.rows", (2, 3, 4), runs=2)
    assert len(calls) == 3
    calls.clear()
    sweep(_tracking_cfg(horizon=20), "loss.obs_noise_high", (0.5, 1.0), runs=2)
    assert len(calls) == 2
    calls.clear()
    run_experiment(_tracking_cfg(horizon=20))
    assert len(calls) == 1


@pytest.mark.parametrize("param, values", [
    ("noise.sigma_v2", (0.25, 0.5, 1.0)),
    ("eta0", (0.2, 0.5)),
    ("network.rows", (2, 3)),
    ("loss.obs_noise_high", (0.5, 1.0)),
])
def test_sweep_curves_equal_per_value_runs(param, values):
    cfg = _tracking_cfg(horizon=40, runs=3)
    result = sweep(cfg, param, values)
    attr = domd.harness._resolve_param(param)[0]
    for k, value in enumerate(values):
        runs = run_experiments(replace(cfg, **{attr: value}), range(3))
        curves = [r.regret.normalized for r in runs]
        assert np.array_equal(result.mean_curves[k], np.mean(curves, axis=0))
        assert np.array_equal(result.std_curves[k], np.std(curves, axis=0))


def _recorded_curves(monkeypatch):
    """The normalized regret of every dynamic_regret call of the harness, in order."""
    curves = []
    measure = domd.harness.dynamic_regret

    def recorded(*args):
        report = measure(*args)
        curves.append(report.normalized)
        return report

    monkeypatch.setattr(domd.harness, "dynamic_regret", recorded)
    return curves


@pytest.mark.parametrize("cfg, param, values", [
    (_tracking_cfg(horizon=40), "noise.sigma_v2", (0.25, 0.5, 1.0)),
    (_quad_cfg(horizon=40), "loss.offset_scale", (0.1, 0.2)),
], ids=["tracking", "quadratic"])
def test_every_sweep_curve_is_its_run_alone(cfg, param, values, monkeypatch):
    # each replicate's normalized regret, as the sweep averages it, is bit for
    # bit the curve of that (value, run) run on its own
    curves = _recorded_curves(monkeypatch)
    sweep(cfg, param, values, runs=3)
    monkeypatch.undo()
    attr = domd.harness._resolve_param(param)[0]
    alone = [next(run_experiments(replace(cfg, **{attr: value}), [i])).regret.normalized
             for value in values for i in range(3)]
    assert len(curves) == len(alone) == 3 * len(values)
    assert all(map(_same_bits, curves, alone))


def test_a_sweep_batch_holds_what_a_sweep_keeps(monkeypatch):
    # a sweep takes no bound recursion, so its batches count no rows for one:
    # 120 default replicates fit one engine call (109 did when they were counted)
    cfg = _tracking_cfg()  # the default 5x5 grid, T = 1000
    calls = _count_engine_runs(monkeypatch)
    curves = _recorded_curves(monkeypatch)
    sweep(cfg, "noise.sigma_v2", (0.5,), runs=120)
    assert len(calls) == 1
    monkeypatch.undo()
    alone = [r.regret.normalized for r in run_experiments(cfg, range(120))]
    assert len(curves) == len(alone) == 120
    assert all(map(_same_bits, curves, alone))


def test_a_sweep_measures_no_static_regret_or_guarantee(monkeypatch):
    # sweep.csv reads only the normalized dynamic regret: a sweep takes no
    # best fixed point, bound recursion or guarantee, and its result stays
    cfg = _tracking_cfg(horizon=40, runs=2)
    want = sweep(cfg, "noise.sigma_v2", (0.25, 0.5))

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep measured more than its curves")

    for module in (domd.harness, domd.metrics):
        for name in ("static_regret", "regret_guarantee", "_guarantee_steps"):
            monkeypatch.setattr(module, name, refuse)
    assert _same(sweep(cfg, "noise.sigma_v2", (0.25, 0.5)), want)


def test_the_checks_measure_no_static_regret_or_tuned_bound(monkeypatch):
    # verify.csv, the noisy mean regret and the scaling study read neither the
    # static regret nor the variation-tuned bound, so their runs take neither
    # and their results stay; the runs of domd run still take both.  The
    # scaling study's schedule is its own tuned step (harness.tuned_step).
    def checks():
        return (verify_bounds(2), stochastic_mean_regret("box_quad_noisy_n4_t100", runs=2),
                variation_scaling_study(horizons=(60, 120)))

    want = checks()
    cfg = _tracking_cfg(horizon=40)

    def refuse(*args, **kwargs):
        raise AssertionError("a check measured what it does not read")

    for module, name in ((domd.harness, "static_regret"), (domd.metrics, "static_regret"),
                         (domd.metrics, "tuned_step")):
        monkeypatch.setattr(module, name, refuse)
    assert _same(checks(), want)
    with pytest.raises(AssertionError, match="a check measured"):
        run_experiment(cfg)
    monkeypatch.undo()
    for result in [run_experiment(cfg)] + list(run_experiments(cfg, range(2))):
        assert isinstance(result.regret.static_regret, float)
        assert np.isfinite(result.bounds.variation_tuned_value)


def _sweep_peak(cfg, values, runs):
    """tracemalloc peak of a noise.sigma_v2 sweep, after a warm-up run."""
    sweep(cfg, "noise.sigma_v2", (0.5,), runs=1)  # warm caches and imports
    tracemalloc.start()
    try:
        sweep(cfg, "noise.sigma_v2", values, runs=runs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("values", [(0.5,), (0.5, 0.75), (0.25, 0.5, 0.75, 1.0)],
                         ids=["one_value", "two_values", "four_values"])
def test_sweep_value_memory_is_its_replicate_traces(values):
    # no run keeps its trace, so even four values sharing one loop stay within
    # the budget of one value's four traces
    cfg = _tracking_cfg()  # the default 5x5 grid, T = 1000
    trace = (cfg.horizon + 1) * 25 * 4 * 8
    peak = _sweep_peak(cfg, values, runs=4)
    assert peak < 4 * trace + 1.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_small_cap_splits_an_iterate_free_sweep(monkeypatch):
    cfg = _tracking_cfg(horizon=60)
    values = (0.25, 0.5, 0.75, 1.0)
    whole = sweep(cfg, "noise.sigma_v2", values, runs=4)
    calls = _count_engine_runs(monkeypatch)
    monkeypatch.setattr(domd.harness, "BATCH_TRACE_BYTES",
                        3 * domd.harness._replicate_bytes(cfg, False))
    capped = sweep(cfg, "noise.sigma_v2", values, runs=4)
    assert len(calls) == 6  # 16 replicates, at most 3 a batch
    assert np.array_equal(capped.mean_curves, whole.mean_curves)
    assert np.array_equal(capped.std_curves, whole.std_curves)


def test_suite_sigma2_is_computed_once_per_case(monkeypatch):
    calls = []
    svd = domd.harness.second_singular_value
    monkeypatch.setattr(domd.harness, "second_singular_value",
                        lambda w: calls.append(w) or svd(w))
    verify_bounds(seeds=3)
    # once per setup: each static box case shares its case's with its contracting twin
    assert len(calls) == len(bound_suite()) - 2
    calls.clear()
    stochastic_mean_regret("box_quad_noisy_n4_t100", runs=5)
    assert len(calls) == 1


def test_suite_weights_are_built_once_per_case(monkeypatch):
    builds = []
    build = domd.harness.metropolis_weights
    monkeypatch.setattr(domd.harness, "metropolis_weights",
                        lambda g: builds.append(g) or build(g))
    verify_bounds(seeds=3)
    assert len(builds) == len(bound_suite()) == 10


def _record_calls(monkeypatch, *names):
    """The names of the harness functions `names` in the order they are called."""
    calls = []
    for name in names:
        fn = getattr(domd.harness, name)
        monkeypatch.setattr(domd.harness, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    return calls


def test_suite_builds_each_batch_just_before_it_runs(monkeypatch):
    # one replicate per batch: a seed's path is rolled right before its engine call,
    # not every seed's before the first
    monkeypatch.setattr(domd.harness, "BATCH_TRACE_BYTES", 1)
    calls = _record_calls(monkeypatch, "generate_path", "run")
    verify_bounds(seeds=3)
    assert calls == ["generate_path", "run"] * 3 * len(bound_suite())


def test_suite_rolls_each_batch_of_paths_once(monkeypatch):
    calls = _record_calls(monkeypatch, "generate_path")
    verify_bounds(seeds=3)
    assert len(calls) == len(bound_suite()) == 10


@pytest.mark.parametrize("size", [1, 2])
def test_verify_rows_do_not_depend_on_the_batch_size(size, monkeypatch):
    whole = verify_bounds(seeds=3).rows  # each case's three seeds in one batch
    calls = _count_engine_runs(monkeypatch)
    monkeypatch.setattr(domd.harness, "_replicate_batches",
                        lambda items, *shape: [items[k:k + size]
                                               for k in range(0, len(items), size)])
    assert verify_bounds(seeds=3).rows == whole
    # six single-case setups of three seeds and two merged pairs of six
    assert len(calls) == {1: 30, 2: 6 * 2 + 2 * 3}[size]


def test_suite_results_carry_the_scaled_ensemble_of_their_bounds():
    case = _suite_case("box_quad_noisy_n4_t100")
    for seed, result in enumerate(_case_runs(case, range(2), 0, l_scale=0.5)):
        weights, domain, dyn, ens, path, etas = _build_case(case, seed)
        assert result.ensemble.lipschitz == 0.5 * ens.lipschitz
        assert result.ensemble.second_moment == 0.25 * ens.second_moment
        assert np.array_equal(result.path, path)
        want = regret_guarantee(geometry_constants(domain), 0.5 * ens.lipschitz,
                                second_singular_value(weights), etas,
                                residual_norms(path, dyn, domain), weights.n,
                                grad_second_moment=0.25 * ens.second_moment)
        for name in ("total", "stochastic_total", "local_gap_rhs", "e_net"):
            assert getattr(result.bounds, name) == getattr(want, name), name
        assert np.array_equal(result.bounds.disagreement_curve, want.disagreement_curve)


def test_bounds_and_regret_report_one_path_variation():
    # every run has its bounds, a written run its static regret, and C_T of
    # regret.csv and of bounds.csv come from the same residual norms
    written = run_experiment(ExperimentConfig(), run_index=0)
    assert isinstance(written.regret.static_regret, float)
    results = [written] + [r for case in bound_suite() for r in _case_runs(case, range(2), 0)]
    for result in results:
        assert isinstance(result.bounds, BoundReport), result.config
        assert result.bounds.c_t == result.regret.path_variation, result.config


# a drift that sums to zero keeps the target on the simplex, and its l1 and l2
# sizes differ (0.002 against 0.0014)
SIMPLEX_DRIFT = dict(domain_kind="simplex", dim=3, target_init=(), loss_kind="synthetic_linear",
                     noise_kind="constant_drift", drift=(0.001, -0.001, 0.0))


@pytest.mark.parametrize("cfg, case, kind", [
    (_quad_cfg(**SIMPLEX_DRIFT), "simplex_quad_noisy_n4_t100", "simplex"),
    (_tracking_cfg(horizon=50), "box_quad_noisy_n4_t100", "box"),
], ids=["simplex", "box"])
def test_path_variation_is_measured_in_the_geometry_norm(cfg, case, kind):
    # C_T = sum_t ||x*_{t+1} - A x*_t|| in the domain's own norm: l1 on the KL
    # simplex, l2 on the euclidean box, in regret.csv and bounds.csv alike; a
    # domain of the other kind and the same d measures another C_T
    runs = [(run_experiment(cfg), build_dynamics(cfg))]
    runs += [(result, _build_case(_suite_case(case), 0)[2])
             for result in _case_runs(_suite_case(case), range(1), 0)]
    for result, dyn in runs:
        domain = result.trace.domain
        assert domain.kind == kind
        other = (simplex_domain(domain.d, 0.01) if kind == "box"
                 else box_domain(np.full(domain.d, -1.0), np.full(domain.d, 1.0)))
        c_t = float(residual_norms(result.path, dyn, domain).sum())
        assert result.bounds.c_t == result.regret.path_variation == c_t, result.config
        assert c_t != float(residual_norms(result.path, dyn, other).sum()), result.config


def test_batch_bounds_equal_each_runs_own_guarantee(monkeypatch):
    # two values' runs, one without target noise (C_T = 0, no tuned step),
    # share one roll, one engine call and one bound recursion; every report
    # equals regret_guarantee of its run alone, bit for bit, with the note of
    # the NCV dynamics' failed verdict
    cfg = _tracking_cfg(horizon=40, schedule_kind="variation_tuned")
    keys = [(replace(cfg, sigma_v2=value), i) for value in (0.0, 0.5) for i in range(2)]
    calls = _count_engine_runs(monkeypatch)
    setups = domd.harness._setup_runs(keys)
    ks, results = zip(*domd.harness._execute(setups, domd.harness._config_draft))
    assert len(calls) == 1
    assert ks == (0, 1, 2, 3)
    weights, domain, dyn = domd.harness._assemble(cfg)
    notes = (f"not a guarantee: {dynamics_verdict(domain, dyn.a)[2]}",)
    for result in results:
        norms = residual_norms(result.path, dyn, domain)
        want = regret_guarantee(geometry_constants(domain), result.ensemble.lipschitz,
                                result.sigma2, result.trace.etas, norms, weights.n,
                                grad_second_moment=result.ensemble.second_moment,
                                notes=notes)
        for name, got in vars(result.bounds).items():
            expected = getattr(want, name)
            if isinstance(got, np.ndarray):
                assert got.tobytes() == expected.tobytes(), name
            else:
                assert got == expected or (got != got and expected != expected), name
        assert result.regret.path_variation == float(norms.sum())
    assert results[0].bounds.c_t == 0.0 and results[2].bounds.c_t > 0.0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# each case's network and geometry as literal constructions: (weights,
# box half-width or None for the 0.01-floor 3-simplex, scale of A = scale * I)
SUITE_LITERALS = {
    "box_quad_static_n4_t100": (lambda: metropolis_weights(build_grid_graph(2, 2)), 5.0, 1.0),
    "box_quad_static_n9_t300": (lambda: metropolis_weights(build_grid_graph(3, 3)), 5.0, 1.0),
    "box_quad_contract_n4_t100": (lambda: metropolis_weights(build_grid_graph(2, 2)), 5.0,
                                  0.9),
    "box_quad_contract_n9_t300": (lambda: metropolis_weights(build_grid_graph(3, 3)), 5.0,
                                  0.9),
    # Metropolis weights of the complete graph on 4 nodes: the bits of the 1/4 matrix
    "box_quad_complete_n4_t100": (lambda: uniform_complete_weights(4), 5.0, 1.0),
    "simplex_quad_n4_t100": (lambda: metropolis_weights(build_grid_graph(2, 2)), None, 1.0),
    "simplex_quad_n9_t300": (lambda: metropolis_weights(build_grid_graph(3, 3)), None, 1.0),
    "box_linear_polarized_n3_t120": (lambda: metropolis_weights(build_path_graph(3)), 2.0,
                                     1.0),
    "box_quad_noisy_n4_t100": (lambda: metropolis_weights(build_grid_graph(2, 2)), 5.0, 1.0),
    "simplex_quad_noisy_n4_t100": (lambda: metropolis_weights(build_grid_graph(2, 2)), None,
                                   1.0),
}


def test_suite_cases_build_the_literal_networks():
    assert [case.name for case in bound_suite()] == list(SUITE_LITERALS)
    for case in bound_suite():
        weights, half, scale = SUITE_LITERALS[case.name]
        got_weights, domain, dyn = _build_case(case, 0)[:3]
        assert _same_bits(got_weights.w, weights().w), case.name
        if half is None:
            want = simplex_domain(3, 0.01)
            assert (domain.kind, domain.d, domain.floor) == ("simplex", 3, want.floor)
        else:
            want = box_domain(np.full(2, -half), np.full(2, half))
            assert domain.kind == "box"
            assert _same_bits(domain.lo, want.lo), case.name
            assert _same_bits(domain.hi, want.hi), case.name
        assert _same_bits(dyn.a, scale * np.eye(domain.d)), case.name


def test_suite_configs_are_valid_configs():
    for case in bound_suite():
        assert cross_validate(case.cfg) is case.cfg
        # the oracle mode follows the declared oracle noise
        assert (case.cfg.gradient_mode == "stochastic") == (case.cfg.oracle_noise > 0)
    assert bound_suite() is bound_suite()  # built once


def test_stochastic_mean_regret_equals_runs_alone():
    case = _suite_case("simplex_quad_noisy_n4_t100")
    regrets = []
    for seed in range(3, 6):
        weights, domain, dyn, ens, path, etas = _build_case(case, seed)
        trace = run(weights, domain, dyn, [(ens, path, etas, _derive_seed(seed, _ORACLE, 1))],
                    case.cfg.horizon, mode="stochastic")[0]
        regrets.append(dynamic_regret(trace, ens, path).dynamic_regret)
    mean, _ = stochastic_mean_regret(case.name, runs=3, base_seed=3)
    assert mean == float(np.mean(regrets))
    with pytest.raises(ValueError, match="at least one run"):
        stochastic_mean_regret(case.name, runs=0)


@pytest.mark.parametrize("l_scale", [1.0, 0.5])
def test_verify_noisy_row_averages_runs_alone(l_scale):
    # mean of solo runs against the last seed's expected-regret guarantee,
    # its L scaled by l_scale and its G^2 by l_scale**2
    case = _suite_case("box_quad_noisy_n4_t100")
    regrets = []
    for seed in range(3):
        weights, domain, dyn, ens, path, etas = _build_case(case, seed)
        trace = run(weights, domain, dyn, [(ens, path, etas, _derive_seed(seed, _ORACLE, 0))],
                    case.cfg.horizon, mode="stochastic")[0]
        regrets.append(dynamic_regret(trace, ens, path).dynamic_regret)
    bound = regret_guarantee(geometry_constants(domain), l_scale * ens.lipschitz,
                             second_singular_value(weights), trace.etas,
                             residual_norms(path, dyn, domain), weights.n,
                             grad_second_moment=l_scale**2 * ens.second_moment)
    report = verify_bounds(seeds=3, l_scale=l_scale)
    [row] = [r for r in report.rows if r.case == case.name]
    assert (row.seed, row.mode, row.check) == (-1, "stochastic", "mean_regret")
    assert row.empirical == float(np.mean(regrets))
    assert row.bound == bound.stochastic_total
    assert row.slack == row.bound - row.empirical
    assert row.passed == (row.slack >= -SLACK_TOL)


def test_verify_bounds_passes_and_reports(tmp_path):
    out = tmp_path / "verify"
    report = verify_bounds(seeds=2, out_dir=out)
    assert report.passed and report.violations == 0
    exact_cases = [c for c in bound_suite() if c.cfg.gradient_mode == "exact"]
    noisy_cases = [c for c in bound_suite() if c.cfg.gradient_mode == "stochastic"]
    assert len(report.rows) == len(exact_cases) * 2 * 4 + len(noisy_cases)
    comments, header, rows = read_csv(out / "verify.csv")
    assert header[:4] == ["case", "seed", "mode", "check"]
    assert len(rows) == len(report.rows)
    assert any("violations=0" in c for c in comments)
    checks = {r.check for r in report.rows}
    assert checks == {"disagreement", "regret_total", "local_gap",
                      "regret_nonneg", "mean_regret"}


def test_verify_bounds_negative_control():
    report = verify_bounds(seeds=1, l_scale=0.5)
    assert not report.passed and report.violations >= 1
    failing = {r.case for r in report.rows if not r.passed}
    assert "box_linear_polarized_n3_t120" in failing
    with pytest.raises(ConfigError, match="need at least one seed"):
        verify_bounds(seeds=0)


@pytest.mark.parametrize("l_scale", [0.0, -1.0, float("nan"), float("inf")])
def test_verify_bounds_rejects_non_positive_l_scale(l_scale):
    # a scale of zero or below makes every bound negative: violations that test nothing
    with pytest.raises(ConfigError, match="l_scale must be positive"):
        verify_bounds(seeds=1, l_scale=l_scale)


def test_stochastic_mean_regret():
    mean, bound = stochastic_mean_regret("box_quad_noisy_n4_t100", runs=3)
    assert mean <= bound
    assert mean > 0
    with pytest.raises(ValueError, match="noiseless"):
        stochastic_mean_regret("box_quad_static_n4_t100", runs=3)
    with pytest.raises(ValueError, match="unknown suite case"):
        stochastic_mean_regret("nope", runs=3)


def test_stochastic_mean_regret_rejects_a_negative_base_seed(monkeypatch):
    def no_build(cfg):
        raise AssertionError("graph built before base_seed was checked")

    monkeypatch.setattr(domd.harness, "build_graph", no_build)
    with pytest.raises(ValueError, match="base_seed must be non-negative, got -1"):
        stochastic_mean_regret("box_quad_noisy_n4_t100", runs=2, base_seed=-1)


def test_variation_scaling_study_small():
    study = variation_scaling_study(horizons=(40, 80))
    assert study.sigma2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    # constant per-round drift makes the tuned step horizon-independent
    assert study.eta == pytest.approx(np.sqrt(0.01 * (1.0 - study.sigma2)))
    assert np.all(study.regrets > 0)
    assert np.all(np.isfinite(study.ratios))
    np.testing.assert_allclose(
        study.denominators,
        np.sqrt(0.01 * np.array([40, 80]) ** 2 / (1 - study.sigma2)))
    # a drift that carries the target out of the box is refused like any config
    with pytest.raises(ConfigError, match="centers leave the domain"):
        variation_scaling_study(horizons=(100,), drift_size=0.5)
    with pytest.raises(ValueError, match="nonzero drift_size"):
        variation_scaling_study(horizons=(40,), drift_size=0.0)
    # its configs refuse a bad seed or horizon as a config file's would
    with pytest.raises(ConfigError, match="^experiment.seed: value -1 out of range$"):
        variation_scaling_study(horizons=(40,), seed=-1)
    with pytest.raises(ConfigError, match="^experiment.horizon: value 0 out of range$"):
        variation_scaling_study(horizons=(40, 0))


# ------------------------------------------- batches whose replicates differ in A


def _per_case_verify_rows(seeds):
    """verify_bounds' rows built as one _case_runs per case, no case sharing a batch."""
    rows = []
    for case in bound_suite():
        results = _case_runs(case, range(seeds), 0)
        if case.cfg.gradient_mode == "stochastic":
            rows.append(CheckRow(case.name, -1, "stochastic", "mean_regret",
                                 *domd.harness._upper_check(*domd.harness._mean_regret(results))))
            continue
        for s, result in enumerate(results):
            regret = result.regret.dynamic_regret
            rows += check_rows(result, case.name, s)
            rows.append(CheckRow(case.name, s, "exact", "regret_nonneg", regret, 0.0, regret,
                                 bool(regret >= -SLACK_TOL)))
    return rows


def test_merged_verify_rows_equal_per_case_runs():
    got, want = verify_bounds(seeds=3).rows, _per_case_verify_rows(3)
    assert len(got) == len(want) == 8 * 3 * 4 + 2
    for row, ref in zip(got, want):
        for field in fields(CheckRow):  # repr tells -0.0 from 0.0 and every float apart
            assert repr(getattr(row, field.name)) == repr(getattr(ref, field.name)), field.name


def test_a_mixed_dynamics_batch_notes_each_replicate_by_its_own_verdict(monkeypatch):
    # NCV leaves the default box and A = I keeps it: one setup, one engine
    # call, one verdict per distinct dynamics, each run its own note and
    # otherwise the run alone (the third key re-assembles NCV, equal to the first)
    ncv = _tracking_cfg(horizon=20)
    still = replace(ncv, dynamics_model="identity", noise_kind="zero")
    keys = [(ncv, 0), (still, 0), (ncv, 1), (still, 1)]
    calls = _record_calls(monkeypatch, "dynamics_verdict", "run", "generate_path")
    setups = domd.harness._setup_runs(keys)
    ks, results = zip(*domd.harness._execute(setups, domd.harness._config_draft))
    assert ks == (0, 1, 2, 3)
    assert calls == ["generate_path"] * 4 + ["run", "dynamics_verdict", "dynamics_verdict"]
    assert [_not_a_guarantee(r) for r in results] == [[NCV_ROW_0], [], [NCV_ROW_0], []]
    monkeypatch.undo()
    for (cfg, i), result in zip(keys, results):
        [alone] = run_experiments(cfg, [i])
        assert _same_bits(result.trace.x, alone.trace.x)
        assert _same_bits(result.regret.normalized, alone.regret.normalized)
        assert result.regret.static_regret == alone.regret.static_regret
        assert result.bounds.total == alone.bounds.total
        assert _same_bits(result.bounds.disagreement_curve, alone.bounds.disagreement_curve)
        assert result.bounds.notes == alone.bounds.notes


def test_a_dynamics_eps_sweep_is_one_engine_call_equal_to_each_value_alone(monkeypatch,
                                                                           tmp_path):
    cfg = _tracking_cfg(horizon=30)
    values = (0.05, 0.1)
    calls = _count_engine_runs(monkeypatch)
    sweep(cfg, "dynamics.eps", values, runs=2, out_dir=tmp_path / "both")
    assert len(calls) == 1
    rows = read_csv(tmp_path / "both" / "sweep.csv")[2]
    for value in values:
        sweep(cfg, "dynamics.eps", (value,), runs=2, out_dir=tmp_path / str(value))
        alone = read_csv(tmp_path / str(value) / "sweep.csv")[2]
        assert [row for row in rows if row[0] == alone[0][0]] == alone
        assert len(alone) == cfg.horizon


def test_a_merged_suite_batch_names_the_failing_case_and_seed(monkeypatch):
    # the static and contracting n = 4 box cases run first, as one batch of
    # six: its replicate 4 is the contracting case's seed 1
    oracle = domd.engine.gradients_exact_batch

    def poisoned(ens, t, x, centers):
        g = oracle(ens, t, x, centers)
        if t == 5 and len(g) == 6:
            g[4, 2, 0] = np.nan
        return g

    monkeypatch.setattr(domd.engine, "gradients_exact_batch", poisoned)
    with pytest.raises(EngineError, match=r"^gradients became non-finite in round 5 "
                                          r"\(box_quad_contract_n4_t100 seed 1, agent 2\)$"):
        verify_bounds(seeds=3)


# ------------------------------------- setups grouped by what they build, wherever they sit


def test_keys_that_differ_in_their_start_target_are_two_setups_each_its_run_alone(monkeypatch):
    # equal W, domain, mode and horizon but another start target: two setups,
    # two engine calls, and each result the run of its config alone
    cfg = _quad_cfg(horizon=30)
    other = replace(cfg, target_init=(-0.5, 0.5))
    calls = _count_engine_runs(monkeypatch)
    setups = domd.harness._setup_runs([(cfg, 0), (other, 0)])
    ks, results = zip(*domd.harness._execute(setups, domd.harness._config_draft))
    assert ks == (0, 1) and len(calls) == 2
    monkeypatch.undo()
    for c, result in zip((cfg, other), results):
        [alone] = run_experiments(c, [0])
        assert _same_bits(result.path, alone.path)
        assert _same_bits(result.trace.x, alone.trace.x)
        assert _same_bits(result.regret.normalized, alone.regret.normalized)
        assert result.regret.static_regret == alone.regret.static_regret
        assert result.bounds.total == alone.bounds.total
        assert _same_bits(result.bounds.disagreement_curve, alone.bounds.disagreement_curve)
    assert not _same_bits(results[0].path[:1], results[1].path[:1])


def test_a_sweep_that_revisits_a_setup_shares_its_engine_loop(monkeypatch, tmp_path):
    # rows = 3 again after rows = 5: its runs join the first rows = 3 loop, and
    # every block of sweep.csv is the sweep of its value alone
    cfg = _tracking_cfg(horizon=20)
    calls = _count_engine_runs(monkeypatch)
    sweep(cfg, "network.rows", (3, 5, 3), runs=2, out_dir=tmp_path / "all")
    assert len(calls) == 2
    rows = read_csv(tmp_path / "all" / "sweep.csv")[2]
    blocks = [rows[k * cfg.horizon:(k + 1) * cfg.horizon] for k in range(3)]
    for value, block in zip((3, 5, 3), blocks):
        sweep(cfg, "network.rows", (value,), runs=2, out_dir=tmp_path / str(value))
        assert block == read_csv(tmp_path / str(value) / "sweep.csv")[2]


def test_a_merged_sweep_batch_names_the_failing_value_and_run(monkeypatch):
    # the rows = 3 loop holds keys 0, 1, 4 and 5: its replicate 3 is the
    # second rows = 3 value's run 1, and the rows = 5 run 1 sits at key 3
    oracle = domd.engine.gradients_stochastic_batch

    def poisoned(ens, t, x, centers, sample):
        g = oracle(ens, t, x, centers, sample)
        if t == 5 and len(g) == 4:
            g[3, 2, 0] = np.nan
        return g

    monkeypatch.setattr(domd.engine, "gradients_stochastic_batch", poisoned)
    with pytest.raises(EngineError, match=r"^gradients became non-finite in round 5 "
                                          r"\(network.rows=3, run 1, agent 2\)$"):
        sweep(_tracking_cfg(horizon=20), "network.rows", (3, 5, 3), runs=2)


def test_every_suite_path_starts_at_its_configs_start_target():
    # the start is config: a simplex case declares _simplex_loop's first state
    simplex = 0
    for case in bound_suite():
        for seed in range(2):
            _, domain, _, _, path, _ = _build_case(case, seed)
            start = domd.harness._start_target(case.cfg, domain)
            assert _same_bits(path[0], start), case.name
            if domain.kind == "simplex":
                loop_start = domd.harness._simplex_loop(case.cfg.horizon)[0]
                assert _same_bits(start, loop_start), case.name
                simplex += 1
    assert simplex == 3 * 2


@pytest.mark.parametrize("call, assembled", [
    (lambda: list(run_experiments(_tracking_cfg(horizon=10), range(3))), 1),
    (lambda: sweep(_tracking_cfg(horizon=10), "noise.sigma_v2", (0.25, 0.5, 0.75, 1.0),
                   runs=2), 4),
    (lambda: sweep(_quad_cfg(horizon=10), "eta0", (0.1, 0.2), runs=2), 2),
    (lambda: verify_bounds(seeds=3), 10),
], ids=["run_experiments", "sigma_v2_sweep", "quadratic_eta0_sweep", "verify_bounds"])
def test_each_config_is_assembled_once_per_call(call, assembled, monkeypatch):
    # _setup_runs alone builds a config's domain and start target, once per
    # run of equal consecutive configs: no caller takes them again to refuse one
    calls = _record_calls(monkeypatch, "build_domain", "_start_target")
    call()
    assert calls == ["build_domain", "_start_target"] * assembled


def test_an_erdos_renyi_sweep_samples_each_values_graph_once(monkeypatch):
    calls = _record_calls(monkeypatch, "random_connected_graph")
    cfg = _tracking_cfg(graph="erdos_renyi", nodes=1000, edge_prob=0.01, horizon=5)
    sweep(cfg, "noise.sigma_v2", (0.25, 0.5), runs=1)
    assert calls == ["random_connected_graph"] * 2
