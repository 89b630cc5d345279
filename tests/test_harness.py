"""Experiment assembly: run construction, sweeps, bound verification."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import domd.harness
from domd.config import ConfigError, config_hash, parse_config
from domd.csvio import read_csv
from domd.engine import run
from domd.dynamics import _ncv_noise_factor
from domd.harness import (_build_case, _derive_seed, _ORACLE, _PATH, _suite_case,
                          SLACK_TOL, build_domain, build_dynamics, build_graph,
                          build_geometry, build_noise, build_schedule,
                          build_weights, bound_suite, exact_run_violations,
                          run_experiment, run_experiments, stochastic_mean_regret,
                          sweep, target_position_path_length,
                          tracking_error_stats, variation_scaling_study,
                          verify_bounds)
from domd.metrics import dynamic_regret, network_disagreement, tuned_step

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


def test_build_graph_kinds():
    assert build_graph(_tracking_cfg()).n == 25
    assert build_graph(_tracking_cfg(graph="path", nodes=7)).n == 7
    complete = build_graph(_tracking_cfg(graph="complete", nodes=5))
    assert len(complete.edges) == 10
    cfg = _tracking_cfg(graph="erdos_renyi", nodes=10, edge_prob=0.4)
    assert build_graph(cfg).edges == build_graph(cfg).edges
    other = build_graph(replace(cfg, seed=99))
    assert other.edges != build_graph(cfg).edges


def test_build_weights_and_domain_and_geometry():
    cfg = _tracking_cfg(graph="complete", nodes=4, weights="uniform")
    w = build_weights(cfg, build_graph(cfg))
    np.testing.assert_allclose(w.w, 0.25)
    metro = build_weights(_tracking_cfg(), build_graph(_tracking_cfg()))
    np.testing.assert_allclose(metro.w.sum(axis=1), 1.0, atol=1e-12)

    box = build_domain(_tracking_cfg())
    assert box.kind == "box" and box.d == 4 and box.hi[0] == 10000.0
    simplex = build_domain(_tracking_cfg(domain_kind="simplex", dim=3))
    assert simplex.kind == "simplex"
    free = build_domain(_tracking_cfg(domain_kind="free", dim=2))
    assert free.kind == "free"
    assert build_geometry(_tracking_cfg(), box).kind == "euclidean"
    assert build_geometry(_tracking_cfg(geometry_kind="kl"), simplex).kind == "kl"


def test_build_dynamics_and_noise():
    assert build_dynamics(_tracking_cfg()).d == 4
    scaled = build_dynamics(_tracking_cfg(dynamics_model="scaled_identity", dim=2))
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
    assert result.lipschitz == pytest.approx(40000.0)
    assert result.bounds is not None
    assert np.isfinite(result.bounds.stochastic_total)
    assert result.regret.path_variation > 0
    assert result.regret.static_regret is not None


def test_negative_run_index_is_rejected_before_assembly(monkeypatch):
    def no_build(cfg):
        raise AssertionError("graph built before the run index was checked")

    monkeypatch.setattr(domd.harness, "build_graph", no_build)
    cfg = _quad_cfg(horizon=10)
    with pytest.raises(ValueError, match="run index must be non-negative, got -1"):
        run_experiment(cfg, run_index=-1)
    with pytest.raises(ValueError, match="got -3"):
        next(run_experiments(cfg, [0, -3]))


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


def test_free_domain_run_skips_bounds(tmp_path):
    text = """
[experiment]
horizon = 20
gradient_mode = exact

[network]
graph = path
nodes = 3

[geometry]
dim = 2
domain = free

[dynamics]
model = identity

[noise]
kind = zero
target_init = 0, 0

[loss]
kind = synthetic_linear
"""
    cfg = parse_config(text, env={})
    out = tmp_path / "free"
    result = run_experiment(cfg, out_dir=out)
    assert result.bounds is None
    assert np.isnan(result.lipschitz)
    assert result.regret.static_regret is None
    assert not (out / "bounds.csv").exists()
    assert (out / "regret.csv").exists()
    assert exact_run_violations(result) == ()


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
    # stochastic runs are exempt: single draws may exceed the expected bound
    noisy = run_experiment(_quad_cfg(gradient_mode="stochastic"))
    assert exact_run_violations(noisy) == ()


def test_exact_run_violations_names_each_broken_guarantee():
    result = run_experiment(_quad_cfg())
    regret = result.regret.dynamic_regret
    dis = network_disagreement(result.trace)[1:]
    assert dis.max() > SLACK_TOL

    def shrunk(**changes):
        return replace(result, bounds=replace(result.bounds, **changes))

    low_total = {"total": regret - 1e-6}
    low_curve = {"disagreement_curve": np.zeros_like(dis)}
    assert exact_run_violations(shrunk(**low_total)) == ("regret_total",)
    assert exact_run_violations(shrunk(**low_curve)) == ("disagreement",)
    assert exact_run_violations(shrunk(**low_total, **low_curve)) == (
        "regret_total", "disagreement")
    # an overshoot within SLACK_TOL is rounding, not a violation
    assert exact_run_violations(shrunk(total=regret - 0.5 * SLACK_TOL)) == ()


def test_tracking_error_stats_and_path_length():
    cfg = _quad_cfg(horizon=40)
    result = run_experiment(cfg)
    stats = tracking_error_stats(result.trace, result.path, tail=10)
    assert stats.shape == (4,)
    err = result.trace.x[-11:-1] - result.path.states[-11:-1, None, :]
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
])
def test_sweep_checks_every_value_before_any_run(cfg, param, values, message, monkeypatch):
    # the config-file rules, cross-field ones included, hold for swept values
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every value was checked")

    monkeypatch.setattr(domd.harness, "run_experiments", no_run)
    with pytest.raises(ConfigError, match=message):
        sweep(cfg, param, values)


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


def test_sweep_replicates_redraw_paths_unless_fixed():
    base = _tracking_cfg(horizon=20, runs=2, gradient_mode="exact")
    fixed = sweep(replace(base, fixed_path=True), "noise.sigma_v2", (0.5,))
    np.testing.assert_allclose(fixed.std_curves, 0.0, atol=1e-12)
    redrawn = sweep(replace(base, fixed_path=False), "noise.sigma_v2", (0.5,))
    assert redrawn.std_curves.max() > 1e-6


def test_batched_runs_equal_runs_alone(monkeypatch):
    # batches of 3 and 1 replicates; the lone one goes through engine.run
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


def test_sweep_value_memory_is_its_replicate_traces():
    cfg = _tracking_cfg()  # the default 5x5 grid, T = 1000
    trace = (cfg.horizon + 1) * 25 * 4 * 8
    sweep(cfg, "noise.sigma_v2", (0.5,), runs=1)  # warm caches and imports
    tracemalloc.start()
    try:
        sweep(cfg, "noise.sigma_v2", (0.5,), runs=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * trace + 1.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_suite_sigma2_is_computed_once_per_case(monkeypatch):
    calls = []
    svd = domd.harness.second_singular_value
    monkeypatch.setattr(domd.harness, "second_singular_value",
                        lambda w: calls.append(w) or svd(w))
    verify_bounds(seeds=3)
    assert len(calls) == len(bound_suite())
    calls.clear()
    stochastic_mean_regret("box_quad_noisy_n4_t100", runs=5)
    assert len(calls) == 1


def test_stochastic_mean_regret_equals_runs_alone():
    case = _suite_case("simplex_quad_noisy_n4_t100")
    regrets = []
    for seed in range(3, 6):
        weights, geom, dyn, ens, path, etas = _build_case(case, seed)
        trace = run(weights, geom, dyn, ens, path, etas, case.horizon,
                    mode="stochastic", seed=_derive_seed(seed, _ORACLE, 1))
        regrets.append(dynamic_regret(trace, ens, path).dynamic_regret)
    mean, _ = stochastic_mean_regret(case.name, runs=3, base_seed=3)
    assert mean == float(np.mean(regrets))
    with pytest.raises(ValueError, match="at least one run"):
        stochastic_mean_regret(case.name, runs=0)


def test_verify_bounds_passes_and_reports(tmp_path):
    out = tmp_path / "verify"
    report = verify_bounds(seeds=2, out_dir=out)
    assert report.passed and report.violations == 0
    exact_cases = [c for c in bound_suite() if c.oracle_noise == 0]
    noisy_cases = [c for c in bound_suite() if c.oracle_noise > 0]
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
    with pytest.raises(ValueError, match="seed"):
        verify_bounds(seeds=0)


def test_stochastic_mean_regret():
    mean, bound = stochastic_mean_regret("box_quad_noisy_n4_t100", runs=3)
    assert mean <= bound
    assert mean > 0
    with pytest.raises(ValueError, match="noiseless"):
        stochastic_mean_regret("box_quad_static_n4_t100", runs=3)
    with pytest.raises(ValueError, match="unknown suite case"):
        stochastic_mean_regret("nope", runs=3)


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
