"""Round loop semantics: step sizes, initialization, stepping, traces."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import round_centers
import domd.engine
import domd.objectives
from domd.config import ExperimentConfig
from domd.dynamics import (LinearDynamics, generate_path, identity_dynamics,
                           ncv_disturbances, ncv_dynamics)
from domd.engine import EngineError, RunTrace, init_state, run, step
from domd.geometry import box_domain, contains, prox, simplex_domain, start_point
from domd.harness import run_experiment
from domd.network import (DENSE_MIX_MAX_NODES, WeightMatrix, build_grid_graph,
                          build_path_graph, metropolis_weights, mix,
                          random_connected_graph, uniform_complete_weights)
from domd.metrics import iterate_losses
from domd.objectives import (gradients_exact_batch, gradients_stochastic_batch,
                             linear_ensemble, oracle_noise, oracle_samples,
                             synthetic_suite, tracking_ensemble)

BIG = np.finfo(float).max
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


def _box_setup(n=3, d=2, horizon=8, half=5.0, seed=3):
    weights = metropolis_weights(build_path_graph(n))
    domain = box_domain([-half] * d, [half] * d)
    dyn = identity_dynamics(d)
    ens = synthetic_suite(seed, n, d, horizon, domain)
    path = generate_path(dyn, np.zeros((horizon, d)), np.zeros(d), horizon)
    return weights, domain, dyn, ens, path


def test_constant_and_inv_sqrt_schedules():
    # any positive eta_1 .. eta_{T+1} array drives the run and lands in the trace;
    # a zero, negative, NaN or infinite entry is refused for the replicate that holds
    # it, whether the batch shares its schedule (one float a round) or not (an array)
    weights, domain, dyn, ens, path = _box_setup(horizon=5)
    for etas in (np.full(6, 0.5), 0.2 / np.sqrt(np.arange(1, 7))):
        assert np.array_equal(run(weights, domain, dyn, [(ens, path, etas, 0)], 5)[0].etas, etas)
    good = np.full(6, 0.1)
    for bad in (np.zeros(6), np.full(6, -0.1), np.r_[np.full(5, 0.1), 0.0],
                np.r_[np.nan, np.full(5, 0.1)], np.r_[0.1, np.inf, np.full(4, 0.1)],
                np.r_[np.full(5, 0.1), np.inf], np.r_[np.full(5, 0.1), -np.inf]):
        for replicates in ([(ens, path, bad, 0)], [(ens, path, bad, 0), (ens, path, bad, 1)]):
            with pytest.raises(ValueError,
                               match="replicate 0: step sizes must be 6 positive finite"):
                run(weights, domain, dyn, replicates, 5)
        with pytest.raises(ValueError, match="replicate 1: step sizes must be 6 positive"):
            run(weights, domain, dyn, [(ens, path, good, 0), (ens, path, bad, 1)], 5)
    # a step array of the right shape is refused by its first bad step
    for bad, got in ((np.r_[0.1, np.inf, np.full(4, 0.1)], "eta_2 = inf"),
                     (np.r_[np.full(5, 0.1), -0.0], "eta_6 = -0.0"),
                     (np.r_[np.nan, 0.0, np.full(4, 0.1)], "eta_1 = nan")):
        with pytest.raises(ValueError, match=f"replicate 1: .* eta_\\(T\\+1\\), got {got}$"):
            run(weights, domain, dyn, [(ens, path, good, 0), (ens, path, bad, 1)], 5)


def test_schedule_etas_covers_one_past_horizon():
    # eta_{T+1} is for the bound calculators, so the array has T+1 entries exactly
    weights, domain, dyn, ens, path = _box_setup(horizon=5)
    assert run(weights, domain, dyn, [(ens, path, np.full(6, 0.1), 0)], 5)[0].etas.shape == (6,)
    good = np.full(6, 0.1)
    for bad in (np.full(5, 0.1), np.full(7, 0.1), np.full((6, 1), 0.1), 0.1):
        with pytest.raises(ValueError, match="replicate 0: step sizes must be 6 .* got shape"):
            run(weights, domain, dyn, [(ens, path, bad, 0)], 5)
        with pytest.raises(ValueError, match="replicate 2: step sizes must be 6"):
            run(weights, domain, dyn, [(ens, path, good, 0), (ens, path, good, 1),
                                     (ens, path, bad, 2)], 5)


def test_init_state_defaults():
    box = box_domain([-1.0] * 3, [1.0] * 3)
    np.testing.assert_array_equal(init_state(4, box), np.zeros((4, 3)))
    kl = simplex_domain(4, 0.01)
    np.testing.assert_allclose(init_state(2, kl), np.full((2, 4), 0.25))
    explicit = init_state(2, box, [0.5, -0.5, 0.0])
    np.testing.assert_array_equal(explicit, [[0.5, -0.5, 0.0]] * 2)
    with pytest.raises(EngineError, match="outside"):
        init_state(2, box, [2.0, 0.0, 0.0])
    shifted = box_domain([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(EngineError, match="outside"):
        init_state(2, shifted)
    # with no noise.target_init a run starts its target where its agents
    # start, bit for bit: the simplex's uniform point, or the box's origin
    for changes, start in (({"domain_kind": "simplex", "dim": 3}, np.full(3, 1.0 / 3.0)),
                           ({"domain_kind": "box", "dim": 2}, np.zeros(2))):
        cfg = ExperimentConfig(
            horizon=3, gradient_mode="exact", rows=2, cols=2, dynamics_model="identity",
            noise_kind="zero", target_init=(), loss_kind="synthetic_quadratic",
            offset_scale=0.02, **changes)
        result = run_experiment(cfg)
        assert result.path[0].tobytes() == start.tobytes()
        assert result.trace.x[0].tobytes() == np.tile(start, (4, 1)).tobytes()


def test_zero_gradients_leave_common_iterate_fixed():
    weights, domain, dyn, _, path = _box_setup()
    grads = np.zeros((len(path) - 1, 3, 2))
    ens = linear_ensemble(grads, domain)
    start = np.array([0.7, -1.3])
    trace = run(weights, domain, dyn, [(ens, path, np.full(len(path), 0.1), 0)],
                len(path) - 1, x0=start)[0]
    np.testing.assert_allclose(trace.x, np.broadcast_to(start, trace.x.shape),
                               atol=1e-14)


def _replay_round(trace, weights, domain, ens, path, eta, t):
    """Anchor, exact gradients and prox output of round t+1, from the iterates."""
    y = mix(weights, trace.x[t])
    grads = gradients_exact_batch(ens, t + 1, trace.x[t], round_centers(ens, path, t + 1))
    return y, grads, prox(domain, grads, y, eta)


def test_mixing_preserves_agent_mean():
    weights, domain, dyn, ens, path = _box_setup()
    trace = run(weights, domain, dyn, [(ens, path, np.full(len(path), 0.1), 0)],
                len(path) - 1)[0]
    xbar = trace.x.mean(axis=1)
    for t in range(len(path) - 1):
        y, _, xhat = _replay_round(trace, weights, domain, ens, path, 0.1, t)
        np.testing.assert_allclose(y.mean(axis=0), xbar[t], atol=1e-12)
        # identity dynamics: next mean is the mean prox output
        np.testing.assert_allclose(xbar[t + 1], xhat.mean(axis=0), atol=1e-12)


def test_uniform_weights_give_identical_anchors():
    n, d, horizon = 4, 2, 6
    weights = uniform_complete_weights(n)
    domain = box_domain([-5.0] * d, [5.0] * d)
    dyn = identity_dynamics(d)
    ens = synthetic_suite(1, n, d, horizon, domain)
    path = generate_path(dyn, np.zeros((horizon, d)), np.zeros(d), horizon)
    trace = run(weights, domain, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon)[0]
    for t in range(horizon):
        y = mix(weights, trace.x[t])
        np.testing.assert_allclose(y - y[0], 0.0, atol=1e-14)


def test_runs_are_reproducible():
    weights, domain, dyn, ens, path = _box_setup()
    noisy = synthetic_suite(3, 3, 2, len(path) - 1, domain, noise_scale=0.2)
    etas = np.full(len(path), 0.1)
    a = run(weights, domain, dyn, [(noisy, path, etas, 5)], len(path) - 1, mode="stochastic")
    b = run(weights, domain, dyn, [(noisy, path, etas, 5)], len(path) - 1, mode="stochastic")
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.etas, b.etas)
    c = run(weights, domain, dyn, [(noisy, path, etas, 6)], len(path) - 1, mode="stochastic")
    assert not np.array_equal(a.x[0, 1:], c.x[0, 1:])


def test_zero_round_run():
    weights, domain, dyn, ens, path = _box_setup()
    trace = run(weights, domain, dyn, [(ens, path, np.full(1, 0.1), 0)], 0)[0]
    assert trace.horizon == 0
    assert trace.x.shape == (1, 3, 2)
    assert trace.etas.shape == (1,)
    assert trace.losses.shape == (0,)
    assert [f.name for f in fields(RunTrace)] == ["x", "etas", "domain", "losses"]
    assert trace.domain is domain


def _box_tracking_case(horizon):
    weights = metropolis_weights(build_grid_graph(2, 3))
    domain = box_domain([-3.0] * 4, [3.0] * 4)
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, ncv_disturbances(4.0, 0.1, 2, horizon), np.zeros(4), horizon)
    return weights, domain, dyn, tracking_ensemble(6, domain), path, "stochastic"


def _free_linear_case(horizon):
    # a box so wide the clamp never fires: the iterates move as if unconstrained
    weights = metropolis_weights(build_path_graph(3))
    domain = box_domain([-1e6] * 2, [1e6] * 2)
    dyn = LinearDynamics([[0.9, 0.2], [-0.1, 0.8]])
    path = generate_path(dyn, np.zeros((horizon, 2)), np.zeros(2), horizon)
    ens = synthetic_suite(4, 3, 2, horizon, domain, kind="synthetic_linear")
    return weights, domain, dyn, ens, path, "exact"


def _kl_noisy_quadratic_case(horizon):
    weights = metropolis_weights(build_grid_graph(1, 3))
    domain = simplex_domain(3, 0.01)
    dyn = identity_dynamics(3)
    path = generate_path(dyn, np.zeros((horizon, 3)), np.full(3, 1.0 / 3.0), horizon)
    ens = synthetic_suite(6, 3, 3, horizon, domain, offset_scale=0.02, noise_scale=0.2)
    return weights, domain, dyn, ens, path, "stochastic"


@pytest.mark.parametrize("case", [_box_tracking_case, _free_linear_case,
                                  _kl_noisy_quadratic_case],
                         ids=["box_tracking_stochastic", "free_linear_exact",
                              "kl_noisy_quadratic"])
def test_trace_replays_through_public_steps(case):
    # every round is the oracle at x[t], then step = mix, prox and the push
    horizon, seed = 5, 11
    weights, domain, dyn, ens, path, mode = case(horizon)
    etas = 0.3 / np.sqrt(np.arange(1, horizon + 2))
    trace = run(weights, domain, dyn, [(ens, path, etas, seed)], horizon, mode=mode)[0]
    draws = oracle_noise(ens, np.random.default_rng(seed), horizon)
    samples = oracle_samples(ens, path[:horizon], draws)
    for t in range(horizon):
        x, eta = trace.x[t], etas[t]
        centers = round_centers(ens, path, t + 1)
        if mode == "exact":
            grads = gradients_exact_batch(ens, t + 1, x, centers)
        else:
            grads = gradients_stochastic_batch(ens, t + 1, x, centers,
                                               None if samples is None else samples[t])
        xhat = prox(domain, grads, mix(weights, x), eta)
        np.testing.assert_allclose(trace.x[t + 1], xhat @ dyn.a.T, atol=1e-14)
        np.testing.assert_array_equal(step(x, weights, domain, dyn, grads, eta), trace.x[t + 1])
    assert not np.array_equal(trace.x[1], trace.x[horizon])  # the iterates did move


def test_prox_errors_stop_the_run_in_their_round(monkeypatch):
    # pinned rounds: the anchor and gradient checks run inside every round's prox
    calls = []
    inner = domd.engine.prox
    monkeypatch.setattr(domd.engine, "prox", lambda *a: calls.append(1) or inner(*a))
    weights = metropolis_weights(build_path_graph(2))
    domain = box_domain([-1.0] * 2, [1.0] * 2)
    horizon = 8
    path = generate_path(identity_dynamics(2), np.zeros((horizon, 2)), np.zeros(2), horizon)
    idle = linear_ensemble(np.zeros((horizon, 2, 2)), domain)
    etas = np.full(horizon + 1, 0.1)
    # x = 0.3, 0.45, 0.675, 1.0125: the push leaves the box and round 4's anchor is outside
    with pytest.raises(EngineError, match="left the domain in round 4") as err:
        run(weights, domain, LinearDynamics(1.5 * np.eye(2)), [(idle, path, etas, 0)], horizon,
            x0=[0.3, 0.3])
    assert str(err.value.__context__) == "prox anchor lies outside the domain"
    assert len(calls) == 4
    grads = np.zeros((horizon, 2, 2))
    grads[2, 1, 0] = np.nan  # agent 1's gradient in round 3
    calls.clear()
    with pytest.raises(EngineError, match=r"^gradients became non-finite in round 3 "
                                          r"\(replicate 0, agent 1\)$") as err:
        run(weights, domain, identity_dynamics(2),
            [(linear_ensemble(grads, domain), path, etas, 0)], horizon)
    assert str(err.value.__context__) == "gradient has non-finite entries"
    assert len(calls) == 3


def test_a_non_finite_gradient_is_an_engine_error_naming_its_round():
    # an inf gradient reaches prox with no numpy warning on the way; it once
    # ended in prox's ValueError whenever the anchors were inside the domain
    weights = metropolis_weights(build_path_graph(3))
    domain = box_domain([-1.0] * 2, [1.0] * 2)
    horizon = 6
    path = generate_path(identity_dynamics(2), np.zeros((horizon, 2)), np.zeros(2), horizon)
    etas = np.full(horizon + 1, 0.1)
    grads = np.zeros((horizon, 3, 2))
    grads[4, 2, 1] = np.inf  # agent 2's gradient in round 5
    replicates = [(linear_ensemble(np.zeros((horizon, 3, 2)), domain), path, etas, 0),
                  (linear_ensemble(grads, domain), path, etas, 0)]
    with pytest.raises(EngineError) as err:
        run(weights, domain, identity_dynamics(2), replicates, horizon)
    assert str(err.value) == "gradients became non-finite in round 5 (replicate 1, agent 2)"
    assert (err.value.replicate, err.value.agent) == (1, 2)


def test_run_argument_validation():
    weights, domain, dyn, ens, path = _box_setup()
    with pytest.raises(ValueError, match="mode"):
        run(weights, domain, dyn, [(ens, path, np.full(4, 0.1), 0)], 3, mode="банана")
    with pytest.raises(ValueError, match="nonnegative"):
        run(weights, domain, dyn, [(ens, path, np.full(4, 0.1), 0)], -1)


def test_run_replicates_argument_validation():
    # a batch needs at least one replicate, all of one loss family
    weights, domain, dyn, ens, path = _box_setup()
    with pytest.raises(ValueError, match="at least one replicate"):
        run(weights, domain, dyn, [], 3)
    linear = linear_ensemble(np.zeros((len(path) - 1, 3, 2)), domain)
    with pytest.raises(ValueError, match="share the loss family"):
        run(weights, domain, dyn, [(ens, path, np.full(4, 0.1), 0),
                                 (linear, path, np.full(4, 0.1), 0)], 3)


def test_batch_trace_rows_are_replicate_views():
    weights, domain, dyn, ens, path = _box_setup(horizon=5)
    steps = (np.full(6, 0.1), np.full(6, 0.3))
    batch = run(weights, domain, dyn, [(ens, path, eta, k) for k, eta in enumerate(steps)], 5)
    assert batch.x.shape == (2, 6, 3, 2) and batch.etas.shape == (2, 6)
    assert (batch.horizon, batch.n, batch.d) == (5, 3, 2)
    for r, eta in enumerate(steps):
        trace = batch[r]
        assert trace.x.shape == (6, 3, 2) and (trace.horizon, trace.n, trace.d) == (5, 3, 2)
        assert np.shares_memory(trace.x, batch.x) and np.shares_memory(trace.etas, batch.etas)
        assert np.array_equal(trace.x, batch.x[r]) and np.array_equal(trace.etas, eta)
        assert trace.domain is batch.domain is domain


def test_simplex_iterates_stay_feasible_under_contracting_dynamics():
    n, d, horizon = 3, 3, 30
    weights = metropolis_weights(build_grid_graph(1, 3))
    domain = simplex_domain(d, 0.01)
    dyn = LinearDynamics(0.9 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)),
                         np.full(d, 1.0 / 3.0), horizon)
    ens = synthetic_suite(2, n, d, horizon, domain)
    trace = run(weights, domain, dyn, [(ens, path, np.full(horizon + 1, 0.2), 0)], horizon)[0]
    for t in range(horizon + 1):
        for i in range(n):
            assert contains(domain, trace.x[t, i])
    np.testing.assert_allclose(trace.x.sum(axis=2), 1.0, atol=1e-9)


def test_divergent_dynamics_raise_engine_error():
    n, d, horizon = 2, 2, 400
    weights = metropolis_weights(build_path_graph(n))
    domain = box_domain([-BIG] * d, [BIG] * d)  # holds every finite point
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    ens = linear_ensemble(np.zeros((horizon, n, d)), domain)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EngineError, match="non-finite"):
            run(weights, domain, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon,
                x0=np.array([1.0, 1.0]))


def _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon, mode,
                                       x0=None):
    # a batch of R equals R batches of one, bit for bit (signed zeros included)
    batch = run(weights, domain, dyn, replicates, horizon, mode, x0)
    assert batch.x.shape == (len(replicates), horizon + 1, weights.n, domain.d)
    traces = [batch[r] for r in range(len(replicates))]
    for replicate, trace in zip(replicates, traces):
        solo = run(weights, domain, dyn, [replicate], horizon, mode, x0)
        assert trace.x.tobytes() == solo.x.tobytes()
        assert trace.etas.tobytes() == solo.etas.tobytes()
        assert trace.x.flags.c_contiguous
        assert trace.x.base is batch.x
    return traces


@pytest.mark.parametrize("innovation", [True, False])
def test_replicates_equal_solo_runs_tracking(innovation):
    horizon = 60
    # the default 5x5 grid: at n = 25 one wide (n, R*d) product would move ulps
    weights = metropolis_weights(build_grid_graph(5, 5))
    domain = box_domain([-10.0] * 4, [10.0] * 4)
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(25, domain, innovation=innovation)
    paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(4),
                           horizon) for seed in (1, 2, 3)]
    steps = (np.full(horizon + 1, 0.5), 0.7 / np.sqrt(np.arange(1, horizon + 2)),
             np.full(horizon + 1, 0.2))
    replicates = [(ens, p, s, seed) for p, s, seed in zip(paths, steps, (7, 8, 9))]
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon,
                                       "stochastic")


def test_replicates_equal_solo_runs_above_the_dense_mix_size():
    # above DENSE_MIX_MAX_NODES mix is the neighbour sum over (replicate,
    # row, coordinate) slots; each replicate still keeps its solo bits
    horizon, n = 20, DENSE_MIX_MAX_NODES + 44
    weights = metropolis_weights(random_connected_graph(n, 0.03, 2))
    domain = box_domain([-10.0] * 4, [10.0] * 4)
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(n, domain)
    paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(4),
                           horizon) for seed in (1, 2, 3)]
    replicates = [(ens, p, np.full(horizon + 1, eta), seed)
                  for p, eta, seed in zip(paths, (0.5, 0.3, 0.2), (7, 8, 9))]
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon,
                                       "stochastic")
    assert weights._neighbour_index is not None


def test_replicates_equal_solo_runs_noisy_quadratic_and_linear():
    horizon = 40
    weights = metropolis_weights(build_path_graph(3))
    domain = box_domain([-5.0] * 2, [5.0] * 2)
    dyn = LinearDynamics(0.95 * np.eye(2))
    paths = [generate_path(dyn, np.random.default_rng(k).normal(0.0, 0.05, (horizon, 2)),
                           np.array([0.5, -0.5]), horizon) for k in range(3)]
    quads = [synthetic_suite(k, 3, 2, horizon, domain, noise_scale=0.5)
             for k in range(3)]
    replicates = [(e, p, 0.3 / np.sqrt(np.arange(1, horizon + 2)), 11 + k)
                  for k, (e, p) in enumerate(zip(quads, paths))]
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon,
                                       "stochastic")
    lins = [synthetic_suite(k, 3, 2, horizon, domain, kind="synthetic_linear",
                            noise_scale=0.2 * k) for k in (1, 2)]
    replicates = [(e, paths[0], np.full(horizon + 1, 0.2), k) for k, e in enumerate(lins)]
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon, "exact")
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon,
                                       "stochastic")


def _kl_linear_replicates(dyn, pulls, horizon, floor=0.01):
    """KL simplex runs under linear losses: replicate k adds pulls[k] to every
    agent's gradient on top of small per-agent noise."""
    weights = metropolis_weights(build_path_graph(3))
    domain = simplex_domain(3, floor)
    path = generate_path(identity_dynamics(3), np.zeros((horizon, 3)), np.full(3, 1 / 3),
                         horizon)
    replicates = []
    for k, pull in enumerate(pulls):
        noise = np.random.default_rng(k).uniform(-0.2, 0.2, (horizon, 3, 3))
        ens = linear_ensemble(noise + np.asarray(pull), domain)
        replicates.append((ens, path, np.full(horizon + 1, 0.5), k))
    return weights, domain, dyn, replicates


def test_replicates_equal_solo_runs_when_one_replicate_hits_the_floor():
    # replicate 0's prox outputs need the floor projection, replicate 1's never
    weights, domain, dyn, replicates = _kl_linear_replicates(
        identity_dynamics(3), ([5.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 30)
    hit, free = _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, 30,
                                                   "exact")
    assert np.any(hit.x == 0.01)
    assert free.x.min() > 0.05


def test_replicates_equal_solo_runs_when_one_replicate_needs_repair():
    # the push halves coordinate 0 (and keeps the sum): replicate 0 is driven to
    # the floor and pushed off the simplex, replicate 1 settles near 0.2
    a = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    weights, domain, dyn, replicates = _kl_linear_replicates(
        LinearDynamics(a), ([3.0, 0.0, 0.0], [-2.0, 0.0, 0.0]), 30)
    repaired, kept = _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates,
                                                        30, "exact")
    assert np.any(repaired.x[1:, :, 0] == 0.01)
    assert kept.x[:, :, 0].min() > 0.1


@pytest.mark.parametrize("block_elements", [1, 40])
def test_noise_block_boundaries_keep_every_stream(monkeypatch, block_elements):
    # 2 replicates x 3 agents x 2 coordinates: one-round blocks, then 3-round
    # blocks with a ragged last block of one round
    weights, domain, dyn, _, path = _box_setup(horizon=10)
    ensembles = [synthetic_suite(k, 3, 2, 10, domain, noise_scale=0.4)
                 for k in (1, 2)]
    replicates = [(e, path, np.full(11, 0.1), 20 + k)
                  for k, e in enumerate(ensembles)]
    whole = run(weights, domain, dyn, replicates, 10, "stochastic")
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", block_elements)  # _round_blocks
    blocked = _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, 10,
                                                 "stochastic")
    for r, b in enumerate(blocked):
        assert whole[r].x.tobytes() == b.x.tobytes()


def test_non_finite_error_names_round_replicate_and_agent():
    n, d, horizon = 3, 1, 400
    weights = WeightMatrix(n, np.eye(n))  # no mixing: agents diverge alone
    domain = box_domain([-BIG] * d, [BIG] * d)
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    calm = linear_ensemble(np.zeros((horizon, n, d)), domain)
    pushed = np.zeros((horizon, n, d))
    pushed[:, 2] = -1.0
    wild = linear_ensemble(pushed, domain)
    etas = np.full(horizon + 1, 1.0)
    replicates = [(calm, path, etas, 0), (wild, path, etas, 0)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EngineError, match="non-finite") as solo:
            run(weights, domain, dyn, [(wild, path, etas, 0)], horizon)
        with pytest.raises(EngineError, match="non-finite") as batched:
            run(weights, domain, dyn, replicates, horizon)
    assert str(solo.value).endswith("(replicate 0, agent 2)")
    assert str(batched.value).endswith("(replicate 1, agent 2)")
    round_of = str(solo.value).split("round ")[1].split(" ")[0]
    assert str(batched.value).split("round ")[1].split(" ")[0] == round_of
    assert 300 < int(round_of) < 320  # x_t = 10 (x_{t-1} + 1) passes 1.8e308


def test_anchors_leaving_the_domain_name_round_replicate_and_agent(monkeypatch):
    # x_{t+1} = 2 clamp(x_t + 0.1) for agent 2 of the wild replicate: 0.2, 0.6,
    # then 1.4 leaves [-1, 1], and round 4 mixes it into an anchor outside
    n, d, horizon = 3, 1, 10
    weights = WeightMatrix(n, np.eye(n))  # no mixing: the anchor is the iterate
    domain = box_domain([-1.0] * d, [1.0] * d)
    dyn = LinearDynamics(2.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    pushed = np.zeros((horizon, n, d))
    pushed[:, 2] = -1.0
    calm, wild = (linear_ensemble(g, domain) for g in (np.zeros_like(pushed), pushed))
    etas = np.full(horizon + 1, 0.1)
    for replicates, replicate in (([(wild, path, etas, 0)], 0),
                                  ([(calm, path, etas, 0), (wild, path, etas, 0)], 1)):
        with pytest.raises(EngineError) as err:
            run(weights, domain, dyn, replicates, horizon)
        assert str(err.value) == (f"mixed anchors left the domain in round 4 "
                                  f"(replicate {replicate}, agent 2)")
    # a ValueError of the step with every anchor inside is not the domain's
    def refuse(*args):
        raise ValueError("gradient has non-finite entries")
    monkeypatch.setattr(domd.engine, "prox", refuse)
    with pytest.raises(ValueError, match="non-finite entries"):
        run(weights, domain, dyn, [(calm, path, etas, 0)], horizon)


def test_finite_iterates_whose_sum_overflows_run_until_one_overflows():
    # agents 1 and 2 of the second replicate step x_t = 10 (x_{t-1} + 1): at
    # round 308 both hold 1.1e308, whose sum is no float; round 309 overflows
    n, d, horizon = 3, 1, 400
    weights = WeightMatrix(n, np.eye(n))
    domain = box_domain([-BIG] * d, [BIG] * d)
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    pushed = np.zeros((horizon, n, d))
    pushed[:, 1:] = -1.0
    calm, wild = (linear_ensemble(g, domain) for g in (np.zeros_like(pushed), pushed))
    etas = np.full(horizon + 1, 1.0)
    with np.errstate(over="ignore"):
        early = run(weights, domain, dyn,
                    [(calm, path, etas[:309], 0), (wild, path, etas[:309], 0)], 308)
        with pytest.raises(EngineError) as late:
            run(weights, domain, dyn, [(calm, path, etas, 0), (wild, path, etas, 0)], horizon)
    assert np.isfinite(early.x).all() and early.x[1, -1, 1:, 0].min() > 1e308
    assert str(late.value) == "iterates became non-finite in round 309 (replicate 1, agent 1)"


def test_the_finiteness_check_runs_only_where_an_iterate_may_stop_being_finite():
    # decided once per run: a finite box whose rows reach at most a quarter
    # of the float range skips it; a simplex, an infinite box or a push that
    # may overflow keeps it
    checks = domd.engine._checks_iterates
    box = box_domain([-10.0] * 4, [10.0] * 4)
    for dyn in (identity_dynamics(4), ncv_dynamics(0.1), LinearDynamics(-3.0 * np.ones((4, 4)))):
        assert not checks(box, dyn)
    assert checks(simplex_domain(4, 0.01), identity_dynamics(4))
    assert checks(box_domain([-np.inf] * 4, [10.0] * 4), identity_dynamics(4))
    edge = BIG / 4 / 10.0
    assert not checks(box_domain([-edge] * 4, [edge] * 4), LinearDynamics(10.0 * np.eye(4)))
    assert checks(box_domain([-edge] * 4, [edge] * 4), LinearDynamics(10.0001 * np.eye(4)))
    # A = I pushes nothing, whatever the box; a batch is as strict as its widest push
    huge = box_domain([-BIG] * 4, [BIG] * 4)
    assert not checks(huge, identity_dynamics(4))
    mixed = domd.engine._batch_dynamics(
        [identity_dynamics(4), ncv_dynamics(0.1), identity_dynamics(4)], 3)
    assert not checks(box, mixed) and checks(huge, mixed)


def test_a_push_past_the_float_range_still_names_its_round_and_agent():
    # a finite box whose image under A overflows keeps the per-round check:
    # agent 1's round-3 step lands on the box's edge 1e300, and A maps it to inf
    n, d, horizon = 3, 2, 6
    weights = metropolis_weights(build_path_graph(n))
    domain = box_domain([-1e300] * d, [1e300] * d)
    dyn = LinearDynamics(np.array([[1e10, 0.0], [0.0, 1.0]]))
    assert domd.engine._checks_iterates(domain, dyn)
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    grads = np.zeros((horizon, n, d))
    grads[2, 1, 0] = -1e150
    etas = np.full(horizon + 1, 1e150)
    replicates = [(linear_ensemble(np.zeros_like(grads), domain), path, etas, 0),
                  (linear_ensemble(grads, domain), path, etas, 0)]
    with np.errstate(over="ignore"), pytest.raises(EngineError) as err:
        run(WeightMatrix(n, np.eye(n)), domain, dyn, replicates, horizon, "exact")
    assert str(err.value) == "iterates became non-finite in round 3 (replicate 1, agent 1)"
    # mixing first: the same overflow, named in the same round
    with np.errstate(over="ignore"), pytest.raises(EngineError, match="non-finite in round 3"):
        run(weights, domain, dyn, replicates, horizon, "exact")


@st.composite
def _wide_boxes_and_pushes(draw):
    """(domain, dyn, x, grads, eta): a finite box and A of any size, in-box
    iterates, and gradients and a step up to the float range.  Half the A are
    scaled so that their widest row reaches the limit of the skip."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    ends = st.floats(-BIG, BIG, allow_nan=False, allow_infinity=False)
    lo, hi = np.sort(np.array(draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                                            min_size=d, max_size=d))), axis=1).T
    domain = box_domain(lo, hi)
    a = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=d * d, max_size=d * d)))
    a = a.reshape(d, d)
    reach = domd.geometry.box_row_images(a, lo, hi)[2].max()
    if draw(st.booleans()) and 1.0 <= reach < np.inf:
        with np.errstate(over="ignore"):
            pressed = a * (domd.engine._REACH_LIMIT / reach)
        a = pressed if np.isfinite(pressed).all() else a
    u = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n * d, max_size=n * d))).reshape(n, d)
    with np.errstate(over="ignore"):
        x = np.clip(lo * (1.0 - u) + hi * u, lo, hi)
    grads = np.array(draw(st.lists(ends, min_size=n * d, max_size=n * d))).reshape(n, d)
    eta = draw(st.floats(1e-300, BIG, allow_nan=False, allow_infinity=False))
    return domain, LinearDynamics(a), x, grads, eta


@PROPERTY
@given(_wide_boxes_and_pushes())
def test_a_skipped_finiteness_check_could_never_fire(case):
    # whenever the run skips the check, a round from any in-box iterate gives
    # finite iterates: prox clamps y - eta g into the box, and A's rows reach
    # at most a quarter of the float range
    domain, dyn, x, grads, eta = case
    if domd.engine._checks_iterates(domain, dyn):
        return
    with np.errstate(over="ignore"):  # eta * g may pass the float range
        out = step(x, WeightMatrix(len(x), np.eye(len(x))), domain, dyn, grads, eta)
    assert np.isfinite(out).all()


def _count_oracle_draws(monkeypatch):
    calls = []
    draw = domd.engine.oracle_noise
    monkeypatch.setattr(domd.engine, "oracle_noise",
                        lambda ens, rng, rounds: calls.append(rounds) or draw(ens, rng, rounds))
    return calls


@pytest.mark.parametrize("block_elements", [domd.objectives.BLOCK_ELEMENTS, 60],
                         ids=["default_blocks", "60_element_blocks"])
@pytest.mark.parametrize("family", ["tracking", "noisy_quadratic"])
def test_oracle_draw_blocks_are_sized_by_what_a_round_draws(family, block_elements,
                                                            monkeypatch):
    # a round draws n values for tracking and n * d for a noisy synthetic
    # oracle, and its oracle samples hold n * d for both (tracking's
    # observations cover every coordinate); a block holds about
    # block_elements samples across the 3 replicates
    horizon, count = 50, 3
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", block_elements)  # _round_blocks
    if family == "tracking":
        n, d = 4, 4
        weights = metropolis_weights(build_grid_graph(2, 2))
        domain = box_domain([-10.0] * d, [10.0] * d)
        dyn = ncv_dynamics(0.1)
        ensembles = [tracking_ensemble(n, domain)] * count
        paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(d),
                               horizon) for seed in range(count)]
    else:
        weights, domain, dyn, _, path = _box_setup(horizon=horizon)
        n, d = weights.n, domain.d
        ensembles = [synthetic_suite(k, n, d, horizon, domain, noise_scale=0.4)
                     for k in range(count)]
        paths = [path] * count
    replicates = [(e, p, np.full(horizon + 1, 0.2), 30 + k)
                  for k, (e, p) in enumerate(zip(ensembles, paths))]
    calls = _count_oracle_draws(monkeypatch)
    run(weights, domain, dyn, replicates, horizon, "stochastic")
    rounds = max(1, block_elements // (count * n * d))
    assert len(calls) == count * -(-horizon // rounds)
    assert len(calls) == {("tracking", 60): 150, ("noisy_quadratic", 60): 51}.get(
        (family, block_elements), count)
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon, "stochastic")


def test_run_memory_is_the_iterate_trace():
    # the (T+1, n, d) iterates alone take 16 MB; per-round arrays must not be kept
    n, d, horizon = 1000, 4, 500
    weights = metropolis_weights(build_path_graph(n))
    domain = box_domain([-10.0] * d, [10.0] * d)
    dyn = identity_dynamics(d)
    path = generate_path(dyn, np.zeros((horizon, d)), np.ones(d), horizon)
    ens = tracking_ensemble(n, domain)
    tracemalloc.start()
    try:
        trace = run(weights, domain, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon,
                    mode="stochastic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.x.nbytes == (horizon + 1) * n * d * 8
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _loss_replicates(family, domain, count, horizon, n=5):
    """count replicates of one loss family on domain, each with its own path
    (and, for synthetic losses, its own ensemble)."""
    rng = np.random.default_rng(11)
    dyn = identity_dynamics(domain.d)
    start = start_point(domain)
    out = []
    for r in range(count):
        if family == "tracking":
            ens = tracking_ensemble(n, domain)
        else:
            ens = synthetic_suite(r, n, domain.d, horizon, domain, kind=f"synthetic_{family}",
                                  offset_scale=0.02, noise_scale=0.1)
        walk = rng.normal(0.0, 0.01, (horizon, domain.d))
        if domain.kind == "simplex":
            walk -= walk.mean(axis=1, keepdims=True)
        path = generate_path(dyn, walk, start, horizon)
        out.append((ens, path, 0.3 / np.sqrt(np.arange(1, horizon + 2)), 40 + r))
    return dyn, out


@pytest.mark.parametrize("block_elements", [domd.objectives.BLOCK_ELEMENTS, 60],
                         ids=["default_blocks", "blocks_of_a_few_rounds"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("family, domain_kind, mode", [
    ("tracking", "box", "stochastic"),
    ("quadratic", "box", "exact"),
    ("quadratic", "simplex", "stochastic"),
    ("linear", "box", "stochastic"),
    ("linear", "simplex", "exact"),
])
def test_trace_losses_equal_iterate_losses(family, domain_kind, mode, count, block_elements,
                                           monkeypatch):
    # the losses the loop folds block by block, with or without the iterates,
    # are bit-equal to evaluating each replicate's whole trace afterwards
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", block_elements)
    domain = (box_domain([-5.0] * 4, [5.0] * 4) if domain_kind == "box"
              else simplex_domain(3, 0.01))
    horizon = 37
    dyn, replicates = _loss_replicates(family, domain, count, horizon)
    weights = metropolis_weights(build_path_graph(5))
    kept = run(weights, domain, dyn, replicates, horizon, mode)
    folded = run(weights, domain, dyn, replicates, horizon, mode, keep_iterates=False)
    assert folded.x is None and folded.horizon == horizon
    assert kept.losses.shape == folded.losses.shape == (count, horizon)
    for r, (ens, path, _, _) in enumerate(replicates):
        want = iterate_losses(kept[r], ens, path)
        assert np.array_equal(kept.losses[r], want)
        assert np.array_equal(folded[r].losses, want)


def _steps_handed_to_prox(monkeypatch, weights, domain, dyn, replicates, horizon, mode):
    """Run a batch and return the step of every round as prox received it."""
    seen = []
    inner = domd.engine.prox
    monkeypatch.setattr(domd.engine, "prox", lambda g, gr, y, eta: seen.append(eta) or
                        inner(g, gr, y, eta))
    run(weights, domain, dyn, replicates, horizon, mode)
    monkeypatch.undo()
    return seen


def test_a_shared_step_schedule_reaches_prox_as_one_float(monkeypatch):
    # one replicate, or several on one schedule: a Python float a round;
    # schedules that differ (an eta0 sweep): that round's (R, 1, 1) column
    weights, domain, dyn, ens, path = _box_setup(horizon=6)
    etas = 0.3 / np.sqrt(np.arange(1, 8))
    for count in (1, 3):
        replicates = [(ens, path, etas.copy(), seed) for seed in range(count)]
        seen = _steps_handed_to_prox(monkeypatch, weights, domain, dyn, replicates, 6, "exact")
        assert [type(eta) for eta in seen] == [float] * 6
        assert seen == etas[:6].tolist()
    replicates = [(ens, path, eta0 * etas, 0) for eta0 in (0.5, 1.0, 2.0)]
    seen = _steps_handed_to_prox(monkeypatch, weights, domain, dyn, replicates, 6, "exact")
    assert [eta.shape for eta in seen] == [(3, 1, 1)] * 6
    np.testing.assert_array_equal(np.concatenate(seen)[..., 0, 0].reshape(6, 3),
                                  np.outer(etas[:6], (0.5, 1.0, 2.0)))


@pytest.mark.parametrize("schedule", ["constant", "inv_sqrt"])
def test_eta0_batches_equal_solo_runs(schedule):
    # replicates that differ only in eta0 go through prox's array step, and
    # each keeps the bits of its own float-step run, on the box and the KL simplex
    horizon = 30
    shape = (np.ones(horizon + 1) if schedule == "constant"
             else 1.0 / np.sqrt(np.arange(1, horizon + 2)))
    weights = metropolis_weights(build_grid_graph(2, 3))
    domain = box_domain([-10.0] * 4, [10.0] * 4)
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(6, domain)
    path = generate_path(dyn, ncv_disturbances(0.5, 0.1, 3, horizon), np.zeros(4), horizon)
    replicates = [(ens, path, eta0 * shape, 5) for eta0 in (0.25, 0.5, 1.0)]
    _assert_replicates_equal_solo_runs(weights, domain, dyn, replicates, horizon, "stochastic")
    dyn, replicates = _loss_replicates("quadratic", simplex_domain(3, 0.01), 1, horizon)
    kl = simplex_domain(3, 0.01)
    ens, path, _, seed = replicates[0]
    replicates = [(ens, path, eta0 * shape, seed) for eta0 in (0.25, 0.5, 1.0)]
    _assert_replicates_equal_solo_runs(metropolis_weights(build_path_graph(5)), kl, dyn,
                                       replicates, horizon, "stochastic")


def _identity_replicates(kind, count, horizon):
    """(weights, domain, replicates) of count replicates under A = I: tracking
    on a box, or noisy quadratics on a KL simplex, each replicate with its own
    drifting path, losses, step size and seed."""
    weights = metropolis_weights(build_grid_graph(2, 3))
    dyn = identity_dynamics(3)
    replicates = []
    for k in range(count):
        rng = np.random.default_rng(20 + k)
        if kind == "box":
            domain = box_domain([-2.0] * 3, [2.0] * 3)
            path = generate_path(dyn, rng.normal(0.0, 0.1, (horizon, 3)), np.full(3, 0.5),
                                 horizon)
            ens = tracking_ensemble(6, domain)
        else:
            domain = simplex_domain(3, 0.01)
            drift = rng.normal(0.0, 1e-3, (horizon, 3))
            path = generate_path(dyn, drift - drift.mean(axis=1, keepdims=True),
                                 np.full(3, 1.0 / 3.0), horizon)
            ens = synthetic_suite(k, 6, 3, horizon, domain, offset_scale=0.02,
                                  noise_scale=0.5)
        replicates.append((ens, path, np.full(horizon + 1, 0.3 + 0.2 * k), 7 + k))
    return weights, domain, replicates


def _pushed_reference(weights, domain, replicate, horizon, mode):
    """One replicate's iterates by the plain round: oracle, mix, prox, then the
    push x @ I.T, the d x d product that every other A takes."""
    ens, path, etas, seed = replicate
    eye = np.eye(domain.d)
    samples = (oracle_samples(ens, path[:horizon],
                              oracle_noise(ens, np.random.default_rng(seed), horizon))
               if mode == "stochastic" else None)
    xs = [init_state(weights.n, domain)]
    for t in range(horizon):
        x = xs[-1]
        centers = round_centers(ens, path, t + 1)
        grads = (gradients_exact_batch(ens, t + 1, x, centers) if mode == "exact"
                 else gradients_stochastic_batch(ens, t + 1, x, centers,
                                                 None if samples is None else samples[t]))
        xnext = prox(domain, grads, mix(weights, x), float(etas[t])) @ eye.T
        assert contains(domain, xnext)  # so the simplex repair never had work
        xs.append(xnext)
    return np.array(xs)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("mode", ["exact", "stochastic"])
@pytest.mark.parametrize("kind", ["box", "simplex"])
def test_identity_runs_equal_the_pushed_reference_loop(kind, mode, count):
    # A = I pushes nothing: every iterate is its prox output, bit for bit the
    # round that still multiplied by the identity
    horizon = 25
    weights, domain, replicates = _identity_replicates(kind, count, horizon)
    batch = run(weights, domain, identity_dynamics(3), replicates, horizon, mode)
    for r, replicate in enumerate(replicates):
        want = _pushed_reference(weights, domain, replicate, horizon, mode)
        assert batch[r].x.tobytes() == want.tobytes()
        assert not np.array_equal(want[1], want[horizon])  # the iterates did move


def test_an_identity_push_tests_no_domain_membership(monkeypatch):
    # on the simplex the push of any other A is checked once a round; the
    # identity's is not, which leaves init_state's check of the start alone
    calls = []
    check = domd.engine.contains
    monkeypatch.setattr(domd.engine, "contains", lambda *a: calls.append(1) or check(*a))
    horizon = 12
    weights, domain, replicates = _identity_replicates("simplex", 2, horizon)
    identity = run(weights, domain, identity_dynamics(3), replicates, horizon, "stochastic")
    assert len(calls) == 1
    calls.clear()
    nudged = LinearDynamics((1.0 + 2**-52) * np.eye(3))
    pushed = run(weights, domain, nudged, replicates, horizon, "stochastic")
    assert len(calls) == 1 + horizon
    assert not nudged.is_identity and pushed.x.tobytes() != identity.x.tobytes()


def _mixed_dynamics_batch(kind, schedules, horizon):
    """(weights, domain, dyns, replicates) of four quadratic replicates on a
    2x3 grid whose A are I, 0.9 I, NCV(0.1) and I: on a box, or on a floored
    4-simplex, where 0.9 I and NCV push every prox output off the simplex;
    with one step schedule, or each replicate its own."""
    domain = (box_domain([-2.0] * 4, [2.0] * 4) if kind == "box"
              else simplex_domain(4, 0.01))
    dyns = [identity_dynamics(4), LinearDynamics(0.9 * np.eye(4)), ncv_dynamics(0.1),
            identity_dynamics(4)]
    replicates = []
    for k in range(len(dyns)):
        ens = synthetic_suite(k, 6, 4, horizon, domain, offset_scale=0.02, noise_scale=0.2)
        walk = np.random.default_rng(30 + k).normal(0.0, 1e-3, (horizon, 4))
        walk -= walk.mean(axis=1, keepdims=True)
        path = generate_path(identity_dynamics(4), walk, start_point(domain), horizon)
        etas = (np.full(horizon + 1, 0.2) if schedules == "shared"
                else (0.1 + 0.1 * k) / np.sqrt(np.arange(1, horizon + 2)))
        replicates.append((ens, path, etas, 50 + k))
    return metropolis_weights(build_grid_graph(2, 3)), domain, dyns, replicates


def _assert_mixed_batch_equals_solo_runs(weights, domain, dyns, replicates, horizon, mode,
                                         x0=None):
    batch = run(weights, domain, dyns, replicates, horizon, mode, x0)
    for r, replicate in enumerate(replicates):
        solo = run(weights, domain, dyns[r], [replicate], horizon, mode, x0)
        assert batch[r].x.tobytes() == solo.x.tobytes(), r
        assert batch[r].losses.tobytes() == solo.losses.tobytes(), r
    return batch


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
@pytest.mark.parametrize("schedules", ["shared", "own"])
@pytest.mark.parametrize("kind", ["box", "simplex"])
def test_mixed_dynamics_batches_equal_solo_runs(kind, schedules, mode, monkeypatch):
    # one loop over replicates whose A differ: each is bit for bit its run
    # alone; on the simplex the pushed replicates, and only they, are
    # repaired every round
    horizon = 25
    weights, domain, dyns, replicates = _mixed_dynamics_batch(kind, schedules, horizon)
    repairs = []
    project = domd.engine.project_floored_simplex
    monkeypatch.setattr(domd.engine, "project_floored_simplex",
                        lambda v, floor: repairs.append(v.shape[0]) or project(v, floor))
    batch = run(weights, domain, dyns, replicates, horizon, mode)
    assert repairs == ([] if kind == "box" else [2] * horizon)
    monkeypatch.undo()
    assert _assert_mixed_batch_equals_solo_runs(weights, domain, dyns, replicates, horizon,
                                                mode).x.tobytes() == batch.x.tobytes()
    assert not np.array_equal(batch.x[1, 1], batch.x[1, horizon])  # the iterates did move


def test_mixed_dynamics_push_only_the_moving_replicates_once_a_round(monkeypatch):
    # which replicates move is decided once per run; a round multiplies them
    # in one stacked product and never touches an identity replicate
    horizon = 6
    weights, domain, dyns, replicates = _mixed_dynamics_batch("box", "shared", horizon)
    products = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda a, b, **k: products.append((a.shape, b.shape)) or matmul(a, b, **k))
    run(weights, domain, dyns, replicates, horizon, "exact")
    monkeypatch.undo()
    pushes = [shapes for shapes in products if shapes[1][-2:] == (4, 4)]  # not W's mixing
    assert pushes == [((2, 6, 4), (2, 4, 4))] * horizon
    push = domd.engine._batch_dynamics(dyns, 4)
    assert push.moving == slice(1, 3)  # consecutive: a view of the batch
    assert push.a_t[1].tobytes() == dyns[2].a.T.tobytes()
    assert push.a_t[1].strides == dyns[2].a_t.strides
    apart = [dyns[1], dyns[0], dyns[2]]
    assert domd.engine._batch_dynamics(apart, 3).moving.tolist() == [0, 2]
    _assert_mixed_batch_equals_solo_runs(weights, domain, apart, replicates[:3], horizon,
                                         "stochastic")
    # every replicate moving, each on its own A
    assert domd.engine._batch_dynamics(dyns[1:3], 2).moving == slice(0, 2)
    _assert_mixed_batch_equals_solo_runs(weights, domain, dyns[1:3], replicates[1:3], horizon,
                                         "exact")
    # one A for all, passed once or per replicate: a lone run's push
    assert domd.engine._batch_dynamics([dyns[2], ncv_dynamics(0.1)], 2) is dyns[2]
    assert domd.engine._batch_dynamics([dyns[0], dyns[3]], 2).is_identity
    with pytest.raises(ValueError, match="one dynamics per replicate: 4 replicates, 3"):
        run(weights, domain, dyns[:3], replicates, horizon, "exact")


def test_an_identity_replicate_of_a_mixed_batch_keeps_its_negative_zeros():
    # the box [-0.0, 1]^4 clamps a coordinate driven below it to -0.0, which
    # x @ I.T would turn into +0.0; the identity replicates keep it
    horizon = 12
    domain = box_domain([-0.0] * 4, [1.0] * 4)
    dyns = [identity_dynamics(4), LinearDynamics(0.9 * np.eye(4)), identity_dynamics(4)]
    path = generate_path(dyns[0], np.zeros((horizon, 4)), np.full(4, 0.5), horizon)
    pull = np.zeros((horizon, 3, 4))
    pull[:, :, 0] = 10.0  # every agent's coordinate 0 runs into its lower bound
    replicates = [(linear_ensemble(pull * (1 + k), domain), path, np.full(horizon + 1, 0.5), k)
                  for k in range(3)]
    weights = metropolis_weights(build_path_graph(3))
    batch = _assert_mixed_batch_equals_solo_runs(weights, domain, dyns, replicates, horizon,
                                                 "exact", x0=np.full(4, 0.5))
    for r in (0, 2):
        zeros = batch[r].x[1:, :, 0]
        assert (zeros == 0.0).all() and np.signbit(zeros).all()
    assert not np.signbit(batch[1].x[1:, :, 0]).all()


@PROPERTY
@given(st.integers(2, 7), st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_the_simplex_repair_projects_the_replicates_inside_finds_off(d, count, n, seed):
    # the per-replicate reductions of _repaired find the replicates that have
    # a point outside the floored simplex, a NaN one included, and project
    # them with the bits a repair through geometry.inside gives
    rng = np.random.default_rng(seed)
    domain = simplex_domain(d, 0.5 / d * rng.uniform(0.01, 1.0))
    x = domain.floor + (1.0 - d * domain.floor) * rng.dirichlet(np.ones(d), (count, n))
    kinds = rng.integers(0, 5, count)
    for r, kind in enumerate(kinds):
        row = rng.integers(n)
        if kind == 1:  # a point nudged within the tolerance
            x[r, row] *= 1.0 + 1e-12
        elif kind == 2:  # one agent pushed off, like A = 0.9 I
            x[r, row] *= 0.9
        elif kind == 3:  # a coordinate below the floor at an unchanged sum
            x[r, row, 0] -= domain.floor
            x[r, row, 1] += domain.floor
        elif kind == 4:
            x[r, row, rng.integers(d)] = np.nan
    want = x.copy()
    off = ~domd.geometry.inside(domain, want).all(axis=-1)
    if off.any():
        want[off] = domd.engine.project_floored_simplex(want[off], domain.floor)
    assert domd.engine._repaired(domain, x.copy()).tobytes() == want.tobytes()
    assert domd.engine._repaired(domain, x[0].copy()).tobytes() == (
        want[0] if off[0] else x[0]).tobytes()


def _spanning(rng, shape):
    """Random entries of either sign whose magnitudes span 1e-8 .. 1e8."""
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(
        -8, 8, shape)


@PROPERTY
@given(st.integers(2, 8), st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_a_stacked_push_through_a_t_is_each_replicates_lone_push(d, count, n, seed):
    # every product with A reads the C-contiguous a_t: a batch's push gives
    # each replicate the bits of its lone push, for one shared A and for a
    # mixed batch whose moving replicates are gathered around identity ones
    rng = np.random.default_rng(seed)
    domain = box_domain([-1e9] * d, [1e9] * d)
    xhat = _spanning(rng, (count, n, d))
    shared = LinearDynamics(_spanning(rng, (d, d)))
    pushed = domd.engine._apply_dynamics(domain, shared, xhat.copy())
    for r in range(count):
        alone = domd.engine._apply_dynamics(domain, shared, xhat[r:r + 1].copy())
        assert pushed[r].tobytes() == alone[0].tobytes(), r
    count = max(count, 3)
    xhat = _spanning(rng, (count, n, d))
    moves = rng.random(count) < 0.5
    moves[[0, -1]], moves[rng.integers(1, count - 1)] = True, False
    dyns = [LinearDynamics(_spanning(rng, (d, d))) if move else identity_dynamics(d)
            for move in moves]
    push = domd.engine._batch_dynamics(dyns, count)
    assert push.moving.tolist() == np.flatnonzero(moves).tolist()  # gathered, not a slice
    pushed = domd.engine._apply_dynamics(domain, push, xhat.copy())
    for r in range(count):
        alone = domd.engine._apply_dynamics(domain, dyns[r], xhat[r:r + 1].copy())
        assert pushed[r].tobytes() == alone[0].tobytes(), r


def _block_replicates(kind, count, horizon):
    """count replicates on a 6-agent path graph in a box, each with its own
    drifting target, losses, step size and seed: exact quadratics about the
    target plus offsets, exact linear losses, noisy quadratics or exact
    tracking squares; with the mode they run in."""
    domain = box_domain([-2.0] * 3, [2.0] * 3)
    dyn = LinearDynamics(0.95 * np.eye(3))
    replicates = []
    for k in range(count):
        drift = np.random.default_rng(40 + k).normal(0.0, 0.05, (horizon, 3))
        path = generate_path(dyn, drift, np.full(3, 0.3), horizon)
        if kind == "tracking":
            ens = tracking_ensemble(6, domain)
        else:
            ens = synthetic_suite(k, 6, 3, horizon, domain, offset_scale=0.1,
                                  kind="synthetic_linear" if kind == "linear"
                                  else "synthetic_quadratic",
                                  noise_scale=0.3 if kind == "noisy" else 0.0)
        replicates.append((ens, path, np.full(horizon + 1, 0.2 + 0.05 * k), 5 + k))
    mode = "stochastic" if kind == "noisy" else "exact"
    return metropolis_weights(build_path_graph(6)), domain, dyn, replicates, mode


def _per_round_reference(weights, domain, dyn, replicate, horizon, mode):
    """One replicate's iterates by rounds that each form their own oracle
    inputs: round t's centers, target plus offsets, and its noise row."""
    ens, path, etas, seed = replicate
    draws = oracle_noise(ens, np.random.default_rng(seed), horizon) if mode != "exact" else None
    xs = [init_state(weights.n, domain)]
    for t in range(1, horizon + 1):
        x, centers = xs[-1], round_centers(ens, path, t)
        grads = (gradients_exact_batch(ens, t, x, centers) if draws is None
                 else gradients_stochastic_batch(ens, t, x, centers, draws[t - 1]))
        xs.append(step(x, weights, domain, dyn, grads, float(etas[t - 1])))
    return np.array(xs)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["quadratic", "linear", "noisy", "tracking"])
def test_runs_over_many_blocks_equal_the_per_round_loop(monkeypatch, kind, count):
    # the engine builds a block's square centers in one stacked add; with
    # blocks of a round or a few, the iterates are bit for bit those of rounds
    # that form their own centers (and draw their own noise rows)
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", 100)
    horizon = 23
    weights, domain, dyn, replicates, mode = _block_replicates(kind, count, horizon)
    assert len(domd.objectives._round_blocks(horizon, count * 6 * 3)) >= 5
    batch = run(weights, domain, dyn, replicates, horizon, mode)
    for r, replicate in enumerate(replicates):
        want = _per_round_reference(weights, domain, dyn, replicate, horizon, mode)
        assert batch[r].x.tobytes() == want.tobytes()
        assert not np.array_equal(want[1], want[horizon])  # the iterates did move


def test_a_non_finite_center_in_a_blocks_middle_round_names_that_round(monkeypatch):
    # a NaN offset makes one agent's centre, and so its gradient, NaN in
    # round 5, the middle round of the block of rounds 4 .. 6
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", 3 * 3 * 6 * 3)
    horizon = 12
    weights, domain, dyn, replicates, mode = _block_replicates("quadratic", 3, horizon)
    assert domd.objectives._round_blocks(horizon, 3 * 6 * 3)[1] == slice(3, 6)
    ens, path, etas, seed = replicates[1]
    offsets = ens.offsets.copy()
    offsets[4, 2, 1] = np.nan
    replicates[1] = (replace(ens, offsets=offsets), path, etas, seed)
    with pytest.raises(EngineError, match=r"^gradients became non-finite in round 5 "
                                          r"\(replicate 1, agent 2\)$") as err:
        run(weights, domain, dyn, replicates, horizon, mode)
    assert (err.value.replicate, err.value.agent) == (1, 2)
