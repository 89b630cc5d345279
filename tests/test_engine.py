"""Round loop semantics: step sizes, initialization, stepping, traces."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import domd.engine
import domd.objectives
from domd.dynamics import (LinearDynamics, generate_path, identity_dynamics,
                           ncv_disturbances, ncv_dynamics)
from domd.engine import EngineError, RunTrace, init_state, run, step
from domd.geometry import (box_domain, contains, euclidean_geometry,
                           kl_geometry, prox, simplex_domain)
from domd.network import (DENSE_MIX_MAX_NODES, WeightMatrix, build_grid_graph,
                          build_path_graph, metropolis_weights, mix,
                          random_connected_graph, uniform_complete_weights)
from domd.metrics import iterate_losses
from domd.objectives import (gradients_exact_batch, gradients_stochastic_batch,
                             linear_ensemble, oracle_noise, oracle_samples,
                             synthetic_suite, tracking_ensemble)

BIG = np.finfo(float).max


def _box_setup(n=3, d=2, horizon=8, half=5.0, seed=3):
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(box_domain([-half] * d, [half] * d))
    dyn = identity_dynamics(d)
    ens = synthetic_suite(seed, n, d, horizon, geom.domain)
    path = generate_path(dyn, np.zeros((horizon, d)), np.zeros(d), horizon)
    return weights, geom, dyn, ens, path


def test_constant_and_inv_sqrt_schedules():
    # any positive eta_1 .. eta_{T+1} array drives the run and lands in the trace;
    # a zero, negative, NaN or infinite entry is refused for the replicate that holds
    # it, whether the batch shares its schedule (one float a round) or not (an array)
    weights, geom, dyn, ens, path = _box_setup(horizon=5)
    for etas in (np.full(6, 0.5), 0.2 / np.sqrt(np.arange(1, 7))):
        assert np.array_equal(run(weights, geom, dyn, [(ens, path, etas, 0)], 5)[0].etas, etas)
    good = np.full(6, 0.1)
    for bad in (np.zeros(6), np.full(6, -0.1), np.r_[np.full(5, 0.1), 0.0],
                np.r_[np.nan, np.full(5, 0.1)], np.r_[0.1, np.inf, np.full(4, 0.1)],
                np.r_[np.full(5, 0.1), np.inf], np.r_[np.full(5, 0.1), -np.inf]):
        for replicates in ([(ens, path, bad, 0)], [(ens, path, bad, 0), (ens, path, bad, 1)]):
            with pytest.raises(ValueError,
                               match="replicate 0: step sizes must be 6 positive finite"):
                run(weights, geom, dyn, replicates, 5)
        with pytest.raises(ValueError, match="replicate 1: step sizes must be 6 positive"):
            run(weights, geom, dyn, [(ens, path, good, 0), (ens, path, bad, 1)], 5)


def test_schedule_etas_covers_one_past_horizon():
    # eta_{T+1} is for the bound calculators, so the array has T+1 entries exactly
    weights, geom, dyn, ens, path = _box_setup(horizon=5)
    assert run(weights, geom, dyn, [(ens, path, np.full(6, 0.1), 0)], 5)[0].etas.shape == (6,)
    good = np.full(6, 0.1)
    for bad in (np.full(5, 0.1), np.full(7, 0.1), np.full((6, 1), 0.1), 0.1):
        with pytest.raises(ValueError, match="replicate 0: step sizes must be 6 .* got shape"):
            run(weights, geom, dyn, [(ens, path, bad, 0)], 5)
        with pytest.raises(ValueError, match="replicate 2: step sizes must be 6"):
            run(weights, geom, dyn, [(ens, path, good, 0), (ens, path, good, 1),
                                     (ens, path, bad, 2)], 5)


def test_init_state_defaults():
    box = euclidean_geometry(box_domain([-1.0] * 3, [1.0] * 3))
    np.testing.assert_array_equal(init_state(4, box), np.zeros((4, 3)))
    kl = kl_geometry(simplex_domain(4, 0.01))
    np.testing.assert_allclose(init_state(2, kl), np.full((2, 4), 0.25))
    explicit = init_state(2, box, [0.5, -0.5, 0.0])
    np.testing.assert_array_equal(explicit, [[0.5, -0.5, 0.0]] * 2)
    with pytest.raises(EngineError, match="outside"):
        init_state(2, box, [2.0, 0.0, 0.0])
    shifted = euclidean_geometry(box_domain([1.0, 1.0], [2.0, 2.0]))
    with pytest.raises(EngineError, match="outside"):
        init_state(2, shifted)


def test_zero_gradients_leave_common_iterate_fixed():
    weights, geom, dyn, _, path = _box_setup()
    grads = np.zeros((path.horizon, 3, 2))
    ens = linear_ensemble(grads, geom.domain)
    start = np.array([0.7, -1.3])
    trace = run(weights, geom, dyn, [(ens, path, np.full(path.horizon + 1, 0.1), 0)],
                path.horizon, x0=start)[0]
    np.testing.assert_allclose(trace.x, np.broadcast_to(start, trace.x.shape),
                               atol=1e-14)


def _replay_round(trace, weights, geom, ens, path, eta, t):
    """Anchor, exact gradients and prox output of round t+1, from the iterates."""
    y = mix(weights, trace.x[t])
    grads = gradients_exact_batch(ens, t + 1, trace.x[t], path)
    return y, grads, prox(geom, grads, y, eta)


def test_mixing_preserves_agent_mean():
    weights, geom, dyn, ens, path = _box_setup()
    trace = run(weights, geom, dyn, [(ens, path, np.full(path.horizon + 1, 0.1), 0)],
                path.horizon)[0]
    xbar = trace.x.mean(axis=1)
    for t in range(path.horizon):
        y, _, xhat = _replay_round(trace, weights, geom, ens, path, 0.1, t)
        np.testing.assert_allclose(y.mean(axis=0), xbar[t], atol=1e-12)
        # identity dynamics: next mean is the mean prox output
        np.testing.assert_allclose(xbar[t + 1], xhat.mean(axis=0), atol=1e-12)


def test_uniform_weights_give_identical_anchors():
    n, d, horizon = 4, 2, 6
    weights = uniform_complete_weights(n)
    geom = euclidean_geometry(box_domain([-5.0] * d, [5.0] * d))
    dyn = identity_dynamics(d)
    ens = synthetic_suite(1, n, d, horizon, geom.domain)
    path = generate_path(dyn, np.zeros((horizon, d)), np.zeros(d), horizon)
    trace = run(weights, geom, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon)[0]
    for t in range(horizon):
        y = mix(weights, trace.x[t])
        np.testing.assert_allclose(y - y[0], 0.0, atol=1e-14)


def test_runs_are_reproducible():
    weights, geom, dyn, ens, path = _box_setup()
    noisy = synthetic_suite(3, 3, 2, path.horizon, geom.domain, noise_scale=0.2)
    etas = np.full(path.horizon + 1, 0.1)
    a = run(weights, geom, dyn, [(noisy, path, etas, 5)], path.horizon, mode="stochastic")
    b = run(weights, geom, dyn, [(noisy, path, etas, 5)], path.horizon, mode="stochastic")
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.etas, b.etas)
    c = run(weights, geom, dyn, [(noisy, path, etas, 6)], path.horizon, mode="stochastic")
    assert not np.array_equal(a.x[0, 1:], c.x[0, 1:])


def test_zero_round_run():
    weights, geom, dyn, ens, path = _box_setup()
    trace = run(weights, geom, dyn, [(ens, path, np.full(1, 0.1), 0)], 0)[0]
    assert trace.horizon == 0
    assert trace.x.shape == (1, 3, 2)
    assert trace.etas.shape == (1,)
    assert trace.losses.shape == (0,)
    assert [f.name for f in fields(RunTrace)] == ["x", "etas", "norm_kind", "losses"]


def _box_tracking_case(horizon):
    weights = metropolis_weights(build_grid_graph(2, 3))
    geom = euclidean_geometry(box_domain([-3.0] * 4, [3.0] * 4))
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, ncv_disturbances(4.0, 0.1, 2, horizon), np.zeros(4), horizon)
    return weights, geom, dyn, tracking_ensemble(6, geom.domain), path, "stochastic"


def _free_linear_case(horizon):
    # a box so wide the clamp never fires: the iterates move as if unconstrained
    weights = metropolis_weights(build_path_graph(3))
    geom = euclidean_geometry(box_domain([-1e6] * 2, [1e6] * 2))
    dyn = LinearDynamics([[0.9, 0.2], [-0.1, 0.8]])
    path = generate_path(dyn, np.zeros((horizon, 2)), np.zeros(2), horizon)
    ens = synthetic_suite(4, 3, 2, horizon, geom.domain, kind="synthetic_linear")
    return weights, geom, dyn, ens, path, "exact"


def _kl_noisy_quadratic_case(horizon):
    weights = metropolis_weights(build_grid_graph(1, 3))
    geom = kl_geometry(simplex_domain(3, 0.01))
    dyn = identity_dynamics(3)
    path = generate_path(dyn, np.zeros((horizon, 3)), np.full(3, 1.0 / 3.0), horizon)
    ens = synthetic_suite(6, 3, 3, horizon, geom.domain, offset_scale=0.02, noise_scale=0.2)
    return weights, geom, dyn, ens, path, "stochastic"


@pytest.mark.parametrize("case", [_box_tracking_case, _free_linear_case,
                                  _kl_noisy_quadratic_case],
                         ids=["box_tracking_stochastic", "free_linear_exact",
                              "kl_noisy_quadratic"])
def test_trace_replays_through_public_steps(case):
    # every round is the oracle at x[t], then step = mix, prox and the push
    horizon, seed = 5, 11
    weights, geom, dyn, ens, path, mode = case(horizon)
    etas = 0.3 / np.sqrt(np.arange(1, horizon + 2))
    trace = run(weights, geom, dyn, [(ens, path, etas, seed)], horizon, mode=mode)[0]
    draws = oracle_noise(ens, np.random.default_rng(seed), horizon)
    samples = oracle_samples(ens, path.states[:horizon], draws)
    for t in range(horizon):
        x, eta = trace.x[t], etas[t]
        if mode == "exact":
            grads = gradients_exact_batch(ens, t + 1, x, path)
        else:
            grads = gradients_stochastic_batch(ens, t + 1, x, path,
                                               None if samples is None else samples[t])
        xhat = prox(geom, grads, mix(weights, x), eta)
        np.testing.assert_allclose(trace.x[t + 1], xhat @ dyn.a.T, atol=1e-14)
        np.testing.assert_array_equal(step(x, weights, geom, dyn, grads, eta), trace.x[t + 1])
    assert not np.array_equal(trace.x[1], trace.x[horizon])  # the iterates did move


def test_prox_errors_stop_the_run_in_their_round(monkeypatch):
    # pinned rounds: the anchor and gradient checks run inside every round's prox
    calls = []
    inner = domd.engine.prox
    monkeypatch.setattr(domd.engine, "prox", lambda *a: calls.append(1) or inner(*a))
    weights = metropolis_weights(build_path_graph(2))
    geom = euclidean_geometry(box_domain([-1.0] * 2, [1.0] * 2))
    horizon = 8
    path = generate_path(identity_dynamics(2), np.zeros((horizon, 2)), np.zeros(2), horizon)
    idle = linear_ensemble(np.zeros((horizon, 2, 2)), geom.domain)
    etas = np.full(horizon + 1, 0.1)
    # x = 0.3, 0.45, 0.675, 1.0125: the push leaves the box and round 4's anchor is outside
    with pytest.raises(ValueError, match="prox anchor lies outside the domain"):
        run(weights, geom, LinearDynamics(1.5 * np.eye(2)), [(idle, path, etas, 0)], horizon,
            x0=[0.3, 0.3])
    assert len(calls) == 4
    grads = np.zeros((horizon, 2, 2))
    grads[2, 1, 0] = np.nan  # agent 1's gradient in round 3
    calls.clear()
    with pytest.raises(ValueError, match="gradient has non-finite entries"):
        run(weights, geom, identity_dynamics(2),
            [(linear_ensemble(grads, geom.domain), path, etas, 0)], horizon)
    assert len(calls) == 3


def test_run_argument_validation():
    weights, geom, dyn, ens, path = _box_setup()
    with pytest.raises(ValueError, match="mode"):
        run(weights, geom, dyn, [(ens, path, np.full(4, 0.1), 0)], 3, mode="банана")
    with pytest.raises(ValueError, match="nonnegative"):
        run(weights, geom, dyn, [(ens, path, np.full(4, 0.1), 0)], -1)


def test_run_replicates_argument_validation():
    # a batch needs at least one replicate, all of one loss family
    weights, geom, dyn, ens, path = _box_setup()
    with pytest.raises(ValueError, match="at least one replicate"):
        run(weights, geom, dyn, [], 3)
    linear = linear_ensemble(np.zeros((path.horizon, 3, 2)), geom.domain)
    with pytest.raises(ValueError, match="share the loss family"):
        run(weights, geom, dyn, [(ens, path, np.full(4, 0.1), 0),
                                 (linear, path, np.full(4, 0.1), 0)], 3)


def test_batch_trace_rows_are_replicate_views():
    weights, geom, dyn, ens, path = _box_setup(horizon=5)
    steps = (np.full(6, 0.1), np.full(6, 0.3))
    batch = run(weights, geom, dyn, [(ens, path, eta, k) for k, eta in enumerate(steps)], 5)
    assert batch.x.shape == (2, 6, 3, 2) and batch.etas.shape == (2, 6)
    assert (batch.horizon, batch.n, batch.d) == (5, 3, 2)
    for r, eta in enumerate(steps):
        trace = batch[r]
        assert trace.x.shape == (6, 3, 2) and (trace.horizon, trace.n, trace.d) == (5, 3, 2)
        assert np.shares_memory(trace.x, batch.x) and np.shares_memory(trace.etas, batch.etas)
        assert np.array_equal(trace.x, batch.x[r]) and np.array_equal(trace.etas, eta)
        assert trace.norm_kind == batch.norm_kind


def test_simplex_iterates_stay_feasible_under_contracting_dynamics():
    n, d, horizon = 3, 3, 30
    weights = metropolis_weights(build_grid_graph(1, 3))
    domain = simplex_domain(d, 0.01)
    geom = kl_geometry(domain)
    dyn = LinearDynamics(0.9 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)),
                         np.full(d, 1.0 / 3.0), horizon)
    ens = synthetic_suite(2, n, d, horizon, domain)
    trace = run(weights, geom, dyn, [(ens, path, np.full(horizon + 1, 0.2), 0)], horizon)[0]
    for t in range(horizon + 1):
        for i in range(n):
            assert contains(domain, trace.x[t, i])
    np.testing.assert_allclose(trace.x.sum(axis=2), 1.0, atol=1e-9)


def test_divergent_dynamics_raise_engine_error():
    n, d, horizon = 2, 2, 400
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(box_domain([-BIG] * d, [BIG] * d))  # holds every finite point
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    ens = linear_ensemble(np.zeros((horizon, n, d)), geom.domain)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EngineError, match="non-finite"):
            run(weights, geom, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon,
                x0=np.array([1.0, 1.0]))


def _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon, mode,
                                       x0=None):
    # a batch of R equals R batches of one, bit for bit (signed zeros included)
    batch = run(weights, geom, dyn, replicates, horizon, mode, x0)
    assert batch.x.shape == (len(replicates), horizon + 1, weights.n, geom.domain.d)
    traces = [batch[r] for r in range(len(replicates))]
    for replicate, trace in zip(replicates, traces):
        solo = run(weights, geom, dyn, [replicate], horizon, mode, x0)
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
    geom = euclidean_geometry(box_domain([-10.0] * 4, [10.0] * 4))
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(25, geom.domain, innovation=innovation)
    paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(4),
                           horizon) for seed in (1, 2, 3)]
    steps = (np.full(horizon + 1, 0.5), 0.7 / np.sqrt(np.arange(1, horizon + 2)),
             np.full(horizon + 1, 0.2))
    replicates = [(ens, p, s, seed) for p, s, seed in zip(paths, steps, (7, 8, 9))]
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon,
                                       "stochastic")


def test_replicates_equal_solo_runs_above_the_dense_mix_size():
    # above DENSE_MIX_MAX_NODES mix is the neighbour sum over (replicate,
    # row, coordinate) slots; each replicate still keeps its solo bits
    horizon, n = 20, DENSE_MIX_MAX_NODES + 44
    weights = metropolis_weights(random_connected_graph(n, 0.03, 2))
    geom = euclidean_geometry(box_domain([-10.0] * 4, [10.0] * 4))
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(n, geom.domain)
    paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(4),
                           horizon) for seed in (1, 2, 3)]
    replicates = [(ens, p, np.full(horizon + 1, eta), seed)
                  for p, eta, seed in zip(paths, (0.5, 0.3, 0.2), (7, 8, 9))]
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon,
                                       "stochastic")
    assert weights._neighbour_index is not None


def test_replicates_equal_solo_runs_noisy_quadratic_and_linear():
    horizon = 40
    weights = metropolis_weights(build_path_graph(3))
    geom = euclidean_geometry(box_domain([-5.0] * 2, [5.0] * 2))
    dyn = LinearDynamics(0.95 * np.eye(2))
    paths = [generate_path(dyn, np.random.default_rng(k).normal(0.0, 0.05, (horizon, 2)),
                           np.array([0.5, -0.5]), horizon) for k in range(3)]
    quads = [synthetic_suite(k, 3, 2, horizon, geom.domain, noise_scale=0.5)
             for k in range(3)]
    replicates = [(e, p, 0.3 / np.sqrt(np.arange(1, horizon + 2)), 11 + k)
                  for k, (e, p) in enumerate(zip(quads, paths))]
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon,
                                       "stochastic")
    lins = [synthetic_suite(k, 3, 2, horizon, geom.domain, kind="synthetic_linear",
                            noise_scale=0.2 * k) for k in (1, 2)]
    replicates = [(e, paths[0], np.full(horizon + 1, 0.2), k) for k, e in enumerate(lins)]
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon, "exact")
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon,
                                       "stochastic")


def _kl_linear_replicates(dyn, pulls, horizon, floor=0.01):
    """KL simplex runs under linear losses: replicate k adds pulls[k] to every
    agent's gradient on top of small per-agent noise."""
    weights = metropolis_weights(build_path_graph(3))
    geom = kl_geometry(simplex_domain(3, floor))
    path = generate_path(identity_dynamics(3), np.zeros((horizon, 3)), np.full(3, 1 / 3),
                         horizon)
    replicates = []
    for k, pull in enumerate(pulls):
        noise = np.random.default_rng(k).uniform(-0.2, 0.2, (horizon, 3, 3))
        ens = linear_ensemble(noise + np.asarray(pull), geom.domain)
        replicates.append((ens, path, np.full(horizon + 1, 0.5), k))
    return weights, geom, dyn, replicates


def test_replicates_equal_solo_runs_when_one_replicate_hits_the_floor():
    # replicate 0's prox outputs need the floor projection, replicate 1's never
    weights, geom, dyn, replicates = _kl_linear_replicates(
        identity_dynamics(3), ([5.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 30)
    hit, free = _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, 30,
                                                   "exact")
    assert np.any(hit.x == 0.01)
    assert free.x.min() > 0.05


def test_replicates_equal_solo_runs_when_one_replicate_needs_repair():
    # the push halves coordinate 0 (and keeps the sum): replicate 0 is driven to
    # the floor and pushed off the simplex, replicate 1 settles near 0.2
    a = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    weights, geom, dyn, replicates = _kl_linear_replicates(
        LinearDynamics(a), ([3.0, 0.0, 0.0], [-2.0, 0.0, 0.0]), 30)
    repaired, kept = _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates,
                                                        30, "exact")
    assert np.any(repaired.x[1:, :, 0] == 0.01)
    assert kept.x[:, :, 0].min() > 0.1


@pytest.mark.parametrize("block_elements", [1, 40])
def test_noise_block_boundaries_keep_every_stream(monkeypatch, block_elements):
    # 2 replicates x 3 agents x 2 coordinates: one-round blocks, then 3-round
    # blocks with a ragged last block of one round
    weights, geom, dyn, _, path = _box_setup(horizon=10)
    ensembles = [synthetic_suite(k, 3, 2, 10, geom.domain, noise_scale=0.4)
                 for k in (1, 2)]
    replicates = [(e, path, np.full(11, 0.1), 20 + k)
                  for k, e in enumerate(ensembles)]
    whole = run(weights, geom, dyn, replicates, 10, "stochastic")
    monkeypatch.setattr(domd.objectives, "BLOCK_ELEMENTS", block_elements)  # _round_blocks
    blocked = _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, 10,
                                                 "stochastic")
    for r, b in enumerate(blocked):
        assert whole[r].x.tobytes() == b.x.tobytes()


def test_non_finite_error_names_round_replicate_and_agent():
    n, d, horizon = 3, 1, 400
    weights = WeightMatrix(n, np.eye(n))  # no mixing: agents diverge alone
    geom = euclidean_geometry(box_domain([-BIG] * d, [BIG] * d))
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    calm = linear_ensemble(np.zeros((horizon, n, d)), geom.domain)
    pushed = np.zeros((horizon, n, d))
    pushed[:, 2] = -1.0
    wild = linear_ensemble(pushed, geom.domain)
    etas = np.full(horizon + 1, 1.0)
    replicates = [(calm, path, etas, 0), (wild, path, etas, 0)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EngineError, match="non-finite") as solo:
            run(weights, geom, dyn, [(wild, path, etas, 0)], horizon)
        with pytest.raises(EngineError, match="non-finite") as batched:
            run(weights, geom, dyn, replicates, horizon)
    assert str(solo.value).endswith("(replicate 0, agent 2)")
    assert str(batched.value).endswith("(replicate 1, agent 2)")
    round_of = str(solo.value).split("round ")[1].split(" ")[0]
    assert str(batched.value).split("round ")[1].split(" ")[0] == round_of
    assert 300 < int(round_of) < 320  # x_t = 10 (x_{t-1} + 1) passes 1.8e308


def test_finite_iterates_whose_sum_overflows_run_until_one_overflows():
    # agents 1 and 2 of the second replicate step x_t = 10 (x_{t-1} + 1): at
    # round 308 both hold 1.1e308, whose sum is no float; round 309 overflows
    n, d, horizon = 3, 1, 400
    weights = WeightMatrix(n, np.eye(n))
    geom = euclidean_geometry(box_domain([-BIG] * d, [BIG] * d))
    dyn = LinearDynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    pushed = np.zeros((horizon, n, d))
    pushed[:, 1:] = -1.0
    calm, wild = (linear_ensemble(g, geom.domain) for g in (np.zeros_like(pushed), pushed))
    etas = np.full(horizon + 1, 1.0)
    with np.errstate(over="ignore"):
        early = run(weights, geom, dyn, [(calm, path, etas[:309], 0), (wild, path, etas[:309], 0)],
                    308)
        with pytest.raises(EngineError) as late:
            run(weights, geom, dyn, [(calm, path, etas, 0), (wild, path, etas, 0)], horizon)
    assert np.isfinite(early.x).all() and early.x[1, -1, 1:, 0].min() > 1e308
    assert str(late.value) == "iterates became non-finite in round 309 (replicate 1, agent 1)"


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
        geom = euclidean_geometry(box_domain([-10.0] * d, [10.0] * d))
        dyn = ncv_dynamics(0.1)
        ensembles = [tracking_ensemble(n, geom.domain)] * count
        paths = [generate_path(dyn, ncv_disturbances(0.5, 0.1, seed, horizon), np.zeros(d),
                               horizon) for seed in range(count)]
    else:
        weights, geom, dyn, _, path = _box_setup(horizon=horizon)
        n, d = weights.n, geom.domain.d
        ensembles = [synthetic_suite(k, n, d, horizon, geom.domain, noise_scale=0.4)
                     for k in range(count)]
        paths = [path] * count
    replicates = [(e, p, np.full(horizon + 1, 0.2), 30 + k)
                  for k, (e, p) in enumerate(zip(ensembles, paths))]
    calls = _count_oracle_draws(monkeypatch)
    run(weights, geom, dyn, replicates, horizon, "stochastic")
    rounds = max(1, block_elements // (count * n * d))
    assert len(calls) == count * -(-horizon // rounds)
    assert len(calls) == {("tracking", 60): 150, ("noisy_quadratic", 60): 51}.get(
        (family, block_elements), count)
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon, "stochastic")


def test_run_memory_is_the_iterate_trace():
    # the (T+1, n, d) iterates alone take 16 MB; per-round arrays must not be kept
    n, d, horizon = 1000, 4, 500
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(box_domain([-10.0] * d, [10.0] * d))
    dyn = identity_dynamics(d)
    path = generate_path(dyn, np.zeros((horizon, d)), np.ones(d), horizon)
    ens = tracking_ensemble(n, geom.domain)
    tracemalloc.start()
    try:
        trace = run(weights, geom, dyn, [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon,
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
    start = np.zeros(domain.d) if domain.kind == "box" else np.full(domain.d, 1.0 / domain.d)
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
    geom = euclidean_geometry(domain) if domain_kind == "box" else kl_geometry(domain)
    horizon = 37
    dyn, replicates = _loss_replicates(family, domain, count, horizon)
    weights = metropolis_weights(build_path_graph(5))
    kept = run(weights, geom, dyn, replicates, horizon, mode)
    folded = run(weights, geom, dyn, replicates, horizon, mode, keep_iterates=False)
    assert folded.x is None and folded.horizon == horizon
    assert kept.losses.shape == folded.losses.shape == (count, horizon)
    for r, (ens, path, _, _) in enumerate(replicates):
        want = iterate_losses(kept[r], ens, path)
        assert np.array_equal(kept.losses[r], want)
        assert np.array_equal(folded[r].losses, want)


def _steps_handed_to_prox(monkeypatch, weights, geom, dyn, replicates, horizon, mode):
    """Run a batch and return the step of every round as prox received it."""
    seen = []
    inner = domd.engine.prox
    monkeypatch.setattr(domd.engine, "prox", lambda g, gr, y, eta: seen.append(eta) or
                        inner(g, gr, y, eta))
    run(weights, geom, dyn, replicates, horizon, mode)
    monkeypatch.undo()
    return seen


def test_a_shared_step_schedule_reaches_prox_as_one_float(monkeypatch):
    # one replicate, or several on one schedule: a Python float a round;
    # schedules that differ (an eta0 sweep): that round's (R, 1, 1) column
    weights, geom, dyn, ens, path = _box_setup(horizon=6)
    etas = 0.3 / np.sqrt(np.arange(1, 8))
    for count in (1, 3):
        replicates = [(ens, path, etas.copy(), seed) for seed in range(count)]
        seen = _steps_handed_to_prox(monkeypatch, weights, geom, dyn, replicates, 6, "exact")
        assert [type(eta) for eta in seen] == [float] * 6
        assert seen == etas[:6].tolist()
    replicates = [(ens, path, eta0 * etas, 0) for eta0 in (0.5, 1.0, 2.0)]
    seen = _steps_handed_to_prox(monkeypatch, weights, geom, dyn, replicates, 6, "exact")
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
    geom = euclidean_geometry(box_domain([-10.0] * 4, [10.0] * 4))
    dyn = ncv_dynamics(0.1)
    ens = tracking_ensemble(6, geom.domain)
    path = generate_path(dyn, ncv_disturbances(0.5, 0.1, 3, horizon), np.zeros(4), horizon)
    replicates = [(ens, path, eta0 * shape, 5) for eta0 in (0.25, 0.5, 1.0)]
    _assert_replicates_equal_solo_runs(weights, geom, dyn, replicates, horizon, "stochastic")
    dyn, replicates = _loss_replicates("quadratic", simplex_domain(3, 0.01), 1, horizon)
    kl = kl_geometry(simplex_domain(3, 0.01))
    ens, path, _, seed = replicates[0]
    replicates = [(ens, path, eta0 * shape, seed) for eta0 in (0.25, 0.5, 1.0)]
    _assert_replicates_equal_solo_runs(metropolis_weights(build_path_graph(5)), kl, dyn,
                                       replicates, horizon, "stochastic")

