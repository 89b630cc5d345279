"""Round loop semantics: schedules, initialization, stepping, traces."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from domd.dynamics import (generate_path, identity_dynamics, linear_dynamics,
                           zero_noise)
from domd.engine import (EngineError, RunTrace, constant_schedule,
                         init_state, inv_sqrt_schedule, run, schedule_eta,
                         schedule_etas, step, variation_schedule)
from domd.geometry import (box_domain, contains, euclidean_geometry,
                           free_domain, kl_geometry, prox, simplex_domain)
from domd.network import (build_grid_graph, build_path_graph,
                          metropolis_weights, mix, uniform_complete_weights)
from domd.objectives import (gradients_exact_batch, linear_ensemble,
                             synthetic_suite, tracking_ensemble)


def _box_setup(n=3, d=2, horizon=8, half=5.0, seed=3):
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(box_domain([-half] * d, [half] * d))
    dyn = identity_dynamics(d)
    ens = synthetic_suite(seed, n, d, horizon, geom.domain)
    path = generate_path(dyn, zero_noise(), np.zeros(d), horizon)
    return weights, geom, dyn, ens, path


def test_constant_and_inv_sqrt_schedules():
    const = constant_schedule(0.5)
    assert [schedule_eta(const, t) for t in (1, 2, 9)] == [0.5, 0.5, 0.5]
    decaying = inv_sqrt_schedule(0.2)
    assert schedule_eta(decaying, 4) == pytest.approx(0.1)
    assert schedule_eta(decaying, 1) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="positive"):
        constant_schedule(0.0)
    with pytest.raises(ValueError, match="positive"):
        inv_sqrt_schedule(-0.1)
    with pytest.raises(ValueError, match="numbered from 1"):
        schedule_eta(const, 0)


def test_variation_tuned_schedule():
    # sqrt((1 - 3/4) * 16 / 100) = 0.2
    tuned = variation_schedule(16.0, 0.75, 100)
    assert tuned.kind == "variation_tuned"
    assert schedule_eta(tuned, 7) == pytest.approx(0.2)
    fallback = variation_schedule(0.0, 0.5, 100, fallback_eta=0.3)
    assert fallback.kind == "constant" and fallback.eta0 == 0.3
    with pytest.raises(ValueError, match="c_t"):
        variation_schedule(0.0, 0.5, 100)
    with pytest.raises(ValueError, match="sigma2"):
        variation_schedule(1.0, 1.0, 100)
    with pytest.raises(ValueError, match="horizon"):
        variation_schedule(1.0, 0.5, 0)


def test_schedule_etas_covers_one_past_horizon():
    etas = schedule_etas(inv_sqrt_schedule(0.2), 10)
    assert etas.shape == (11,)
    np.testing.assert_allclose(etas, 0.2 / np.sqrt(np.arange(1, 12)))


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
    trace = run(weights, geom, dyn, ens, path, constant_schedule(0.1),
                path.horizon, x0=start)
    np.testing.assert_allclose(trace.x, np.broadcast_to(start, trace.x.shape),
                               atol=1e-14)


def _replay_round(trace, weights, geom, ens, path, eta, t):
    """Anchor, exact gradients and prox output of round t+1, from the iterates."""
    y = mix(weights, trace.x[t])
    grads = gradients_exact_batch(ens, t + 1, trace.x[t], path)
    return y, grads, prox(geom, grads, y, eta)


def test_mixing_preserves_agent_mean():
    weights, geom, dyn, ens, path = _box_setup()
    trace = run(weights, geom, dyn, ens, path, constant_schedule(0.1),
                path.horizon, seed=0)
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
    path = generate_path(dyn, zero_noise(), np.zeros(d), horizon)
    trace = run(weights, geom, dyn, ens, path, constant_schedule(0.1), horizon)
    for t in range(horizon):
        y = mix(weights, trace.x[t])
        np.testing.assert_allclose(y - y[0], 0.0, atol=1e-14)


def test_runs_are_reproducible():
    weights, geom, dyn, ens, path = _box_setup()
    noisy = synthetic_suite(3, 3, 2, path.horizon, geom.domain, noise_scale=0.2)
    a = run(weights, geom, dyn, noisy, path, constant_schedule(0.1),
            path.horizon, mode="stochastic", seed=5)
    b = run(weights, geom, dyn, noisy, path, constant_schedule(0.1),
            path.horizon, mode="stochastic", seed=5)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.etas, b.etas)
    c = run(weights, geom, dyn, noisy, path, constant_schedule(0.1),
            path.horizon, mode="stochastic", seed=6)
    assert not np.array_equal(a.x[1:], c.x[1:])


def test_zero_round_run():
    weights, geom, dyn, ens, path = _box_setup()
    trace = run(weights, geom, dyn, ens, path, constant_schedule(0.1), 0)
    assert trace.horizon == 0
    assert trace.x.shape == (1, 3, 2)
    assert trace.etas.shape == (1,)
    assert [f.name for f in fields(RunTrace)] == ["x", "etas", "norm_kind"]


def test_trace_replays_through_public_steps():
    weights, geom, dyn, ens, path = _box_setup(horizon=5)
    schedule = inv_sqrt_schedule(0.3)
    trace = run(weights, geom, dyn, ens, path, schedule, 5)
    for t in range(5):
        eta = schedule_eta(schedule, t + 1)
        _, grads, xhat = _replay_round(trace, weights, geom, ens, path, eta, t)
        np.testing.assert_allclose(trace.x[t + 1], xhat @ dyn.a.T, atol=1e-14)
        xnext = step(trace.x[t], weights, geom, dyn, grads, eta)
        np.testing.assert_array_equal(xnext, trace.x[t + 1])


def test_run_argument_validation():
    weights, geom, dyn, ens, path = _box_setup()
    with pytest.raises(ValueError, match="mode"):
        run(weights, geom, dyn, ens, path, constant_schedule(0.1), 3,
            mode="банана")
    with pytest.raises(ValueError, match="nonnegative"):
        run(weights, geom, dyn, ens, path, constant_schedule(0.1), -1)


def test_simplex_iterates_stay_feasible_under_contracting_dynamics():
    n, d, horizon = 3, 3, 30
    weights = metropolis_weights(build_grid_graph(1, 3))
    domain = simplex_domain(d, 0.01)
    geom = kl_geometry(domain)
    dyn = linear_dynamics(0.9 * np.eye(d))
    path = generate_path(identity_dynamics(d), zero_noise(),
                         np.full(d, 1.0 / 3.0), horizon)
    ens = synthetic_suite(2, n, d, horizon, domain)
    trace = run(weights, geom, dyn, ens, path, constant_schedule(0.2), horizon)
    for t in range(horizon + 1):
        for i in range(n):
            assert contains(domain, trace.x[t, i])
    np.testing.assert_allclose(trace.x.sum(axis=2), 1.0, atol=1e-9)


def test_divergent_dynamics_raise_engine_error():
    n, d, horizon = 2, 2, 400
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(free_domain(d))
    dyn = linear_dynamics(10.0 * np.eye(d))
    path = generate_path(identity_dynamics(d), zero_noise(), np.zeros(d), horizon)
    ens = linear_ensemble(np.zeros((horizon, n, d)), geom.domain)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EngineError, match="non-finite"):
            run(weights, geom, dyn, ens, path, constant_schedule(0.1), horizon,
                x0=np.array([1.0, 1.0]))


def test_run_memory_is_the_iterate_trace():
    # the (T+1, n, d) iterates alone take 16 MB; per-round arrays must not be kept
    n, d, horizon = 1000, 4, 500
    weights = metropolis_weights(build_path_graph(n))
    geom = euclidean_geometry(box_domain([-10.0] * d, [10.0] * d))
    dyn = identity_dynamics(d)
    path = generate_path(dyn, zero_noise(), np.ones(d), horizon)
    ens = tracking_ensemble(n, geom.domain)
    tracemalloc.start()
    try:
        trace = run(weights, geom, dyn, ens, path, constant_schedule(0.1), horizon,
                    mode="stochastic", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.x.nbytes == (horizon + 1) * n * d * 8
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MB"
