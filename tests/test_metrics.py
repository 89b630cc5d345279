"""Regret measurement and guarantee calculators, checked against hand sums."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domd.metrics
from conftest import read_csv
from domd.dynamics import MinimizerPath, generate_path, identity_dynamics, residual_norms
from domd.engine import RunTrace, run
from domd.geometry import (box_domain, euclidean_geometry, geometry_constants,
                           simplex_domain)
from domd.metrics import (best_fixed_point, dynamic_regret,
                          iterate_losses, network_disagreement, per_agent_loss_gap,
                          regret_guarantee, static_regret, tuned_step,
                          write_bound_csv, write_regret_csv)
from domd.network import (build_grid_graph, metropolis_weights,
                          second_singular_value, uniform_complete_weights)
from domd.objectives import (global_loss_batch, linear_ensemble, loss_value,
                             synthetic_suite, tracking_ensemble)

BOX1 = box_domain([-1.0, -1.0], [1.0, 1.0])  # R^2 = 4, K = 2 sqrt(2)


def _consts():
    return geometry_constants(euclidean_geometry(BOX1))


def _envelope(lipschitz, n, sigma2, etas):
    # the report's disagreement curve over len(etas) rounds, eta_{T+1} := eta_T
    etas = list(etas)
    return regret_guarantee(_consts(), lipschitz, sigma2, etas + etas[-1:],
                            np.zeros(len(etas)), n).disagreement_curve


def test_disagreement_envelope_frozen_values():
    env = _envelope(1.0, 3, 2.0 / 3.0, [0.1, 0.1])
    np.testing.assert_allclose(
        env, [0.2886751345948129, 0.36565517048676294], atol=1e-15)


def test_disagreement_envelope_perfect_mixing():
    # sigma2 = 0 keeps only the newest term: L sqrt(n) eta_t
    etas = 0.2 / np.sqrt(np.arange(1, 6))
    env = _envelope(2.0, 4, 0.0, etas)
    np.testing.assert_allclose(env, 2.0 * 2.0 * etas, atol=1e-15)


def test_disagreement_envelope_no_mixing_accumulates():
    # sigma2 = 1 turns the curve into running step-size sums (eta_0 := eta_1)
    env = _envelope(1.0, 1, 1.0, [0.1, 0.1, 0.1])
    np.testing.assert_allclose(env, [0.2, 0.3, 0.4], atol=1e-15)


@pytest.mark.parametrize("sigma2", [0.0, 1.0, 0.37])
def test_envelope_and_network_term_equal_sequential_sums(sigma2, monkeypatch):
    # reference: the running recursions written out, added strictly in order
    etas = np.random.default_rng(5).uniform(0.01, 0.5, 41)
    ext = np.concatenate(([etas[0]], etas))
    acc, running = 0.0, []
    for k in range(len(ext)):
        acc = sigma2 * acc + ext[k]
        running.append(acc)
    network = 0.0
    for value in running[:40]:
        network += value
    # one report runs the recursion once, for both the network term and the curve
    calls = []
    recursion = domd.metrics._discounted_steps
    monkeypatch.setattr(domd.metrics, "_discounted_steps",
                        lambda *a: calls.append(a) or recursion(*a))
    report = regret_guarantee(_consts(), 1.5, sigma2, etas, np.zeros(40), 9)
    assert len(calls) == 1
    # so does one with the expected-regret variant, which reuses A at c = G^2
    calls.clear()
    stochastic = regret_guarantee(_consts(), 1.5, sigma2, etas, np.zeros(40), 9,
                                  grad_second_moment=7.0)
    assert len(calls) == 1
    if sigma2 < 1:  # and so does one with a tuned step, whose rows share that pass
        calls.clear()
        regret_guarantee(_consts(), 1.5, sigma2, etas, np.full(40, 0.1), 9)
        assert len(calls) == 1
    assert stochastic.stochastic_total == float(sum(
        domd.metrics._terms(_consts(), 7.0, etas, np.zeros(40), 9,
                            recursion(sigma2, etas, 40))[0]))
    assert report.e_net == 4.0 * 1.5**2 * np.sqrt(9) * network
    np.testing.assert_array_equal(report.disagreement_curve,
                                  1.5 * np.sqrt(9) * np.array(running[1:41]))


def _recursion(sigma2, etas, rounds):
    # A[k] = sigma2 A[k-1] + eta_k in Python floats, eta_0 := eta_1
    acc, out = 0.0, []
    for eta in [float(etas[0])] + [float(e) for e in etas[:rounds]]:
        acc = sigma2 * acc + eta
        out.append(acc)
    return out


@settings(max_examples=150, deadline=None)
@given(sigma2=st.floats(0.0, 1.0), horizon=st.integers(1, 40), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), zero_rows=st.lists(st.booleans(), min_size=4, max_size=4))
def test_batched_discounted_steps_equal_each_rows_recursion(sigma2, horizon, rows, seed,
                                                            zero_rows):
    # schedule rows, and the tuned constant rows of C_T values (some zero)
    rng = np.random.default_rng(seed)
    etas = rng.uniform(1e-3, 2.0, (rows, horizon + 1))
    c_ts = [0.0 if zero else float(rng.uniform(0.0, 50.0)) for zero in zero_rows[:rows]]
    batched = domd.metrics._discounted_steps(sigma2, etas[None], horizon)
    assert batched.shape == (1, rows, horizon + 1)
    for row, got in zip(etas, batched[0]):
        assert got.tolist() == _recursion(sigma2, row, horizon)
    if sigma2 == 1.0:
        return  # no tuned step without mixing
    both = domd.metrics._guarantee_steps(sigma2, etas, c_ts, horizon)
    assert both.shape == (rows, 2, horizon + 1)
    for row, c_t, (steps, tuned) in zip(etas, c_ts, both):
        assert steps.tolist() == _recursion(sigma2, row, horizon)
        constant = [tuned_step(c_t, sigma2, horizon)] * horizon if c_t > 0 else row
        assert tuned.tolist() == _recursion(sigma2, constant, horizon)


@pytest.mark.parametrize("sigma2", [0.0, 0.37, 0.87, 1.0])
def test_discounted_steps_paths_are_bit_equal_on_each_side_of_the_cut(sigma2, monkeypatch):
    # the Python-float rows and the numpy pass, forced each way, at the cut and one past it
    cut = domd.metrics.SCALAR_RECURSION_ROWS
    rng = np.random.default_rng(7)
    for shape in ((cut, 301), (cut + 1, 301), (1, 2, 301), (301,)):
        etas = rng.uniform(1e-3, 2.0, shape)
        got = {}
        for rows in (0, cut + 1):  # 0: numpy for every shape; cut + 1: Python for these
            monkeypatch.setattr(domd.metrics, "SCALAR_RECURSION_ROWS", rows)
            got[rows] = domd.metrics._discounted_steps(sigma2, etas, 300)
        assert got[0].shape == got[cut + 1].shape == shape[:-1] + (301,)
        np.testing.assert_array_equal(got[0], got[cut + 1])
        first = etas.reshape(-1, 301)[0]
        assert got[0].reshape(-1, 301)[0].tolist() == _recursion(sigma2, first, 300)


def test_guarantee_from_batched_steps_equals_its_own():
    # a batch's recursion rows passed in give every report bit for bit
    rng = np.random.default_rng(8)
    horizon, sigma2 = 30, 0.6
    etas = rng.uniform(0.05, 0.5, (3, horizon + 1))
    norms = rng.uniform(0.0, 0.2, (3, horizon))
    norms[1] = 0.0  # no tuned step
    steps = domd.metrics._guarantee_steps(sigma2, etas, [float(v.sum()) for v in norms],
                                          horizon)
    for r in range(3):
        alone = regret_guarantee(_consts(), 1.5, sigma2, etas[r], norms[r], 4,
                                 grad_second_moment=3.0)
        given = regret_guarantee(_consts(), 1.5, sigma2, etas[r], norms[r], 4,
                                 grad_second_moment=3.0, steps=steps[r])
        for f in fields(alone):
            a, b = getattr(alone, f.name), getattr(given, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b or (a != a and b != b), f.name


def test_disagreement_envelope_validation():
    with pytest.raises(ValueError, match="sigma2"):
        _envelope(1.0, 3, 1.5, [0.1])
    with pytest.raises(ValueError, match="positive"):
        _envelope(1.0, 3, 0.5, [0.1, 0.0])


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_guarantee_refuses_non_positive_and_non_finite_step_sizes(bad):
    # as engine.run and prox do; a NaN passes etas <= 0, so the finiteness is checked too
    for spot in (0, 2, 3):  # eta_1, a middle round, and eta_{T+1}
        etas = np.full(4, 0.1)
        etas[spot] = bad
        with pytest.raises(ValueError, match="step sizes must be positive and finite"):
            regret_guarantee(_consts(), 1.0, 0.5, etas, np.zeros(3), 4)


def test_guarantee_frozen_tiny_case():
    report = regret_guarantee(_consts(), 1.0, 0.0, [0.1] * 4, np.zeros(3), 4)
    assert report.e_track == pytest.approx(80.15, abs=1e-12)
    assert report.e_net == pytest.approx(2.4, abs=1e-12)
    assert report.total == pytest.approx(82.55, abs=1e-12)
    assert report.mismatch_rhs == pytest.approx(80.0, abs=1e-12)
    assert report.local_gap_rhs == pytest.approx(80.15 + 1.2, abs=1e-12)
    assert math.isnan(report.stochastic_total)
    assert report.c_t == 0.0
    assert any("0^0" in note for note in report.notes)
    with_g2 = regret_guarantee(_consts(), 1.0, 0.0, [0.1] * 4, np.zeros(3), 4,
                               grad_second_moment=4.0)
    assert with_g2.stochastic_total == pytest.approx(90.2, abs=1e-12)


def test_guarantee_noise_terms():
    noise = np.array([0.2, 0.3, 0.1])
    report = regret_guarantee(_consts(), 1.0, 0.0, [0.1] * 4, noise, 4)
    k = 2.0 * np.sqrt(2.0)
    assert report.e_track == pytest.approx(80.0 + k * 6.0 + 0.15, abs=1e-12)
    # the mismatch guarantee carries no K factor
    assert report.mismatch_rhs == pytest.approx(86.0, abs=1e-12)
    assert report.c_t == pytest.approx(0.6)
    assert not math.isnan(report.variation_tuned_value)


def test_variation_tuned_value_frozen_hand_sum():
    """T = 3, sigma2 = 1/4, n = 4, L = 1, R^2 = 4, K = 2 sqrt(2), ||v|| = (0.2, 0.3, 0.1).

    The tuned step is eta = sqrt((1 - 1/4) 0.6 / 3) = sqrt(0.15), and the
    four terms are 2 R^2 / eta + K C_T / eta + L^2 T eta / 2 and
    4 L^2 sqrt(n) eta (3 + 2 sigma2 + sigma2^2) = 28.5 eta, so the value is
    (8 + 1.2 sqrt(2)) / eta + 30 eta.
    """
    report = regret_guarantee(_consts(), 1.0, 0.25, [0.1] * 4, np.array([0.2, 0.3, 0.1]), 4)
    eta = math.sqrt(0.15)
    assert report.variation_tuned_value == pytest.approx(
        (8.0 + 1.2 * math.sqrt(2.0)) / eta + 30.0 * eta, rel=1e-12)
    assert report.variation_tuned_value == pytest.approx(36.65664167843647, rel=1e-12)


def test_variation_tuned_value_is_the_total_at_the_tuned_step():
    norms = np.random.default_rng(2).uniform(0.0, 0.3, 40)
    for sigma2 in (0.0, 0.37, 0.9):
        tuned = regret_guarantee(_consts(), 1.5, sigma2, np.full(41, 0.1), norms, 9)
        eta = tuned_step(float(norms.sum()), sigma2, 40)
        general = regret_guarantee(_consts(), 1.5, sigma2, np.full(41, eta), norms, 9)
        assert tuned.variation_tuned_value == general.total


def test_tuned_step():
    # sqrt((1 - 3/4) * 16 / 100) = 0.2
    assert tuned_step(16.0, 0.75, 100) == np.sqrt((1.0 - 0.75) * 16.0 / 100)
    assert tuned_step(16.0, 0.75, 100) == pytest.approx(0.2)
    # no anticipated variation: the fallback step, and an error without one
    assert tuned_step(0.0, 0.5, 100, fallback_eta=0.3) == 0.3
    assert tuned_step(-1.0, 0.5, 100, fallback_eta=0.3) == 0.3
    with pytest.raises(ValueError, match="c_t"):
        tuned_step(0.0, 0.5, 100)
    for sigma2 in (1.0, -0.1):
        with pytest.raises(ValueError, match="sigma2"):
            tuned_step(1.0, sigma2, 100)
    with pytest.raises(ValueError, match="horizon"):
        tuned_step(1.0, 0.5, 0)


def test_guarantee_validation():
    consts = _consts()
    with pytest.raises(ValueError, match="T\\+1"):
        regret_guarantee(consts, 1.0, 0.5, [0.1] * 3, np.zeros(3), 4)
    with pytest.raises(ValueError, match="sigma2"):
        regret_guarantee(consts, 1.0, 1.5, [0.1] * 4, np.zeros(3), 4)
    # no rounds: only the radius term 2 R^2 / eta_1 is left, and no envelope
    empty = regret_guarantee(consts, 1.0, 0.5, [0.1], np.zeros(0), 4)
    assert empty.total == 2.0 * consts.r2 / 0.1 and empty.e_net == 0.0
    assert empty.disagreement_curve.shape == (0,)


def test_guarantee_monotone_in_problem_size():
    consts = _consts()
    big_box = geometry_constants(euclidean_geometry(
        box_domain([-2.0, -2.0], [2.0, 2.0])))
    noise = np.full(5, 0.1)
    etas = [0.1] * 6
    base = regret_guarantee(consts, 1.0, 0.5, etas, noise, 4).total
    assert regret_guarantee(consts, 2.0, 0.5, etas, noise, 4).total > base
    assert regret_guarantee(big_box, 1.0, 0.5, etas, noise, 4).total > base
    assert regret_guarantee(consts, 1.0, 0.9, etas, noise, 4).total > base


def _one_agent_run():
    domain = box_domain([-1.0], [1.0])
    geom = euclidean_geometry(domain)
    dyn = identity_dynamics(1)
    ens = synthetic_suite(0, 1, 1, 1, domain, offset_scale=0.0)
    path = generate_path(dyn, np.zeros((1, 1)), np.array([0.5]), 1)
    weights = uniform_complete_weights(1)
    trace = run(weights, geom, dyn, [(ens, path, np.full(2, 0.1), 0)], 1)[0]
    return trace, ens, path, domain


def test_single_round_regret_oracle():
    # one agent starting at 0, target at 0.5, square loss: regret (0 - 0.5)^2
    trace, ens, path, _ = _one_agent_run()
    report = dynamic_regret(trace, ens, path)
    assert report.dynamic_regret == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(report.instant, [0.25], atol=1e-15)
    np.testing.assert_allclose(report.normalized, [0.25], atol=1e-15)


def test_regret_report_normalization():
    domain = box_domain([-5.0] * 2, [5.0] * 2)
    geom = euclidean_geometry(domain)
    dyn = identity_dynamics(2)
    horizon = 12
    ens = synthetic_suite(4, 4, 2, horizon, domain)
    path = generate_path(dyn, np.zeros((horizon, 2)), np.array([0.5, -0.5]), horizon)
    weights = metropolis_weights(build_grid_graph(2, 2))
    trace = run(weights, geom, dyn, [(ens, path, 0.2 / np.sqrt(np.arange(1, horizon + 2)), 0)],
                horizon)[0]
    report = dynamic_regret(trace, ens, path)
    np.testing.assert_allclose(report.cumulative, np.cumsum(report.instant),
                               atol=1e-14)
    np.testing.assert_allclose(
        report.normalized, report.cumulative / np.arange(1, horizon + 1),
        atol=1e-14)
    assert report.dynamic_regret == pytest.approx(report.cumulative[-1])


def test_dynamic_regret_needs_full_comparator_path():
    from domd.dynamics import MinimizerPath

    trace, ens, path, _ = _one_agent_run()
    short = MinimizerPath(path.states[:0])
    with pytest.raises(ValueError, match="shorter"):
        dynamic_regret(trace, ens, short)


def test_best_fixed_point_square_families():
    domain = box_domain([-1.0], [3.0])
    states = np.array([[0.0], [1.0], [5.0], [99.0]])  # last row unused
    path_states = states
    from domd.dynamics import MinimizerPath

    path = MinimizerPath(path_states)
    ens = synthetic_suite(0, 4, 1, 3, domain, offset_scale=0.0)
    point = best_fixed_point(ens, path, domain, 3)
    assert point[0] == pytest.approx(2.0)
    tight = box_domain([-1.0], [1.5])
    assert best_fixed_point(ens, path, tight, 3)[0] == pytest.approx(1.5)


def test_best_fixed_point_linear_hits_extreme_points():
    domain = box_domain([-1.0, -2.0], [1.0, 2.0])
    grads = np.array([[[0.5, -0.25]], [[0.25, -0.5]]])  # mean > 0, < 0
    ens = linear_ensemble(grads, domain)
    from domd.dynamics import MinimizerPath

    path = MinimizerPath(np.zeros((3, 2)))
    point = best_fixed_point(ens, path, domain, 2)
    np.testing.assert_allclose(point, [-1.0, 2.0])
    corners = np.array([[sx, sy] for sx in (-1.0, 1.0) for sy in (-2.0, 2.0)])
    mean_g = grads.mean(axis=(0, 1))
    assert mean_g @ point == pytest.approx(float((corners @ mean_g).min()))
    simplex = simplex_domain(3, 0.1)
    ens_s = linear_ensemble(np.array([[[0.3, -0.7, 0.1]]]), simplex)
    point_s = best_fixed_point(ens_s, path, simplex, 1)
    assert point_s.sum() == pytest.approx(1.0)
    assert point_s[1] == pytest.approx(0.8)


def test_static_regret_never_exceeds_dynamic():
    domain = box_domain([-5.0] * 2, [5.0] * 2)
    geom = euclidean_geometry(domain)
    dyn = identity_dynamics(2)
    horizon = 30
    rng = np.random.default_rng(8)
    noise = rng.normal(0.0, 0.05, (horizon, 2))
    path = generate_path(dyn, noise, np.array([0.5, -0.5]), horizon)
    ens = synthetic_suite(4, 4, 2, horizon, domain)
    weights = metropolis_weights(build_grid_graph(2, 2))
    trace = run(weights, geom, dyn, [(ens, path, 0.2 / np.sqrt(np.arange(1, horizon + 2)), 0)],
                horizon)[0]
    dyn_regret = dynamic_regret(trace, ens, path).dynamic_regret
    stat = static_regret(trace, ens, path, domain)
    assert stat <= dyn_regret + 1e-9


def test_regrets_share_one_evaluation_of_the_iterate_losses(monkeypatch):
    domain = box_domain([-5.0] * 2, [5.0] * 2)
    horizon = 30
    path = generate_path(identity_dynamics(2), np.random.default_rng(8).normal(
        0.0, 0.05, (horizon, 2)), np.array([0.5, -0.5]), horizon)
    ens = synthetic_suite(4, 4, 2, horizon, domain)
    trace = run(metropolis_weights(build_grid_graph(2, 2)), euclidean_geometry(domain),
                identity_dynamics(2), [(ens, path, np.full(horizon + 1, 0.2), 0)], horizon)[0]
    alone = dynamic_regret(trace, ens, path), static_regret(trace, ens, path, domain)
    calls = []
    evaluate = domd.metrics.global_loss_batch
    monkeypatch.setattr(domd.metrics, "global_loss_batch",
                        lambda *a: calls.append(a[2].shape) or evaluate(*a))
    losses = iterate_losses(trace, ens, path)
    assert calls == [(horizon, 4, 2)]
    shared = (dynamic_regret(trace, ens, path, losses),
              static_regret(trace, ens, path, domain, losses))
    # each regret then evaluates only its own comparator
    assert calls[1:] == [(horizon, 1, 2), (horizon, 1, 2)]
    np.testing.assert_array_equal(shared[0].instant, alone[0].instant)
    np.testing.assert_array_equal(shared[0].normalized, alone[0].normalized)
    assert shared[0].dynamic_regret == alone[0].dynamic_regret
    assert shared[1] == alone[1]


def test_per_agent_loss_gap_matches_direct_sum():
    from domd.objectives import loss_value

    domain = box_domain([-5.0] * 2, [5.0] * 2)
    geom = euclidean_geometry(domain)
    dyn = identity_dynamics(2)
    ens = synthetic_suite(4, 3, 2, 6, domain)
    path = generate_path(dyn, np.zeros((6, 2)), np.array([0.5, -0.5]), 6)
    weights = uniform_complete_weights(3)
    trace = run(weights, geom, dyn, [(ens, path, np.full(7, 0.1), 0)], 6)[0]
    total = 0.0
    for t in range(1, 7):
        for i in range(3):
            total += (loss_value(ens, i, t, trace.x[t - 1, i], path)
                      - loss_value(ens, i, t, path.states[t - 1], path))
    assert per_agent_loss_gap(trace, ens, path) == pytest.approx(
        total / 3.0, rel=1e-12)


def test_network_disagreement_both_norms():
    x = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                  [[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]]])
    etas = np.array([0.1, 0.1])
    l2 = RunTrace(x=x, etas=etas, norm_kind="l2")
    dev = x - x.mean(axis=1)[:, None, :]
    expected = np.linalg.norm(dev, axis=2).max(axis=1)
    np.testing.assert_allclose(network_disagreement(l2), expected, atol=1e-15)
    assert network_disagreement(l2)[1] == 0.0
    l1 = RunTrace(x=x, etas=etas, norm_kind="l1")
    np.testing.assert_allclose(network_disagreement(l1),
                               np.abs(dev).sum(axis=2).max(axis=1), atol=1e-15)


def test_comparator_optimality_gap_on_grid_aligned_targets():
    # brute force: no point of a 0.25-grid over the box beats the comparator in
    # any round, and with the targets on grid nodes the grid attains it
    domain = box_domain([-1.0, -1.0], [1.0, 1.0])
    horizon, step = 3, 0.25
    path = generate_path(identity_dynamics(2), np.tile([0.25, 0.0], (horizon, 1)),
                         np.array([0.5, -0.5]), horizon)
    ens = synthetic_suite(0, 3, 2, horizon, domain, offset_scale=0.0)
    trace = run(uniform_complete_weights(3), euclidean_geometry(domain),
                identity_dynamics(2), [(ens, path, np.full(horizon + 1, 0.1), 0)], horizon)[0]
    axes = [np.arange(domain.lo[k], domain.hi[k] + step / 2, step) for k in range(2)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    grid = np.broadcast_to(mesh, (horizon,) + mesh.shape)
    grid_best = global_loss_batch(ens, path, grid).min(axis=1)
    at_iterates = global_loss_batch(ens, path, trace.x[:horizon]).mean(axis=1)
    report = dynamic_regret(trace, ens, path)
    np.testing.assert_allclose(report.instant, at_iterates - grid_best, rtol=0, atol=1e-12)
    assert abs(report.dynamic_regret - float((at_iterates - grid_best).sum())) <= 1e-9


def test_guarantees_dominate_small_exact_runs():
    domain = box_domain([-5.0] * 2, [5.0] * 2)
    geom = euclidean_geometry(domain)
    dyn = identity_dynamics(2)
    weights = metropolis_weights(build_grid_graph(2, 2))
    sigma2 = second_singular_value(weights)
    horizon = 50
    etas = 0.2 / np.sqrt(np.arange(1, horizon + 2))
    consts = geometry_constants(geom)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, 0.05, (horizon, 2))
        path = generate_path(dyn, noise, np.array([0.5, -0.5]), horizon)
        ens = synthetic_suite(100 + seed, 4, 2, horizon, domain)
        trace = run(weights, geom, dyn, [(ens, path, etas, 0)], horizon)[0]
        lipschitz = ens.lipschitz
        norms = np.linalg.norm(noise, axis=1)
        report = regret_guarantee(consts, lipschitz, sigma2, trace.etas,
                                  norms, 4)
        regret = dynamic_regret(trace, ens, path).dynamic_regret
        assert -1e-9 <= regret <= report.total + 1e-9
        emp = network_disagreement(trace)[1:]
        assert np.all(emp <= report.disagreement_curve + 1e-9)
        gap = per_agent_loss_gap(trace, ens, path)
        assert gap <= report.local_gap_rhs + 1e-9
        assert residual_norms(path, dyn, "l2").sum() == pytest.approx(report.c_t, rel=1e-12)


def test_csv_writers_round_trip(tmp_path):
    trace, ens, path, domain = _one_agent_run()
    report = dynamic_regret(trace, ens, path)
    regret_file = tmp_path / "regret.csv"
    write_regret_csv(report, regret_file, comments=["seed=0"])
    comments, header, rows = read_csv(regret_file)
    assert header == ["t", "instant", "cumulative", "normalized"]
    assert any(c.startswith("dynamic_regret=") for c in comments)
    assert len(rows) == 1 and float(rows[0][2]) == pytest.approx(0.25)
    bound = regret_guarantee(_consts(), 1.0, 0.0, [0.1] * 4, np.zeros(3), 4)
    bound_file = tmp_path / "bounds.csv"
    write_bound_csv(bound, bound_file)
    comments, header, rows = read_csv(bound_file)
    assert header == ["t", "disagreement_bound"]
    assert len(rows) == 3
    scalars = dict(c.split("=", 1) for c in comments if "=" in c)
    assert float(scalars["total"]) == pytest.approx(82.55)
    assert math.isnan(float(scalars["stochastic_total"]))
    assert "note" in scalars


def test_csv_comment_keys_are_the_report_scalar_fields_in_order(tmp_path):
    def keys(file):
        return [c.split("=", 1)[0] for c in read_csv(file)[0]]

    trace, ens, path, _ = _one_agent_run()
    report = dynamic_regret(trace, ens, path)
    write_regret_csv(report, tmp_path / "bare.csv", comments=["seed=0"])
    assert keys(tmp_path / "bare.csv") == ["seed", "dynamic_regret"]  # None fields left out
    full = replace(report, static_regret=0.1, path_variation=0.2)
    write_regret_csv(full, tmp_path / "full.csv")
    assert keys(tmp_path / "full.csv") == ["dynamic_regret", "static_regret", "path_variation"]
    bound = regret_guarantee(_consts(), 1.0, 0.0, [0.1] * 4, np.full(3, 0.1), 4)
    write_bound_csv(bound, tmp_path / "bounds.csv")
    assert keys(tmp_path / "bounds.csv") == [
        "e_track", "e_net", "total", "stochastic_total", "mismatch_rhs", "local_gap_rhs",
        "variation_tuned_value", "sigma2", "c_t", "note"]


def test_every_numeric_bound_field_is_a_python_float():
    for g2 in (None, 4.0):
        report = regret_guarantee(_consts(), 1.0, 0.5, [0.1] * 4, np.full(3, 0.1), 4,
                                  grad_second_moment=g2)
        for f in fields(report):
            value = getattr(report, f.name)
            if not isinstance(value, (np.ndarray, tuple)):
                assert type(value) is float, f.name


# ------------------------------------------------- whole-horizon measurement


def _shell_trace(x, norm_kind="l2"):
    return RunTrace(x=x, etas=np.full(x.shape[0], 0.1), norm_kind=norm_kind)


def _measured_case(kind, horizon=7):
    box = box_domain([-2.0] * 4, [2.0] * 4)
    if kind == "tracking_square":
        ens = tracking_ensemble(5, box)
    else:
        ens = synthetic_suite(2, 5, 4, horizon, box, kind=kind)
    path = generate_path(identity_dynamics(4), np.tile([0.1, 0.0, -0.05, 0.02], (horizon, 1)),
                         np.array([0.5, -0.5, 0.0, 1.0]), horizon)
    x = np.random.default_rng(3).uniform(-2.0, 2.0, (horizon + 1, 5, 4))
    return _shell_trace(x), ens, path, box


@pytest.mark.parametrize("kind", ["tracking_square", "synthetic_quadratic", "synthetic_linear"])
def test_measurements_match_scalar_reference(kind):
    trace, ens, path, box = _measured_case(kind)
    horizon, n = trace.horizon, trace.n
    comparator = best_fixed_point(ens, path, box, horizon)

    def average_loss(t, point):
        return np.mean([loss_value(ens, i, t, point, path) for i in range(n)])

    at_iterates = [np.mean([average_loss(t, trace.x[t - 1, j]) for j in range(n)])
                   for t in range(1, horizon + 1)]
    at_targets = [average_loss(t, path.states[t - 1]) for t in range(1, horizon + 1)]
    at_fixed = [average_loss(t, comparator) for t in range(1, horizon + 1)]
    local = sum(loss_value(ens, i, t, trace.x[t - 1, i], path)
                - loss_value(ens, i, t, path.states[t - 1], path)
                for t in range(1, horizon + 1) for i in range(n)) / n
    report = dynamic_regret(trace, ens, path)
    np.testing.assert_allclose(report.instant, np.subtract(at_iterates, at_targets),
                               rtol=1e-12, atol=1e-13)
    assert static_regret(trace, ens, path, box) == pytest.approx(
        sum(at_iterates) - sum(at_fixed), rel=1e-12)
    assert per_agent_loss_gap(trace, ens, path) == pytest.approx(local, rel=1e-12)


def test_empty_trace_has_zero_regret_and_gap():
    trace, ens, path, box = _measured_case("synthetic_quadratic")
    empty = _shell_trace(trace.x[:1])
    report = dynamic_regret(empty, ens, path)
    assert report.dynamic_regret == 0.0 and report.instant.shape == (0,)
    assert report.normalized.shape == (0,)
    assert static_regret(empty, ens, path, box) == 0.0
    assert per_agent_loss_gap(empty, ens, path) == 0.0


@pytest.mark.parametrize("kind", ["tracking_square", "synthetic_quadratic", "synthetic_linear"])
def test_measurements_refuse_short_paths_and_ensembles(kind):
    trace, ens, path, box = _measured_case(kind)
    for short in (1, 6):  # one state would otherwise broadcast over all 7 rounds
        cut = MinimizerPath(path.states[:short])
        for measure in (lambda p: dynamic_regret(trace, ens, p),
                        lambda p: static_regret(trace, ens, p, box),
                        lambda p: per_agent_loss_gap(trace, ens, p)):
            with pytest.raises(ValueError, match=f"covers {short} rounds, shorter than the 7"):
                measure(cut)
    field = {"synthetic_quadratic": "offsets", "synthetic_linear": "gradients"}.get(kind)
    if field is None:
        return
    for short in (1, 6):
        cut = replace(ens, **{field: getattr(ens, field)[:short]})
        for measure in (lambda e: dynamic_regret(trace, e, path),
                        lambda e: static_regret(trace, e, path, box),
                        lambda e: per_agent_loss_gap(trace, e, path)):
            with pytest.raises(ValueError, match=f"ens.{field} covers {short} rounds"):
                measure(cut)


@pytest.mark.parametrize("kind", ["tracking_square", "synthetic_quadratic", "synthetic_linear"])
def test_regret_measurement_memory_stays_bounded(kind):
    # n = 1000, d = 4, T = 500: the iterates alone take 16 MB, so evaluating
    # them without round blocks would allocate (T, n, d) temporaries of that size
    n, d, horizon = 1000, 4, 500
    box = box_domain([-2.0] * d, [2.0] * d)
    if kind == "tracking_square":
        ens = tracking_ensemble(n, box)
    else:
        ens = synthetic_suite(0, n, d, horizon, box, kind=kind, offset_scale=0.05)
    path = generate_path(identity_dynamics(d), np.zeros((horizon, d)), np.zeros(d), horizon)
    trace = _shell_trace(np.random.default_rng(0).uniform(-1.0, 1.0, (horizon + 1, n, d)))
    tracemalloc.start()
    try:
        dynamic_regret(trace, ens, path)
        static_regret(trace, ens, path, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
