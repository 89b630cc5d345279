"""Loss families: values, gradients, oracle bias and declared constants."""

from dataclasses import replace

import numpy as np
import pytest

from domd import objectives
from domd.dynamics import MinimizerPath, generate_path, identity_dynamics
from domd.geometry import (box_domain, contains, diameter, sample_domain,
                           simplex_domain)
from domd.objectives import (agent_loss_batch, centers_outside_domain,
                             coordinate_groups, global_loss_batch,
                             gradient_exact, gradient_stochastic,
                             gradients_exact_batch, gradients_stochastic_batch,
                             linear_ensemble, loss_value, oracle_noise,
                             oracle_samples, stack_replicates, synthetic_suite,
                             tracking_ensemble)


def _tracking_setup(n=6, half=5.0, horizon=10):
    domain = box_domain([-half] * 4, [half] * 4)
    ens = tracking_ensemble(n, domain)
    path = generate_path(identity_dynamics(4),
                         np.tile([0.01, 0.0, -0.02, 0.0], (horizon, 1)),
                         np.array([0.5, -0.5, 1.0, 0.25]), horizon)
    return domain, ens, path


def _signed_zero_setup():
    """Tracking on a target whose last coordinate stays 0.0, and six agents:
    agent 0 on round 4's target, agent 5 (which observes that coordinate) at
    -0.0 in every coordinate, the others uniform on [-2, 2]^4."""
    domain, ens, _ = _tracking_setup()
    path = generate_path(identity_dynamics(4), np.tile([0.01, 0.0, -0.02, 0.0], (10, 1)),
                         np.array([0.5, -0.5, 1.0, 0.0]), 10)
    x_all = np.random.default_rng(1).uniform(-2.0, 2.0, (6, 4))
    x_all[0] = path.states[3]
    x_all[5] = -0.0
    return domain, ens, path, x_all


def _assert_same_bits(got, want):
    # assert_array_equal alone takes -0.0 for +0.0
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_coordinate_groups_balance():
    np.testing.assert_array_equal(np.bincount(coordinate_groups(25)), [7, 6, 6, 6])
    np.testing.assert_array_equal(np.bincount(coordinate_groups(10)), [3, 3, 2, 2])
    np.testing.assert_array_equal(coordinate_groups(4), [0, 1, 2, 3])
    assert np.all(np.diff(coordinate_groups(25)) >= 0)
    with pytest.raises(ValueError, match="at least 4"):
        coordinate_groups(3)


def test_tracking_constants():
    domain = box_domain([-10000.0] * 4, [10000.0] * 4)
    ens = tracking_ensemble(25, domain)
    assert ens.lipschitz == pytest.approx(40000.0)
    assert ens.second_moment == pytest.approx(20001.0 ** 2)
    assert ens.innovation
    # asymmetric support: worst-case |w| drives the bound
    skew = tracking_ensemble(4, domain, noise_low=-2.0, noise_high=1.0)
    assert skew.second_moment == pytest.approx((20000.0 + 2.0) ** 2)
    assert skew.obs.noise_var == pytest.approx(9.0 / 12.0)


def test_tracking_domain_and_support_guards():
    with pytest.raises(ValueError, match="box"):
        tracking_ensemble(4, simplex_domain(4, 0.01))
    with pytest.raises(ValueError, match="support"):
        tracking_ensemble(4, box_domain([-1.0] * 4, [1.0] * 4),
                          noise_low=1.0, noise_high=-1.0)


def test_tracking_loss_at_target_is_noise_floor():
    _, ens, path = _tracking_setup()
    for t in (1, 5, 10):
        target = path.states[t - 1]
        for i in range(ens.n):
            assert loss_value(ens, i, t, target, path) == pytest.approx(1.0 / 3.0)


def test_gradients_match_finite_differences():
    domain, ens, path = _tracking_setup()
    quad = synthetic_suite(7, 5, 4, 10, domain)
    x = np.array([0.3, -1.2, 2.0, 0.8])
    for family in (ens, quad):
        for i in (0, 3):
            for t in (1, 6):
                fd = _fd_gradient(lambda z: loss_value(family, i, t, z, path), x)
                np.testing.assert_allclose(gradient_exact(family, i, t, x, path),
                                           fd, rtol=1e-6, atol=1e-6)


def test_innovation_oracle_mean_is_half_exact():
    domain, ens, path = _tracking_setup()
    x = np.array([0.3, -1.2, 2.0, 0.8])
    i, t = 0, 4
    exact = gradient_exact(ens, i, t, x, path)
    k = ens.obs.assignment[i]
    draws = 20000
    rng = np.random.default_rng(0)
    total = np.zeros(4)
    for _ in range(draws):
        total += gradient_stochastic(ens, i, t, x, path, rng)
    mean = total / draws
    # single-draw variance is the observation variance 1/3
    se = np.sqrt(1.0 / 3.0 / draws)
    assert abs(mean[k] - 0.5 * exact[k]) <= 4.0 * se
    np.testing.assert_allclose(np.delete(mean, k), 0.0, atol=1e-15)
    # doubling the innovation makes the oracle unbiased for the exact gradient
    unbiased = tracking_ensemble(ens.n, domain, innovation=False)
    rng = np.random.default_rng(1)
    total = np.zeros(4)
    for _ in range(draws):
        total += gradient_stochastic(unbiased, i, t, x, path, rng)
    assert abs(total[k] / draws - exact[k]) <= 8.0 * se


def test_with_innovation_adjusts_second_moment():
    domain, ens, _ = _tracking_setup()
    doubled = tracking_ensemble(ens.n, domain, innovation=False)
    assert doubled.second_moment == pytest.approx(4.0 * ens.second_moment)


def test_quadratic_offsets_centered():
    box = box_domain([-5.0] * 3, [5.0] * 3)
    ens = synthetic_suite(11, 6, 3, 20, box)
    np.testing.assert_allclose(ens.offsets.mean(axis=1), 0.0, atol=1e-15)
    simplex = simplex_domain(3, 0.01)
    ens_s = synthetic_suite(11, 6, 3, 20, simplex, kind="synthetic_quadratic")
    np.testing.assert_allclose(ens_s.offsets.mean(axis=1), 0.0, atol=1e-15)
    # simplex centers must stay on the target's affine hull
    np.testing.assert_allclose(ens_s.offsets.sum(axis=2), 0.0, atol=1e-14)


def test_quadratic_loss_is_squared_distance():
    box = box_domain([-5.0] * 2, [5.0] * 2)
    ens = synthetic_suite(3, 4, 2, 5, box)
    path = generate_path(identity_dynamics(2), np.zeros((5, 2)), np.zeros(2), 5)
    x = np.array([0.4, -0.3])
    for i in range(4):
        center = path.states[1] + ens.offsets[1, i]
        assert loss_value(ens, i, 2, x, path) == pytest.approx(
            float((x - center) @ (x - center)))
        np.testing.assert_allclose(gradient_exact(ens, i, 2, x, path),
                                   2.0 * (x - center), atol=1e-14)


def test_global_loss_matches_agent_average():
    domain, ens, path = _tracking_setup()
    quad = synthetic_suite(5, 6, 4, 10, domain)
    lin = synthetic_suite(5, 6, 4, 10, simplex_domain(4, 0.01),
                          kind="synthetic_linear")
    x = np.array([0.3, -1.2, 2.0, 0.8])
    x_simplex = np.array([0.1, 0.2, 0.3, 0.4])
    for family, point in ((ens, x), (quad, x), (lin, x_simplex)):
        for t in (1, 7):
            direct = np.mean([loss_value(family, i, t, point, path)
                              for i in range(family.n)])
            batch = global_loss_batch(family, path, np.broadcast_to(point, (t, 1, 4)))
            assert batch[t - 1, 0] == pytest.approx(direct, rel=1e-12)


def test_linear_gradients_have_unit_dual_norm():
    box = box_domain([-1.0] * 3, [1.0] * 3)
    lin_box = synthetic_suite(2, 5, 3, 40, box, kind="synthetic_linear")
    assert np.linalg.norm(lin_box.gradients, axis=2).max() <= 1.0 + 1e-12
    lin_simplex = synthetic_suite(2, 5, 3, 40, simplex_domain(3, 0.01),
                                  kind="synthetic_linear")
    assert np.abs(lin_simplex.gradients).max() <= 1.0 + 1e-12
    assert lin_box.lipschitz == 1.0 and lin_simplex.lipschitz == 1.0


def test_linear_ensemble_from_explicit_array():
    grads = np.array([[[0.5, -0.5], [1.5, 0.0]]])
    box = box_domain([-1.0] * 2, [1.0] * 2)
    ens = linear_ensemble(grads, box)
    assert ens.lipschitz == pytest.approx(1.5)
    assert ens.second_moment == pytest.approx(2.25)
    path = generate_path(identity_dynamics(2), np.zeros((1, 2)), np.zeros(2), 1)
    assert loss_value(ens, 1, 1, [1.0, 1.0], path) == pytest.approx(1.5)
    simplex = simplex_domain(2, 0.01)
    assert linear_ensemble(grads, simplex).lipschitz == pytest.approx(1.5)


def test_lipschitz_bound_formulas():
    domain, ens, _ = _tracking_setup()
    assert ens.lipschitz == pytest.approx(20.0)
    quad = synthetic_suite(0, 4, 4, 3, domain)
    assert quad.lipschitz == pytest.approx(2.0 * diameter(domain, "l2"))
    simplex = simplex_domain(3, 0.01)
    quad_s = synthetic_suite(0, 4, 3, 3, simplex)
    assert quad_s.lipschitz == pytest.approx(2.0 * diameter(simplex, "linf"))
    lin = synthetic_suite(0, 4, 3, 3, simplex, kind="synthetic_linear")
    assert lin.lipschitz == 1.0


def test_second_moment_includes_oracle_noise():
    box = box_domain([-2.0] * 3, [2.0] * 3)
    quad = synthetic_suite(0, 4, 3, 5, box, noise_scale=0.3)
    expected = 2.0 * diameter(box, "l2") + 0.3 * np.sqrt(3.0)
    assert quad.second_moment == pytest.approx(expected ** 2)
    simplex = simplex_domain(3, 0.01)
    quad_s = synthetic_suite(0, 4, 3, 5, simplex, noise_scale=0.3)
    assert quad_s.second_moment == pytest.approx(
        (2.0 * diameter(simplex, "linf") + 0.3) ** 2)


def test_noiseless_stochastic_oracle_equals_exact():
    box = box_domain([-5.0] * 2, [5.0] * 2)
    ens = synthetic_suite(3, 4, 2, 5, box)
    path = generate_path(identity_dynamics(2), np.zeros((5, 2)), np.zeros(2), 5)
    rng = np.random.default_rng(0)
    x = np.array([0.4, -0.3])
    np.testing.assert_array_equal(gradient_stochastic(ens, 1, 2, x, path, rng),
                                  gradient_exact(ens, 1, 2, x, path))
    x_all = np.tile(x, (4, 1))
    assert oracle_noise(ens, rng, 1) is None
    np.testing.assert_array_equal(
        gradients_stochastic_batch(ens, 2, x_all, path, None),
        gradients_exact_batch(ens, 2, x_all, path))


def test_oracle_noise_is_bounded():
    box = box_domain([-5.0] * 2, [5.0] * 2)
    ens = synthetic_suite(3, 4, 2, 5, box, noise_scale=0.3)
    path = generate_path(identity_dynamics(2), np.zeros((5, 2)), np.zeros(2), 5)
    rng = np.random.default_rng(0)
    x_all = np.array([[0.4, -0.3], [0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]])
    exact = gradients_exact_batch(ens, 3, x_all, path)
    for noise in oracle_noise(ens, rng, 50):
        noisy = gradients_stochastic_batch(ens, 3, x_all, path, noise)
        assert np.abs(noisy - exact).max() <= 0.3


def test_batch_oracle_replays_the_scalar_oracle_draw_for_draw():
    # a block of oracle_noise rows, turned into oracle_samples in one add,
    # consumes the stream like per-agent scalar draws, and gives the same
    # bits, signed zeros included
    domain, tracking, path, x_all = _signed_zero_setup()
    families = (tracking, replace(tracking, innovation=False),
                synthetic_suite(5, 6, 4, 10, domain, noise_scale=0.3),
                synthetic_suite(5, 6, 4, 10, domain, kind="synthetic_linear",
                                noise_scale=0.3))
    for ens in families:
        noise = oracle_noise(ens, np.random.default_rng(4), 3)
        block = oracle_samples(ens, path.states[1:4], noise)
        rng = np.random.default_rng(4)
        for t, sample in zip((2, 3, 4), block):
            batch = gradients_stochastic_batch(ens, t, x_all, path, sample)
            for i in range(6):
                _assert_same_bits(batch[i], gradient_stochastic(ens, i, t, x_all[i], path, rng))


@pytest.mark.parametrize("innovation", [True, False])
def test_tracking_oracle_is_minus_zero_where_the_observation_equals_the_iterate(innovation):
    # a zero target seen through zero-width noise at x = 0: z - x_k is +0.0,
    # so -(z - x_k) is -0.0 on the mask, where x_k - z would be +0.0
    domain = box_domain([-1.0] * 4, [1.0] * 4)
    ens = tracking_ensemble(6, domain, noise_low=0.0, noise_high=0.0, innovation=innovation)
    path = generate_path(identity_dynamics(4), np.zeros((3, 4)), np.zeros(4), 3)
    x_all = np.zeros((6, 4))
    noise = oracle_noise(ens, np.random.default_rng(0), 3)
    for t, sample in zip((1, 2, 3), oracle_samples(ens, path.states[:3], noise)):
        g = gradients_stochastic_batch(ens, t, x_all, path, sample)
        assert np.signbit(g[ens._mask]).all()
        assert not np.signbit(g[~ens._mask]).any()
        np.testing.assert_array_equal(g, 0.0)
        for i in range(6):
            _assert_same_bits(g[i], gradient_stochastic(ens, i, t, x_all[i], path,
                                                        np.random.default_rng(0)))


def test_stacked_oracles_equal_each_replicate():
    domain, tracking, _ = _tracking_setup()
    dyn = identity_dynamics(4)
    paths = [generate_path(dyn, np.tile([0.01 * k, 0.0, 0.0, 0.0], (10, 1)),
                           np.zeros(4), 10) for k in range(3)]
    x = np.random.default_rng(2).uniform(-2.0, 2.0, (3, 6, 4))
    for family in (tracking, "synthetic_quadratic", "synthetic_linear"):
        ensembles = [family] * 3 if not isinstance(family, str) else [
            synthetic_suite(k, 6, 4, 10, domain, kind=family) for k in range(3)]
        ens, path = stack_replicates(ensembles, paths, 10)
        for t in (1, 10):
            batch = gradients_exact_batch(ens, t, x, path)
            for r in range(3):
                np.testing.assert_array_equal(
                    batch[r], gradients_exact_batch(ensembles[r], t, x[r], paths[r]))
    # one replicate is a view, never a copy
    quad = synthetic_suite(0, 6, 4, 10, domain)
    ens, path = stack_replicates([quad], paths[:1], 10)
    assert np.shares_memory(ens.offsets, quad.offsets)
    assert np.shares_memory(path.states, paths[0].states)
    with pytest.raises(ValueError, match="share the loss family"):
        stack_replicates([quad, tracking], paths[:2], 10)
    with pytest.raises(ValueError, match="path.states covers 11 rounds"):
        stack_replicates([quad], paths[:1], 12)


def test_batch_gradients_match_single_agent_calls():
    domain, ens, path, x_all = _signed_zero_setup()
    quad = synthetic_suite(5, 6, 4, 10, domain)
    lin = synthetic_suite(5, 6, 4, 10, domain, kind="synthetic_linear")
    for family in (ens, quad, lin):
        for t in (1, 4, 10):
            batch = gradients_exact_batch(family, t, x_all, path)
            for i in range(6):
                _assert_same_bits(batch[i], gradient_exact(family, i, t, x_all[i], path))
    # the setup reaches both signed zeros on an observed coordinate
    assert ens.obs.assignment[5] == 3
    tracking = gradients_exact_batch(ens, 4, x_all, path)
    assert np.signbit(tracking[5, 3]) and not np.signbit(tracking[0]).any()


def test_centers_outside_domain_counts():
    box = box_domain([-5.0] * 2, [5.0] * 2)
    ens = synthetic_suite(3, 4, 2, 8, box)
    path = generate_path(identity_dynamics(2), np.zeros((8, 2)), np.zeros(2), 8)
    assert centers_outside_domain(ens, path, box) == 0
    tight = box_domain([0.0] * 2, [1.0] * 2)
    wild = synthetic_suite(3, 4, 2, 8, tight, offset_scale=2.0)
    path_edge = generate_path(identity_dynamics(2), np.zeros((8, 2)),
                              np.array([0.95, 0.95]), 8)
    assert centers_outside_domain(wild, path_edge, tight) > 0
    # the check is a no-op for families without centers
    lin = synthetic_suite(3, 4, 2, 8, box, kind="synthetic_linear")
    assert centers_outside_domain(lin, path, box) == 0


def test_unknown_synthetic_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        synthetic_suite(0, 4, 2, 3, box_domain([-1.0] * 2, [1.0] * 2),
                        kind="bogus")


# ------------------------------------------------- whole-horizon evaluation


def _family(name, horizon=9, n=5):
    """(ensemble, path, domain) for one loss family on one domain."""
    box = box_domain([-3.0] * 4, [3.0] * 4)
    simplex = simplex_domain(4, 0.01)
    if name == "tracking_box":
        domain, ens = box, tracking_ensemble(n, box)
    elif name == "quadratic_box":
        domain, ens = box, synthetic_suite(1, n, 4, horizon, box)
    elif name == "quadratic_simplex":
        domain, ens = simplex, synthetic_suite(1, n, 4, horizon, simplex, offset_scale=0.01)
    elif name == "linear_box":
        domain, ens = box, synthetic_suite(1, n, 4, horizon, box, kind="synthetic_linear")
    else:
        domain = simplex
        ens = synthetic_suite(1, n, 4, horizon, simplex, kind="synthetic_linear")
    start = np.full(4, 0.25) if domain.kind == "simplex" else np.array([0.5, -0.5, 1.0, 0.0])
    drift = [0.01, -0.01, 0.0, 0.0] if domain.kind == "simplex" else [0.05, 0.0, -0.1, 0.02]
    path = generate_path(identity_dynamics(4), np.tile(drift, (horizon, 1)), start, horizon)
    return ens, path, domain


FAMILIES = ("tracking_box", "quadratic_box", "quadratic_simplex", "linear_box",
            "linear_simplex")


@pytest.mark.parametrize("block", [None, 7, 40])
@pytest.mark.parametrize("name", FAMILIES)
def test_whole_horizon_losses_match_scalar_reference(name, block, monkeypatch):
    if block is not None:  # 5 agents x 4 coordinates: blocks of 1 round, or 2 with a ragged last
        monkeypatch.setattr(objectives, "BLOCK_ELEMENTS", block)
    ens, path, domain = _family(name)
    horizon, m = 9, 3
    rng = np.random.default_rng(4)
    x = sample_domain(domain, rng, size=horizon * ens.n).reshape(horizon, ens.n, 4)
    glob = global_loss_batch(ens, path, x[:, :m])
    agents = agent_loss_batch(ens, path, x)
    assert glob.shape == (horizon, m) and agents.shape == (horizon, ens.n)
    for t in range(1, horizon + 1):
        for j in range(ens.n):
            values = [loss_value(ens, i, t, x[t - 1, j], path) for i in range(ens.n)]
            if j < m:
                assert glob[t - 1, j] == pytest.approx(np.mean(values), rel=1e-12)
            assert agents[t - 1, j] == pytest.approx(values[j], rel=1e-12)


def test_whole_horizon_losses_accept_broadcast_views():
    ens, path, _ = _family("quadratic_box")
    point = np.array([0.1, 0.2, -0.3, 0.4])
    view = np.broadcast_to(point, (9, 1, 4))
    np.testing.assert_array_equal(global_loss_batch(ens, path, view),
                                  global_loss_batch(ens, path, np.tile(point, (9, 1, 1))))
    with pytest.raises(ValueError, match="stack"):
        global_loss_batch(ens, path, np.zeros((9, 4)))
    with pytest.raises(ValueError, match="one row per agent"):
        agent_loss_batch(ens, path, np.zeros((9, 2, 4)))


@pytest.mark.parametrize("name", FAMILIES)
def test_whole_horizon_losses_refuse_short_inputs(name):
    ens, path, _ = _family(name, horizon=6)
    x = np.zeros((6, ens.n, 4))
    assert global_loss_batch(ens, path, x[:0]).shape == (0, ens.n)
    assert agent_loss_batch(ens, path, x[:0]).shape == (0, ens.n)
    for short in (1, 5):  # a length-1 path would otherwise broadcast over every round
        cut = MinimizerPath(path.states[:short])
        for fn in (global_loss_batch, agent_loss_batch):
            with pytest.raises(ValueError, match=f"path.states covers {short} rounds.*the 6"):
                fn(ens, cut, x)
    field = {"synthetic_quadratic": "offsets", "synthetic_linear": "gradients"}.get(ens.kind)
    if field is None:
        return
    for short in (1, 5):
        cut = replace(ens, **{field: getattr(ens, field)[:short]})
        for fn in (global_loss_batch, agent_loss_batch):
            with pytest.raises(ValueError, match=f"ens.{field} covers {short} rounds.*the 6"):
                fn(cut, path, x)


def test_centers_outside_domain_matches_per_point_count():
    tight = box_domain([0.0] * 2, [1.0] * 2)
    wild = synthetic_suite(3, 4, 2, 8, tight, offset_scale=0.3)
    path = generate_path(identity_dynamics(2), np.zeros((8, 2)), np.array([0.8, 0.5]), 8)
    expected = sum(not contains(tight, path.states[t] + wild.offsets[t, i])
                   for t in range(8) for i in range(4))
    assert 0 < expected < 32
    assert centers_outside_domain(wild, path, tight) == expected
    with pytest.raises(ValueError, match="ens.offsets covers 3 rounds.*the 8"):
        centers_outside_domain(replace(wild, offsets=wild.offsets[:3]), path, tight)


# ------------------------------------------ agent-major block kernels, pinned


def _reference_oracle_samples(stars, noise):
    """The tracking observations as one broadcast add, whose inner loop runs
    over the d coordinates: what oracle_samples computed before it filled one
    coordinate at a time."""
    return stars[..., None, :] + noise[..., None]


def _reference_global_block(ens, rounds, stars, x):
    """_global_block with its points' centres subtracted by one broadcast and
    the observer weights summed from the mask on every call."""
    if ens.gradients is not None:
        mean_g = ens.gradients[..., rounds, :, :].mean(axis=-2)
        return np.matmul(x, mean_g[..., None])[..., 0]
    sq = x - stars[..., None, :]
    np.square(sq, out=sq)
    if ens.obs is not None:
        return sq @ ens._mask.sum(axis=0, dtype=float) / ens.n + ens.obs.noise_var
    spread = np.square(ens.offsets[..., rounds, :, :]).sum(axis=-1).mean(axis=-1)
    return sq.sum(axis=-1) + spread[..., None]


def test_oracle_samples_equal_the_broadcast_reference_bit_for_bit():
    # round-major (B, R, n) draws against the engine's (B, R, d) view of the
    # stacked path, and the single-replicate (B, n) form; both signed zeros
    _, ens, path = _tracking_setup(n=7)
    rng = np.random.default_rng(8)
    states = np.stack([path.states, -path.states, np.zeros_like(path.states)])  # (3, T+1, 4)
    states[2, :, 1] = -0.0
    noise = oracle_noise(ens, rng, 5 * 3).reshape(5, 3, 7)
    noise[:, 2, :3] = -0.0
    noise[:, 2, 3:] = 0.0
    stars = states[:, 2:7].swapaxes(0, 1)
    assert not stars.flags.c_contiguous
    want = _reference_oracle_samples(stars, noise)
    got = oracle_samples(ens, stars, noise)
    assert got.shape == want.shape == (5, 3, 7, 4)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[:, 2, :3, 1]).all()
    single = oracle_samples(ens, path.states[:5], noise[:, 0])
    assert single.tobytes() == _reference_oracle_samples(path.states[:5], noise[:, 0]).tobytes()


@pytest.mark.parametrize("name", ["tracking_box", "quadratic_box", "quadratic_simplex",
                                  "linear_box"])
def test_network_losses_equal_the_broadcast_reference_bit_for_bit(name):
    # three stacked replicates with their own paths (and synthetic losses),
    # every round block of a 9-round horizon, and the unstacked whole-horizon form
    horizon, n = 9, 5
    ens0, path0, domain = _family(name, horizon, n)
    ensembles = [ens0] * 3 if ens0.obs is not None else [
        synthetic_suite(k, n, 4, horizon, domain, kind=ens0.kind) for k in range(3)]
    paths = [MinimizerPath(path0.states * (1.0 + 0.1 * k)) for k in range(3)]
    ens, path = stack_replicates(ensembles, paths, horizon)
    rng = np.random.default_rng(9)
    x = sample_domain(domain, rng, 3 * horizon * n).reshape(3, horizon, n, 4)
    x[1, :, 0] = -0.0
    for rounds in (slice(0, horizon), slice(2, 5), slice(8, 9)):
        block = x[:, rounds]
        stars = path.states[..., rounds, :]
        want = _reference_global_block(ens, rounds, stars, block)
        got = objectives._global_block(ens, rounds, stars, block)
        assert got.tobytes() == want.tobytes()
        losses = objectives.network_losses(ens, path, rounds, block)
        assert losses.tobytes() == want.mean(axis=-1).tobytes()
    for r in range(3):
        for points in (x[r], x[r][:, :1]):  # every agent, and one point a round
            want = _reference_global_block(ensembles[r], slice(0, horizon),
                                           paths[r].states[:horizon], points)
            assert global_loss_batch(ensembles[r], paths[r], points).tobytes() == want.tobytes()
