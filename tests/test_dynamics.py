"""Target motion models, disturbance generators and path variation."""

import numpy as np
import pytest

from domd.dynamics import (LinearDynamics, generate_path, identity_dynamics,
                           ncv_disturbances, ncv_dynamics, ncv_noise_covariance,
                           residual_norms)
from domd.geometry import box_domain, check_nonexpansive, euclidean_geometry


def test_ncv_matrix_layout():
    dyn = ncv_dynamics(0.1)
    expected = np.array([[1.0, 0.1, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.1],
                         [0.0, 0.0, 0.0, 1.0]])
    np.testing.assert_allclose(dyn.a, expected, atol=1e-15)
    assert dyn.d == 4


def test_ncv_block_spectral_norm_exceeds_one():
    # integrator blocks are mildly expansive: sigma_max frozen from svd
    s = np.linalg.svd(ncv_dynamics(0.1).a, compute_uv=False)[0]
    assert s == pytest.approx(1.0512492197250394, abs=1e-12)


def test_dynamics_validation():
    with pytest.raises(ValueError, match="square"):
        LinearDynamics(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        LinearDynamics(np.array([[np.inf]]))
    with pytest.raises(ValueError, match="positive"):
        ncv_dynamics(0.0)


def test_nonexpansive_verdict_cached():
    geom = euclidean_geometry(box_domain([-1.0] * 4, [1.0] * 4))
    assert check_nonexpansive(geom, identity_dynamics(4).a).passed
    assert not check_nonexpansive(geom, ncv_dynamics(0.1).a).passed


def test_ncv_covariance_blocks():
    cov = ncv_noise_covariance(0.1, 1.0)
    block = np.array([[1e-3 / 3.0, 5e-3], [5e-3, 0.1]])
    np.testing.assert_allclose(cov[:2, :2], block, atol=1e-18)
    np.testing.assert_allclose(cov[2:, 2:], block, atol=1e-18)
    np.testing.assert_allclose(cov[:2, 2:], 0.0, atol=1e-18)
    # intensity scales the whole matrix linearly
    np.testing.assert_allclose(ncv_noise_covariance(0.1, 0.25), 0.25 * cov,
                               atol=1e-18)


def test_ncv_noise_factor_reproduces_covariance():
    from domd.dynamics import _ncv_noise_factor

    for sv2 in (0.25, 1.0, 2.0):
        factor = _ncv_noise_factor(0.1, sv2)
        np.testing.assert_allclose(factor @ factor.T,
                                   ncv_noise_covariance(0.1, sv2), atol=1e-15)
        np.testing.assert_allclose(
            factor, np.linalg.cholesky(ncv_noise_covariance(0.1, sv2)), atol=1e-12)


def test_zero_noise_path_integrates_velocity():
    # from (0, 1, 0, 1) with eps=0.1 the positions advance 0.1 per round
    path = generate_path(ncv_dynamics(0.1), np.zeros((10, 4)),
                         np.array([0.0, 1.0, 0.0, 1.0]), 10)
    np.testing.assert_allclose(path.states[:, 0], 0.1 * np.arange(11), atol=1e-12)
    np.testing.assert_allclose(path.states[:, 1], 1.0, atol=1e-15)
    # identical motion on both axes, so swapping the axis blocks is a no-op
    np.testing.assert_allclose(path.states, path.states[:, [2, 3, 0, 1]], atol=1e-15)
    assert path.horizon == 10 and path.d == 4


def test_gaussian_noise_deterministic_per_seed():
    dyn = ncv_dynamics(0.1)
    x0 = np.zeros(4)
    p1 = generate_path(dyn, ncv_disturbances(0.5, 0.1, 9, 20), x0, 20)
    p2 = generate_path(dyn, ncv_disturbances(0.5, 0.1, 9, 20), x0, 20)
    np.testing.assert_array_equal(p1.states, p2.states)
    p3 = generate_path(dyn, ncv_disturbances(0.5, 0.1, 10, 20), x0, 20)
    assert not np.array_equal(p1.states, p3.states)
    with pytest.raises(ValueError, match="nonnegative"):
        ncv_disturbances(-0.5, 0.1, 9, 20)


def test_gaussian_noise_scales_with_sqrt_intensity():
    # the standard normal draws happen before scaling, so at a fixed seed
    # quadrupling sigma_v2 exactly doubles every disturbance
    base = ncv_disturbances(0.25, 0.1, 3, 15)
    quad = ncv_disturbances(1.0, 0.1, 3, 15)
    np.testing.assert_allclose(quad, 2.0 * base, atol=1e-12)


def test_gaussian_noise_requires_4d_model():
    with pytest.raises(ValueError, match=r"shape \(5, 2\), got \(5, 4\)"):
        generate_path(identity_dynamics(2), ncv_disturbances(0.5, 0.1, 0, 5),
                      np.zeros(2), 5)


def test_constant_drift_and_custom_sequences():
    dyn = identity_dynamics(2)
    drift = generate_path(dyn, np.tile([0.1, -0.2], (4, 1)), np.zeros(2), 4)
    np.testing.assert_allclose(drift.states[4], [0.4, -0.8], atol=1e-15)
    seq = np.arange(6, dtype=float).reshape(3, 2)
    custom = generate_path(dyn, seq, np.zeros(2), 3)
    np.testing.assert_allclose(custom.states, [[0.0, 0.0], [0.0, 1.0], [2.0, 4.0], [6.0, 9.0]])


def test_generate_path_validation():
    dyn = identity_dynamics(2)
    with pytest.raises(ValueError, match="horizon"):
        generate_path(dyn, np.zeros((0, 2)), np.zeros(2), 0)
    with pytest.raises(ValueError, match="dimension"):
        generate_path(dyn, np.zeros((3, 2)), np.zeros(3), 3)
    # disturbances must be exactly (horizon, d): no broadcasting, no transposes
    for shape in ((3, 1), (3, 3), (2, 2), (4, 2), (2, 3), (3,), (2,), (3, 2, 1), ()):
        with pytest.raises(ValueError, match=r"must have shape \(3, 2\)"):
            generate_path(dyn, np.zeros(shape), np.zeros(2), 3)
    # leading axes are replicates; the last two must still be (horizon, d)
    for shape in ((5, 3, 1), (5, 2, 2), (5, 4, 2), (2, 5, 2, 3)):
        with pytest.raises(ValueError, match=r"must have shape \(3, 2\)"):
            generate_path(dyn, np.zeros(shape), np.zeros(2), 3)


def _rolled_alone(dyn, v, x0):
    # the one-replicate recursion, written out as the reference
    states = np.empty((v.shape[0] + 1, dyn.d))
    states[0] = x0
    for t in range(v.shape[0]):
        states[t + 1] = dyn.a @ states[t] + v[t]
    return states


@pytest.mark.parametrize("a", [
    ncv_dynamics(0.1).a,
    0.9 * np.eye(4),
    np.random.default_rng(5).standard_normal((4, 4)) / 2.0,  # dense, no structure
], ids=["ncv", "scaled_identity", "dense"])
@pytest.mark.parametrize("replicates", [1, 4, 50])
def test_generate_path_batched_equals_solo(a, replicates):
    dyn = LinearDynamics(a)
    horizon = 200
    x0 = np.array([0.5, -1.0, 0.25, 2.0])
    v = np.stack([ncv_disturbances(0.8, 0.1, seed, horizon) for seed in range(replicates)])
    batch = generate_path(dyn, v, x0, horizon)
    assert batch.states.shape == (replicates, horizon + 1, 4)
    assert batch.horizon == horizon and batch.d == 4
    for r in range(replicates):
        alone = generate_path(dyn, v[r], x0, horizon)
        assert np.array_equal(alone.states, _rolled_alone(dyn, v[r], x0))
        assert np.array_equal(batch.states[r], alone.states)
    # any number of leading axes rolls the same way
    grid = generate_path(dyn, v.reshape((1, replicates) + v.shape[1:]), x0, horizon)
    assert np.array_equal(grid.states[0], batch.states)


def test_reconstruction_residual_is_tiny():
    # the states give back the disturbances that built them
    dyn = ncv_dynamics(0.1)
    v = ncv_disturbances(1.0, 0.1, 0, 50)
    path = generate_path(dyn, v, np.array([0.0, 1.0, 0.0, 1.0]), 50)
    pred = path.states[:-1] @ dyn.a.T + v
    assert np.max(np.abs(pred - path.states[1:])) <= 1e-12
    assert np.max(np.abs(residual_norms(path, dyn, "l1") - np.abs(v).sum(axis=1))) <= 1e-12


def test_path_variation_sums_disturbance_norms():
    dyn = ncv_dynamics(0.1)
    v = ncv_disturbances(0.5, 0.1, 4, 30)
    path = generate_path(dyn, v, np.zeros(4), 30)
    expect_l2 = np.linalg.norm(v, axis=1).sum()
    expect_l1 = np.abs(v).sum()
    assert residual_norms(path, dyn, "l2").sum() == pytest.approx(expect_l2, rel=1e-12)
    assert residual_norms(path, dyn, "l1").sum() == pytest.approx(expect_l1, rel=1e-12)
    with pytest.raises(ValueError, match="norm"):
        residual_norms(path, dyn, "l3")
    with pytest.raises(TypeError):
        residual_norms(path, dyn)  # no default norm: the caller names its geometry's


def test_path_variation_zero_for_noiseless_motion():
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, np.zeros((20, 4)), np.array([0.0, 1.0, 0.0, 1.0]), 20)
    for norm in ("l1", "l2"):
        assert residual_norms(path, dyn, norm).sum() == pytest.approx(0.0, abs=1e-12)
