"""Target motion models, disturbance generators and path serialization."""

import numpy as np
import pytest

from domd.dynamics import (LinearDynamics, generate_path, identity_dynamics,
                           linear_dynamics, load_path_csv, ncv_disturbances,
                           ncv_dynamics, ncv_noise_covariance, path_variation,
                           save_path_csv, verify_reconstruction)
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
        linear_dynamics(np.array([[np.inf]]))
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
    dyn = ncv_dynamics(0.1)
    base = generate_path(dyn, ncv_disturbances(0.25, 0.1, 3, 15), np.zeros(4), 15)
    quad = generate_path(dyn, ncv_disturbances(1.0, 0.1, 3, 15), np.zeros(4), 15)
    np.testing.assert_allclose(quad.noise, 2.0 * base.noise, atol=1e-12)


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
    np.testing.assert_allclose(custom.noise, seq)
    # the path keeps its own copy of the disturbances
    seq[0] = 99.0
    assert custom.noise[0, 0] == 0.0


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


def test_reconstruction_residual_is_tiny():
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, ncv_disturbances(1.0, 0.1, 0, 50),
                         np.array([0.0, 1.0, 0.0, 1.0]), 50)
    assert verify_reconstruction(path, dyn) <= 1e-12


def test_path_variation_sums_disturbance_norms():
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, ncv_disturbances(0.5, 0.1, 4, 30), np.zeros(4), 30)
    expect_l2 = np.linalg.norm(path.noise, axis=1).sum()
    expect_l1 = np.abs(path.noise).sum()
    assert path_variation(path, dyn, "l2") == pytest.approx(expect_l2, rel=1e-12)
    assert path_variation(path, dyn, "l1") == pytest.approx(expect_l1, rel=1e-12)
    with pytest.raises(ValueError, match="norm"):
        path_variation(path, dyn, "l3")


def test_path_variation_zero_for_noiseless_motion():
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, np.zeros((20, 4)), np.array([0.0, 1.0, 0.0, 1.0]), 20)
    assert path_variation(path, dyn) == pytest.approx(0.0, abs=1e-12)


def test_path_csv_round_trip(tmp_path):
    dyn = ncv_dynamics(0.1)
    path = generate_path(dyn, ncv_disturbances(0.5, 0.1, 5, 12), np.zeros(4), 12)
    file = tmp_path / "path.csv"
    save_path_csv(path, file, comments=["seed=5"])
    loaded = load_path_csv(file)
    np.testing.assert_array_equal(loaded.states, path.states)
    np.testing.assert_array_equal(loaded.noise, path.noise)
