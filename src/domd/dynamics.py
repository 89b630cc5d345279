"""Target motion: known linear dynamics plus unstructured perturbations.

The moving point the agents chase follows x[t+1] = A x[t] + v[t], where A
is known to every agent and v[t] is an arbitrary disturbance sequence.  A
path keeps the states only: residual_norms gives back each ||v[t]||, whose
sum C_T is the path variation the regret bounds are written against.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import vector_norm


@dataclass(frozen=True)
class LinearDynamics:
    """Known transition matrix a of the target: square and finite, of size d."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("transition matrix has non-finite entries")
        object.__setattr__(self, "a", a)

    @property
    def d(self):
        return self.a.shape[0]


def identity_dynamics(d):
    return LinearDynamics(np.eye(d))


def ncv_dynamics(eps):
    """Near-constant-velocity model on (hpos, hvel, vpos, vvel).

    Each position integrates its velocity over a sampling interval eps; the
    two axes are decoupled, so A = I_2 kron [[1, eps], [0, 1]].
    """
    if eps <= 0:
        raise ValueError("sampling interval must be positive")
    block = np.array([[1.0, eps], [0.0, 1.0]])
    return LinearDynamics(np.kron(np.eye(2), block))


def ncv_noise_covariance(eps, sigma_v2):
    """Process noise covariance of the NCV model:
    sigma_v2 * I_2 kron [[eps^3/3, eps^2/2], [eps^2/2, eps]]."""
    if eps <= 0:
        raise ValueError("sampling interval must be positive")
    if sigma_v2 < 0:
        raise ValueError("noise intensity must be nonnegative")
    block = np.array([[eps**3 / 3.0, eps**2 / 2.0], [eps**2 / 2.0, eps]])
    return sigma_v2 * np.kron(np.eye(2), block)


def _ncv_noise_factor(eps, sigma_v2):
    # closed-form Cholesky factor of one 2x2 block of the NCV covariance
    s = np.sqrt(sigma_v2)
    l11 = s * eps ** 1.5 / np.sqrt(3.0)
    l21 = s * np.sqrt(3.0 * eps) / 2.0
    l22 = s * np.sqrt(eps) / 2.0
    block = np.array([[l11, 0.0], [l21, l22]])
    return np.kron(np.eye(2), block)


def ncv_disturbances(sigma_v2, eps, seed, horizon):
    """Disturbances v[1..horizon] ~ N(0, ncv_noise_covariance(eps, sigma_v2)).

    Drawn from default_rng(seed) as a (horizon, 4) array.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be nonnegative")
    factor = _ncv_noise_factor(eps, sigma_v2)
    return np.random.default_rng(seed).standard_normal((horizon, 4)) @ factor.T


@dataclass(frozen=True)
class MinimizerPath:
    """Target states x[1..T+1] as rows, (T+1, d), or a (..., T+1, d) stack
    whose leading axes are replicates."""

    states: np.ndarray

    @property
    def horizon(self):
        return self.states.shape[-2] - 1

    @property
    def d(self):
        return self.states.shape[-1]


def generate_path(dyn, noise, x0, horizon):
    """Roll the target forward: states[0] = x0, states[t+1] = A states[t] + v[t].

    noise holds the disturbances v[1..horizon] as a (horizon, d) array, or
    as a (..., horizon, d) stack whose leading axes are replicates that all
    start at x0.  A stack is rolled in one loop over rounds, each round one
    stacked matrix-vector product, and every replicate's states are
    bit-identical to rolling it alone.  The path keeps the states only.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dyn.d,):
        raise ValueError("initial state dimension mismatch")
    v = np.asarray(noise, dtype=float)
    if v.shape[-2:] != (horizon, dyn.d):
        raise ValueError(f"disturbances must have shape ({horizon}, {dyn.d}), got {v.shape} "
                         "(leading replicate axes are allowed)")
    states = np.empty(v.shape[:-2] + (horizon + 1, dyn.d))
    states[..., 0, :] = x0
    # round-major (d, 1) column views: rows[t] is every replicate's state t
    rows = np.moveaxis(states, -2, 0)[..., None]
    steps = np.moveaxis(v, -2, 0)[..., None]
    for t in range(horizon):
        np.add(np.matmul(dyn.a, rows[t]), steps[t], out=rows[t + 1])
    return MinimizerPath(states)


def residual_norms(path, dyn, norm):
    """Per-round disturbance sizes ||states[t+1] - A states[t]||, t = 1 .. T,
    in the caller's norm: its geometry's "l1" or "l2"."""
    if path.states.shape[0] < 2:
        raise ValueError("path variation needs at least two states")
    return vector_norm(norm, path.states[1:] - path.states[:-1] @ dyn.a.T)
