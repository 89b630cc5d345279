"""Target motion: known linear dynamics plus unstructured perturbations.

The moving point the agents chase follows x[t+1] = A x[t] + v[t], where A
is known to every agent and v[t] is an arbitrary disturbance sequence.  The
accumulated disturbance size sum_t ||v[t]|| is the path variation that the
regret bounds are written against.
"""

from dataclasses import dataclass

import numpy as np

from . import csvio
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


def linear_dynamics(a):
    return LinearDynamics(a)


def identity_dynamics(d):
    return linear_dynamics(np.eye(d))


def ncv_dynamics(eps):
    """Near-constant-velocity model on (hpos, hvel, vpos, vvel).

    Each position integrates its velocity over a sampling interval eps; the
    two axes are decoupled, so A = I_2 kron [[1, eps], [0, 1]].
    """
    if eps <= 0:
        raise ValueError("sampling interval must be positive")
    block = np.array([[1.0, eps], [0.0, 1.0]])
    return linear_dynamics(np.kron(np.eye(2), block))


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
    """Target states x[1..T+1] (rows) and the disturbances v[1..T] that built them."""

    states: np.ndarray
    noise: np.ndarray

    @property
    def horizon(self):
        return self.states.shape[0] - 1

    @property
    def d(self):
        return self.states.shape[1]


def generate_path(dyn, noise, x0, horizon):
    """Roll the target forward: states[0] = x0, states[t+1] = A states[t] + v[t].

    noise holds the disturbances v[1..horizon] as a (horizon, d) array; the
    path keeps its own copy.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dyn.d,):
        raise ValueError("initial state dimension mismatch")
    v = np.array(noise, dtype=float)
    if v.shape != (horizon, dyn.d):
        raise ValueError(f"disturbances must have shape ({horizon}, {dyn.d}), got {v.shape}")
    states = np.empty((horizon + 1, dyn.d))
    states[0] = x0
    for t in range(horizon):
        states[t + 1] = dyn.a @ states[t] + v[t]
    return MinimizerPath(states, v)


def verify_reconstruction(path, dyn):
    """Max residual of states[t+1] - (A states[t] + v[t]); 0 for generated paths."""
    pred = path.states[:-1] @ dyn.a.T + path.noise
    return float(np.max(np.abs(pred - path.states[1:]))) if path.horizon else 0.0


def path_variation(path, dyn, norm="l2"):
    """Accumulated disturbance size sum_t ||states[t+1] - A states[t]||."""
    if path.states.shape[0] < 2:
        raise ValueError("path variation needs at least two states")
    residual = path.states[1:] - path.states[:-1] @ dyn.a.T
    return float(vector_norm(norm, residual).sum())


def save_path_csv(path, file, comments=()):
    """One row per state: t, x(1..d), v(1..d); the final row has no noise."""
    d = path.d
    header = ["t"] + [f"x{k + 1}" for k in range(d)] + [f"v{k + 1}" for k in range(d)]
    rows = []
    for t in range(path.states.shape[0]):
        row = [t + 1] + list(path.states[t])
        row += list(path.noise[t]) if t < path.noise.shape[0] else [None] * d
        rows.append(row)
    csvio.write_csv(file, header, rows, comments)


def load_path_csv(file):
    _, header, rows = csvio.read_csv(file)
    d = (len(header) - 1) // 2
    states = np.array([[float(r[1 + k]) for k in range(d)] for r in rows])
    noise = np.array([[float(r[1 + d + k]) for k in range(d)] for r in rows[:-1]])
    return MinimizerPath(states, noise)
