"""Target motion: known linear dynamics plus unstructured perturbations.

The moving point the agents chase follows x[t+1] = A x[t] + v[t], where A
is known to every agent and v[t] is an arbitrary disturbance sequence.  A
path is its (..., T+1, d) states array: residual_norms gives back each
||v[t]||, whose sum C_T is the path variation the bounds are written against.

A = I is no motion at all: LinearDynamics records it as is_identity, the
engine then pushes nothing, a path rolls by one cumulative sum of the
disturbances and its residuals are plain differences.  x @ I.T is x for
every nonzero finite x, so only the sign of a zero could differ.

Every product with A.T, the engine's push and residual_norms, reads
LinearDynamics.a_t, a C-contiguous copy of A.T: numpy's matmul multiplies
stacks of rows by it faster than by the F-ordered view a.T, with the same
bits for two or more rows; a single row takes another BLAS kernel.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import norm_of


@dataclass(frozen=True)
class LinearDynamics:
    """Known transition matrix a of the target: square and finite, of size d.

    is_identity, derived from a, is whether a is exactly the identity;
    a_t, also derived, is a.T as a C-contiguous array."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("transition matrix has non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "is_identity", bool(np.array_equal(a, np.eye(len(a)))))
        object.__setattr__(self, "a_t", np.ascontiguousarray(a.T))

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

    Drawn from default_rng(seed) as a (horizon, 4) array.  An eps whose
    factor passes the float range gives non-finite disturbances, with no
    warning, for the path check to refuse.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be nonnegative")
    draws = np.random.default_rng(seed).standard_normal((horizon, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        # a float64 power is inf where a float power raises OverflowError
        return draws @ _ncv_noise_factor(np.float64(eps), sigma_v2).T


def generate_path(dyn, noise, x0, horizon):
    """Roll the target forward: states[0] = x0, states[t+1] = A states[t] + v[t].

    noise holds the disturbances v[1..horizon] as a (horizon, d) array, or
    as a (..., horizon, d) stack whose leading axes are replicates that all
    start at x0.  A stack is rolled in one loop over rounds, each round one
    stacked matrix-vector product, or for A = I in one cumsum over rounds,
    the same left-to-right sums; every replicate's states are bit-identical
    to rolling it alone.  Returns the states, (..., horizon+1, d).
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
    if dyn.is_identity:
        states[..., 1:, :] = v
        return np.cumsum(states, axis=-2, out=states)
    # round-major (d, 1) column views: rows[t] is every replicate's state t
    rows = np.moveaxis(states, -2, 0)[..., None]
    steps = np.moveaxis(v, -2, 0)[..., None]
    for t in range(horizon):
        np.add(np.matmul(dyn.a, rows[t]), steps[t], out=rows[t + 1])
    return states


def residual_norms(path, dyn, domain):
    """Per-round disturbance sizes ||states[t+1] - A states[t]||, t = 1 .. T,
    in the domain's norm (geometry.norm_of): (T,), or (..., T) for a stack;
    plain differences for A = I.  A size past the float range is +inf, and
    so is C_T."""
    if path.shape[-2] < 2:
        raise ValueError("path variation needs at least two states")
    with np.errstate(over="ignore"):
        pushed = path[..., :-1, :] if dyn.is_identity else path[..., :-1, :] @ dyn.a_t
        return norm_of(domain, path[..., 1:, :] - pushed)
