"""Synchronous decentralized mirror descent loop.

Each round t every agent, holding iterate x[i,t]:
  1. queries its gradient oracle at x[i,t],
  2. mixes neighbor iterates into an anchor y[i,t] = sum_j w[i][j] x[j,t],
  3. takes a prox step from the anchor against its gradient,
  4. pushes the prox output through the known dynamics to get x[i,t+1].

Gradients are always evaluated at the pre-mixing iterates; the loop hands
iterates to the oracle before the consensus step so the two cannot be
swapped by accident.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import contains, project_floored_simplex, prox
from .network import mix
from .objectives import gradients_exact_batch, gradients_stochastic_batch


class EngineError(RuntimeError):
    """Raised when iterates stop being finite or leave the domain."""


@dataclass(frozen=True)
class StepSchedule:
    """Step size rule eta_t, defined for every t >= 1 (and used up to T+1).

    constant: eta0.  inv_sqrt: eta0 / sqrt(t).  variation_tuned: the
    horizon-optimal constant sqrt((1 - sigma2) * c_t / horizon).
    """

    kind: str
    eta0: float = 0.0
    c_t: float = 0.0
    sigma2: float = 0.0
    horizon: int = 0


def constant_schedule(eta0):
    if eta0 <= 0:
        raise ValueError("step size must be positive")
    return StepSchedule("constant", eta0=float(eta0))


def inv_sqrt_schedule(eta0):
    if eta0 <= 0:
        raise ValueError("step size must be positive")
    return StepSchedule("inv_sqrt", eta0=float(eta0))


def variation_schedule(c_t, sigma2, horizon, fallback_eta=None):
    """Constant step tuned to the anticipated path variation c_t."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0 <= sigma2 < 1:
        raise ValueError("sigma2 must lie in [0, 1)")
    if c_t <= 0:
        if fallback_eta is None:
            raise ValueError("c_t must be positive unless a fallback step is given")
        return constant_schedule(fallback_eta)
    eta = np.sqrt((1.0 - sigma2) * c_t / horizon)
    return StepSchedule("variation_tuned", eta0=float(eta), c_t=float(c_t),
                        sigma2=float(sigma2), horizon=int(horizon))


def schedule_eta(schedule, t):
    if t < 1:
        raise ValueError("rounds are numbered from 1")
    if schedule.kind == "inv_sqrt":
        return schedule.eta0 / np.sqrt(t)
    return schedule.eta0


def schedule_etas(schedule, horizon):
    """eta_1 .. eta_{horizon+1} as an array (the bounds need the extra entry)."""
    return np.array([schedule_eta(schedule, t) for t in range(1, horizon + 2)])


@dataclass(frozen=True)
class RunTrace:
    """The iterates of a run and its step sizes; nothing per round besides.

    Row s of x is the stacked iterate at time s+1 (horizon+1 rows); etas has
    horizon+1 entries, the last one for the bound calculators.  Anchors and
    prox outputs are not kept: mix and prox recompute them from x.
    """

    x: np.ndarray
    etas: np.ndarray
    norm_kind: str

    @property
    def horizon(self):
        return self.x.shape[0] - 1

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def d(self):
        return self.x.shape[2]


def init_state(n, geom, x0=None):
    """Common starting iterate: zeros on euclidean domains, uniform on the simplex."""
    dom = geom.domain
    if x0 is None:
        x0 = np.full(dom.d, 1.0 / dom.d) if geom.kind == "kl" else np.zeros(dom.d)
    x0 = np.asarray(x0, dtype=float)
    if not contains(dom, x0):
        raise EngineError("initial iterate lies outside the domain")
    return np.tile(x0, (n, 1))


def _apply_dynamics(geom, dyn, xhat):
    xnext = xhat @ dyn.a.T
    if geom.kind == "kl" and not contains(geom.domain, xnext):
        # the dynamics may push iterates off the floored simplex
        xnext = project_floored_simplex(xnext, geom.domain.floor)
    return xnext


def step(x, weights, geom, dyn, grads, eta):
    """One synchronous round for all agents.

    x and grads are stacked (n, d) arrays; grads[i] must be the oracle value
    at x[i].  Returns the next iterate: the mixed anchor's prox output pushed
    through the dynamics.
    """
    xhat = prox(geom, grads, mix(weights, x), eta)
    xnext = _apply_dynamics(geom, dyn, xhat)
    if not np.all(np.isfinite(xnext)):
        raise EngineError("iterates became non-finite")
    return xnext


def run(weights, geom, dyn, ens, path, schedule, horizon, mode="exact", seed=0,
        x0=None):
    """Run the full loop for `horizon` rounds and record the iterate trace.

    mode selects the oracle: "exact" queries analytic gradients,
    "stochastic" queries the noisy oracle exactly once per agent per round
    from a generator seeded with `seed`.  Identical arguments produce
    identical traces.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if mode not in ("exact", "stochastic"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    n, d = weights.n, geom.domain.d
    rng = np.random.default_rng(seed)
    x = init_state(n, geom, x0)
    xs = np.empty((horizon + 1, n, d))
    xs[0] = x
    for t in range(1, horizon + 1):
        eta = schedule_eta(schedule, t)
        if mode == "exact":
            g = gradients_exact_batch(ens, t, x, path)
        else:
            g = gradients_stochastic_batch(ens, t, x, path, rng)
        x = xs[t] = step(x, weights, geom, dyn, g, eta)
    return RunTrace(xs, schedule_etas(schedule, horizon), geom.norm_kind)
