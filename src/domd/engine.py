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

from . import csvio
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
class AgentState:
    """One agent's view of round t: iterate, mixed anchor, prox output."""

    x: np.ndarray
    y: np.ndarray
    xhat: np.ndarray


@dataclass(frozen=True)
class RunTrace:
    """Everything a run produced.

    Row s of x is the stacked iterate at time s+1 (so x has horizon+1 rows);
    rows s of y, grads, xhat belong to round s+1, with xhat holding the prox
    output that became the next iterate.  etas has horizon+1 entries, the
    last one recorded for the bound calculators.
    """

    x: np.ndarray
    y: np.ndarray
    xhat: np.ndarray
    grads: np.ndarray
    etas: np.ndarray
    xbar: np.ndarray
    norm_kind: str
    seed: int = 0
    config_hash: str = ""

    @property
    def horizon(self):
        return self.x.shape[0] - 1

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def d(self):
        return self.x.shape[2]


def agent_states(trace, t):
    """Per-agent AgentState records for round t (1-based)."""
    if not 1 <= t <= trace.horizon:
        raise ValueError("round index out of range")
    return [AgentState(trace.x[t - 1, i], trace.y[t - 1, i], trace.xhat[t - 1, i])
            for i in range(trace.n)]


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
    at x[i].  Returns (y, xhat, x_next).
    """
    y = mix(weights, x)
    xhat = prox(geom, grads, y, eta)
    xnext = _apply_dynamics(geom, dyn, xhat)
    if not np.all(np.isfinite(xnext)):
        raise EngineError("iterates became non-finite")
    return y, xhat, xnext


def run(weights, geom, dyn, ens, path, schedule, horizon, mode="exact", seed=0,
        x0=None, config_hash=""):
    """Run the full loop for `horizon` rounds and record a trace.

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
    ys = np.empty((horizon, n, d))
    xhats = np.empty((horizon, n, d))
    grads = np.empty((horizon, n, d))
    xs[0] = x
    for t in range(1, horizon + 1):
        eta = schedule_eta(schedule, t)
        if mode == "exact":
            g = gradients_exact_batch(ens, t, x, path)
        else:
            g = gradients_stochastic_batch(ens, t, x, path, rng)
        y, xhat, x = step(x, weights, geom, dyn, g, eta)
        ys[t - 1], xhats[t - 1], grads[t - 1], xs[t] = y, xhat, g, x
    etas = schedule_etas(schedule, horizon)
    return RunTrace(xs, ys, xhats, grads, etas, xs.mean(axis=1), geom.norm_kind,
                    seed=seed, config_hash=config_hash)


def export_trace_csv(trace, out_dir, prefix=""):
    """Write iterates, gradients and step sizes, one row per (t, agent)."""
    import os

    comments = [f"config_hash={trace.config_hash}", f"seed={trace.seed}"]
    coord = [f"x{k + 1}" for k in range(trace.d)]
    rows = [[t + 1, i] + list(trace.x[t, i])
            for t in range(trace.horizon + 1) for i in range(trace.n)]
    csvio.write_csv(os.path.join(out_dir, prefix + "iterates.csv"),
                    ["t", "agent"] + coord, rows, comments)
    rows = [[t + 1, i] + list(trace.grads[t, i])
            for t in range(trace.horizon) for i in range(trace.n)]
    csvio.write_csv(os.path.join(out_dir, prefix + "gradients.csv"),
                    ["t", "agent"] + [f"g{k + 1}" for k in range(trace.d)], rows, comments)
    rows = [[t + 1, trace.etas[t]] for t in range(len(trace.etas))]
    csvio.write_csv(os.path.join(out_dir, prefix + "eta.csv"), ["t", "eta"], rows, comments)
