"""Synchronous decentralized mirror descent loop.

Each round t every agent, holding iterate x[i,t]:
  1. queries its gradient oracle at x[i,t],
  2. mixes neighbor iterates into an anchor y[i,t] = sum_j w[i][j] x[j,t],
  3. takes a prox step from the anchor against its gradient,
  4. pushes the prox output through the known dynamics to get x[i,t+1].

Gradients are always evaluated at the pre-mixing iterates; the loop hands
iterates to the oracle before the consensus step so the two cannot be
swapped by accident.

Step sizes are an array of eta_1 .. eta_{T+1}: the loop uses the first T,
and the bound calculators read the last one from the trace.  When every
replicate of a batch shares its schedule (always at R = 1; checked once
per run), a round hands step and prox its step as one Python float, so
prox checks one number and scales by a scalar; replicates whose schedules
differ get that round's (R, 1, 1) column.  Both give the same bits.

run advances R replicates of one network, geometry and dynamics (each with
its own losses, target path, step sizes and oracle seed) through one loop
over a (R, n, d) state, R = 1 included.  Each replicate's iterates are
bit-identical to a run of that replicate alone: every operation is
elementwise or row-wise per replicate, mixing is one matrix product per
replicate or, above network.DENSE_MIX_MAX_NODES agents, a neighbour sum
whose terms are added in the same order for every replicate, and every
decision on a whole array (floor projection passes, domain repair) is
taken per replicate; a test of the whole batch only skips work that no
replicate would do.

The loop walks the rounds in blocks (objectives._round_blocks, about
BLOCK_ELEMENTS (replicate, agent, coordinate) elements across the batch).
In stochastic mode each replicate's generator draws a block's oracle noise
at once, and the block's oracle samples are built from it one coordinate
at a time (see _oracle_samples): for tracking the observations
z = target + w, (n, d) a round, which do not depend on the iterates.  A
round then pays only for its arithmetic and the checks on its own data:
the oracle at the iterates, mix, prox with its step, anchor and gradient
checks, the dynamics push and the finiteness of the new iterates.

Once a block has its iterates, one network_losses call folds them into
their rounds' network-average losses for every replicate.  Without
keep_iterates the iterates live only in that one-block buffer, so a batch
holds its losses and not its (R, T+1, n, d) trace.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import contains, inside, project_floored_simplex, prox
from .network import mix
from .objectives import (_round_blocks, gradients_exact_batch, gradients_stochastic_batch,
                         network_losses, oracle_noise, oracle_samples, stack_replicates)


class EngineError(RuntimeError):
    """Raised when iterates stop being finite or leave the domain."""


@dataclass(frozen=True)
class RunTrace:
    """The iterates of a batch of runs, their step sizes and their per-round losses.

    x is (R, horizon+1, n, d), row s of x[r] replicate r's iterate at time
    s+1, or None when the run kept no iterates; etas is (R, horizon+1), the
    last column for the bound calculators; losses is (R, horizon), entry
    t-1 of losses[r] the network-average f_t at replicate r's iterates of
    time t, bit-equal to metrics.iterate_losses of trace[r].  trace[r] is
    replicate r's trace as views; horizon reads etas, n and d read x.
    Anchors and prox outputs are recomputed from x, not kept.
    """

    x: np.ndarray
    etas: np.ndarray
    norm_kind: str
    losses: np.ndarray = None

    def __getitem__(self, r):
        return RunTrace(None if self.x is None else self.x[r], self.etas[r], self.norm_kind,
                        None if self.losses is None else self.losses[r])

    @property
    def horizon(self):
        return self.etas.shape[-1] - 1

    @property
    def n(self):
        return self.x.shape[-2]

    @property
    def d(self):
        return self.x.shape[-1]


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
    if geom.kind == "euclidean" or contains(geom.domain, xnext):
        return xnext
    # the dynamics pushed iterates off the floored simplex; a replicate
    # (the last two axes) is repaired as a whole, as it would be alone
    off = ~inside(geom.domain, xnext).all(axis=-1)
    xnext[off] = project_floored_simplex(xnext[off], geom.domain.floor)
    return xnext


def step(x, weights, geom, dyn, grads, eta):
    """One synchronous round for all agents.

    x and grads are stacked (n, d) arrays, or (R, n, d) replicate stacks
    with eta one float shared by every replicate or an array of shape
    (R, 1, 1); grads[..., i, :] must be the oracle value at x[..., i, :].
    Returns the next iterate: the mixed anchor's prox output pushed through
    the dynamics.
    """
    xhat = prox(geom, grads, mix(weights, x), eta)
    return _apply_dynamics(geom, dyn, xhat)


def _non_finite(x, t):
    """EngineError naming the round, replicate and agent of x's first non-finite iterate."""
    replicate, agent = np.argwhere(~np.isfinite(x).all(axis=-1))[0]
    return EngineError(f"iterates became non-finite in round {t} "
                       f"(replicate {replicate}, agent {agent})")


def _oracle_samples(ens, path, ensembles, rngs, rounds):
    """The oracle samples of a block of rounds for every replicate, round-major.

    Replicate r draws the block's oracle_noise rows from rngs[r] at once,
    which consumes its stream exactly as one draw per round would.  Returns
    their oracle_samples stacked (B, R, ...), so a round reads one
    contiguous (R, n, d) row, or B Nones when the oracle draws nothing.
    """
    size = rounds.stop - rounds.start
    noises = [oracle_noise(e, rng, size) for e, rng in zip(ensembles, rngs)]
    if noises[0] is None:
        return [None] * size
    stars = path.states[:, rounds].swapaxes(0, 1)  # (B, R, d)
    return oracle_samples(ens, stars, np.stack(noises, axis=1))


def run(weights, geom, dyn, replicates, horizon, mode="exact", x0=None, keep_iterates=True):
    """Run R replicates through one loop for `horizon` rounds; returns their RunTrace.

    replicates is a sequence of (ens, path, etas, seed), etas holding the
    positive finite step sizes eta_1 .. eta_{horizon+1}; they share the network,
    geometry, dynamics, horizon, oracle mode and start x0, and their
    ensembles must share their stack_shape (see stack_replicates).  mode
    selects the oracle: "exact" queries analytic gradients, "stochastic"
    queries the noisy oracle exactly once per agent per round, replicate r
    from a generator seeded with its seed.  The trace always carries the
    per-round losses; keep_iterates=False drops its iterates (x is None).
    Identical arguments produce identical traces, and trace[r] is
    bit-identical to a run of replicates[r] alone.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if mode not in ("exact", "stochastic"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    if not replicates:
        raise ValueError("need at least one replicate")
    ensembles, paths, etas, seeds = zip(*replicates)
    for r, eta in enumerate(etas):
        if np.shape(eta) != (horizon + 1,) or not np.all((np.asarray(eta) > 0) & np.isfinite(eta)):
            raise ValueError(f"replicate {r}: step sizes must be {horizon + 1} positive finite "
                             f"values eta_1 .. eta_(T+1), got shape {np.shape(eta)}")
    etas = np.array(etas, dtype=float)
    ens, path = stack_replicates(ensembles, paths, horizon)
    count, n, d = len(replicates), weights.n, geom.domain.d
    # steps[t - 1]: one float when the schedule is shared, else an (R, 1, 1) column
    steps = etas[0].tolist() if (etas == etas[0]).all() else etas.T[:, :, None, None]
    # a block's iterates, and in stochastic mode its (B, R, n, d) oracle samples
    blocks = _round_blocks(horizon, count * n * d)
    # every iterate, or only one block's: row s of the run is row s % rows
    rows = horizon + 1 if keep_iterates or not blocks else blocks[0].stop
    xs = np.empty((count, rows, n, d))
    xs[:, 0] = init_state(n, geom, x0)
    x = xs[:, 0]
    losses = np.empty((count, horizon))
    rngs = [np.random.default_rng(seed) for seed in seeds] if mode == "stochastic" else None
    for block in blocks:
        samples = (itertools.repeat(None) if rngs is None
                   else _oracle_samples(ens, path, ensembles, rngs, block))
        for t, sample in zip(range(block.start + 1, block.stop + 1), samples):
            if mode == "exact":
                g = gradients_exact_batch(ens, t, x, path)
            else:
                g = gradients_stochastic_batch(ens, t, x, path, sample)
            x = step(x, weights, geom, dyn, g, steps[t - 1])
            if not np.logical_and.reduce(np.isfinite(x), axis=None):
                raise _non_finite(x, t)
            if t == block.stop:  # fold rounds block.start+1 .. t before row t lands
                lo = block.start % rows
                losses[:, block] = network_losses(ens, path, block, xs[:, lo:lo + t - block.start])
            xs[:, t % rows] = x
    return RunTrace(xs if keep_iterates else None, etas, geom.norm_kind, losses)
