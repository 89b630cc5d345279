"""Synchronous decentralized mirror descent loop.

Each round t every agent, holding iterate x[i,t]:
  1. queries its gradient oracle at x[i,t],
  2. mixes neighbor iterates into an anchor y[i,t] = sum_j w[i][j] x[j,t],
  3. takes a prox step from the anchor against its gradient,
  4. pushes the prox output through the known dynamics to get x[i,t+1];
     for A = I (dynamics.LinearDynamics.is_identity) there is no push, and
     the prox output, which already lies in its domain, is x[i,t+1].

Gradients are always evaluated at the pre-mixing iterates; the loop hands
iterates to the oracle before the consensus step so the two cannot be
swapped by accident.

Step sizes are an array of eta_1 .. eta_{T+1}: the loop uses the first T,
and the bound calculators read the last one from the trace.  When every
replicate of a batch shares its schedule (always at R = 1; checked once
per run), a round hands step and prox its step as one Python float, so
prox checks one number and scales by a scalar; replicates whose schedules
differ get that round's (R, 1, 1) column.  Both give the same bits.

run advances R replicates of one network, domain (the geometry: its kind
picks the prox), horizon and oracle mode, each with its own losses, target
path, step sizes, oracle seed and dynamics, through one loop over a
(R, n, d) state, R = 1 included.  Each replicate's iterates are
bit-identical to a run of that replicate alone: every operation is
elementwise or row-wise per replicate, mixing is one matrix product per
replicate or, above network.DENSE_MIX_MAX_NODES agents, a neighbour sum
whose terms are added in the same order for every replicate, and every
decision on a whole array (floor projection passes, domain repair) is
taken per replicate; a test of the whole batch only skips work that no
replicate would do.  Every product with A reads LinearDynamics.a_t, the
C-contiguous A.T.  Replicates that share one A (always at R = 1) take the
push a lone run takes: none for A = I, else one product with a_t.  When
their A differ, which replicates move is decided once per run, and a
round pushes only those, in one stacked np.matmul whose slab for a
replicate is its lone product; an identity replicate is never multiplied
and keeps its prox output's bits, signed zeros included.  Whether a round
checks its new iterates for finiteness is decided once per run too
(_checks_iterates): not on a box whose push cannot overflow.

The loop walks the rounds in blocks (objectives._round_blocks, about
BLOCK_ELEMENTS (replicate, agent, coordinate) elements across the batch),
and every oracle reads inputs prepared once per block, none of which
depend on the iterates.  A square oracle's centers (target plus offsets)
are one stacked add into a round-major (B, R, n, d) array (see
objectives._centers); a linear oracle reads its own gradients and the
stochastic tracking oracle only its samples.
In stochastic mode each replicate's generator draws a block's oracle noise
at once, and the block's oracle samples are built from it one coordinate
at a time (see _oracle_samples): for tracking the observations
z = target + w, (n, d) a round.  A round then pays only for its arithmetic
and the checks on its own data: the oracle at the iterates, mix, prox with
its step, anchor and gradient checks, the dynamics push (none for A = I)
and, where the run could not rule it out, the finiteness of the new
iterates.

Once a block has its iterates, one network_losses call folds them into
their rounds' network-average losses for every replicate.  Without
keep_iterates the iterates live only in that one-block buffer, so a batch
holds its losses and not its (R, T+1, n, d) trace.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import LinearDynamics
from .geometry import (DOMAIN_TOL, Domain, box_row_images, contains, inside,
                       project_floored_simplex, prox, start_point)
from .network import mix
from .objectives import (_centers, _round_blocks, gradients_exact_batch,
                         gradients_stochastic_batch, network_losses, oracle_noise,
                         oracle_samples, stack_replicates)


class EngineError(RuntimeError):
    """Raised when iterates or gradients stop being finite or iterates leave
    the domain.  An error of one agent keeps what went wrong, its replicate
    and its agent, and names the replicate as name, by default "replicate r"."""

    def __init__(self, what, replicate=None, agent=None, name=None):
        super().__init__(what if agent is None else
                         f"{what} ({name or f'replicate {replicate}'}, agent {agent})")
        self.what, self.replicate, self.agent = what, replicate, agent


@dataclass(frozen=True)
class RunTrace:
    """The iterates of a batch of runs, their step sizes and their per-round losses.

    x is (R, horizon+1, n, d), row s of x[r] replicate r's iterate at time
    s+1, or None when the run kept no iterates; etas is (R, horizon+1), the
    last column for the bound calculators; domain is the run's; losses is
    (R, horizon), entry t-1 of losses[r] the network-average f_t at
    replicate r's iterates of time t, bit-equal to metrics.iterate_losses of
    trace[r].  trace[r] is replicate r's trace as views; horizon reads
    etas, n and d read x.  Anchors and prox outputs are recomputed from x.
    """

    x: np.ndarray
    etas: np.ndarray
    domain: Domain
    losses: np.ndarray = None

    def __getitem__(self, r):
        return RunTrace(None if self.x is None else self.x[r], self.etas[r], self.domain,
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


def init_state(n, domain, x0=None):
    """Common starting iterate of n agents: x0, or geometry.start_point(domain)."""
    x0 = start_point(domain) if x0 is None else np.asarray(x0, dtype=float)
    if not contains(domain, x0):
        raise EngineError("initial iterate lies outside the domain")
    return np.tile(x0, (n, 1))


@dataclass(frozen=True)
class _MixedPush:
    """The push of a batch whose replicates differ in A, decided once per run.

    moving indexes the replicates whose A is not the identity, as a slice
    when they are consecutive; a_t is their LinearDynamics.a_t stacked
    C-contiguous (M, d, d), so a replicate's slab of one np.matmul is the
    product its run alone takes."""

    moving: object
    a_t: np.ndarray
    is_identity = False


def _batch_dynamics(dyn, count):
    """The dynamics of a batch of count replicates: dyn itself when it is one
    LinearDynamics or a _MixedPush, the shared one when every entry of a
    per-replicate sequence has the same A bits or every A is the identity,
    else their _MixedPush."""
    if isinstance(dyn, (LinearDynamics, _MixedPush)):
        return dyn
    dyns = list(dyn)
    if len(dyns) != count:
        raise ValueError(f"need one dynamics per replicate: {count} replicates, "
                         f"{len(dyns)} dynamics")
    first = dyns[0].a
    if all(d.a.shape == first.shape and d.a.tobytes() == first.tobytes() for d in dyns):
        return dyns[0]
    moving = [r for r, d in enumerate(dyns) if not d.is_identity]
    if not moving:
        return dyns[0]
    a_t = np.stack([dyns[r].a_t for r in moving])
    if moving[-1] - moving[0] == len(moving) - 1:  # consecutive: a view, not a gathered copy
        return _MixedPush(slice(moving[0], moving[-1] + 1), a_t)
    return _MixedPush(np.array(moving), a_t)


def _repaired(domain, xnext):
    """xnext with every replicate (the last two axes) that the push took off
    the floored simplex projected back as a whole, as it would be alone.

    A replicate is off when its least coordinate or its largest row-sum
    error, the sums bit-equal to geometry.inside's, fails its tolerance; a
    NaN propagates through the reductions and fails."""
    if domain.kind == "box" or contains(domain, xnext):
        return xnext
    least = np.minimum.reduce(xnext, axis=(-2, -1))
    error = np.maximum.reduce(np.abs(np.add.reduce(xnext, axis=-1) - 1.0), axis=-1)
    off = ~((least >= domain.floor - DOMAIN_TOL) & (error <= domain.d * DOMAIN_TOL))
    xnext[off] = project_floored_simplex(xnext[off], domain.floor)
    return xnext


def _apply_dynamics(domain, dyn, xhat):
    if dyn.is_identity:
        return xhat
    if isinstance(dyn, LinearDynamics):
        return _repaired(domain, xhat @ dyn.a_t)
    # identity replicates keep their prox output, signed zeros included
    xhat[dyn.moving] = _repaired(domain, np.matmul(xhat[dyn.moving], dyn.a_t))
    return xhat


# a push whose every partial sum stays within this cannot round up to inf
_REACH_LIMIT = np.finfo(float).max / 4


def _checks_iterates(domain, dyn):
    """Whether a round of a run on domain with the batch dynamics dyn must
    check its new iterates for finiteness; decided once per run.

    On a box with finite limits a prox step that returns gives finite points
    in the box: its anchor, gradient and step passed prox's checks, so
    y - eta g is finite or infinite, never NaN, and the clip maps it into
    [lo, hi].  An identity replicate keeps that point; a pushed one stays
    finite when every row's reach (geometry.box_row_images) is within a
    quarter of the float range, which leaves room for the product's
    rounding.  A simplex, or a push that may overflow, keeps the check."""
    if domain.kind != "box" or not (np.isfinite(domain.lo).all() and np.isfinite(domain.hi).all()):
        return True
    if dyn.is_identity:
        return False
    a = dyn.a if isinstance(dyn, LinearDynamics) else dyn.a_t.swapaxes(-1, -2)
    return not (box_row_images(a, domain.lo, domain.hi)[2] <= _REACH_LIMIT).all()


def step(x, weights, domain, dyn, grads, eta):
    """One synchronous round for all agents.

    x and grads are stacked (n, d) arrays, or (R, n, d) replicate stacks
    with eta one float shared by every replicate or an array of shape
    (R, 1, 1); grads[..., i, :] must be the oracle value at x[..., i, :].
    dyn is the LinearDynamics of every replicate or, for a stack, a
    sequence of one per replicate.  Returns the next iterate: the mixed
    anchor's prox output pushed through the dynamics.
    """
    xhat = prox(domain, grads, mix(weights, x), eta)
    return _apply_dynamics(domain, _batch_dynamics(dyn, len(xhat)), xhat)


def _first_bad(bad, t, what):
    """EngineError naming round t and the (replicate, agent) of the first True in bad."""
    replicate, agent = np.argwhere(bad)[0].tolist()
    return EngineError(f"{what} in round {t}", replicate, agent)


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
    stars = path[:, rounds].swapaxes(0, 1)  # (B, R, d)
    return oracle_samples(ens, stars, np.stack(noises, axis=1))


def run(weights, domain, dyn, replicates, horizon, mode="exact", x0=None, keep_iterates=True):
    """Run R replicates through one loop for `horizon` rounds; returns their RunTrace.

    replicates is a sequence of (ens, path, etas, seed), etas holding the
    positive finite step sizes eta_1 .. eta_{horizon+1}; they share the network,
    domain, horizon, oracle mode and start x0, and their ensembles must
    share their stack_shape (see stack_replicates).  dyn is the
    LinearDynamics of every replicate, or a sequence of one per replicate,
    which may differ (see the module docstring).  mode
    selects the oracle: "exact" queries analytic gradients, "stochastic"
    queries the noisy oracle exactly once per agent per round, replicate r
    from a generator seeded with its seed.  The trace always carries the
    per-round losses; keep_iterates=False drops its iterates (x is None).
    Identical arguments produce identical traces, and trace[r] is
    bit-identical to a run of replicates[r] alone.  Iterates or gradients
    that turn non-finite, or iterates that mix into anchors outside the
    domain, raise EngineError naming the round, replicate and agent.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if mode not in ("exact", "stochastic"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    if not replicates:
        raise ValueError("need at least one replicate")
    ensembles, paths, etas, seeds = zip(*replicates)
    for r, eta in enumerate(map(np.asarray, etas)):
        shaped = eta.shape == (horizon + 1,)
        good = shaped and (eta > 0) & np.isfinite(eta)
        if not np.all(good):  # name the first bad step, or the wrong shape
            t = int(np.argmin(good))
            got = f"eta_{t + 1} = {float(eta[t])!r}" if shaped else f"shape {eta.shape}"
            raise ValueError(f"replicate {r}: step sizes must be {horizon + 1} positive finite "
                             f"values eta_1 .. eta_(T+1), got {got}")
    etas = np.array(etas, dtype=float)
    ens, path = stack_replicates(ensembles, paths, horizon)
    count, n, d = len(replicates), weights.n, domain.d
    dyn = _batch_dynamics(dyn, count)  # which replicates move, decided once
    finite_check = _checks_iterates(domain, dyn)  # and whether iterates may stop being finite
    # steps[t - 1]: one float when the schedule is shared, else an (R, 1, 1) column
    steps = etas[0].tolist() if (etas == etas[0]).all() else etas.T[:, :, None, None]
    # a block's iterates, square centers and in stochastic mode oracle samples
    blocks = _round_blocks(horizon, count * n * d)
    # every iterate, or only one block's: row s of the run is row s % rows
    rows = horizon + 1 if keep_iterates or not blocks else blocks[0].stop
    xs = np.empty((count, rows, n, d))
    xs[:, 0] = init_state(n, domain, x0)
    x = xs[:, 0]
    losses = np.empty((count, horizon))
    rngs = [np.random.default_rng(seed) for seed in seeds] if mode == "stochastic" else None
    # linear losses and the stochastic tracking oracle read no square centers
    squares = ens.gradients is None and (rngs is None or ens.mask is None)
    for block in blocks:
        centers = _centers(ens, path, block) if squares else itertools.repeat(None)
        samples = (itertools.repeat(None) if rngs is None
                   else _oracle_samples(ens, path, ensembles, rngs, block))
        for t, center, sample in zip(range(block.start + 1, block.stop + 1), centers, samples):
            if mode == "exact":
                g = gradients_exact_batch(ens, t, x, center)
            else:
                g = gradients_stochastic_batch(ens, t, x, center, sample)
            try:
                x = step(x, weights, domain, dyn, g, steps[t - 1])
            except ValueError:
                anchors = mix(weights, x)
                if not contains(domain, anchors):
                    raise _first_bad(~inside(domain, anchors), t, "mixed anchors left the domain")
                bad = ~np.isfinite(g).all(axis=-1)
                if bad.any():
                    raise _first_bad(bad, t, "gradients became non-finite")
                raise
            if finite_check and not np.logical_and.reduce(np.isfinite(x), axis=None):
                raise _first_bad(~np.isfinite(x).all(axis=-1), t, "iterates became non-finite")
            if t == block.stop:  # fold rounds block.start+1 .. t before row t lands
                lo = block.start % rows
                losses[:, block] = network_losses(ens, path, block, xs[:, lo:lo + t - block.start])
            xs[:, t % rows] = x
    return RunTrace(xs if keep_iterates else None, etas, domain, losses)
