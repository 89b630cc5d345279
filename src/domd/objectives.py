"""Per-agent loss families and their gradient oracles.

Every family is one square or one linear term.  tracking_square gives each
agent a noisy scalar observation of one target coordinate, and its expected
loss is the square over a one-coordinate mask, (x_k - target_k)^2, plus the
observation noise floor.  synthetic_quadratic is the same square over every
coordinate, centered at the target plus zero-mean per-agent offsets, so the
network-average loss is minimized exactly at the target.  synthetic_linear
replays bounded linear losses.  The run-path functions tell the families
apart by the terms an ensemble carries (obs for the masked square and its
floor, per-round offsets, linear gradients), not by its kind.

Every stochastic oracle draws from a generator the caller owns, which
keeps runs reproducible.  The batch oracle takes that round's sample:
oracle_noise draws a block of rounds at a time from the generator, and
oracle_samples turns a block of tracking draws w into the observations
z = target_k + w, since z does not depend on the iterates; a round of the
tracking oracle is then only -(z - x_k) on the mask.

Two granularities coexist.  The scalar functions (loss_value,
gradient_exact, gradient_stochastic) evaluate one agent at one round; no
run calls them, and tests check the batch and whole-horizon functions
against them as the independent, readable reference.  The batch oracles
(gradients_exact_batch, gradients_stochastic_batch) evaluate every agent of
one round, and of every replicate at once when stack_replicates has given
the ensemble and path a leading replicate axis; network_losses evaluates
such a stack's iterates a block of rounds at a time, as the engine runs.
The whole-horizon functions
(global_loss_batch, agent_loss_batch, centers_outside_domain) take a
(T, m, d) stack whose row t-1 is evaluated under round t's loss, for
every round at once.  They walk the rounds in blocks of about
BLOCK_ELEMENTS elements, so their temporaries stay small next to the trace
they read, and they refuse paths or ensembles covering fewer than T rounds.

The block passes run agent-major: oracle_samples adds, and the square
losses subtract, each point's target one coordinate at a time, so every
ufunc call runs over the agents (or points) of one coordinate rather than
over the d coordinates of one agent.  Each entry is the same one add or
subtraction as the broadcast form, so the bits do not change.  The
tracking square's per-coordinate observer weights are computed once per
ensemble.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import MinimizerPath
from .geometry import diameter, inside

TRACKED_COORDS = 4

# Rounds per whole-horizon block are chosen so one block holds about this many
# (round, point, coordinate) elements.
BLOCK_ELEMENTS = 2 ** 16


def coordinate_groups(n, d=TRACKED_COORDS):
    """Assign agents to coordinates in near-equal contiguous groups.

    Leading groups absorb the remainder, e.g. n=25 -> sizes 7,6,6,6.
    """
    if n < d:
        raise ValueError(f"need at least {d} agents so every coordinate is observed")
    sizes = [n // d + (1 if k < n % d else 0) for k in range(d)]
    assignment = np.repeat(np.arange(d), sizes)
    return assignment


@dataclass(frozen=True)
class ObservationModel:
    """Which coordinate each agent sees, plus the observation noise support."""

    assignment: np.ndarray
    noise_low: float = -1.0
    noise_high: float = 1.0

    @property
    def noise_var(self):
        return (self.noise_high - self.noise_low) ** 2 / 12.0


@dataclass(frozen=True)
class LossEnsemble:
    """A family of per-agent losses f[i, t] plus its declared constants.

    lipschitz bounds the dual norm of every exact gradient on the domain;
    second_moment bounds E||stochastic gradient||_*^2.  innovation selects
    the tracking oracle's update direction: True replays the raw innovation
    -e_k (z - x_k), whose mean is half the exact gradient; False doubles it
    so the oracle is unbiased for the exact gradient.
    """

    kind: str
    n: int
    d: int
    lipschitz: float
    second_moment: float
    obs: ObservationModel = None
    offsets: np.ndarray = None
    gradients: np.ndarray = None
    noise_scale: float = 0.0
    innovation: bool = True

    @cached_property
    def _mask(self):
        """The tracking square's boolean (n, d) mask, computed once: row i is
        true exactly at the coordinate k_i that agent i observes."""
        mask = np.zeros((self.n, self.d), dtype=bool)
        mask[np.arange(self.n), self.obs.assignment] = True
        return mask

    @cached_property
    def _observers(self):
        """How many agents observe each coordinate, (d,) floats, computed once:
        the tracking square's network-average weight of coordinate k is
        _observers[k] / n."""
        return self._mask.sum(axis=0, dtype=float)


def tracking_ensemble(n, domain, noise_low=-1.0, noise_high=1.0, innovation=True):
    """Observation-driven square losses over a box domain."""
    if domain.kind != "box":
        raise ValueError("tracking losses are defined on a box domain")
    if noise_high < noise_low:
        raise ValueError("empty observation noise support")
    obs = ObservationModel(coordinate_groups(n, domain.d), noise_low, noise_high)
    span = float((domain.hi - domain.lo).max())
    lipschitz = 2.0 * span
    w_max = max(abs(noise_low), abs(noise_high))
    g = span + w_max
    if not innovation:
        g = 2.0 * g
    return LossEnsemble(
        "tracking_square", n, domain.d, lipschitz, g * g, obs=obs, innovation=innovation
    )


def synthetic_suite(seed, n, d, horizon, domain, kind="synthetic_quadratic",
                    offset_scale=0.2, noise_scale=0.0):
    """Seeded synthetic losses for bound verification.

    synthetic_quadratic: f[i,t](x) = ||x - c[i,t]||^2 with c[i,t] = target_t
    plus zero-mean offsets, so the average loss is minimized at the target.
    On a simplex domain the offsets also sum to zero across coordinates so
    the centers stay on the target's affine hull.  synthetic_linear:
    f[i,t](x) = <g[i,t], x> with dual norm at most one.

    noise_scale > 0 adds bounded uniform noise to the stochastic oracle.
    """
    rng = np.random.default_rng(seed)
    if kind == "synthetic_quadratic":
        offsets = rng.normal(scale=offset_scale, size=(horizon, n, d))
        if domain.kind == "simplex":
            offsets -= offsets.mean(axis=2, keepdims=True)
        offsets -= offsets.mean(axis=1, keepdims=True)
        if domain.kind == "simplex":
            lipschitz = 2.0 * diameter(domain, "linf")
            g = lipschitz + noise_scale
        else:
            lipschitz = 2.0 * diameter(domain, "l2")
            g = lipschitz + noise_scale * np.sqrt(d)
        return LossEnsemble(kind, n, d, lipschitz, g * g, offsets=offsets,
                            noise_scale=noise_scale)
    if kind == "synthetic_linear":
        if domain.kind == "simplex":
            grads = rng.uniform(-1.0, 1.0, size=(horizon, n, d))
            g = 1.0 + noise_scale
        else:
            raw = rng.standard_normal((horizon, n, d))
            norms = np.linalg.norm(raw, axis=2, keepdims=True)
            grads = raw / np.maximum(norms, 1.0)
            g = 1.0 + noise_scale * np.sqrt(d)
        return LossEnsemble(kind, n, d, 1.0, g * g, gradients=grads,
                            noise_scale=noise_scale)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def linear_ensemble(gradients, domain):
    """Linear losses from an explicit (horizon, n, d) gradient array, exact oracle."""
    gradients = np.asarray(gradients, dtype=float)
    if domain.kind == "simplex":
        worst = float(np.abs(gradients).max(axis=2).max())
    else:
        worst = float(np.linalg.norm(gradients, axis=2).max())
    _, n, d = gradients.shape
    return LossEnsemble("synthetic_linear", n, d, worst, worst * worst, gradients=gradients)


def _star(path, t):
    return path.states[..., t - 1, :]


def _centers(ens, path, t):
    """Round t's square centers, (..., n or 1, d): the target plus any offsets."""
    star = path.states[..., t - 1, None, :]
    return star if ens.offsets is None else star + ens.offsets[..., t - 1, :, :]


def loss_value(ens, i, t, x, path):
    x = np.asarray(x, dtype=float)
    if ens.kind == "tracking_square":
        k = ens.obs.assignment[i]
        gap = _star(path, t)[k] - x[k]
        return float(gap * gap + ens.obs.noise_var)
    if ens.kind == "synthetic_quadratic":
        diff = x - _centers(ens, path, t)[i]
        return float(diff @ diff)
    return float(ens.gradients[t - 1, i] @ x)


def gradient_exact(ens, i, t, x, path):
    x = np.asarray(x, dtype=float)
    if ens.kind == "tracking_square":
        k = ens.obs.assignment[i]
        g = np.zeros(ens.d)
        g[k] = 2.0 * (x[k] - _star(path, t)[k])
        return g
    if ens.kind == "synthetic_quadratic":
        return 2.0 * (x - _centers(ens, path, t)[i])
    return np.array(ens.gradients[t - 1, i])


def gradient_stochastic(ens, i, t, x, path, rng):
    """One stochastic gradient of f[i, t] at x, drawn from rng.

    tracking: draws z = target_k + w with w uniform on the observation
    support and returns -e_k (z - x_k), doubled when the ensemble is
    configured for an unbiased oracle.  synthetic: the exact gradient plus
    uniform noise of half-width noise_scale.
    """
    if ens.kind == "tracking_square":
        k = ens.obs.assignment[i]
        z = _star(path, t)[k] + rng.uniform(ens.obs.noise_low, ens.obs.noise_high)
        g = np.zeros(ens.d)
        g[k] = -(z - np.asarray(x, dtype=float)[k])
        if not ens.innovation:
            g[k] *= 2.0
        return g
    g = gradient_exact(ens, i, t, x, path)
    if ens.noise_scale > 0:
        g = g + rng.uniform(-ens.noise_scale, ens.noise_scale, ens.d)
    return g


def gradients_exact_batch(ens, t, x_all, path):
    """Exact gradients for every agent at once: x_all is (..., n, d).

    Leading axes are replicates; a stacked ensemble and path (see
    stack_replicates) supply each replicate's own targets, offsets or
    linear gradients.
    """
    if ens.gradients is not None:
        return np.array(ens.gradients[..., t - 1, :, :])
    g = 2.0 * (x_all - _centers(ens, path, t))
    return g if ens.obs is None else np.where(ens._mask, g, 0.0)


def gradients_stochastic_batch(ens, t, x_all, path, sample):
    """Noisy gradients for every agent, from one round of oracle_samples.

    sample is (..., n, d), with the same leading replicate axes as x_all:
    the observations z = target_k + w for tracking, the noise for a noisy
    synthetic oracle; None for a synthetic oracle without noise.
    """
    if ens.obs is None:
        g = gradients_exact_batch(ens, t, x_all, path)
        return g if sample is None else g + sample
    # -(z - x_k), not x_k - z: at z == x_k it is -0.0, as in gradient_stochastic
    step = np.subtract(sample, x_all)
    np.negative(step, out=step)
    if not ens.innovation:
        step *= 2.0
    return np.where(ens._mask, step, 0.0)


def oracle_noise(ens, rng, rounds):
    """The stochastic oracle's draws for `rounds` consecutive rounds.

    Row k is one round: (n,) observation noise for tracking, (n, d) for a
    noisy synthetic oracle; None when the oracle draws nothing.  A block
    consumes rng exactly as drawing its rows one round at a time would.
    """
    if ens.obs is not None:
        return rng.uniform(ens.obs.noise_low, ens.obs.noise_high, (rounds, ens.n))
    if ens.noise_scale > 0:
        return rng.uniform(-ens.noise_scale, ens.noise_scale, (rounds, ens.n, ens.d))
    return None


def oracle_samples(ens, stars, noise):
    """What gradients_stochastic_batch reads, from rows of oracle_noise draws.

    For tracking, the observations z = target_k + w of every agent at every
    coordinate k, (..., n, d), from each row's target stars (..., d) and its
    draws noise (..., n); the oracle's mask picks each agent's own k.  A
    synthetic oracle's noise (or None) is its sample as drawn.
    """
    if ens.obs is None:
        return noise
    # one coordinate at a time, so each add runs over the agents, not the d
    # coordinates; every entry is the same one add as the broadcast
    # stars[..., None, :] + noise[..., None]
    z = np.empty(noise.shape + (ens.d,))
    for k in range(ens.d):
        np.add(stars[..., k, None], noise, out=z[..., k])
    return z


def _stacked(arrays, rounds):
    # a read-only view when every replicate shares one array (always for R = 1)
    first = arrays[0][:rounds]
    if all(a is arrays[0] for a in arrays):
        return np.broadcast_to(first, (len(arrays),) + first.shape)
    return np.stack([a[:rounds] for a in arrays])


def _per_round(ens, rounds):
    """The per-round arrays ens carries (offsets, gradients) by name, each
    checked to cover `rounds` rounds."""
    arrays = {}
    for name in ("offsets", "gradients"):
        if getattr(ens, name) is not None:
            arrays[name] = getattr(ens, name)
            check_rounds(f"ens.{name}", arrays[name], rounds)
    return arrays


def stack_shape(ens):
    """What replicates stacked into one ensemble must share: the loss family,
    agent count, dimension, oracle shape and observation noise support,
    which the stacked ensemble takes from its first replicate."""
    support = None if ens.obs is None else (ens.obs.noise_low, ens.obs.noise_high)
    return ens.kind, ens.n, ens.d, ens.innovation, ens.noise_scale > 0, support


def stack_replicates(ensembles, paths, rounds):
    """One ensemble and one path for R replicates, covering `rounds` rounds.

    Their per-round arrays (path states, quadratic offsets, linear
    gradients) gain a leading replicate axis, which the batch
    oracles and network_losses broadcast over.  Replicates must share their
    stack_shape; raises ValueError otherwise, or when a path or ensemble
    covers fewer than `rounds` rounds.
    """
    first = ensembles[0]
    if any(stack_shape(e) != stack_shape(first) for e in ensembles):
        raise ValueError("replicates must share the loss family, agent count, "
                         "dimension, oracle and observation noise")
    for p in paths:
        check_rounds("path.states", p.states, rounds)
    arrays = [_per_round(e, rounds) for e in ensembles]
    changes = {name: _stacked([a[name] for a in arrays], rounds) for name in arrays[0]}
    path = MinimizerPath(_stacked([p.states for p in paths], rounds))
    return replace(first, **changes), path


def check_rounds(what, array, rounds):
    """Raise ValueError unless array has a row for each of `rounds` rounds.

    Slicing [:rounds] of a shorter array would silently shrink it, and a
    length-1 slice would then broadcast across every round.
    """
    if array.shape[0] < rounds:
        raise ValueError(f"{what} covers {array.shape[0]} rounds, shorter than "
                         f"the {rounds} rounds evaluated")


def _round_blocks(horizon, width):
    """Consecutive round slices of about BLOCK_ELEMENTS / width rounds each."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(lo, min(lo + step, horizon)) for lo in range(0, horizon, step)]


def _minus_targets(x, stars):
    """x - stars[..., None, :] for x (..., m, d) and stars (..., d), bit for bit.

    It subtracts one coordinate at a time, so each call runs over the
    points, not over the d coordinates.
    """
    out = np.empty(x.shape)
    for k in range(x.shape[-1]):
        np.subtract(x[..., k], stars[..., k, None], out=out[..., k])
    return out


def _global_block(ens, rounds, stars, x):
    """Network-average loss of one round block: x is (..., B, m, d), stars (..., B, d).

    Leading axes are replicates of a stacked ensemble and path; every point's
    loss takes the same operations in the same order with or without them.
    """
    if ens.gradients is not None:
        mean_g = ens.gradients[..., rounds, :, :].mean(axis=-2)
        return np.matmul(x, mean_g[..., None])[..., 0]
    sq = _minus_targets(x, stars)
    np.square(sq, out=sq)
    if ens.obs is not None:  # coordinate k weighted by how many agents observe it
        return sq @ ens._observers / ens.n + ens.obs.noise_var
    spread = np.square(ens.offsets[..., rounds, :, :]).sum(axis=-1).mean(axis=-1)
    return sq.sum(axis=-1) + spread[..., None]


def _agent_block(ens, rounds, stars, x):
    """Per-agent losses of one round block: row i of x[b] is agent i's point."""
    if ens.gradients is not None:
        return np.einsum("bnd,bnd->bn", ens.gradients[rounds], x)
    centers = stars[:, None, :]
    sq = x - (centers if ens.offsets is None else centers + ens.offsets[rounds])
    np.square(sq, out=sq)
    return sq.sum(axis=2) if ens.obs is None else sq[:, ens._mask] + ens.obs.noise_var


def _evaluate(block, ens, path, x):
    """Apply a block kernel to rounds 1 .. T of a (T, m, d) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != ens.d:
        raise ValueError(f"expected a (T, m, {ens.d}) stack, got shape {x.shape}")
    horizon, m, _ = x.shape
    check_rounds("path.states", path.states, horizon)
    _per_round(ens, horizon)
    out = np.empty((horizon, m))
    for rounds in _round_blocks(horizon, max(m, ens.n) * ens.d):
        out[rounds] = block(ens, rounds, path.states[rounds], x[rounds])
    return out


def global_loss_batch(ens, path, x):
    """Network-average loss f_t at every row of x[t-1], for t = 1 .. T.

    x is a (T, m, d) stack (a broadcast view is fine); returns (T, m).
    Evaluated in round blocks of about BLOCK_ELEMENTS elements; raises
    ValueError when path.states or the ensemble covers fewer than T rounds.
    """
    return _evaluate(_global_block, ens, path, x)


def network_losses(ens, path, rounds, x):
    """Network-average loss of every agent's iterate over one block of rounds.

    x is (..., B, n, d), row b of it under round rounds.start + b + 1, with
    the leading replicate axes of a stacked ensemble and path (see
    stack_replicates); returns the (..., B) agent means, bit-equal to
    global_loss_batch(...).mean(axis=1) of each replicate's rows.
    """
    return _global_block(ens, rounds, path.states[..., rounds, :], x).mean(axis=-1)


def agent_loss_batch(ens, path, x):
    """Per-agent losses f[i,t](x[t-1, i]) for t = 1 .. T: (T, n, d) -> (T, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != ens.n:
        raise ValueError(f"expected one row per agent ({ens.n}), got shape {x.shape}")
    return _evaluate(_agent_block, ens, path, x)


def centers_outside_domain(ens, path, domain):
    """Count quadratic centers c[i,t], t = 1 .. path.horizon, outside the domain.

    Should be 0 for valid suites; always 0 for ensembles without offsets.
    """
    if ens.offsets is None:
        return 0
    horizon = path.horizon
    check_rounds("ens.offsets", ens.offsets, horizon)
    bad = 0
    for rounds in _round_blocks(horizon, ens.n * ens.d):
        centers = path.states[rounds, None, :] + ens.offsets[rounds]
        bad += int(np.count_nonzero(~inside(domain, centers)))
    return bad

