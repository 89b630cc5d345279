"""Per-agent loss ensembles and their gradient oracles.

An ensemble is its terms; every loss is one square or one linear term.  A
mask, (n, d) bools, restricts agent i's square to the coordinates of row i;
offsets, (T, n, d), move its centre off the round's target; gradients,
(T, n, d), make the loss linear, <g[i,t], x>; noise is the uniform support
(low, high) the stochastic oracle draws from, or None when it draws nothing.
tracking_ensemble masks agent i to the one coordinate k_i it observes
through noise w uniform on that support: its expected loss is
(x_k - target_k)^2 plus the noise variance (high - low)^2 / 12, the
ensemble's floor.  synthetic_suite gives every agent the whole square about
the target plus zero-mean offsets, so the network-average loss is minimized
exactly at the target, or bounded linear losses; a noisy synthetic oracle
adds noise on (-s, s) to the exact gradient.  Every function tells the
losses apart by these terms alone.

Every stochastic oracle draws from a generator the caller owns, which
keeps runs reproducible.  oracle_noise draws a block of rounds at a time,
and oracle_samples turns a block of tracking draws w into the observations
z = target_k + w, which do not depend on the iterates; a round of the
tracking oracle is then only -(z - x_k) on the mask.

The scalar functions (loss_value, gradient_exact, gradient_stochastic)
evaluate one agent at one round; no run calls them, and tests check the
other functions against them as the readable reference.  The batch
oracles (gradients_exact_batch, gradients_stochastic_batch) evaluate every
agent of one round, and of every replicate at once when stack_replicates
has given the ensemble and path a leading replicate axis.  They read the
round's row of inputs prepared once per block of rounds: the square
centers (_centers, target plus offsets) and, in stochastic mode, the
oracle_samples; a round then forms neither.  network_losses
evaluates such a stack's iterates a block of rounds at a time, as the
engine runs.  The whole-horizon functions (global_loss_batch,
agent_loss_batch, centers_outside_domain) take a (T, m, d) stack whose row
t-1 is evaluated under round t's loss.  They walk the rounds in blocks of
about BLOCK_ELEMENTS elements, so their temporaries stay small next to the
trace they read, and they refuse paths or ensembles covering fewer than T
rounds.

The block passes run agent-major: oracle_samples adds, and the square
losses subtract, each point's target one coordinate at a time, so every
ufunc call runs over the agents (or points) of one coordinate.  Each entry
is the same one add or subtraction as the broadcast form, so the bits do
not change.  The mask's per-coordinate observer counts are computed once
per ensemble.  Sums and means over the coordinates or the agents of a whole
horizon or a round block take geometry's _reduce_last and _sum_slices: one
call per coordinate or agent, left to right, bit-equal to numpy's reduce,
which runs one short call per row and sums pairwise from 8 entries on
(where the helpers take it); centers_outside_domain tests a block's
membership with geometry's inside, one comparison per coordinate.
Per-round code keeps single reduce calls (prox, contains, mix, the
engine's finiteness check where a run keeps it, and its simplex repair):
on a round's few dozen rows one call is cheaper than one per slice.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import _reduce_last, _sum_slices, dual_diameter, dual_norm_of, inside

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
    return np.repeat(np.arange(d), sizes)


@dataclass(frozen=True)
class LossEnsemble:
    """Per-agent losses f[i, t], as their terms, plus their declared constants.

    mask, offsets, gradients and noise are the terms of the module
    docstring; an absent term is None.  lipschitz bounds the dual norm of
    every exact gradient on the domain; second_moment bounds
    E||stochastic gradient||_*^2.  innovation selects the tracking oracle's
    update direction: True replays the raw innovation -e_k (z - x_k), whose
    mean is half the exact gradient; False doubles it so the oracle is
    unbiased for the exact gradient.
    """

    n: int
    d: int
    lipschitz: float
    second_moment: float
    mask: np.ndarray = None
    offsets: np.ndarray = None
    gradients: np.ndarray = None
    noise: tuple = None
    innovation: bool = True

    @property
    def floor(self):
        """The tracking square's constant term: the variance of its noise."""
        low, high = self.noise
        return (high - low) ** 2 / 12.0

    @cached_property
    def _observers(self):
        """(d,) counts of the agents observing each coordinate, computed once."""
        return self.mask.sum(axis=0, dtype=float)


def tracking_ensemble(n, domain, noise_low=-1.0, noise_high=1.0, innovation=True):
    """Observation-driven square losses over a box domain."""
    if domain.kind != "box":
        raise ValueError("tracking losses are defined on a box domain")
    if noise_high < noise_low:
        raise ValueError("empty observation noise support")
    mask = np.zeros((n, domain.d), dtype=bool)
    mask[np.arange(n), coordinate_groups(n, domain.d)] = True
    span = float((domain.hi - domain.lo).max())
    g = (span + max(abs(noise_low), abs(noise_high))) * (1.0 if innovation else 2.0)
    return LossEnsemble(n, domain.d, 2.0 * span, g * g, mask=mask,
                        noise=(noise_low, noise_high), innovation=innovation)


def synthetic_suite(seed, n, d, horizon, domain, kind="synthetic_quadratic",
                    offset_scale=0.2, noise_scale=0.0):
    """Seeded synthetic losses for bound verification.

    synthetic_quadratic: f[i,t](x) = ||x - c[i,t]||^2 with c[i,t] = target_t
    plus zero-mean offsets, so the average loss is minimized at the target.
    On a simplex domain the offsets also sum to zero across coordinates so
    the centers stay on the target's affine hull.  synthetic_linear:
    f[i,t](x) = <g[i,t], x> with dual norm at most one.

    noise_scale > 0 adds noise uniform on (-noise_scale, noise_scale) in
    every coordinate to the stochastic oracle.
    """
    rng = np.random.default_rng(seed)
    if kind == "synthetic_quadratic":
        offsets = rng.normal(scale=offset_scale, size=(horizon, n, d))
        if domain.kind == "simplex":
            offsets -= (_reduce_last(np.add, offsets) / d)[..., None]
        offsets -= (_sum_slices(offsets, 1) / n)[:, None]
        lipschitz, terms = 2.0 * dual_diameter(domain), {"offsets": offsets}
    elif kind == "synthetic_linear":
        if domain.kind == "simplex":
            grads = rng.uniform(-1.0, 1.0, size=(horizon, n, d))
        else:
            raw = rng.standard_normal((horizon, n, d))
            grads = raw / np.maximum(dual_norm_of(domain, raw), 1.0)[..., None]
        lipschitz, terms = 1.0, {"gradients": grads}
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    support = (-noise_scale, noise_scale) if noise_scale > 0 else None
    with np.errstate(over="ignore"):  # G^2 past the float range is +inf
        g = lipschitz + noise_scale * dual_norm_of(domain, np.ones(d))  # noise in every coordinate
        return LossEnsemble(n, d, lipschitz, g * g, noise=support, **terms)


def linear_ensemble(gradients, domain):
    """Linear losses from an explicit (horizon, n, d) gradient array, exact oracle."""
    gradients = np.asarray(gradients, dtype=float)
    worst = float(dual_norm_of(domain, gradients).max())
    _, n, d = gradients.shape
    return LossEnsemble(n, d, worst, worst * worst, gradients=gradients)


def _centers(ens, path, rounds):
    """The square centers of a block of rounds, round-major: (B, ..., n or 1, d),
    row b round rounds.start + b + 1's target plus any offsets.

    Leading axes are replicates of a stacked ensemble and path.  The
    offsets are added in one call into a contiguous array, so a round reads
    one contiguous row; each entry is the same one add as a round's own.
    Without offsets the rows are views of the targets.
    """
    stars = np.moveaxis(path[..., rounds, None, :], -3, 0)
    if ens.offsets is None:
        return stars
    offsets = np.moveaxis(ens.offsets[..., rounds, :, :], -3, 0)
    return np.add(stars, offsets, out=np.empty(np.broadcast_shapes(stars.shape, offsets.shape)))


def _center(ens, i, t, path):
    """Agent i's round-t square center: the target plus its offset, if any."""
    star = path[t - 1]
    return star if ens.offsets is None else star + ens.offsets[t - 1, i]


def loss_value(ens, i, t, x, path):
    x = np.asarray(x, dtype=float)
    if ens.gradients is not None:
        return float(ens.gradients[t - 1, i] @ x)
    diff = x - _center(ens, i, t, path)
    if ens.mask is None:
        return float(diff @ diff)
    diff = diff[ens.mask[i]]
    return float(diff @ diff + ens.floor)


def gradient_exact(ens, i, t, x, path):
    if ens.gradients is not None:
        return np.array(ens.gradients[t - 1, i])
    g = 2.0 * (np.asarray(x, dtype=float) - _center(ens, i, t, path))
    return g if ens.mask is None else np.where(ens.mask[i], g, 0.0)


def gradient_stochastic(ens, i, t, x, path, rng):
    """One stochastic gradient of f[i, t] at x, drawn from rng: with a mask,
    -(z - x) on it for one observation z = target + w (doubled unless
    innovation), else the exact gradient plus d draws on the noise support."""
    if ens.mask is None:
        g = gradient_exact(ens, i, t, x, path)
        return g if ens.noise is None else g + rng.uniform(*ens.noise, ens.d)
    z = path[t - 1] + rng.uniform(*ens.noise)
    g = -(z - np.asarray(x, dtype=float))
    if not ens.innovation:
        g *= 2.0
    return np.where(ens.mask[i], g, 0.0)


def gradients_exact_batch(ens, t, x_all, centers):
    """Round t's exact gradients for every agent at once: x_all is (..., n, d).

    centers is round t's row of the block's square centers (see _centers),
    (..., n or 1, d); linear losses read their round-t gradients instead
    and ignore it.  Leading axes are replicates; a stacked ensemble and path
    (see stack_replicates) supply each replicate's own targets, offsets or
    linear gradients.
    """
    if ens.gradients is not None:
        return np.array(ens.gradients[..., t - 1, :, :])
    g = 2.0 * (x_all - centers)
    return g if ens.mask is None else np.where(ens.mask, g, 0.0)


def gradients_stochastic_batch(ens, t, x_all, centers, sample):
    """Noisy gradients for every agent, from one round of oracle_samples.

    sample is (..., n, d), with the same leading replicate axes as x_all:
    the observations z = target_k + w for tracking, the noise for a noisy
    synthetic oracle; None for a synthetic oracle without noise.  centers is
    as for gradients_exact_batch, read only by a synthetic oracle (the
    tracking oracle reads its observations alone; None is fine there).
    """
    if ens.mask is None:
        g = gradients_exact_batch(ens, t, x_all, centers)
        return g if sample is None else g + sample
    # -(z - x_k), not x_k - z: at z == x_k it is -0.0, as in gradient_stochastic
    step = np.subtract(sample, x_all)
    np.negative(step, out=step)
    if not ens.innovation:
        step *= 2.0
    return np.where(ens.mask, step, 0.0)


def oracle_noise(ens, rng, rounds):
    """The stochastic oracle's draws for `rounds` consecutive rounds.

    Row k is one round: (n,) observation noise for tracking, (n, d) for a
    noisy synthetic oracle; None when the oracle draws nothing.  A block
    consumes rng exactly as drawing its rows one round at a time would.
    """
    if ens.noise is None:
        return None
    shape = (rounds, ens.n) if ens.mask is not None else (rounds, ens.n, ens.d)
    return rng.uniform(*ens.noise, shape)


def oracle_samples(ens, stars, noise):
    """What gradients_stochastic_batch reads, from rows of oracle_noise draws.

    For tracking, the observations z = target_k + w of every agent at every
    coordinate k, (..., n, d), from each row's target stars (..., d) and its
    draws noise (..., n); the oracle's mask picks each agent's own k.  A
    synthetic oracle's noise (or None) is its sample as drawn.
    """
    if ens.mask is None:
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
    """What replicates stacked into one ensemble must share, which the stacked
    ensemble takes from its first replicate: which terms it has, its agent
    count, dimension and oracle, and for a mask the noise support its floor
    reads.  Each replicate draws its own oracle noise, so a synthetic one
    shares only whether it draws any."""
    tracking = ens.mask is not None
    noise = ens.noise if tracking else ens.noise is not None
    terms = tracking, ens.offsets is not None, ens.gradients is not None
    return terms, ens.n, ens.d, ens.innovation, noise


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
        check_rounds("path", p, rounds)
    arrays = [_per_round(e, rounds) for e in ensembles]
    changes = {name: _stacked([a[name] for a in arrays], rounds) for name in arrays[0]}
    return replace(first, **changes), _stacked(paths, rounds)


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
        mean_g = _sum_slices(ens.gradients[..., rounds, :, :], -2) / ens.n
        return np.matmul(x, mean_g[..., None])[..., 0]
    sq = _minus_targets(x, stars)
    np.square(sq, out=sq)
    if ens.mask is not None:  # coordinate k weighted by how many agents observe it
        return sq @ ens._observers / ens.n + ens.floor
    spread = _reduce_last(np.add, _reduce_last(np.add, np.square(ens.offsets[..., rounds, :, :])))
    return _reduce_last(np.add, sq) + (spread / ens.n)[..., None]


def _agent_block(ens, rounds, stars, x):
    """Per-agent losses of one round block: row i of x[b] is agent i's point."""
    if ens.gradients is not None:
        return np.einsum("bnd,bnd->bn", ens.gradients[rounds], x)
    centers = stars[:, None, :]
    sq = x - (centers if ens.offsets is None else centers + ens.offsets[rounds])
    np.square(sq, out=sq)
    return _reduce_last(np.add, sq) if ens.mask is None else sq[:, ens.mask] + ens.floor


def _evaluate(block, ens, path, x):
    """Apply a block kernel to rounds 1 .. T of a (T, m, d) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != ens.d:
        raise ValueError(f"expected a (T, m, {ens.d}) stack, got shape {x.shape}")
    horizon, m, _ = x.shape
    check_rounds("path", path, horizon)
    _per_round(ens, horizon)
    out = np.empty((horizon, m))
    for rounds in _round_blocks(horizon, max(m, ens.n) * ens.d):
        out[rounds] = block(ens, rounds, path[rounds], x[rounds])
    return out


def global_loss_batch(ens, path, x):
    """Network-average loss f_t at every row of x[t-1], for t = 1 .. T.

    x is a (T, m, d) stack (a broadcast view is fine); returns (T, m).
    Evaluated in round blocks of about BLOCK_ELEMENTS elements; raises
    ValueError when path or the ensemble covers fewer than T rounds.
    """
    return _evaluate(_global_block, ens, path, x)


def network_losses(ens, path, rounds, x):
    """Network-average loss of every agent's iterate over one block of rounds.

    x is (..., B, n, d), row b of it under round rounds.start + b + 1, with
    the leading replicate axes of a stacked ensemble and path (see
    stack_replicates); returns the (..., B) agent means, bit-equal to
    global_loss_batch(...).mean(axis=1) of each replicate's rows.
    """
    return _reduce_last(np.add, _global_block(ens, rounds, path[..., rounds, :], x)) / ens.n


def agent_loss_batch(ens, path, x):
    """Per-agent losses f[i,t](x[t-1, i]) for t = 1 .. T: (T, n, d) -> (T, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != ens.n:
        raise ValueError(f"expected one row per agent ({ens.n}), got shape {x.shape}")
    return _evaluate(_agent_block, ens, path, x)


def centers_outside_domain(ens, path, domain):
    """Count quadratic centers c[i,t], t = 1 .. T, of a (T+1, d) path outside the domain.

    Should be 0 for valid suites; always 0 for ensembles without offsets.
    """
    if ens.offsets is None:
        return 0
    horizon = path.shape[-2] - 1
    check_rounds("ens.offsets", ens.offsets, horizon)
    bad = 0
    for rounds in _round_blocks(horizon, ens.n * ens.d):
        ok = inside(domain, path[rounds, None, :] + ens.offsets[rounds])
        bad += ok.size - int(np.count_nonzero(ok))
    return bad

