"""Mirror geometries: Bregman divergences and prox steps on simple domains.

The domain is the geometry: every domain is bounded, and its kind fixes the
Bregman generator, the norm and the prox.  A box is euclidean:
R(x) = ||x||^2/2, distances in l2, and a clamped gradient step as the prox.
A probability simplex with a small coordinate floor is entropic (KL): the
negative entropy generator, distances in l1, and an exponentiated-gradient
update followed by a floor projection as the prox.  So every function here
takes the Domain itself, sup D over the domain is finite, and the regret
guarantee has its radius term, on every domain.

Both generators are 1-strongly convex in the domain's norm, norm_of(domain, .),
so D(x, y) >= ||x - y||^2 / 2 everywhere on the domain.  Path variation and
disagreement are measured in that norm, and gradient bounds in its dual,
dual_norm_of(domain, .), over a dual_diameter(domain) wide domain.

The bounds also need the dynamics x -> A x to keep the domain and not to
increase D; dynamics_verdict decides both exactly.  Box: row i of A maps it onto
[sum_j min(a_ij lo_j, a_ij hi_j), sum_j max(...)] within [lo_i, hi_i], and
sigma_max(A) <= 1.  Floored simplex: the columns of A sum to 1, A keeps the
vertices floor + (1 - d*floor) e_j at the floor, and a nonnegative such A
contracts KL (the data-processing inequality of Cohen et al., "Relative entropy
under mappings by stochastic matrices", Linear Algebra Appl. 1993).

Whole-horizon and per-block reductions over a short axis are one ufunc call
per slice, left to right: _reduce_last over the last (coordinate) axis,
_sum_slices over an agent axis.  numpy's own reduce runs its inner loop
over that axis, one short call per row; it adds in the same order from the
same 0.0 start below 8 entries, so the bits agree (summation order fixes
them: Higham, "The accuracy of floating point summation", SIAM J. Sci.
Comput. 1993).  From 8 entries on numpy sums pairwise, and the helpers take
its reduce.  The membership test, inside, is one comparison per
coordinate.  Per-round code (prox, contains, network.mix, the engine's
finiteness check in the runs that keep it, and its simplex repair) keeps
one reduce call per test: it sees a few dozen rows, where one call is
cheaper than d - 1.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

try:
    from numpy._core.umath import clip as _clip  # the ufunc behind ndarray.clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """Feasible set and geometry: an axis-aligned box (euclidean) or a floored simplex (KL)."""

    kind: str
    d: int
    lo: np.ndarray = None
    hi: np.ndarray = None
    floor: float = None

    @cached_property
    def _clip_limits(self):
        """(lo, hi), computed once; floats when every coordinate shares its
        bounds, so a clip needs no broadcast of the limit arrays."""
        if (self.lo == self.lo[0]).all() and (self.hi == self.hi[0]).all():
            return float(self.lo[0]), float(self.hi[0])
        return self.lo, self.hi

    @cached_property
    def _box_limits(self):
        """(lo - DOMAIN_TOL, hi + DOMAIN_TOL), computed once; floats when every
        coordinate shares its bounds, so the extremes of x decide membership."""
        lo, hi = self._clip_limits
        return lo - DOMAIN_TOL, hi + DOMAIN_TOL


def box_domain(lo, hi):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be vectors of equal length")
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate")
    return Domain("box", lo.size, lo=lo, hi=hi)


def simplex_domain(d, floor):
    if d < 2:
        raise ValueError("simplex needs dimension >= 2")
    if not 0.0 < floor < 1.0 / d:
        raise ValueError("floor must lie in (0, 1/d)")
    return Domain("simplex", d, floor=float(floor))


def start_point(domain):
    """The common start of iterates and target: the simplex's uniform point, or the origin."""
    return np.full(domain.d, 1.0 / domain.d) if domain.kind == "simplex" else np.zeros(domain.d)


def inside(domain, x):
    """Row-wise membership within DOMAIN_TOL: a boolean array of shape x.shape[:-1].

    Each point lies along the last axis; points of the wrong dimension are
    outside.  One comparison per coordinate, joined with &, and on the
    simplex the coordinate sum by _reduce_last, so every call runs over all
    the points and none over one point's few coordinates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.d:
        return np.zeros(x.shape[:-1], dtype=bool)
    if domain.kind == "box":
        lo, hi = (np.broadcast_to(limit, domain.d) for limit in domain._box_limits)
        ok = (x[..., 0] >= lo[0]) & (x[..., 0] <= hi[0])
        for k in range(1, domain.d):
            ok &= x[..., k] >= lo[k]
            ok &= x[..., k] <= hi[k]
        return ok
    least = domain.floor - DOMAIN_TOL
    ok = x[..., 0] >= least
    for k in range(1, domain.d):
        ok &= x[..., k] >= least
    ok &= np.abs(_reduce_last(np.add, x) - 1.0) <= domain.d * DOMAIN_TOL
    return ok


def contains(domain, x):
    """Whether every point along the last axis of x lies in the domain."""
    x = np.asarray(x, dtype=float)
    if x.size and x.shape[-1] == domain.d:
        # ufunc reductions in place of row-wise masks; a NaN propagates
        # through minimum and maximum and compares false, as in inside
        if domain.kind == "simplex":
            return bool(np.minimum.reduce(x, axis=None) >= domain.floor - DOMAIN_TOL
                        and np.maximum.reduce(np.abs(np.add.reduce(x, axis=-1) - 1.0),
                                              axis=None) <= domain.d * DOMAIN_TOL)
        lo, hi = domain._box_limits
        if type(lo) is float:
            return bool(lo <= np.minimum.reduce(x, axis=None)
                        and np.maximum.reduce(x, axis=None) <= hi)
    return bool(inside(domain, x).all())


def sample_domain(domain, rng, size=None):
    """Draw uniform-ish feasible points, for demos and property tests."""
    shape = (domain.d,) if size is None else (size, domain.d)
    if domain.kind == "box":
        return rng.uniform(domain.lo, domain.hi, shape)
    p = rng.dirichlet(np.ones(domain.d), size=size)
    return domain.floor + (1.0 - domain.d * domain.floor) * p


def dual_diameter(domain):
    """Largest distance between two feasible points in the dual norm: the l2
    length of the box's span, +inf past the float range, or the linf span
    1 - d*floor of the simplex."""
    if domain.kind == "box":
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(domain.hi - domain.lo))
    return 1.0 - domain.d * domain.floor


def _reduce_last(ufunc, x):
    """ufunc.reduce(x, axis=-1) for np.add or np.maximum, bit for bit.

    For rows (x.ndim >= 2) of 2 <= d < 8 entries it is one call per column,
    left to right, the order numpy's reduce takes inside each row; a sum
    then adds numpy's 0.0 start, so a sum of -0.0 is 0.0.  From 8 entries on
    numpy sums pairwise, and a single vector is one call either way: both
    take ufunc.reduce.
    """
    d = x.shape[-1]
    if x.ndim < 2 or not 2 <= d < 8:
        return ufunc.reduce(x, axis=-1)
    out = ufunc(x[..., 0], x[..., 1])
    for k in range(2, d):
        ufunc(out, x[..., k], out=out)
    if ufunc is np.add:
        out += 0.0
    return out


def _sum_slices(x, axis):
    """np.add.reduce(x, axis) of a C-ordered x over an axis that is not the
    last, bit for bit: numpy's 0.0 start plus one add per slice, in index
    order, which is how numpy adds when the axis is not innermost.  Where it
    is, because the axes after it hold one entry, numpy sums pairwise, and
    this takes np.add.reduce; so it does for any other layout.  At length 1
    it is the slice plus 0.0, a new array.
    """
    axis %= x.ndim
    if not (x.size and x.flags.c_contiguous and math.prod(x.shape[axis + 1:]) > 1):
        return np.add.reduce(x, axis=axis)
    lead = (slice(None),) * axis
    out = x[lead + (0,)] + 0.0
    for i in range(1, x.shape[axis]):
        out += x[lead + (i,)]
    return out


def norm_of(domain, v):
    """Norm along the last axis: l2 on a box, l1 on a simplex, each reduced by
    _reduce_last.  The l2 norm is the square root of the sum of squares, as
    np.linalg.norm computes it."""
    v = np.asarray(v, dtype=float)
    if domain.kind == "box":
        return np.sqrt(_reduce_last(np.add, np.square(v)))
    return _reduce_last(np.add, np.abs(v))


def dual_norm_of(domain, v):
    """Dual norm along the last axis: l2 on a box, linf on a simplex."""
    if domain.kind == "box":
        return norm_of(domain, v)
    return _reduce_last(np.maximum, np.abs(np.asarray(v, dtype=float)))


def bregman(domain, x, y):
    """Bregman divergence D(x, y) induced by the domain's generator.

    box: ||x - y||^2 / 2.  simplex: sum_i x_i log(x_i / y_i), defined here
    only on the floored simplex so both arguments stay away from zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for which, point in (("first", x), ("second", y)):
        if not contains(domain, point):
            raise ValueError(f"{which} argument lies outside the domain")
    if domain.kind == "box":
        diff = x - y
        return float(0.5 * np.dot(diff, diff))
    return float(np.sum(x * np.log(x / y)))


def _floor_project(p, floor):
    """Project nonnegative rows summing to one onto the floored simplex.

    Coordinates below the floor are raised to it and the surplus is removed
    proportionally from the rest; repeating makes the active set grow, so at
    most d passes are needed.  The last two axes hold one replicate's
    (agents, d) block and leading axes are replicates: whether a pass runs
    is decided per replicate, so a batched replicate gets the same passes,
    and bits, as when it is projected alone.  When no coordinate is below
    the floor no pass runs, and p comes back as it is.
    """
    # one reduction: fmin skips NaN, so this is (p < floor).any()
    if not (p.size and np.fmin.reduce(p, axis=None) < floor):
        return p
    d = p.shape[-1]
    block = tuple(range(max(p.ndim - 2, 0), p.ndim))
    fixed = np.zeros(p.shape, dtype=bool)
    for _ in range(d):
        low = (p < floor) & ~fixed
        active = low.any(axis=block, keepdims=True)
        if not active.any():
            break
        fixed |= low
        free_mass = 1.0 - floor * fixed.sum(axis=-1, keepdims=True)
        free_sum = np.where(fixed, 0.0, p).sum(axis=-1, keepdims=True)
        scale = np.where(free_sum > 0, free_mass / np.where(free_sum > 0, free_sum, 1.0), 1.0)
        p = np.where(fixed, floor, np.where(active, p * scale, p))
    return p


def project_floored_simplex(v, floor):
    """Map an arbitrary vector with positive mass onto the floored simplex."""
    v = np.asarray(v, dtype=float)
    p = np.maximum(v, 0.0)
    s = p.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("cannot project a vector with no positive mass")
    return _floor_project(p / s, floor)


def prox(domain, gradient, y, eta):
    """Mirror descent prox step: argmin_x eta*<gradient, x> + D(x, y).

    Operates along the last axis, so stacked (agents x d) inputs work, and
    (replicates x agents x d) with eta one float shared by every replicate
    or an array of shape (replicates, 1, 1); an eta array that would grow
    the output past y's shape is refused.  box (euclidean):
    clamp(y - eta*gradient).  simplex (KL): multiplicative update
    y_i * exp(-eta * g_i) renormalized, then floor projection; the exponent
    is shifted by its max so large gradients cannot overflow, and a row
    whose eta * g passes the float range is redone by _overflowed_rows.
    """
    g = np.asarray(gradient, dtype=float)
    y = np.asarray(y, dtype=float)
    # a NaN compares false, and an infinite step fails < inf; an array's
    # extremes decide for every entry
    if isinstance(eta, float):
        if not 0 < eta < np.inf:
            raise ValueError("step size must be positive and finite")
    elif not 0 < np.minimum.reduce(eta, axis=None) <= np.maximum.reduce(eta, axis=None) < np.inf:
        raise ValueError("step size must be positive and finite")
    if g.shape != y.shape:
        raise ValueError("gradient and anchor shapes differ")
    if not contains(domain, y):
        raise ValueError("prox anchor lies outside the domain")
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise ValueError("gradient has non-finite entries")
    out = np.multiply(eta, g)
    if out.shape != y.shape:
        raise ValueError(f"step size shape {np.shape(eta)} grows the anchor shape {y.shape} "
                         f"to {out.shape}")
    if domain.kind == "box":
        np.subtract(y, out, out=out)
        return _clip(out, *domain._clip_limits, out=out)
    # the multiplicative update in one buffer: log y - eta g, shifted, exp, normalized
    np.subtract(np.log(y), out, out=out)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    # one reduction, NaN-propagating: only rows below the floor, or NaN rows
    # where eta * g passed the float range, take the slow path
    if out.size and np.minimum.reduce(out, axis=None) >= domain.floor:
        return out
    return _floor_project(_overflowed_rows(out, g, y, eta), domain.floor)


def _overflowed_rows(p, g, y, eta):
    """p, a KL update normalized in place, with each NaN row redone.

    A row is NaN only where eta * g passed the float range for finite g, so
    that log y - eta g held +inf.  Its weights y_i exp(-eta g_i) are then
    taken relative to its largest exponent: the differences to it, formed
    before they are scaled by eta, are finite or go to -inf, and the mass
    lands where the exponent is largest.
    """
    bad = np.isnan(p).any(axis=-1)
    if not bad.any():
        return p
    eta = np.broadcast_to(eta, p.shape)[bad][:, :1]
    g, logs = g[bad], np.log(y[bad])
    top = np.arange(len(g)), np.argmax(logs / eta - g, axis=-1)  # the exponent over eta
    with np.errstate(over="ignore"):
        weights = np.exp((logs - logs[top][:, None]) - eta * (g - g[top][:, None]))
    p[bad] = weights / weights.sum(axis=-1, keepdims=True)
    return p


def prox_inequality_gap(domain, gradient, y, eta, ref):
    """Optimality certificate for the prox step.

    For x* = prox(g, y, eta) and any feasible ref the first-order optimality
    of the prox objective gives
        eta*<x* - ref, g> <= D(ref, y) - D(ref, x*) - D(x*, y).
    Returns LHS - RHS, which must be <= 0 up to rounding.
    """
    x_star = prox(domain, gradient, y, eta)
    lhs = eta * float(np.dot(x_star - ref, gradient))
    rhs = bregman(domain, ref, y) - bregman(domain, ref, x_star) - bregman(domain, x_star, y)
    return lhs - rhs


@dataclass(frozen=True)
class GeometryConstants:
    """Domain radius and divergence Lipschitz constants used by the bounds.

    r2 bounds sup D(x, y) over the domain; k bounds the Lipschitz constant
    of D(., y) in the geometry norm.
    """

    r2: float
    k: float


def geometry_constants(domain):
    if domain.kind == "box":
        span = dual_diameter(domain)
        return GeometryConstants(0.5 * span * span, span)
    return GeometryConstants(np.log(1.0 / domain.floor), domain.d * np.log(1.0 / domain.floor))


def box_row_images(a, lo, hi):
    """How x -> a @ x acts on the box [lo, hi], row by row: (low, high, reach).

    a is (d, d) or a stack (..., d, d).  Row i maps the box onto
    [low_i, high_i], the sums of the least and of the greatest value that
    each term a_ij x_j takes, and reach_i = sum_j |a_ij| max(|lo_j|, |hi_j|)
    bounds every partial sum of those terms, so a product with a, summed in
    any order, stays within reach_i up to its rounding.  A value past the
    float range is infinite, and a term 0 * inf is NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.sort(np.stack([a * lo, a * hi]), axis=0)
        low, high = ends.sum(axis=-1)
        return low, high, np.abs(ends).max(axis=0).sum(axis=-1)


def dynamics_verdict(domain, a):
    """(keeps_domain, non_expansive or None if not verified, why) of x -> a @ x;
    why, empty when both hold, names the first failing row or column and sigma_max(a)."""
    a = np.asarray(a, dtype=float)
    sigma_max, lo, hi = float(np.linalg.svd(a, compute_uv=False)[0]), domain.lo, domain.hi
    if domain.kind == "box":
        low, high, _ = box_row_images(a, lo, hi)  # a NaN end fails its comparison
        why = [f"row {i} maps the box onto [{low[i]:.6g}, {high[i]:.6g}], outside "
               f"[{lo[i]:.6g}, {hi[i]:.6g}]" for i in range(domain.d)
               if not (low[i] >= lo[i] - DOMAIN_TOL and high[i] <= hi[i] + DOMAIN_TOL)]
        non_expansive = sigma_max <= 1.0 + 1e-12
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            stochastic, floor = np.abs(a.sum(axis=0) - 1.0) <= DOMAIN_TOL, domain.floor
            least = (a @ (floor + (1.0 - domain.d * floor) * np.eye(domain.d))).min(axis=1)
            why = ([f"column {j} of A sums to {a[:, j].sum():.6g}, not 1"
                    for j in np.flatnonzero(~stochastic)]
                   or [f"row {i} takes a vertex to {v:.6g}, below the floor {floor:.6g}"
                       for i, v in enumerate(least) if not v >= floor - DOMAIN_TOL])
            non_expansive = True if (a >= 0).all() and stochastic.all() else None
    keeps_domain, why = not why, why[:1]
    if non_expansive is None:
        why.append("A is not column-stochastic, so KL non-expansiveness is unverified")
    if not (keeps_domain and non_expansive):
        why.append(f"sigma_max(A)={sigma_max:.6g}")
    return keeps_domain, non_expansive, "; ".join(why)
