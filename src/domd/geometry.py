"""Mirror geometries: Bregman divergences and prox steps on simple domains.

Every domain is bounded, and its kind picks the geometry.  A box pairs
with the euclidean geometry: R(x) = ||x||^2/2, distances in l2, and a
clamped gradient step as the prox.  A probability simplex with a small
coordinate floor pairs with the entropic (KL) geometry: the negative entropy
generator, distances in l1, and an exponentiated-gradient update followed
by a floor projection as the prox.  So sup D over the domain is finite, and
the regret guarantee has its radius term, on every domain.

Both generators are 1-strongly convex with respect to the geometry norm, so
D(x, y) >= ||x - y||^2 / 2 everywhere on the domain.
"""

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
    """Feasible set: an axis-aligned box or a floored simplex."""

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


def inside(domain, x):
    """Row-wise membership within DOMAIN_TOL: a boolean array of shape x.shape[:-1].

    Each point lies along the last axis; points of the wrong dimension are
    outside.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.d:
        return np.zeros(x.shape[:-1], dtype=bool)
    if domain.kind == "box":
        lo, hi = domain._box_limits
        return ((x >= lo) & (x <= hi)).all(axis=-1)
    ok_floor = (x >= domain.floor - DOMAIN_TOL).all(axis=-1)
    return ok_floor & (np.abs(x.sum(axis=-1) - 1.0) <= domain.d * DOMAIN_TOL)


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
    """Draw uniform-ish feasible points, used by the Monte Carlo checkers."""
    shape = (domain.d,) if size is None else (size, domain.d)
    if domain.kind == "box":
        return rng.uniform(domain.lo, domain.hi, shape)
    p = rng.dirichlet(np.ones(domain.d), size=size)
    return domain.floor + (1.0 - domain.d * domain.floor) * p


def diameter(domain, norm="l2"):
    """Largest distance between two feasible points in the given norm."""
    if domain.kind == "box":
        span = domain.hi - domain.lo
        if norm == "l2":
            return float(np.linalg.norm(span))
        if norm == "l1":
            return float(span.sum())
        if norm == "linf":
            return float(span.max())
    if domain.kind == "simplex":
        span = 1.0 - domain.d * domain.floor
        if norm in ("l1", "l2"):
            # extreme points differ in two coordinates by +/- span
            return 2.0 * span if norm == "l1" else float(np.sqrt(2.0) * span)
        if norm == "linf":
            return span
    raise ValueError(f"no diameter for domain {domain.kind!r} in norm {norm!r}")


@dataclass(frozen=True)
class MirrorGeometry:
    """A Bregman generator paired with the domain it is strongly convex on."""

    kind: str
    domain: Domain
    norm_kind: str


def euclidean_geometry(domain):
    if domain.kind != "box":
        raise ValueError("euclidean geometry pairs with a box domain")
    return MirrorGeometry("euclidean", domain, "l2")


def kl_geometry(domain):
    if domain.kind != "simplex":
        raise ValueError("kl geometry pairs with a floored simplex domain")
    return MirrorGeometry("kl", domain, "l1")


def vector_norm(kind, v):
    """Norm along the last axis: "l2" or "l1"; any other kind raises ValueError."""
    v = np.asarray(v, dtype=float)
    if kind == "l2":
        return np.linalg.norm(v, axis=-1)
    if kind == "l1":
        return np.abs(v).sum(axis=-1)
    raise ValueError(f"unknown norm {kind!r}")


def dual_norm_of(geom, v):
    """Dual norm along the last axis: l2 (euclidean) or linf (kl)."""
    v = np.asarray(v, dtype=float)
    if geom.norm_kind == "l2":
        return np.linalg.norm(v, axis=-1)
    return np.abs(v).max(axis=-1)


def _require_inside(geom, x, what):
    if not contains(geom.domain, x):
        raise ValueError(f"{what} lies outside the domain")


def bregman(geom, x, y):
    """Bregman divergence D(x, y) induced by the geometry's generator.

    euclidean: ||x - y||^2 / 2.  kl: sum_i x_i log(x_i / y_i), defined here
    only on the floored simplex so both arguments stay away from zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_inside(geom, x, "first argument")
    _require_inside(geom, y, "second argument")
    if geom.kind == "euclidean":
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


def prox(geom, gradient, y, eta):
    """Mirror descent prox step: argmin_x eta*<gradient, x> + D(x, y).

    Operates along the last axis, so stacked (agents x d) inputs work, and
    (replicates x agents x d) with eta one float shared by every replicate
    or an array of shape (replicates, 1, 1); an eta array that would grow
    the output past y's shape is refused.  euclidean/box:
    clamp(y - eta*gradient).  kl/simplex: multiplicative update
    y_i * exp(-eta * g_i) renormalized, then floor projection; the exponent
    is shifted by its max so large gradients cannot overflow.
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
    if not contains(geom.domain, y):
        raise ValueError("prox anchor lies outside the domain")
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise ValueError("gradient has non-finite entries")
    out = np.multiply(eta, g)
    if out.shape != y.shape:
        raise ValueError(f"step size shape {np.shape(eta)} grows the anchor shape {y.shape} "
                         f"to {out.shape}")
    if geom.kind == "euclidean":
        np.subtract(y, out, out=out)
        return _clip(out, *geom.domain._clip_limits, out=out)
    # the multiplicative update in one buffer: log y - eta g, shifted, exp, normalized
    np.subtract(np.log(y), out, out=out)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return _floor_project(out, geom.domain.floor)


def prox_inequality_gap(geom, gradient, y, eta, ref):
    """Optimality certificate for the prox step.

    For x* = prox(g, y, eta) and any feasible ref the first-order optimality
    of the prox objective gives
        eta*<x* - ref, g> <= D(ref, y) - D(ref, x*) - D(x*, y).
    Returns LHS - RHS, which must be <= 0 up to rounding.
    """
    x_star = prox(geom, gradient, y, eta)
    lhs = eta * float(np.dot(x_star - ref, gradient))
    rhs = bregman(geom, ref, y) - bregman(geom, ref, x_star) - bregman(geom, x_star, y)
    return lhs - rhs


@dataclass(frozen=True)
class GeometryConstants:
    """Domain radius and divergence Lipschitz constants used by the bounds.

    r2 bounds sup D(x, y) over the domain; k bounds the Lipschitz constant
    of D(., y) in the geometry norm.
    """

    r2: float
    k: float


def geometry_constants(geom):
    dom = geom.domain
    if geom.kind == "euclidean":
        span = float(np.linalg.norm(dom.hi - dom.lo))
        return GeometryConstants(0.5 * span * span, span)
    return GeometryConstants(np.log(1.0 / dom.floor), dom.d * np.log(1.0 / dom.floor))


@dataclass(frozen=True)
class NonexpansiveReport:
    passed: bool
    sigma_max: float
    checked: int
    violations: int
    max_violation: float


def check_nonexpansive(geom, a, trials=500, seed=0):
    """Check that the map x -> a @ x does not increase Bregman divergences.

    euclidean: exact, via the largest singular value of a.  kl: Monte Carlo
    over sampled domain pairs whose images stay inside the domain; a pair
    violates when its divergence grows by more than 1e-9.
    """
    a = np.asarray(a, dtype=float)
    if geom.kind == "euclidean":
        sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
        return NonexpansiveReport(sigma_max <= 1.0 + 1e-12, sigma_max, 0, 0, 0.0)
    rng = np.random.default_rng(seed)
    checked = 0
    violations = 0
    worst = -np.inf
    for _ in range(trials):
        x = sample_domain(geom.domain, rng)
        y = sample_domain(geom.domain, rng)
        ax, ay = a @ x, a @ y
        if not (contains(geom.domain, ax) and contains(geom.domain, ay)):
            continue
        checked += 1
        gap = bregman(geom, ax, ay) - bregman(geom, x, y)
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    return NonexpansiveReport(violations == 0, float("nan"), checked, violations, worst)
