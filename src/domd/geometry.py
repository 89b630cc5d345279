"""Mirror geometries: Bregman divergences and prox steps on simple domains.

Two geometries are provided.  The euclidean geometry uses R(x) = ||x||^2/2
on a box (or the whole space), measures distances in l2, and its prox step
is a clamped gradient step.  The entropic geometry uses the negative entropy
generator on a probability simplex with a small coordinate floor, measures
distances in l1, and its prox step is an exponentiated-gradient update
followed by a floor projection.

Both generators are 1-strongly convex with respect to the geometry norm, so
D(x, y) >= ||x - y||^2 / 2 everywhere on the domain.
"""

from dataclasses import dataclass

import numpy as np

DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """Feasible set: an axis-aligned box, a floored simplex, or free space."""

    kind: str
    d: int
    lo: np.ndarray = None
    hi: np.ndarray = None
    floor: float = None


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


def free_domain(d):
    if d < 1:
        raise ValueError("dimension must be positive")
    return Domain("free", d)


def inside(domain, x):
    """Row-wise membership within DOMAIN_TOL: a boolean array of shape x.shape[:-1].

    Each point lies along the last axis; points of the wrong dimension are
    outside.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.d:
        return np.zeros(x.shape[:-1], dtype=bool)
    if domain.kind == "free":
        return np.all(np.isfinite(x), axis=-1)
    if domain.kind == "box":
        return np.all((x >= domain.lo - DOMAIN_TOL) & (x <= domain.hi + DOMAIN_TOL), axis=-1)
    ok_floor = np.all(x >= domain.floor - DOMAIN_TOL, axis=-1)
    return ok_floor & (np.abs(x.sum(axis=-1) - 1.0) <= domain.d * DOMAIN_TOL)


def contains(domain, x):
    """Whether every point along the last axis of x lies in the domain."""
    return bool(inside(domain, x).all())


def sample_domain(domain, rng, size=None):
    """Draw uniform-ish feasible points, used by the Monte Carlo checkers."""
    shape = (domain.d,) if size is None else (size, domain.d)
    if domain.kind == "box":
        return rng.uniform(domain.lo, domain.hi, shape)
    if domain.kind == "simplex":
        p = rng.dirichlet(np.ones(domain.d), size=size)
        return domain.floor + (1.0 - domain.d * domain.floor) * p
    return rng.standard_normal(shape)


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
    if domain.kind not in ("box", "free"):
        raise ValueError("euclidean geometry pairs with box or free domains")
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
    and bits, as when it is projected alone.
    """
    p = np.array(p, dtype=float)
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
    (replicates x agents x d) with eta of shape (replicates, 1, 1).
    euclidean/box: clamp(y - eta*gradient).  kl/simplex: multiplicative
    update y_i * exp(-eta * g_i) renormalized, then floor projection; the
    exponent is shifted by its max so large gradients cannot overflow.
    """
    g = np.asarray(gradient, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(eta <= 0):
        raise ValueError("step size must be positive")
    if g.shape != y.shape:
        raise ValueError("gradient and anchor shapes differ")
    _require_inside(geom, y, "prox anchor")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient has non-finite entries")
    if geom.kind == "euclidean":
        out = y - eta * g
        if geom.domain.kind == "box":
            out = np.clip(out, geom.domain.lo, geom.domain.hi)
        return out
    logw = np.log(y) - eta * g
    logw = logw - logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    x = w / w.sum(axis=-1, keepdims=True)
    return _floor_project(x, geom.domain.floor)


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
    of D(., y) in the geometry norm.  Unavailable for free domains.
    """

    r2: float
    k: float
    available: bool = True


def geometry_constants(geom):
    dom = geom.domain
    if dom.kind == "free":
        return GeometryConstants(np.inf, np.inf, available=False)
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
