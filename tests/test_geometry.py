"""Bregman divergences, prox steps and domain constants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import measured_runs
from domd.geometry import (DOMAIN_TOL, _reduce_last, _sum_slices, bregman, box_domain,
                           contains, dual_diameter, dual_norm_of, dynamics_verdict,
                           geometry_constants, inside, norm_of, project_floored_simplex, prox,
                           prox_inequality_gap, sample_domain, simplex_domain)

FLOOR = 0.01
BIG = np.finfo(float).max


def _box2():
    return box_domain([-1.0, -1.0], [1.0, 1.0])


def _simplex(d=2):
    return simplex_domain(d, FLOOR)


def _kl_grid_min(y, g, eta, d, step):
    """Brute-force prox on the floored simplex by grid search."""
    axis = np.arange(FLOOR, 1.0 - (d - 1) * FLOOR + step / 2, step)
    if d == 2:
        pts = np.stack([axis, 1.0 - axis], axis=1)
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel(), 1.0 - a.ravel() - b.ravel()], axis=1)
    pts = pts[np.all(pts >= FLOOR - 1e-12, axis=1)]
    obj = eta * (pts @ g) + np.sum(pts * np.log(pts / y), axis=1)
    return pts[np.argmin(obj)]


# ---------------------------------------------------------------- domains


def test_domain_constructors_validate():
    with pytest.raises(ValueError, match="lo < hi"):
        box_domain([0.0], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        box_domain([0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="dimension >= 2"):
        simplex_domain(1, 0.1)
    with pytest.raises(ValueError, match="floor"):
        simplex_domain(3, 0.5)


def test_contains():
    box = box_domain([-1.0, -1.0], [1.0, 1.0])
    assert contains(box, [1.0, -1.0])
    assert not contains(box, [1.1, 0.0])
    assert not contains(box, [0.0])  # wrong dimension
    simplex = simplex_domain(3, FLOOR)
    assert contains(simplex, [0.5, 0.3, 0.2])
    assert not contains(simplex, [0.005, 0.5, 0.495])  # below floor
    assert not contains(simplex, [0.5, 0.4, 0.2])  # sum != 1
    wide = box_domain([-BIG] * 2, [BIG] * 2)  # every finite point, no infinite one
    assert contains(wide, [1e9, -1e9])
    assert not contains(wide, [np.inf, 0.0])
    # a NaN coordinate is outside every domain, also among feasible points
    skewed = box_domain([-1.0, 0.0], [1.0, 0.5])
    for domain, good in ((box, [0.0, 0.0]), (skewed, [0.0, 0.25]),
                         (simplex, [0.5, 0.3, 0.2]), (wide, [0.0, 0.0])):
        bad = np.array(good)
        bad[-1] = np.nan
        assert not contains(domain, [good, bad, good])
        assert inside(domain, [good, bad]).tolist() == [True, False]


def test_inside_is_row_wise():
    box = box_domain([-1.0, -1.0], [1.0, 1.0])
    pts = np.array([[[1.0, -1.0], [1.1, 0.0]], [[0.0, np.nan], [0.5, 0.5]]])
    np.testing.assert_array_equal(inside(box, pts), [[True, False], [False, True]])
    assert inside(box, np.zeros((0, 2))).shape == (0,)
    np.testing.assert_array_equal(inside(box, np.zeros((3, 1))), [False] * 3)
    simplex = simplex_domain(3, FLOOR)
    np.testing.assert_array_equal(
        inside(simplex, [[0.5, 0.3, 0.2], [0.005, 0.5, 0.495], [0.5, 0.4, 0.2]]),
        [True, False, False])
    np.testing.assert_array_equal(
        inside(box_domain([-BIG] * 2, [BIG] * 2), [[1e9, -1e9], [np.inf, 0.0]]),
        [True, False])


_DOMAINS = (box_domain([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0]), box_domain([-2.0] * 3, [2.0] * 3),
            simplex_domain(3, FLOOR), box_domain([-BIG] * 3, [BIG] * 3))


def _near_boundary(domain, base, pushes):
    """Points that sit on, or a few tolerances off, the domain boundary."""
    if domain.kind == "box":
        return np.where(base > 0.5, domain.hi, domain.lo) + pushes
    corner = np.full((len(base), 3), FLOOR)
    corner[np.arange(len(base)), (3 * base[:, 0]).astype(int) % 3] = 1.0 - 2 * FLOOR
    return corner + pushes


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(range(len(_DOMAINS))),
       rows=st.integers(0, 5),
       base=st.lists(st.floats(0.0, 1.0), min_size=15, max_size=15),
       pushes=st.lists(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0,
                                        -0.5, -0.99, -1.0, -1.01, -2.0]),
                       min_size=15, max_size=15))
def test_contains_is_the_reduction_of_inside_near_the_boundary(kind, rows, base, pushes):
    domain = _DOMAINS[kind]
    base = np.reshape(base, (5, 3))[:rows]
    pushes = DOMAIN_TOL * np.reshape(pushes, (5, 3))[:rows]
    pts = _near_boundary(domain, base, pushes)
    row_wise = inside(domain, pts)
    assert row_wise.shape == (rows,)
    assert bool(row_wise.all()) == contains(domain, pts)
    assert [contains(domain, p) for p in pts] == row_wise.tolist()


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 4),
       lead=st.lists(st.integers(0, 3), max_size=2),
       width_shift=st.sampled_from([0, 0, 0, -1, 1]),
       corners=st.lists(st.integers(0, 3), min_size=24, max_size=24),
       pushes=st.lists(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0,
                                        -0.5, -0.99, -1.0, -1.01, -2.0]),
                       min_size=120, max_size=120),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       where=st.integers(0, 119))
def test_simplex_contains_is_the_reduction_of_inside(d, lead, width_shift, corners, pushes,
                                                     bad, where):
    # floored-simplex corners pushed a few tolerances across the floor and the
    # unit sum, in any leading shape, empty or of the wrong width, maybe with a
    # NaN or an infinity
    domain = simplex_domain(d, FLOOR)
    shape = tuple(lead) + (d + width_shift,)
    count = int(np.prod(shape[:-1]))
    pts = np.full((count, shape[-1]), FLOOR)
    pts[np.arange(count), np.array(corners[:count], dtype=int) % shape[-1]] = 1.0 - (d - 1) * FLOOR
    pts = (pts.ravel() + DOMAIN_TOL * np.array(pushes[:pts.size])).reshape(shape)
    if bad is not None and pts.size:
        pts.flat[where % pts.size] = bad
    assert contains(domain, pts) == bool(inside(domain, pts).all())


def test_sample_domain_stays_inside():
    rng = np.random.default_rng(0)
    for dom in (box_domain([-2.0, 0.0], [1.0, 3.0]), simplex_domain(4, FLOOR)):
        pts = sample_domain(dom, rng, size=200)
        assert all(contains(dom, p) for p in pts)


def test_diameter_box():
    # the dual norm of a box is l2: the length of its span, and the largest
    # dual-norm distance between two sampled points stays below it
    box = box_domain([-1.0, -2.0], [1.0, 0.0])
    assert dual_diameter(box) == 2.0 * np.sqrt(2.0)
    pts = sample_domain(box, np.random.default_rng(0), size=200)
    assert dual_norm_of(box, pts[:, None] - pts[None]).max() <= dual_diameter(box)


def test_diameter_simplex():
    # the dual norm of a simplex is linf: two extreme points differ by the span
    dom = simplex_domain(3, FLOOR)
    span = 1.0 - 3 * FLOOR
    assert dual_diameter(dom) == span
    corners = FLOOR + span * np.eye(3)
    assert dual_norm_of(dom, corners[0] - corners[1]) == pytest.approx(span, rel=1e-15)
    pts = sample_domain(dom, np.random.default_rng(0), size=200)
    assert dual_norm_of(dom, pts[:, None] - pts[None]).max() <= span


def test_norms():
    domain = _box2()
    assert norm_of(domain, [3.0, 4.0]) == pytest.approx(5.0)
    assert dual_norm_of(domain, [3.0, 4.0]) == pytest.approx(5.0)
    kl = _simplex(2)
    assert norm_of(kl, [0.25, -0.5]) == pytest.approx(0.75)
    assert dual_norm_of(kl, [0.25, -0.5]) == pytest.approx(0.5)
    # along the last axis, for any stack of points
    v = np.random.default_rng(3).normal(size=(2, 5, 2))
    np.testing.assert_array_equal(norm_of(domain, v), np.linalg.norm(v, axis=-1))
    np.testing.assert_array_equal(norm_of(kl, v), np.abs(v).sum(axis=-1))


# ------------------------------------------- short-axis reductions, bit for bit

_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   np.finfo(float).tiny, 1e300, -1e300, BIG, -BIG, 1.0, -3.5])


def _values(shape, seed, share):
    """Normal draws over sixteen decades, with a share of them replaced by
    signed zeros, infinities, NaN, subnormals, the smallest normal, 1e300 and
    the largest float, whose sums overflow."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    edge = rng.random(shape) < share
    x[edge] = rng.choice(_EDGES, int(edge.sum()))
    return x


def _layouts(shape, seed, share):
    """A C-ordered array, row 1 of a stack of three (as trace[r] is of a run's
    (R, T+1, n, d) iterates), a Fortran-ordered copy and an array of -0.0
    (numpy's sum starts from 0.0, so its -0.0 entries sum to 0.0)."""
    stack = _values((3,) + shape, seed, share)
    return {"c": stack[0], "view": stack[1], "fortran": np.asfortranarray(stack[2]),
            "negative zeros": np.full(shape, -0.0)}


def _outcome(reduce):
    """What reduce() gives under np.errstate(all="raise"): its array, or
    FloatingPointError."""
    with np.errstate(all="raise"):
        try:
            return reduce()
        except FloatingPointError:
            return FloatingPointError


def _assert_same_bits(got, want):
    """Same shape, dtype and bits, where a NaN matches any NaN: IEEE leaves a
    NaN's sign and payload open, and numpy's own loops differ in them."""
    assert (got is FloatingPointError) == (want is FloatingPointError)
    if want is FloatingPointError:
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_reduce_last_is_numpys_reduce_bit_for_bit(d):
    # 2 <= d < 8 takes one call per column, d = 1 and d >= 8 numpy's reduce;
    # either way both forms raise under errstate, or neither does
    for lead in ((), (1,), (5,), (301,), (3, 7), (2, 9, 3)):
        for seed, share in enumerate((0.0, 0.02, 0.3, 1.0)):
            for x in _layouts(lead + (d,), seed, share).values():
                for ufunc in (np.add, np.maximum):
                    _assert_same_bits(_outcome(lambda: _reduce_last(ufunc, x)),
                                      _outcome(lambda: ufunc.reduce(x, axis=-1)))
                    with np.errstate(all="ignore"):
                        _assert_same_bits(_reduce_last(ufunc, x), ufunc.reduce(x, axis=-1))


@pytest.mark.parametrize("n", range(1, 31))
def test_sum_slices_is_numpys_agent_sum_bit_for_bit(n):
    # one add per agent in index order, and the agent mean as the sum over n;
    # with d = 1, or a Fortran-ordered array, the agents are the innermost
    # axis and both are numpy's (pairwise) reduce
    for rounds, d in ((1, 2), (9, 1), (9, 2), (301, 4), (4, 5)):
        for seed, share in enumerate((0.0, 0.02, 0.3, 1.0)):
            for x in _layouts((rounds, n, d), seed, share).values():
                _assert_same_bits(_outcome(lambda: _sum_slices(x, 1)),
                                  _outcome(lambda: np.add.reduce(x, axis=1)))
                with np.errstate(all="ignore"):
                    got = _sum_slices(x, 1)
                    _assert_same_bits(got, np.add.reduce(x, axis=1))
                    _assert_same_bits(got / n, x.mean(axis=1))
                    _assert_same_bits(_sum_slices(x, -2), got)
                assert not np.shares_memory(got, x)


def _reference_norm(domain, v):
    """norm_of as one numpy call: np.linalg.norm on a box, the sum of |v| on a simplex."""
    return np.linalg.norm(v, axis=-1) if domain.kind == "box" else np.abs(v).sum(axis=-1)


def _reference_dual_norm(domain, v):
    """dual_norm_of as one numpy call: np.linalg.norm on a box, the max of |v| on a simplex."""
    return np.linalg.norm(v, axis=-1) if domain.kind == "box" else np.abs(v).max(axis=-1)


def test_norms_equal_numpys_reductions_on_measured_runs():
    # every suite case at seeds 0-2, a dim-9 box, one agent and T = 0: the
    # iterates, their deviations from the agent mean, the target's steps and
    # any linear gradients
    for name, seed, trace, ens, path in measured_runs():
        domain = trace.domain
        vectors = [trace.x, trace.x - trace.x.mean(axis=1)[:, None, :], np.diff(path, axis=0),
                   path[0]]
        if ens.gradients is not None:
            vectors.append(ens.gradients)
        for v in vectors:
            for got, want in ((norm_of(domain, v), _reference_norm(domain, v)),
                              (dual_norm_of(domain, v), _reference_dual_norm(domain, v))):
                assert np.shape(got) == np.shape(want), (name, seed)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, seed)


# ---------------------------------------------------------------- bregman


def test_bregman_euclidean_is_half_squared_distance():
    domain = _box2()
    assert bregman(domain, [0.5, -0.5], [-0.5, 0.5]) == pytest.approx(1.0)


def test_bregman_kl_frozen_value():
    # sum x log(x/y) at x=(1/2,1/2), y=(1/4,3/4): log(2)/2 + log(2/3)/2
    domain = _simplex(2)
    assert bregman(domain, [0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.14384103622589042, abs=1e-15)


def test_bregman_zero_iff_equal():
    rng = np.random.default_rng(1)
    for domain in (_box2(), _simplex(3)):
        x = sample_domain(domain, rng)
        assert bregman(domain, x, x) == pytest.approx(0.0, abs=1e-12)


def test_bregman_rejects_points_outside():
    domain = _box2()
    with pytest.raises(ValueError, match="outside"):
        bregman(domain, [2.0, 0.0], [0.0, 0.0])
    kl = _simplex(2)
    with pytest.raises(ValueError, match="outside"):
        bregman(kl, [0.001, 0.999], [0.5, 0.5])


def test_bregman_strong_convexity_lower_bound():
    # D(x, y) >= ||x - y||^2 / 2 in the geometry norm
    rng = np.random.default_rng(2)
    for domain in (_box2(), _simplex(3)):
        for _ in range(200):
            x = sample_domain(domain, rng)
            y = sample_domain(domain, rng)
            lower = 0.5 * float(norm_of(domain, x - y)) ** 2
            assert bregman(domain, x, y) >= lower - 1e-10


def test_separate_convexity_in_second_argument():
    # D(x, sum_k a_k y_k) <= sum_k a_k D(x, y_k) for sampled x, y_k and weights a
    for domain in (_box2(), _simplex(3)):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = sample_domain(domain, rng)
            m = int(rng.integers(2, 5))
            ys = sample_domain(domain, rng, size=m)
            alpha = rng.dirichlet(np.ones(m))
            mixture = alpha @ ys
            if domain.kind == "simplex":
                # rounding can leave the mixture a hair outside; renormalize
                mixture = mixture / mixture.sum()
            weighted = sum(a * bregman(domain, x, y) for a, y in zip(alpha, ys))
            gap = bregman(domain, x, mixture) - weighted
            assert gap <= 1e-9, (domain.kind, gap)


# ---------------------------------------------------------------- prox


def test_prox_euclidean_clamps():
    domain = box_domain([-1.0], [1.0])
    out = prox(domain, np.array([-1.0]), np.array([0.9]), 0.5)
    assert out[0] == 1.0  # 0.9 + 0.5 clamped to the upper face


def test_prox_euclidean_matches_free_step_inside():
    domain = _box2()
    out = prox(domain, np.array([0.2, -0.4]), np.array([0.1, 0.1]), 0.5)
    np.testing.assert_allclose(out, [0.0, 0.3], atol=1e-15)


def test_prox_euclidean_free_domain_never_clips():
    # a long step that stays inside a box of +-finfo.max is never clipped
    wide = box_domain([-BIG] * 2, [BIG] * 2)
    out = prox(wide, np.array([5.0, -5.0]), np.array([0.0, 0.0]), 2.0)
    np.testing.assert_allclose(out, [-10.0, 10.0], atol=1e-15)


def test_prox_euclidean_brute_force_grid():
    domain = _box2()
    rng = np.random.default_rng(3)
    step = 1e-3
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([a.ravel(), b.ravel()], axis=1)
    for _ in range(3):
        y = rng.uniform(-1, 1, 2)
        g = rng.normal(0, 1, 2)
        eta = rng.uniform(0.1, 1.0)
        obj = eta * (pts @ g) + 0.5 * np.sum((pts - y) ** 2, axis=1)
        best = pts[np.argmin(obj)]
        out = prox(domain, g, y, eta)
        assert np.abs(out - best).max() <= 2 * step


def test_prox_kl_closed_form_two_coordinates():
    # y=(1/2,1/2), g=(-log 2, 0), eta=1: weights (1, 1/2) -> (2/3, 1/3)
    domain = _simplex(2)
    out = prox(domain, np.array([-np.log(2.0), 0.0]), np.array([0.5, 0.5]), 1.0)
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_prox_kl_matches_grid_search(d):
    domain = _simplex(d)
    rng = np.random.default_rng(4)
    step = 1e-3
    for _ in range(3):
        y = sample_domain(domain, rng)
        g = rng.normal(0.0, 2.0, d)
        eta = rng.uniform(0.05, 1.0)
        out = prox(domain, g, y, eta)
        best = _kl_grid_min(y, g, eta, d, step)
        assert np.abs(out - best).sum() <= 2e-3


def test_prox_kl_huge_gradient_no_overflow():
    domain = _simplex(3)
    out = prox(domain, np.array([1e5, -1e5, 0.0]), np.full(3, 1.0 / 3.0), 1.0)
    assert np.all(np.isfinite(out))
    assert contains(domain, out)
    # the favored coordinate takes all free mass
    np.testing.assert_allclose(out, [FLOOR, 1.0 - 2 * FLOOR, FLOOR], atol=1e-12)


def test_prox_batch_rows_match_single_calls():
    rng = np.random.default_rng(5)
    for domain in (_box2(), _simplex(3)):
        ys = sample_domain(domain, rng, size=4)
        gs = rng.normal(0, 1, ys.shape)
        batch = prox(domain, gs, ys, 0.3)
        for i in range(4):
            np.testing.assert_allclose(batch[i], prox(domain, gs[i], ys[i], 0.3),
                                       atol=1e-15)


def test_prox_validation():
    domain = _box2()
    with pytest.raises(ValueError, match="positive"):
        prox(domain, np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="outside"):
        prox(domain, np.zeros(2), np.array([3.0, 0.0]), 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        prox(domain, np.array([np.nan, 0.0]), np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="shapes"):
        prox(domain, np.zeros(3), np.zeros(2), 0.1)


def test_prox_accepts_finite_gradients_whose_sum_overflows():
    # every entry is finite though their sum is not: not an error
    huge = np.array([[1e308, 1e308], [-1e308, -1e308]])
    out = prox(_box2(), huge, np.zeros((2, 2)), 0.5)
    np.testing.assert_array_equal(out, [[-1.0, -1.0], [1.0, 1.0]])
    out = prox(_simplex(3), np.array([1e308, 1e308, -1e308]), np.full(3, 1.0 / 3.0), 0.5)
    np.testing.assert_allclose(out, [FLOOR, FLOOR, 1.0 - 2 * FLOOR], atol=1e-12)


def test_prox_kl_puts_the_mass_where_an_overflowing_step_points():
    # eta * g past -1.8e308 makes log y - eta g +inf: the minimizer is still
    # well defined, all free mass on the largest exponent (split between
    # equal ones), and a row whose product stays finite keeps its own bits
    domain, y = simplex_domain(3, 0.01), np.full(3, 1.0 / 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = prox(domain, np.array([-1e308, 0.0, 0.0]), y, 4.0)
        rows = prox(domain, np.array([[0.0, 1e308, -1e308], [-1e308, -1e308, 0.0],
                                      [0.3, -0.2, 0.1]]), np.tile(y, (3, 1)), 4.0)
    np.testing.assert_allclose(alone, [0.98, 0.01, 0.01], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rows[:2], [[0.01, 0.01, 0.98], [0.495, 0.495, 0.01]],
                               rtol=0, atol=1e-15)
    assert rows[2].tobytes() == prox(domain, np.array([0.3, -0.2, 0.1]), y, 4.0).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("domain", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_rejects_any_non_finite_gradient_entry(domain, bad):
    y = np.full((2, 2), 0.5)
    for spot in range(4):
        g = np.array([[1e308, -1e308], [1e308, 1.0]])
        g.flat[spot] = bad
        with pytest.raises(ValueError, match="gradient has non-finite entries"):
            prox(domain, g, y, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
@pytest.mark.parametrize("domain", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_rejects_non_finite_and_non_positive_step_sizes(domain, bad):
    # a scalar step, and a (R, 1, 1) replicate stack with one bad replicate
    y = np.full((3, 2, 2), 0.5)
    g = np.ones((3, 2, 2))
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        prox(domain, g[0, 0], y[0, 0], bad)
    for spot in range(3):
        eta = np.full((3, 1, 1), 0.5)
        eta[spot] = bad
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            prox(domain, g, y, eta)
    assert prox(domain, g, y, np.full((3, 1, 1), 0.5)).shape == (3, 2, 2)
    # a float shared by the whole stack takes the one-comparison path, and
    # refuses what the array path refuses
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        prox(domain, g, y, float(bad))


@pytest.mark.parametrize("domain", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_refuses_a_step_array_that_grows_the_anchor(domain):
    # a (3, 1, 1) step against (25, 2) inputs would broadcast them to (3, 25, 2)
    y = np.full((25, 2), 0.5)
    g = np.ones((25, 2))
    for eta in (np.full((3, 1, 1), 0.5), np.full((1, 1, 1), 0.5), np.full((2, 25, 2), 0.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"step size shape {eta.shape} grows the anchor shape (25, 2)")):
            prox(domain, g, y, eta)
    # steps that broadcast into y's own shape are fine
    for eta in (np.full((25, 1), 0.5), np.full((1, 2), 0.5), np.float64(0.5), 0.5):
        assert prox(domain, g, y, eta).shape == (25, 2)


@pytest.mark.parametrize("domain", [box_domain([-1.0] * 4, [1.0] * 4),
                                  _simplex(4)], ids=["box", "simplex"])
def test_prox_float_step_equals_the_replicate_step_array(domain):
    # the engine hands prox one float when every replicate shares the step:
    # the same bits as that step as an (R, 1, 1) array, clamped and floored
    # entries included
    rng = np.random.default_rng(12)
    y = sample_domain(domain, rng, 5 * 6).reshape(5, 6, 4)
    g = rng.normal(0.0, 30.0, (5, 6, 4))
    edges = (-1.0, 1.0) if domain.kind == "box" else (FLOOR,)
    for eta in (0.5, 0.013, 7.0):
        want = prox(domain, g, y, np.full((5, 1, 1), eta))
        for step in (eta, np.float64(eta)):
            got = prox(domain, g, y, step)
            assert got.shape == y.shape
            assert got.tobytes() == want.tobytes()
    assert np.isin(want, edges).any()


def test_prox_optimality_inequality_50_references():
    rng = np.random.default_rng(6)
    for domain in (_box2(), _simplex(3)):
        y = sample_domain(domain, rng)
        g = rng.normal(0, 1, domain.d)
        for _ in range(50):
            ref = sample_domain(domain, rng)
            assert prox_inequality_gap(domain, g, y, 0.4, ref) <= 1e-9


# ------------------------------------------------------- floor projection


def test_floor_projection_raises_low_coordinates():
    out = project_floored_simplex(np.array([0.001, 0.2, 0.799]), FLOOR)
    assert contains(simplex_domain(3, FLOOR), out)
    assert out[0] == pytest.approx(FLOOR)
    # remaining mass keeps the relative proportions of the other coordinates
    assert out[1] / out[2] == pytest.approx(0.2 / 0.799, rel=1e-12)


def test_floor_projection_cascades():
    # several coordinates below the floor force repeated passes
    v = np.array([1e-6, 1e-6, 1e-6, 1.0])
    out = project_floored_simplex(v, 0.05)
    np.testing.assert_allclose(out, [0.05, 0.05, 0.05, 0.85], atol=1e-12)


def test_floor_projection_identity_when_feasible():
    v = np.array([0.3, 0.3, 0.4])
    np.testing.assert_allclose(project_floored_simplex(v, FLOOR), v, atol=1e-15)


def test_floor_projection_rejects_nonpositive_mass():
    with pytest.raises(ValueError, match="positive mass"):
        project_floored_simplex(np.array([-1.0, 0.0]), FLOOR)


def test_floor_projection_is_kl_optimal():
    # the projected point minimizes the prox objective among grid candidates,
    # so flooring then rescaling is not an approximation on these inputs
    domain = _simplex(2)
    y = np.array([0.5, 0.5])
    g = np.array([8.0, 0.0])  # pushes coordinate 0 below the floor
    out = prox(domain, g, y, 1.0)
    assert out[0] == pytest.approx(FLOOR)
    best = _kl_grid_min(y, g, 1.0, 2, 1e-4)
    assert np.abs(out - best).sum() <= 2e-4


# ---------------------------------------------------------------- constants


def test_geometry_constants_box():
    consts = geometry_constants(_box2())
    assert consts.r2 == pytest.approx(4.0)  # ||hi - lo||^2 / 2 = (4+4)/2
    assert consts.k == pytest.approx(2.0 * np.sqrt(2.0))


def test_geometry_constants_simplex():
    consts = geometry_constants(_simplex(3))
    assert consts.r2 == pytest.approx(np.log(100.0))
    assert consts.k == pytest.approx(3.0 * np.log(100.0))


def test_geometry_constants_dominate_divergence():
    # r2 really is an upper bound for D over sampled pairs
    rng = np.random.default_rng(8)
    for domain in (_box2(), _simplex(3)):
        consts = geometry_constants(domain)
        for _ in range(200):
            x = sample_domain(domain, rng)
            y = sample_domain(domain, rng)
            assert bregman(domain, x, y) <= consts.r2 + 1e-9


# ------------------------------------------------------------ dynamics verdict


def test_nonexpansive_euclidean_exact():
    domain = _box2()
    for scale in (1.0, 0.9, 1.0 + 5e-13):
        assert dynamics_verdict(domain, scale * np.eye(2)) == (True, True, "")
    # sigma_max past 1 + 1e-12 expands, though the box keeps it within DOMAIN_TOL
    assert dynamics_verdict(domain, (1.0 + 2e-12) * np.eye(2)) == (True, False, "sigma_max(A)=1")
    keeps, non_expansive, why = dynamics_verdict(domain, np.array([[1.0, 0.1], [0.0, 1.0]]))
    assert (keeps, non_expansive) == (False, False)
    # sigma_max of the shear is 1.0512492197250394
    assert why == ("row 0 maps the box onto [-1.1, 1.1], outside [-1, 1]; "
                   "sigma_max(A)=1.05125")


def test_a_box_is_kept_by_the_image_of_each_row_not_by_sigma_max():
    # a swap has sigma_max 1, yet on a box that is not a cube it sends row 0 past its
    # bounds; 0.9 I keeps any box around the origin
    keeps, non_expansive, why = dynamics_verdict(box_domain([-1.0, -5.0], [1.0, 5.0]),
                                                 np.eye(2)[[1, 0]])
    assert (keeps, non_expansive) == (False, True)
    assert why == "row 0 maps the box onto [-5, 5], outside [-1, 1]; sigma_max(A)=1"
    assert dynamics_verdict(box_domain([-5.0] * 4, [5.0] * 4), 0.9 * np.eye(4)) == (
        True, True, "")
    # the image interval's ends hold to DOMAIN_TOL, as inside does
    assert dynamics_verdict(_box2(), (1.0 + 0.5 * DOMAIN_TOL) * np.eye(2))[0]
    assert not dynamics_verdict(_box2(), (1.0 + 2.0 * DOMAIN_TOL) * np.eye(2))[0]


def test_a_box_image_past_the_float_range_fails_without_a_warning():
    # the row's interval ends sum +inf and -inf: NaN, which fails the test
    huge = box_domain([-1e308, -1e308], [1e308, 1e308])
    keeps, _, why = dynamics_verdict(huge, np.array([[1e300, -1e300], [0.0, 1.0]]))
    assert not keeps and why.startswith("row 0 maps the box onto [-inf, inf]")


def test_nonexpansive_kl_permutation_passes():
    assert dynamics_verdict(_simplex(3), np.eye(3)[[2, 0, 1]]) == (True, True, "")


def test_a_nonnegative_column_stochastic_a_keeps_the_simplex_and_contracts_kl():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])  # row sums 1.1, 1, 0.9
    domain = _simplex(3)
    assert dynamics_verdict(domain, a) == (True, True, "")
    # what the verdict claims, on sampled pairs: the images stay inside, and the
    # divergence does not grow (the data-processing inequality)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = sample_domain(domain, rng), sample_domain(domain, rng)
        assert bregman(domain, a @ x, a @ y) <= bregman(domain, x, y) + 1e-12


def test_a_scaled_identity_leaves_the_simplex_by_its_first_column():
    keeps, non_expansive, why = dynamics_verdict(_simplex(3), 0.9 * np.eye(3))
    assert (keeps, non_expansive) == (False, None)
    assert why == ("column 0 of A sums to 0.9, not 1; A is not column-stochastic, so KL "
                   "non-expansiveness is unverified; sigma_max(A)=0.9")


def test_a_column_stochastic_a_can_push_a_vertex_below_the_floor():
    # every column sums to 1, but row 1 of A is zero: each vertex's image has
    # coordinate 1 at 0, below the floor
    a = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    keeps, non_expansive, why = dynamics_verdict(_simplex(3), a)
    assert (keeps, non_expansive) == (False, True)
    assert why.startswith("row 1 takes a vertex to 0, below the floor 0.01; ")


def test_a_negative_entry_leaves_kl_non_expansiveness_unverified():
    # its columns sum to 1 and, with a floor of 0.3, the vertices' images stay
    # above it, so the domain is kept; a negative entry voids the contraction
    a = np.array([[0.2, 0.55, 0.2], [0.3, 0.55, 0.15], [0.5, -0.1, 0.65]])
    keeps, non_expansive, why = dynamics_verdict(simplex_domain(3, 0.3), a)
    assert (keeps, non_expansive) == (True, None)
    assert why.startswith("A is not column-stochastic, so KL non-expansiveness is unverified; ")
    keeps, non_expansive, _ = dynamics_verdict(_simplex(3), a)
    assert (keeps, non_expansive) == (False, None)
