"""Bregman divergences, prox steps and domain constants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domd.geometry import (DOMAIN_TOL, bregman, box_domain, check_nonexpansive,
                           contains, diameter, dual_norm_of, euclidean_geometry,
                           geometry_constants, inside, kl_geometry,
                           project_floored_simplex, prox, prox_inequality_gap,
                           sample_domain, simplex_domain, vector_norm)

FLOOR = 0.01
BIG = np.finfo(float).max


def _box2():
    return euclidean_geometry(box_domain([-1.0, -1.0], [1.0, 1.0]))


def _simplex(d=2):
    return kl_geometry(simplex_domain(d, FLOOR))


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
    box = box_domain([-1.0, -1.0], [1.0, 1.0])
    assert diameter(box, "l2") == pytest.approx(2.0 * np.sqrt(2.0))
    assert diameter(box, "l1") == pytest.approx(4.0)
    assert diameter(box, "linf") == pytest.approx(2.0)


def test_diameter_simplex():
    dom = simplex_domain(3, FLOOR)
    span = 1.0 - 3 * FLOOR
    assert diameter(dom, "l1") == pytest.approx(2.0 * span)
    assert diameter(dom, "linf") == pytest.approx(span)
    with pytest.raises(ValueError):
        diameter(dom, "l3")


def test_geometry_pairing_rules():
    with pytest.raises(ValueError):
        euclidean_geometry(simplex_domain(2, FLOOR))
    with pytest.raises(ValueError):
        kl_geometry(box_domain([0.0], [1.0]))


def test_norms():
    geom = _box2()
    assert vector_norm(geom.norm_kind, [3.0, 4.0]) == pytest.approx(5.0)
    assert dual_norm_of(geom, [3.0, 4.0]) == pytest.approx(5.0)
    kl = _simplex(2)
    assert vector_norm(kl.norm_kind, [0.25, -0.5]) == pytest.approx(0.75)
    assert dual_norm_of(kl, [0.25, -0.5]) == pytest.approx(0.5)


# ---------------------------------------------------------------- bregman


def test_bregman_euclidean_is_half_squared_distance():
    geom = _box2()
    assert bregman(geom, [0.5, -0.5], [-0.5, 0.5]) == pytest.approx(1.0)


def test_bregman_kl_frozen_value():
    # sum x log(x/y) at x=(1/2,1/2), y=(1/4,3/4): log(2)/2 + log(2/3)/2
    geom = _simplex(2)
    assert bregman(geom, [0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.14384103622589042, abs=1e-15)


def test_bregman_zero_iff_equal():
    rng = np.random.default_rng(1)
    for geom in (_box2(), _simplex(3)):
        x = sample_domain(geom.domain, rng)
        assert bregman(geom, x, x) == pytest.approx(0.0, abs=1e-12)


def test_bregman_rejects_points_outside():
    geom = _box2()
    with pytest.raises(ValueError, match="outside"):
        bregman(geom, [2.0, 0.0], [0.0, 0.0])
    kl = _simplex(2)
    with pytest.raises(ValueError, match="outside"):
        bregman(kl, [0.001, 0.999], [0.5, 0.5])


def test_bregman_strong_convexity_lower_bound():
    # D(x, y) >= ||x - y||^2 / 2 in the geometry norm
    rng = np.random.default_rng(2)
    for geom in (_box2(), _simplex(3)):
        for _ in range(200):
            x = sample_domain(geom.domain, rng)
            y = sample_domain(geom.domain, rng)
            lower = 0.5 * float(vector_norm(geom.norm_kind, x - y)) ** 2
            assert bregman(geom, x, y) >= lower - 1e-10


def test_separate_convexity_in_second_argument():
    # D(x, sum_k a_k y_k) <= sum_k a_k D(x, y_k) for sampled x, y_k and weights a
    for geom in (_box2(), _simplex(3)):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = sample_domain(geom.domain, rng)
            m = int(rng.integers(2, 5))
            ys = sample_domain(geom.domain, rng, size=m)
            alpha = rng.dirichlet(np.ones(m))
            mixture = alpha @ ys
            if geom.kind == "kl":
                # rounding can leave the mixture a hair outside; renormalize
                mixture = mixture / mixture.sum()
            weighted = sum(a * bregman(geom, x, y) for a, y in zip(alpha, ys))
            gap = bregman(geom, x, mixture) - weighted
            assert gap <= 1e-9, (geom.kind, gap)


# ---------------------------------------------------------------- prox


def test_prox_euclidean_clamps():
    geom = euclidean_geometry(box_domain([-1.0], [1.0]))
    out = prox(geom, np.array([-1.0]), np.array([0.9]), 0.5)
    assert out[0] == 1.0  # 0.9 + 0.5 clamped to the upper face


def test_prox_euclidean_matches_free_step_inside():
    geom = _box2()
    out = prox(geom, np.array([0.2, -0.4]), np.array([0.1, 0.1]), 0.5)
    np.testing.assert_allclose(out, [0.0, 0.3], atol=1e-15)


def test_prox_euclidean_free_domain_never_clips():
    # a long step that stays inside a box of +-finfo.max is never clipped
    wide = euclidean_geometry(box_domain([-BIG] * 2, [BIG] * 2))
    out = prox(wide, np.array([5.0, -5.0]), np.array([0.0, 0.0]), 2.0)
    np.testing.assert_allclose(out, [-10.0, 10.0], atol=1e-15)


def test_prox_euclidean_brute_force_grid():
    geom = _box2()
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
        out = prox(geom, g, y, eta)
        assert np.abs(out - best).max() <= 2 * step


def test_prox_kl_closed_form_two_coordinates():
    # y=(1/2,1/2), g=(-log 2, 0), eta=1: weights (1, 1/2) -> (2/3, 1/3)
    geom = _simplex(2)
    out = prox(geom, np.array([-np.log(2.0), 0.0]), np.array([0.5, 0.5]), 1.0)
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_prox_kl_matches_grid_search(d):
    geom = _simplex(d)
    rng = np.random.default_rng(4)
    step = 1e-3
    for _ in range(3):
        y = sample_domain(geom.domain, rng)
        g = rng.normal(0.0, 2.0, d)
        eta = rng.uniform(0.05, 1.0)
        out = prox(geom, g, y, eta)
        best = _kl_grid_min(y, g, eta, d, step)
        assert np.abs(out - best).sum() <= 2e-3


def test_prox_kl_huge_gradient_no_overflow():
    geom = _simplex(3)
    out = prox(geom, np.array([1e5, -1e5, 0.0]), np.full(3, 1.0 / 3.0), 1.0)
    assert np.all(np.isfinite(out))
    assert contains(geom.domain, out)
    # the favored coordinate takes all free mass
    np.testing.assert_allclose(out, [FLOOR, 1.0 - 2 * FLOOR, FLOOR], atol=1e-12)


def test_prox_batch_rows_match_single_calls():
    rng = np.random.default_rng(5)
    for geom in (_box2(), _simplex(3)):
        ys = sample_domain(geom.domain, rng, size=4)
        gs = rng.normal(0, 1, ys.shape)
        batch = prox(geom, gs, ys, 0.3)
        for i in range(4):
            np.testing.assert_allclose(batch[i], prox(geom, gs[i], ys[i], 0.3),
                                       atol=1e-15)


def test_prox_validation():
    geom = _box2()
    with pytest.raises(ValueError, match="positive"):
        prox(geom, np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="outside"):
        prox(geom, np.zeros(2), np.array([3.0, 0.0]), 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        prox(geom, np.array([np.nan, 0.0]), np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="shapes"):
        prox(geom, np.zeros(3), np.zeros(2), 0.1)


def test_prox_accepts_finite_gradients_whose_sum_overflows():
    # every entry is finite though their sum is not: not an error
    huge = np.array([[1e308, 1e308], [-1e308, -1e308]])
    out = prox(_box2(), huge, np.zeros((2, 2)), 0.5)
    np.testing.assert_array_equal(out, [[-1.0, -1.0], [1.0, 1.0]])
    out = prox(_simplex(3), np.array([1e308, 1e308, -1e308]), np.full(3, 1.0 / 3.0), 0.5)
    np.testing.assert_allclose(out, [FLOOR, FLOOR, 1.0 - 2 * FLOOR], atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("geom", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_rejects_any_non_finite_gradient_entry(geom, bad):
    y = np.full((2, 2), 0.5)
    for spot in range(4):
        g = np.array([[1e308, -1e308], [1e308, 1.0]])
        g.flat[spot] = bad
        with pytest.raises(ValueError, match="gradient has non-finite entries"):
            prox(geom, g, y, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
@pytest.mark.parametrize("geom", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_rejects_non_finite_and_non_positive_step_sizes(geom, bad):
    # a scalar step, and a (R, 1, 1) replicate stack with one bad replicate
    y = np.full((3, 2, 2), 0.5)
    g = np.ones((3, 2, 2))
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        prox(geom, g[0, 0], y[0, 0], bad)
    for spot in range(3):
        eta = np.full((3, 1, 1), 0.5)
        eta[spot] = bad
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            prox(geom, g, y, eta)
    assert prox(geom, g, y, np.full((3, 1, 1), 0.5)).shape == (3, 2, 2)
    # a float shared by the whole stack takes the one-comparison path, and
    # refuses what the array path refuses
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        prox(geom, g, y, float(bad))


@pytest.mark.parametrize("geom", [_box2(), _simplex(2)], ids=["box", "simplex"])
def test_prox_refuses_a_step_array_that_grows_the_anchor(geom):
    # a (3, 1, 1) step against (25, 2) inputs would broadcast them to (3, 25, 2)
    y = np.full((25, 2), 0.5)
    g = np.ones((25, 2))
    for eta in (np.full((3, 1, 1), 0.5), np.full((1, 1, 1), 0.5), np.full((2, 25, 2), 0.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"step size shape {eta.shape} grows the anchor shape (25, 2)")):
            prox(geom, g, y, eta)
    # steps that broadcast into y's own shape are fine
    for eta in (np.full((25, 1), 0.5), np.full((1, 2), 0.5), np.float64(0.5), 0.5):
        assert prox(geom, g, y, eta).shape == (25, 2)


@pytest.mark.parametrize("geom", [euclidean_geometry(box_domain([-1.0] * 4, [1.0] * 4)),
                                  _simplex(4)], ids=["box", "simplex"])
def test_prox_float_step_equals_the_replicate_step_array(geom):
    # the engine hands prox one float when every replicate shares the step:
    # the same bits as that step as an (R, 1, 1) array, clamped and floored
    # entries included
    rng = np.random.default_rng(12)
    y = sample_domain(geom.domain, rng, 5 * 6).reshape(5, 6, 4)
    g = rng.normal(0.0, 30.0, (5, 6, 4))
    edges = (-1.0, 1.0) if geom.kind == "euclidean" else (FLOOR,)
    for eta in (0.5, 0.013, 7.0):
        want = prox(geom, g, y, np.full((5, 1, 1), eta))
        for step in (eta, np.float64(eta)):
            got = prox(geom, g, y, step)
            assert got.shape == y.shape
            assert got.tobytes() == want.tobytes()
    assert np.isin(want, edges).any()


def test_prox_optimality_inequality_50_references():
    rng = np.random.default_rng(6)
    for geom in (_box2(), _simplex(3)):
        y = sample_domain(geom.domain, rng)
        g = rng.normal(0, 1, geom.domain.d)
        for _ in range(50):
            ref = sample_domain(geom.domain, rng)
            assert prox_inequality_gap(geom, g, y, 0.4, ref) <= 1e-9


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
    geom = _simplex(2)
    y = np.array([0.5, 0.5])
    g = np.array([8.0, 0.0])  # pushes coordinate 0 below the floor
    out = prox(geom, g, y, 1.0)
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
    for geom in (_box2(), _simplex(3)):
        consts = geometry_constants(geom)
        for _ in range(200):
            x = sample_domain(geom.domain, rng)
            y = sample_domain(geom.domain, rng)
            assert bregman(geom, x, y) <= consts.r2 + 1e-9


# ------------------------------------------------------------ nonexpansive


def test_nonexpansive_euclidean_exact():
    geom = _box2()
    assert check_nonexpansive(geom, np.eye(2)).passed
    assert check_nonexpansive(geom, 0.9 * np.eye(2)).passed
    report = check_nonexpansive(geom, np.array([[1.0, 0.1], [0.0, 1.0]]))
    assert not report.passed
    assert report.sigma_max == pytest.approx(1.0512492197250394, abs=1e-12)


def test_nonexpansive_kl_permutation_passes():
    geom = _simplex(3)
    perm = np.eye(3)[[2, 0, 1]]
    report = check_nonexpansive(geom, perm, trials=200, seed=0)
    assert report.passed
    assert report.checked > 0
