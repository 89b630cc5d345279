"""End-to-end acceptance suite.

Each test asserts one advertised property of the library -- guarantee
dominance, scaling behavior, reproduction of the tracking experiment,
operator correctness, oracle calibration, output determinism -- and records
a one-line verdict that conftest prints after the session summary.
"""

import time

import numpy as np
import pytest

from domd.cli import main
from domd.config import parse_config
from domd.dynamics import generate_path, identity_dynamics
from domd.geometry import (box_domain, euclidean_geometry, kl_geometry, prox,
                           prox_inequality_gap, sample_domain, simplex_domain)
from domd.harness import (run_experiment, stochastic_mean_regret, sweep,
                          target_position_path_length, tracking_error_stats,
                          variation_scaling_study, verify_bounds)
from domd.objectives import (gradient_exact, tracking_ensemble,
                             tracking_gradient_stochastic)

SMALL_QUAD = """
[experiment]
horizon = 40
gradient_mode = exact

[network]
graph = grid
rows = 2
cols = 2

[geometry]
dim = 2
box_low = -5
box_high = 5

[dynamics]
model = identity

[noise]
kind = zero
target_init = 0.5, -0.5

[loss]
kind = synthetic_quadratic

[schedule]
kind = inv_sqrt
eta0 = 0.2
"""


@pytest.fixture(scope="module")
def full_verify():
    start = time.perf_counter()
    report = verify_bounds(seeds=20)
    return report, time.perf_counter() - start


def test_01_disagreement_envelope_dominance(full_verify, record_criterion):
    report, elapsed = full_verify
    rows = [r for r in report.rows if r.check == "disagreement"]
    box_rows = [r for r in rows if r.case.startswith("box_")]
    worst = min(r.slack for r in rows)
    ok = (len(box_rows) > 0 and all(r.passed for r in rows) and elapsed < 30.0)
    record_criterion(
        1, "network disagreement never exceeds its envelope", ok,
        f"{len(rows)} checks over 20 seeds, min slack {worst:.3g}, {elapsed:.1f}s")
    assert box_rows
    assert all(r.passed for r in rows)
    assert elapsed < 30.0


def test_02_regret_guarantee_dominance(full_verify, record_criterion):
    report, _ = full_verify
    rows = [r for r in report.rows if r.check == "regret_total"]
    control = verify_bounds(seeds=2, l_scale=0.5)
    ok = (all(r.passed for r in rows) and report.passed
          and control.violations >= 1)
    record_criterion(
        2, "dynamic regret stays under its guarantee; an understated "
           "gradient bound is caught", ok,
        f"{len(rows)} regret checks pass, negative control trips "
        f"{control.violations} checks")
    assert all(r.passed for r in rows)
    assert report.passed
    assert control.violations >= 1


def test_03_stochastic_regret_guarantee(record_criterion):
    start = time.perf_counter()
    mean, bound = stochastic_mean_regret("box_quad_noisy_n4_t100", runs=200)
    elapsed = time.perf_counter() - start
    ok = mean <= bound and elapsed < 120.0
    record_criterion(
        3, "200-run mean regret respects the noisy-oracle guarantee", ok,
        f"mean {mean:.4g} <= bound {bound:.4g}, {elapsed:.1f}s")
    assert mean <= bound
    assert elapsed < 120.0


def test_04_variation_tuned_scaling(record_criterion):
    study = variation_scaling_study()
    band = float(study.ratios.max() / study.ratios.min())
    doubling = study.regrets[1:] / study.regrets[:-1]
    exponent = float(np.polyfit(np.log(study.horizons),
                                np.log(study.regrets), 1)[0])
    ok = band <= 2.0 and np.all(doubling <= 2.1) and exponent <= 1.05
    record_criterion(
        4, "regret at the variation-tuned step grows at most linearly", ok,
        f"ratio band {band:.3f} (cap 2.0), worst doubling {doubling.max():.3f} "
        f"(cap 2.1), growth exponent {exponent:.3f} (cap 1.05)")
    assert band <= 2.0
    # regression pins from the seed-fixed pilot: doubling 2.025, exponent 1.0011
    assert np.all(doubling <= 2.1)
    assert exponent <= 1.05


def test_05_noise_sweep_ordering(record_criterion):
    cfg = parse_config("", env={})  # 5x5 grid, T=1000, eta=0.5, 50 replicates
    start = time.perf_counter()
    result = sweep(cfg, "noise.sigma_v2", (0.25, 0.5, 0.75, 1.0))
    elapsed = time.perf_counter() - start
    finals = result.final_mean
    ok = bool(np.all(np.diff(finals) > 0)) and elapsed < 120.0
    record_criterion(
        5, "normalized regret increases with the target noise intensity", ok,
        "finals " + ", ".join(f"{v:.3f}" for v in finals) + f"; {elapsed:.1f}s")
    assert np.all(np.diff(finals) > 0)
    assert elapsed < 120.0


def test_06_tracking_error_band(record_criterion):
    cfg = parse_config("", env={})  # sigma_v2=0.5, seed 1
    result = run_experiment(cfg)
    errs = tracking_error_stats(result.trace, result.path, tail=100)
    length = target_position_path_length(result.path)
    frac = float(errs.max() / length)
    ok = bool(np.all(errs <= 0.10 * length)) and float(errs.max()) <= 3.5
    record_criterion(
        6, "every agent's late tracking error is under 10% of the target's "
           "path length", ok,
        f"worst mean error {errs.max():.3f} = {100 * frac:.2f}% of "
        f"{length:.0f}; pinned cap 3.5")
    assert np.all(errs <= 0.10 * length)
    assert errs.max() <= 3.5  # regression pin from the seed-fixed pilot (3.015)


def _simplex_grid(d, floor, step=1e-3):
    if d == 2:
        p1 = np.arange(floor, 1.0 - floor + step / 2, step)
        pts = np.stack([p1, 1.0 - p1], axis=1)
    else:
        p1 = np.arange(floor, 1.0, step)
        m1, m2 = np.meshgrid(p1, p1, indexing="ij")
        m3 = 1.0 - m1 - m2
        keep = m3 >= floor - 1e-12
        pts = np.stack([m1[keep], m2[keep], m3[keep]], axis=1)
    return pts, np.sum(pts * np.log(pts), axis=1)


def test_07_prox_correctness(record_criterion):
    rng = np.random.default_rng(7)
    worst_grid = 0.0
    for d in (2, 3):
        domain = simplex_domain(d, 0.01)
        geom = kl_geometry(domain)
        pts, entropy = _simplex_grid(d, domain.floor)
        for _ in range(4):
            y = sample_domain(domain, rng)
            g = rng.normal(0.0, 1.0, d)
            for eta in (0.1, 0.5):
                x = prox(geom, g, y, eta)
                obj = eta * (pts @ g) + entropy - pts @ np.log(y)
                best = pts[int(np.argmin(obj))]
                worst_grid = max(worst_grid, float(np.abs(x - best).sum()))

    box = box_domain([-2.0] * 3, [2.0] * 3)
    egeom = euclidean_geometry(box)
    clamp_exact = True
    for _ in range(20):
        y = rng.uniform(-2.0, 2.0, 3)
        g = rng.normal(0.0, 2.0, 3)
        eta = float(rng.uniform(0.05, 1.0))
        out = prox(egeom, g, y, eta)
        clamp_exact = clamp_exact and np.array_equal(
            out, np.clip(y - eta * g, box.lo, box.hi))

    worst_cert = -np.inf
    for geom in (egeom, kl_geometry(simplex_domain(3, 0.01))):
        for _ in range(5):
            y = sample_domain(geom.domain, rng)
            g = rng.normal(0.0, 1.0, geom.domain.d)
            eta = float(rng.uniform(0.05, 1.0))
            for _ in range(50):
                ref = sample_domain(geom.domain, rng)
                gap = prox_inequality_gap(geom, g, y, eta, ref)
                worst_cert = max(worst_cert, float(gap))

    ok = worst_grid <= 2e-3 and clamp_exact and worst_cert <= 1e-9
    record_criterion(
        7, "prox operators match brute force and certify their optimality", ok,
        f"grid gap {worst_grid:.2e} (cap 2e-3), clamp exact: {clamp_exact}, "
        f"certificate slack {worst_cert:.2e}")
    assert worst_grid <= 2e-3
    assert clamp_exact
    assert worst_cert <= 1e-9


def test_08_oracle_expectation(record_criterion):
    domain = box_domain([-5.0] * 4, [5.0] * 4)
    ens = tracking_ensemble(6, domain)
    path = generate_path(identity_dynamics(4), np.zeros((5, 4)),
                         np.array([0.5, -0.5, 1.0, 0.25]), 5)
    x = np.array([0.3, -1.2, 2.0, 0.8])
    i, t = 0, 3
    exact = gradient_exact(ens, i, t, x, path)
    k = ens.obs.assignment[i]
    draws = 100_000
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(draws):
        total += tracking_gradient_stochastic(ens, i, t, x, path, rng)[k]
    mean = total / draws
    se = np.sqrt(1.0 / 3.0 / draws)  # single-draw variance = var U[-1,1]
    dev = abs(mean - 0.5 * exact[k])
    ok = dev <= 3.0 * se
    record_criterion(
        8, "tracking oracle mean matches half the exact gradient", ok,
        f"deviation {dev:.2e} <= 3 SE = {3 * se:.2e} over {draws} draws")
    assert dev <= 3.0 * se


def test_09_cli_determinism(tmp_path, record_criterion):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_QUAD)
    commands = [
        ("run",
         ["run", "--config", str(cfg_file)],
         ("regret.csv", "disagreement.csv", "trajectory.csv", "bounds.csv")),
        ("sweep",
         ["sweep", "--config", str(cfg_file), "--param", "eta0",
          "--values", "0.1,0.2", "--runs", "2"],
         ("sweep.csv",)),
        ("verify-bounds",
         ["verify-bounds", "--seeds", "1"],
         ("verify.csv",)),
    ]
    identical = True
    for tag, argv, names in commands:
        out_a, out_b = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for name in names:
            identical = identical and (
                (out_a / name).read_bytes() == (out_b / name).read_bytes())
    record_criterion(
        9, "repeated commands produce byte-identical outputs", identical,
        "run, sweep and verify-bounds compared file-for-file")
    assert identical
