"""Properties that hold for every input: prox optimality, mean-preserving mixing
and deterministic runs.

Tier-1 draws a fixed, derandomized sample of each (the profile "properties").
"""

import tempfile
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from domd.config import ExperimentConfig
from domd.geometry import (box_domain, contains, prox, prox_inequality_gap, sample_domain,
                           simplex_domain)
from domd.harness import run_experiment
from domd.network import (DENSE_MIX_MAX_NODES, Graph, build_complete_graph, build_grid_graph,
                          build_path_graph, metropolis_weights, mix, random_connected_graph)

settings.register_profile("properties", max_examples=100, derandomize=True, deadline=None)
PROFILE = settings.get_profile("properties")

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def _domains(draw):
    d = draw(st.integers(2, 5))
    if draw(st.booleans()):
        lo = np.array(draw(st.lists(st.floats(-10.0, 9.0), min_size=d, max_size=d)))
        width = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=d, max_size=d)))
        return box_domain(lo, lo + width)
    return simplex_domain(d, draw(st.floats(0.01, 0.9)) / d)


@PROFILE
@given(_domains(), SEEDS, st.floats(1e-3, 10.0), st.floats(0.0, 50.0))
def test_prox_is_optimal_against_every_reference(domain, seed, eta, scale):
    # eta <x* - ref, g> <= D(ref, y) - D(ref, x*) - D(x*, y) for x* = prox(g, y, eta)
    rng = np.random.default_rng(seed)
    y = sample_domain(domain, rng)
    gradient = rng.uniform(-scale, scale, domain.d)
    for ref in sample_domain(domain, rng, 20):
        span = float(np.abs(ref - y).max())
        assert prox_inequality_gap(domain, gradient, y, eta, ref) <= 1e-9 * (
            1.0 + span * span + eta * scale * span)


@PROFILE
@given(_domains(), SEEDS, st.floats(1e-3, 10.0),
       st.sampled_from([0.0, 1.0, 50.0, 1e154, 1e308, float(np.finfo(float).max)]))
def test_prox_outputs_lie_in_their_domain(domain, seed, eta, scale):
    # what lets A = I skip the push's membership test: every prox output is
    # finite and in the domain, also for finite gradients whose sums or whose
    # products with eta pass the float range (up to 1.8e308 times 10); the KL
    # prox then puts the free mass where the exponent log y - eta g is largest
    rng = np.random.default_rng(seed)
    y = sample_domain(domain, rng, 8)
    gradient = scale * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (8, domain.d))
    gradient[:4] = scale * rng.uniform(-1.0, 1.0, (4, domain.d))
    with np.errstate(over="ignore", invalid="ignore"):
        out = prox(domain, gradient, y, eta)
    assert np.isfinite(out).all()
    assert contains(domain, out)

@cache
def _large_weights(which):
    """Weights above DENSE_MIX_MAX_NODES, where mix is the neighbour sum."""
    n = DENSE_MIX_MAX_NODES + 44
    graph = (random_connected_graph(n, 0.03, 9) if which == "erdos_renyi"
             else Graph(n, tuple((0, i) for i in range(1, n))))
    return metropolis_weights(graph)


@st.composite
def _weights(draw):
    kind = draw(st.sampled_from(("grid", "path", "complete", "erdos_renyi", "large")))
    if kind == "grid":
        return metropolis_weights(build_grid_graph(draw(st.integers(1, 6)),
                                                   draw(st.integers(2, 6))))
    if kind == "path":
        return metropolis_weights(build_path_graph(draw(st.integers(2, 40))))
    # complete and Erdos-Renyi graphs have rows whose diagonal, summed in column
    # order, differs in its last bits from a pairwise sum of the same weights
    if kind == "complete":
        return metropolis_weights(build_complete_graph(draw(st.integers(2, 40))))
    if kind == "erdos_renyi":
        n = draw(st.integers(2, 40))
        return metropolis_weights(random_connected_graph(n, draw(st.floats(0.3, 1.0)),
                                                         draw(SEEDS)))
    return _large_weights(draw(st.sampled_from(("erdos_renyi", "star"))))


@PROFILE
@given(_weights(), SEEDS, st.integers(1, 3), st.integers(1, 4))
def test_mixing_preserves_the_agent_mean(weights, seed, replicates, width):
    states = np.random.default_rng(seed).normal(size=(replicates, weights.n, width))
    mixed = mix(weights, states)
    np.testing.assert_allclose(mixed.mean(axis=1), states.mean(axis=1), rtol=0, atol=1e-13)


def _files(out):
    return {path.name: path.read_bytes() for path in Path(out).iterdir()}


@settings(PROFILE, max_examples=30)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 30),
       st.sampled_from(("tracking_square", "synthetic_quadratic", "synthetic_linear")),
       st.sampled_from(("exact", "stochastic")),
       st.sampled_from(("constant", "inv_sqrt", "variation_tuned")), SEEDS, st.integers(0, 5))
def test_a_run_twice_writes_the_same_bytes(rows, cols, horizon, loss, mode, schedule, seed,
                                           run_index):
    cfg = ExperimentConfig(rows=rows, cols=cols, horizon=horizon, loss_kind=loss,
                           gradient_mode=mode, schedule_kind=schedule, seed=seed, eta0=0.1)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        run_experiment(cfg, run_index, first)
        run_experiment(cfg, run_index, second)
        files = _files(first)
        assert sorted(files) == ["bounds.csv", "disagreement.csv", "regret.csv",
                                 "trajectory.csv"]
        assert files == _files(second)
