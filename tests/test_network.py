"""Graphs, mixing matrices and their spectral properties."""

import numpy as np
import pytest

from domd.harness import _build_case, bound_suite
from domd.network import (Graph, WeightMatrix, _connected, build_complete_graph,
                          build_grid_graph, build_path_graph,
                          metropolis_weights, mix, random_connected_graph,
                          second_singular_value, uniform_complete_weights)


# Reference implementations: plain Python loops that the array code must match.

def _reference_connected(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


def _reference_random_graph(n, p, seed, max_tries=1000):
    """(edges, number of draws) of the rejection sampler."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for draw in range(1, max_tries + 1):
        keep = rng.random(len(pairs)) < p
        edges = tuple(e for e, k in zip(pairs, keep) if k)
        if _reference_connected(n, edges):
            return edges, draw
    raise RuntimeError("no connected draw")


def _reference_metropolis(graph):
    deg = np.zeros(graph.n, dtype=int)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def test_grid_counts():
    g = build_grid_graph(5, 5)
    assert g.n == 25
    # rows*(cols-1) horizontal + cols*(rows-1) vertical edges
    assert len(g.edges) == 40


def test_grid_2x2_is_a_cycle():
    g = build_grid_graph(2, 2)
    assert g.n == 4
    assert np.all(g.degrees() == 2)


def test_path_and_complete_counts():
    assert len(build_path_graph(6).edges) == 5
    assert len(build_complete_graph(6).edges) == 15


def test_neighbors_row_major_grid():
    g = build_grid_graph(3, 3)
    assert g.neighbors(4) == (1, 3, 5, 7)  # center node
    assert g.neighbors(0) == (1, 3)


def test_graph_rejections():
    with pytest.raises(ValueError, match="self loop"):
        Graph(3, ((0, 0), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1), (1, 0), (1, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((1, 2), (0, 1), (1, 2)))
    # the first bad edge in input order is the one reported
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=3"):
        Graph(3, ((0, 1), (0, 5), (2, 2)))
    with pytest.raises(ValueError, match="self loop at node 2"):
        Graph(3, ((0, 1), (2, 2), (0, 5)))
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, ((0, 5),))
    with pytest.raises(ValueError, match="not connected"):
        Graph(4, ((0, 1), (2, 3)))


def test_edges_are_canonicalized():
    g = Graph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


def test_metropolis_three_node_path_exact():
    # degrees (1, 2, 1): edge weight 1/(1+2) = 1/3, diagonal takes the rest
    w = metropolis_weights(build_path_graph(3)).w
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0.0],
                         [third, third, third],
                         [0.0, third, 2 * third]])
    np.testing.assert_allclose(w, expected, atol=1e-15)


def test_metropolis_is_valid_on_random_graphs():
    for seed in range(5):
        g = random_connected_graph(8, 0.35, seed)
        w = metropolis_weights(g).w
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(w, w.T, atol=1e-15)
        assert np.all(np.diag(w) > 0)
        # off-diagonal support matches the edge set exactly
        for i in range(8):
            for j in range(i + 1, 8):
                assert (w[i, j] > 0) == ((i, j) in g.edges)


def test_weight_matrix_rejections():
    with pytest.raises(ValueError, match="rows must sum"):
        WeightMatrix(2, np.array([[0.5, 0.4], [0.4, 0.5]]))
    with pytest.raises(ValueError, match="lie in"):
        WeightMatrix(2, np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError, match="diagonal"):
        WeightMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        WeightMatrix(3, np.eye(2))
    # doubly stochastic with a positive diagonal, but not symmetric
    with pytest.raises(ValueError, match="weights must be symmetric"):
        WeightMatrix(3, 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1))


def test_sigma2_three_node_path():
    # singular values of that matrix are (1, 2/3, 0)
    info = second_singular_value(metropolis_weights(build_path_graph(3)))
    assert info.sigma2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert info.gap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_sigma2_grid_values():
    # frozen spectra: 2x2 grid (a 4-cycle) analytically 1/3; larger grids
    # pinned from an independent svd computation
    s22 = second_singular_value(metropolis_weights(build_grid_graph(2, 2))).sigma2
    assert s22 == pytest.approx(1.0 / 3.0, abs=1e-12)
    s55 = second_singular_value(metropolis_weights(build_grid_graph(5, 5))).sigma2
    assert s55 == pytest.approx(0.9162129380194001, abs=1e-9)


def test_sigma2_uniform_complete_is_zero():
    info = second_singular_value(uniform_complete_weights(6))
    assert info.sigma2 == pytest.approx(0.0, abs=1e-12)


def test_sigma2_single_node_convention():
    info = second_singular_value(uniform_complete_weights(1))
    assert info.sigma2 == 0.0 and info.gap == 1.0


def test_mix_preserves_mean_exactly():
    rng = np.random.default_rng(3)
    w = metropolis_weights(build_grid_graph(3, 3))
    states = rng.normal(size=(9, 4))
    mixed = mix(w, states)
    np.testing.assert_allclose(mixed.mean(axis=0), states.mean(axis=0), atol=1e-12)


def test_mix_contracts_disagreement_at_sigma2_rate():
    rng = np.random.default_rng(7)
    w = metropolis_weights(build_grid_graph(3, 3))
    sigma2 = second_singular_value(w).sigma2
    states = rng.normal(size=(9, 2))
    dev0 = np.linalg.norm(states - states.mean(axis=0))
    for k in range(1, 11):
        states = mix(w, states)
        dev = np.linalg.norm(states - states.mean(axis=0))
        assert dev <= sigma2**k * dev0 + 1e-12


def test_mix_shape_check():
    w = uniform_complete_weights(3)
    with pytest.raises(ValueError, match="one state row per agent"):
        mix(w, np.zeros((4, 2)))


def test_random_graph_is_deterministic_and_connected():
    g1 = random_connected_graph(10, 0.3, seed=11)
    g2 = random_connected_graph(10, 0.3, seed=11)
    assert g1.edges == g2.edges
    assert random_connected_graph(10, 0.3, seed=12).edges != g1.edges
    with pytest.raises(ValueError):
        random_connected_graph(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_connected_graph(1, 0.5, seed=1)



def test_random_graph_matches_reference_sampler():
    draws = []
    for n, p, seed in [(2, 1.0, 0), (5, 0.6, 3), (12, 0.25, 0), (12, 0.25, 7),
                       (30, 0.15, 2), (60, 0.08, 5), (200, 0.03, 1)]:
        want, draw = _reference_random_graph(n, p, seed)
        assert random_connected_graph(n, p, seed).edges == want
        draws.append(draw)
    assert max(draws) > 1  # some case rejects a disconnected draw first


def test_metropolis_weights_match_reference_bitwise():
    for g in (build_grid_graph(5, 5), build_grid_graph(2, 7), build_path_graph(9),
              build_complete_graph(6), random_connected_graph(50, 0.1, 4),
              random_connected_graph(300, 0.03, 9)):
        assert metropolis_weights(g).w.tobytes() == _reference_metropolis(g).tobytes()


def test_connectivity_matches_reference():
    perm = np.random.default_rng(0).permutation(2000)
    cases = [
        (2000, tuple((i, i + 1) for i in range(1999))),
        (2000, tuple((i + 1, i) for i in reversed(range(1999)))),
        (2000, tuple(zip(perm[:-1].tolist(), perm[1:].tolist()))),
        (7, tuple((0, i) for i in range(1, 7))),             # star
        (7, tuple((6, i) for i in range(6))),                # star, high centre
        (6, ((0, 1), (1, 2), (3, 4), (4, 5))),               # two components
        (6, ((0, 5), (1, 4), (2, 3), (0, 1), (4, 5))),       # nodes 2 and 3 apart
        (1, ()),
        (3, ()),
    ]
    for n, edges in cases:
        assert _connected(n, edges) == _reference_connected(n, edges), (n, edges[:3])
    assert _connected(2000, cases[2][1])
    assert not _connected(6, cases[5][1])


def test_sigma2_matches_svd():
    weights = [_build_case(case, 0)[0] for case in bound_suite()]
    weights += [metropolis_weights(build_grid_graph(5, 5)),
                metropolis_weights(random_connected_graph(200, 0.05, 3)),
                WeightMatrix(2, np.array([[0.1, 0.9], [0.9, 0.1]]))]  # lambda = 1, -0.8
    for w in weights:
        svd = np.linalg.svd(w.w, compute_uv=False)[1]
        assert abs(second_singular_value(w).sigma2 - svd) <= 1e-12
