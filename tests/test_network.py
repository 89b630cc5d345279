"""Graphs, mixing matrices and their spectral properties."""

import numpy as np
import pytest

from domd.network import (Graph, WeightMatrix, build_complete_graph,
                          build_grid_graph, build_path_graph,
                          metropolis_weights, mix, random_connected_graph,
                          second_singular_value, uniform_complete_weights)


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

