"""Graphs, mixing matrices and their spectral properties."""

import time
import tracemalloc

import numpy as np
import pytest

import domd.network
from domd.harness import _build_case, bound_suite
from domd.network import (DENSE_MIX_MAX_NODES, LANCZOS_MIN_NODES, Graph, WeightMatrix,
                          _connected, build_complete_graph, build_grid_graph,
                          build_path_graph, metropolis_weights, mix, random_connected_graph,
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


def _reference_triu_sampler(n, p, seed, max_tries=1000):
    """(edges, number of draws) of the rejection sampler drawing one uniform
    per row of the full np.triu_indices pair table."""
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)  # row-major, i < j
    for draw in range(1, max_tries + 1):
        edges = pairs[rng.random(len(pairs)) < p]
        if _connected(n, edges):
            return edges, draw
    raise RuntimeError("no connected draw")


def _reference_metropolis(graph):
    """W with each diagonal entry 1 minus its row's off-diagonal weights,
    summed one Python float at a time in column order."""
    n = graph.n
    deg = [0] * n
    neighbours = [[] for _ in range(n)]
    for i, j in graph.edges.tolist():
        deg[i] += 1
        deg[j] += 1
        neighbours[i].append(j)
        neighbours[j].append(i)
    w = np.zeros((n, n))
    for i in range(n):
        total = 0.0
        for j in sorted(neighbours[i]):
            weight = 1.0 / (1.0 + max(deg[i], deg[j]))
            w[i, j] = weight
            total += weight
        w[i, i] = 1.0 - total
    return w


def _reference_neighbour_sum(weights, x):
    """W X for a (b, n, d) stack x by the scatter the neighbour sum used
    before its jagged diagonals: the terms, replicate by replicate and in W's
    row-major nonzero order, added one at a time into their output slots by
    np.bincount."""
    b, n, d = x.shape
    rows, cols, values = weights.nonzeros
    base = np.arange(b)[:, None] * n
    take = (base + cols).ravel()
    terms = np.tile(np.repeat(values, d), b)
    slots = ((base + rows)[:, :, None] * d + np.arange(d)).ravel()
    products = x.reshape(b * n, d).take(take, axis=0).ravel() * terms
    return np.bincount(slots, products, b * n * d).reshape(x.shape)


def _dense(weights):
    """The n x n W of a weight matrix's nonzeros."""
    w = np.zeros((weights.n, weights.n))
    rows, cols, values = weights.nonzeros
    w[rows, cols] = values
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

    def neighbors(i):
        return sorted(j for e in g.edges if i in e for j in e if j != i)

    assert neighbors(4) == [1, 3, 5, 7]  # center node
    assert neighbors(0) == [1, 3]


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
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert not g.edges.flags.writeable


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
        edges = set(map(tuple, g.edges.tolist()))
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(w, w.T, atol=1e-15)
        assert np.all(np.diag(w) > 0)
        # off-diagonal support matches the edge set exactly
        for i in range(8):
            for j in range(i + 1, 8):
                assert (w[i, j] > 0) == ((i, j) in edges)


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


def test_weight_matrix_rejections_on_nonzeros_above_the_dense_limit():
    n = DENSE_MIX_MAX_NODES + 44  # no dense w is built
    node = np.arange(n)
    # 0.5 I + 0.5 (cyclic shift): doubly stochastic, positive diagonal, not symmetric
    shift = np.sort(np.stack([node, (node + 1) % n], axis=1), axis=1).ravel()
    with pytest.raises(ValueError, match="weights must be symmetric"):
        WeightMatrix(n, nonzeros=(np.repeat(node, 2), shift, np.full(2 * n, 0.5)))
    rows, cols, values = metropolis_weights(build_path_graph(n)).nonzeros
    off = values.copy()
    off[0] += 1e-9  # W[0, 0]: row 0 and column 0 sum to 1 + 1e-9
    with pytest.raises(ValueError, match="rows must sum to 1"):
        WeightMatrix(n, nonzeros=(rows, cols, off))
    with pytest.raises(ValueError, match="distinct n x n entries in row-major order"):
        WeightMatrix(n, nonzeros=(rows[::-1], cols[::-1], values[::-1]))
    assert WeightMatrix(n, nonzeros=(rows, cols, values)).w is None


def test_sigma2_three_node_path():
    # singular values of that matrix are (1, 2/3, 0)
    sigma2 = second_singular_value(metropolis_weights(build_path_graph(3)))
    assert isinstance(sigma2, float)
    assert sigma2 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_sigma2_grid_values():
    # frozen spectra: 2x2 grid (a 4-cycle) analytically 1/3; larger grids
    # pinned from an independent svd computation
    s22 = second_singular_value(metropolis_weights(build_grid_graph(2, 2)))
    assert s22 == pytest.approx(1.0 / 3.0, abs=1e-12)
    s55 = second_singular_value(metropolis_weights(build_grid_graph(5, 5)))
    assert s55 == pytest.approx(0.9162129380194001, abs=1e-9)


def test_sigma2_uniform_complete_is_zero():
    assert second_singular_value(uniform_complete_weights(6)) == pytest.approx(0.0, abs=1e-12)


def test_sigma2_single_node_convention():
    assert second_singular_value(uniform_complete_weights(1)) == 0.0


def _sparse_weights():
    """Metropolis weights of a graph just above DENSE_MIX_MAX_NODES, so mix
    takes the neighbour sum."""
    return metropolis_weights(random_connected_graph(DENSE_MIX_MAX_NODES + 44, 0.03, 2))


def test_mix_preserves_mean_exactly():
    rng = np.random.default_rng(3)
    for w in (metropolis_weights(build_grid_graph(3, 3)), _sparse_weights()):
        for shape in ((w.n, 4), (3, w.n, 4)):
            states = rng.normal(size=shape)
            mixed = mix(w, states)
            np.testing.assert_allclose(mixed.mean(axis=-2), states.mean(axis=-2),
                                       atol=1e-12)


def test_mix_contracts_disagreement_at_sigma2_rate():
    rng = np.random.default_rng(7)
    w = metropolis_weights(build_grid_graph(3, 3))
    sigma2 = second_singular_value(w)
    states = rng.normal(size=(9, 2))
    dev0 = np.linalg.norm(states - states.mean(axis=0))
    for k in range(1, 11):
        states = mix(w, states)
        dev = np.linalg.norm(states - states.mean(axis=0))
        assert dev <= sigma2**k * dev0 + 1e-12


def test_mix_shape_check():
    for w in (uniform_complete_weights(3), _sparse_weights()):
        for states in (np.zeros((w.n + 1, 2)), np.zeros((2, w.n - 1, 2)), np.zeros(w.n + 1)):
            with pytest.raises(ValueError, match="one state row per agent"):
                mix(w, states)


def test_neighbour_sum_matches_the_dense_product():
    # the sums run in another order than BLAS's, so they agree to rounding:
    # within 1e-13 of the sum of the terms' magnitudes, |W| |X|
    w = _sparse_weights()
    assert w.n > DENSE_MIX_MAX_NODES and w.w is None
    dense = _dense(w)
    rng = np.random.default_rng(5)
    for shape in ((w.n,), (w.n, 1), (w.n, 4), (3, w.n, 4), (2, 3, w.n, 2)):
        states = rng.normal(size=shape)
        mixed = mix(w, states)
        assert mixed.shape == shape
        scale = np.matmul(np.abs(dense), np.abs(states))
        assert np.all(np.abs(mixed - np.matmul(dense, states)) <= 1e-13 * scale)
    stack = rng.normal(size=(3, w.n, 4))
    mixed = mix(w, stack)
    for r in range(3):  # each replicate gets the bits of mixing it alone
        assert mixed[r].tobytes() == mix(w, stack[r]).tobytes()
        assert mixed[r].tobytes() == mix(w, stack[r:r + 1])[0].tobytes()


@pytest.mark.parametrize("weights", [
    lambda: metropolis_weights(random_connected_graph(1000, 0.01, 0)),
    lambda: metropolis_weights(random_connected_graph(2000, 0.005, 1)),
    lambda: metropolis_weights(random_connected_graph(1000, 0.1, 2)),
    lambda: metropolis_weights(build_grid_graph(32, 32)),
    lambda: metropolis_weights(build_path_graph(1000)),
    lambda: _star_weights(1000),  # all but two of the hub's terms go through np.add.at
], ids=["er1000_p0.01", "er2000_p0.005", "er1000_p0.1", "grid_32x32", "path_1000", "star_1000"])
def test_neighbour_sum_matches_the_bincount_scatter_bit_for_bit(weights):
    w = weights()
    rows, cols, _ = w.nonzeros
    degree = np.bincount(rows, minlength=w.n)
    low, high = degree.argmin(), degree.argmax()
    rng = np.random.default_rng(w.n)
    for shape in ((w.n,), (w.n, 1), (w.n, 4), (3, w.n, 4), (16, w.n, 2)):
        states = rng.normal(size=shape)
        stack = states.reshape(-1, w.n, shape[-1] if len(shape) > 1 else 1)
        stack[rng.random(stack.shape) < 0.1] = -0.0
        stack[0, cols[rows == low]] = -0.0  # a row of -0.0 terms
        near = cols[rows == high][:2]
        stack[-1, near] = 1e308  # two huge terms in the hub's row
        stack[0, near[0], -1], stack[0, near[1], -1] = np.inf, -np.inf  # a nan
        with np.errstate(invalid="ignore"):  # inf - inf warns in a vector add
            got = mix(w, states)
        assert got.tobytes() == _reference_neighbour_sum(w, stack).reshape(shape).tobytes()


def test_neighbour_sum_adds_each_row_in_column_order():
    # the hub row's first, middle and last off-diagonal terms are p, q and -p,
    # p about 1e16 (ulp 2) and q in [0.5, 1), its other terms 0: the sum is 0
    # left to right and q in any order that adds p and -p first.  Its last
    # terms, and the star's middle one, go through the neighbour sum's add.at
    for w in (_sparse_weights(), _star_weights(1000)):
        states = np.random.default_rng(6).normal(size=(w.n, 2))
        dense, want = _dense(w), np.zeros_like(states)
        hub = int(np.argmax((dense > 0).sum(axis=1)))
        near = np.flatnonzero(dense[hub])
        near = near[near != hub]
        first, middle, last = near[0], near[len(near) // 2], near[-1]
        assert dense[hub, first] == dense[hub, last]
        states[dense[hub] > 0] = 0.0
        e, e2 = np.frexp(dense[hub, first])[1], np.frexp(dense[hub, middle])[1]
        states[first], states[middle], states[last] = 2.0 ** (54 - e), 2.0 ** -e2, -2.0 ** (54 - e)
        terms = dense[hub, [first, middle, last]] * states[[first, middle, last], 0]
        assert 2.0 ** 53 <= terms[0] < 2.0 ** 54 and 0.5 <= terms[1] < 1.0
        assert (terms[0] + terms[2]) + terms[1] == terms[1]
        for i in range(w.n):
            for j in np.flatnonzero(dense[i]):
                want[i] += dense[i, j] * states[j]
        assert want[hub].tolist() == [0.0, 0.0]
        assert mix(w, states).tobytes() == want.tobytes()


def test_neighbour_sum_index_lives_on_its_weight_matrix():
    w, other = _sparse_weights(), _sparse_weights()
    assert w._neighbour_index is None  # built by the first mix, not at construction
    states = np.random.default_rng(8).normal(size=(2, w.n, 3))
    first = mix(w, states)
    index, nonzeros = w._neighbour_index, w.nonzeros
    assert index[0] == (2, 3) and other._neighbour_index is None
    # no array of the index has a slot per (replicate, nonzero, column)
    assert all(a.size < 2 * len(nonzeros[0]) * 3 for a in (*index[1], *index[2])
               if isinstance(a, np.ndarray))
    assert mix(w, states).tobytes() == first.tobytes()
    assert w._neighbour_index is index  # same shape: reused
    mix(w, states[0])
    assert w._neighbour_index[0] == (1, 3)  # another shape: expansions rebuilt
    second_singular_value(w)  # its (1, n, 1) products rebuild them too
    assert mix(w, states).tobytes() == first.tobytes()
    assert w._neighbour_index[1] is index[1]  # the diagonals, built once
    assert w.nonzeros is nonzeros  # kept from construction


def test_int32_nonzeros_above_46340_agents_are_accepted():
    # Metropolis weights of a 50 000-node path, whose flat keys rows * n + cols
    # pass 2**31: int32 indices, as scipy's CSR keeps them, must not wrap
    n = 50_000
    node = np.arange(n)
    rows, cols = np.divmod(np.sort(np.concatenate([node * (n + 1), node[:-1] * (n + 1) + 1,
                                                   node[1:] * (n + 1) - 1])), n)
    end = (rows == 0) | (rows == n - 1)
    values = np.where(rows == cols, np.where(end, 1.0 - 1.0 / 3.0, 1.0 - 2.0 / 3.0), 1.0 / 3.0)
    wide = WeightMatrix(n, nonzeros=(rows, cols, values))
    narrow = WeightMatrix(n, nonzeros=(rows.astype(np.int32), cols.astype(np.int32), values))
    states = np.random.default_rng(9).normal(size=(n, 2))
    assert mix(narrow, states).tobytes() == mix(wide, states).tobytes()


@pytest.mark.parametrize("weights", [
    lambda: metropolis_weights(build_grid_graph(5, 5)),
    lambda: metropolis_weights(build_grid_graph(16, 16)),  # exactly DENSE_MIX_MAX_NODES
    lambda: uniform_complete_weights(DENSE_MIX_MAX_NODES),
], ids=["grid_5x5", "grid_16x16", "uniform_at_threshold"])
def test_mix_up_to_the_threshold_is_the_dense_product(weights):
    w = weights()
    assert w.n <= DENSE_MIX_MAX_NODES
    rng = np.random.default_rng(4)
    for shape in ((w.n,), (w.n, 4), (4, w.n, 4)):
        states = rng.normal(size=shape)
        assert mix(w, states).tobytes() == np.matmul(w.w, states).tobytes()
    assert w._neighbour_index is None


def test_random_graph_is_deterministic_and_connected():
    g1 = random_connected_graph(10, 0.3, seed=11)
    g2 = random_connected_graph(10, 0.3, seed=11)
    assert np.array_equal(g1.edges, g2.edges)
    assert not np.array_equal(random_connected_graph(10, 0.3, seed=12).edges, g1.edges)
    with pytest.raises(ValueError):
        random_connected_graph(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_connected_graph(1, 0.5, seed=1)



def test_random_graph_matches_reference_sampler():
    draws = []
    for n, p, seed in [(2, 1.0, 0), (5, 0.6, 3), (12, 0.25, 0), (12, 0.25, 7),
                       (30, 0.15, 2), (60, 0.08, 5), (200, 0.03, 1)]:
        want, draw = _reference_random_graph(n, p, seed)
        assert random_connected_graph(n, p, seed).edges.tolist() == list(map(list, want))
        draws.append(draw)
    assert max(draws) > 1  # some case rejects a disconnected draw first


# (n, p, seed, pairs per block or None for the default, draws until connected);
# 997-pair blocks end mid-row
@pytest.mark.parametrize("n, p, seed, block, draws", [
    (1000, 0.01, 0, None, 1), (1000, 0.01, 3, None, 1), (1000, 0.007, 1, None, 4),
    (300, 0.02, 3, 997, 6), (257, 0.02, 0, 997, 3), (500, 0.012, 4, 4096, 3),
    (40, 0.2, 2, 1, 1),
])
def test_block_sampler_matches_the_triu_sampler(n, p, seed, block, draws, monkeypatch):
    if block is not None:
        monkeypatch.setattr(domd.network, "_PAIR_BLOCK", block)
    want, want_draws = _reference_triu_sampler(n, p, seed)
    assert want_draws == draws
    got = random_connected_graph(n, p, seed).edges
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_metropolis_weights_match_reference_bitwise():
    for g in (build_grid_graph(5, 5), build_grid_graph(2, 7), build_path_graph(9),
              build_complete_graph(6), random_connected_graph(50, 0.1, 4),
              build_grid_graph(16, 16), random_connected_graph(300, 0.03, 9),
              build_grid_graph(20, 20), build_path_graph(700),
              random_connected_graph(1000, 0.01, 0)):
        w, want = metropolis_weights(g), _reference_metropolis(g)
        rows, cols = np.nonzero(want)
        got_rows, got_cols, got_values = w.nonzeros
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
        assert got_values.tobytes() == want[rows, cols].tobytes()
        if g.n <= DENSE_MIX_MAX_NODES:
            assert w.w.tobytes() == want.tobytes()
        else:
            assert w.w is None


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_network_builds_in_far_less_than_n_squared_memory():
    """A 2000-node network's graph, weights and sigma2 never hold an n x n
    array (32 MB): the sampler holds one block of uniforms, the diagonal one
    bincount of the nonzeros and Lanczos only the basis rows it has reached.
    A 50 000-node path's weights hold O(n) bytes, about 10 MB."""
    n = 2000
    assert _traced_peak(lambda: second_singular_value(
        metropolis_weights(random_connected_graph(n, 0.005, 0)))) < n * n * 8 / 2
    path = build_path_graph(50_000)
    assert _traced_peak(lambda: metropolis_weights(path)) < 40e6


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
        assert abs(second_singular_value(w) - svd) <= 1e-12


def test_sigma2_below_the_lanczos_switch_is_eigvalsh():
    for w in (metropolis_weights(build_grid_graph(15, 17)),
              metropolis_weights(random_connected_graph(LANCZOS_MIN_NODES - 1, 0.03, 1))):
        assert w.n < LANCZOS_MIN_NODES
        want = float(np.sort(np.abs(np.linalg.eigvalsh(w.w)))[-2])
        assert second_singular_value(w).hex() == want.hex()


def _star_weights(n):
    return metropolis_weights(Graph(n, tuple((0, i) for i in range(1, n))))


def _negative_end_weights(n=300, d=10, c=0.1):
    """c I + (1 - c) A / d, A the sum of d random perfect matchings between
    the two halves of the nodes.  A / d is bipartite, so its eigenvalue -1
    becomes 2c - 1 = -0.8, larger in magnitude than every eigenvalue of W
    but the 1."""
    rng = np.random.default_rng(0)
    half = n // 2
    a = np.zeros((n, n))
    for _ in range(d):
        np.add.at(a, (np.arange(half), half + rng.permutation(half)), 1.0)
    return WeightMatrix(n, c * np.eye(n) + (1.0 - c) * (a + a.T) / d)


# each graph's sigma2 bits are pinned: Lanczos on the full n x n basis gave these
@pytest.mark.parametrize("weights, bits", [
    (lambda: metropolis_weights(random_connected_graph(1000, 0.01, 0)), "0x1.a0ec2650fcd26p-1"),
    (lambda: metropolis_weights(random_connected_graph(1000, 0.01, 3)), "0x1.b85696c3fc58ep-1"),
    (lambda: metropolis_weights(random_connected_graph(1000, 0.01, 9)), "0x1.d4a9d00229eddp-1"),
    # exactly LANCZOS_MIN_NODES
    (lambda: metropolis_weights(build_grid_graph(16, 16)), "0x1.fbf1bad1b8edcp-1"),
    (lambda: metropolis_weights(build_grid_graph(20, 20)), "0x1.fd6aa4ef432a6p-1"),
    # tiny gap: k close to n
    (lambda: metropolis_weights(build_path_graph(300)), "0x1.fffb35759fe8cp-1"),
    # sigma2 = 0: breaks down at the first step
    (lambda: uniform_complete_weights(300), "0x1.2c00000000000p-44"),
    # sigma2 = 299/300 with multiplicity 298
    (lambda: _star_weights(300), "0x1.fe4b17e4b1a3ep-1"),
    (_negative_end_weights, "0x1.9999999999bf0p-1"),
], ids=["er1000_seed0", "er1000_seed3", "er1000_seed9", "grid_16x16", "grid_20x20",
        "path_300", "uniform_complete_300", "star_300", "negative_end_300"])
def test_lanczos_sigma2_matches_svd(weights, bits, monkeypatch):
    """From LANCZOS_MIN_NODES on sigma2 is the Lanczos upper value: within
    1e-12 of the svd's, never below it by more than 1e-15, the same bits on
    every call, and no call to mix (whose calls the benchmark counts)."""
    w = weights()
    assert w.n >= LANCZOS_MIN_NODES
    svd = np.linalg.svd(_dense(w), compute_uv=False)[1]
    monkeypatch.setattr(domd.network, "mix", None)
    start = time.perf_counter()
    sigma2 = second_singular_value(w)
    elapsed = time.perf_counter() - start
    assert type(sigma2) is float
    assert abs(sigma2 - svd) <= 1e-12
    assert sigma2 >= svd - 1e-15
    assert sigma2.hex() == bits
    assert second_singular_value(w).hex() == sigma2.hex()
    assert second_singular_value(WeightMatrix(w.n, _dense(w))).hex() == sigma2.hex()
    assert elapsed < 1.0


def test_negative_end_weights_take_sigma2_from_the_most_negative_eigenvalue():
    eig = np.linalg.eigvalsh(_dense(_negative_end_weights()))
    assert -eig[0] == pytest.approx(0.8, abs=1e-12)
    assert -eig[0] > eig[-2] + 0.1
