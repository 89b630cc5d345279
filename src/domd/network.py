"""Communication graphs and consensus weight matrices.

Agents exchange estimates over an undirected connected graph.  The mixing
step uses a symmetric doubly stochastic weight matrix; its second largest
singular value controls how fast disagreement between agents decays.  W is
symmetric, so that value is computed as the second largest absolute
eigenvalue (np.linalg.eigvalsh).

mix evaluates y_i = sum_j w_ij x_j in one of two ways, chosen by the node
count alone.  Up to DENSE_MIX_MAX_NODES agents it is the dense product
np.matmul(W, X).  Above, it is a neighbour sum over W's nonzeros that adds
each row's terms in column order with no BLAS involved, so its bits do not
depend on the BLAS thread count and it costs O(nonzeros), not O(n^2).
"""

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12

# Largest network mixed by the dense product.  Up to 256 nodes that product
# gave the same bits on one and two OpenBLAS threads for every width tried
# (d up to 128); from 400 nodes it did not.  Per call, the neighbour sum
# overtakes the dense product between 256 and 1000 nodes on sparse graphs.
DENSE_MIX_MAX_NODES = 256


def _edge_array(edges):
    return np.asarray(edges, dtype=np.intp).reshape(-1, 2)


def _normalized_edges(n, edges):
    e = _edge_array(edges)
    lo, hi = e.min(axis=1), e.max(axis=1)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        i, j = e[bad.argmax()].tolist()  # the first bad edge, in input order
        if i == j:
            raise ValueError(f"self loop at node {i}")
        raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
    key = np.sort(lo * n + hi)  # sorted by (lo, hi)
    if (key[1:] == key[:-1]).any():
        raise ValueError("duplicate edge")
    lo, hi = np.divmod(key, n)
    return tuple(zip(lo.tolist(), hi.tolist()))


def _connected(n, edges):
    """Min-label hooking: each edge whose ends have different roots hooks
    the larger root onto the smaller, then pointer jumping flattens every
    tree onto its root.  Labels only decrease, so node 0 stays a root and
    the graph is connected iff every node ends at 0."""
    i, j = _edge_array(edges).T
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        split = ri != rj
        if not split.any():
            return not root.any()
        i, j, ri, rj = i[split], j[split], ri[split], rj[split]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1 with a canonical edge list."""

    n: int
    edges: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "edges", _normalized_edges(self.n, self.edges))
        if not _connected(self.n, self.edges):
            raise ValueError("graph is not connected")

    def degrees(self):
        return np.bincount(_edge_array(self.edges).ravel(), minlength=self.n)


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly stochastic mixing matrix with positive diagonal.

    w is not modified after construction: mix caches index arrays built
    from its nonzeros on the instance.
    """

    n: int
    w: np.ndarray
    # ((replicates, width), gather rows, term weights, output slots) of the
    # neighbour sum last built by mix; see _neighbour_sum
    _neighbour_index: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError("weight matrix shape mismatch")
        if np.any(w < -STOCHASTIC_TOL) or np.any(w > 1 + STOCHASTIC_TOL):
            raise ValueError("weights must lie in [0, 1]")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("rows must sum to 1")
        if np.max(np.abs(w.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("columns must sum to 1")
        if np.any(np.diag(w) <= 0):
            raise ValueError("diagonal entries must be positive")
        if np.max(np.abs(w - w.T)) > STOCHASTIC_TOL:
            raise ValueError("weights must be symmetric")
        object.__setattr__(self, "w", w)


def build_grid_graph(rows, cols):
    """4-neighbor lattice with rows*cols nodes, indexed row-major."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two nodes")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Graph(rows * cols, tuple(edges))


def build_path_graph(n):
    """Chain 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError("path needs at least two nodes")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def build_complete_graph(n):
    if n < 2:
        raise ValueError("complete graph needs at least two nodes")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def random_connected_graph(n, p, seed):
    """Erdos-Renyi G(n, p) conditioned on connectivity, by rejection (1000 tries)."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)  # row-major, i < j
    for _ in range(1000):
        edges = pairs[rng.random(len(pairs)) < p]
        if _connected(n, edges):
            return Graph(n, edges)
    raise RuntimeError("failed to sample a connected graph in 1000 tries; raise p")


def metropolis_weights(graph):
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges,
    diagonal takes the remaining mass.  Doubly stochastic by symmetry."""
    i, j = _edge_array(graph.edges).T
    deg = graph.degrees()
    w = np.zeros((graph.n, graph.n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightMatrix(graph.n, w)


def uniform_complete_weights(n):
    """All-to-all averaging: every entry 1/n."""
    if n < 1:
        raise ValueError("need at least one node")
    return WeightMatrix(n, np.full((n, n), 1.0 / n))


def second_singular_value(weights):
    """sigma2 of the mixing matrix, a float; 0 by convention for n = 1.

    W is symmetric, so its singular values are the absolute values of its
    eigenvalues: sigma2 is the second largest |lambda| from eigvalsh.
    """
    if weights.n == 1:
        return 0.0
    return float(np.sort(np.abs(np.linalg.eigvalsh(weights.w)))[-2])


def _neighbour_sum(weights, x):
    """W X for a (b, n, d) stack x, summed over W's nonzeros in fixed order.

    The terms w_ij * x[r, j, k] are listed replicate by replicate and, within
    one, in W's row-major nonzero order; np.bincount adds each into its
    output slot (r, i, k) strictly in that order, so every output is a
    left-to-right sum over j ascending, whatever b is and on any number of
    threads.  The index arrays depend only on W and (b, d); they are built
    on the first call for that shape and kept on the instance.
    """
    b, n, d = x.shape
    cached = weights._neighbour_index
    if cached is None or cached[0] != (b, d):
        rows, cols = np.nonzero(weights.w)  # row-major
        base = np.arange(b)[:, None] * n
        take = (base + cols).ravel()
        terms = np.tile(np.repeat(weights.w[rows, cols], d), b)
        slots = ((base + rows)[:, :, None] * d + np.arange(d)).ravel()
        cached = ((b, d), take, terms, slots)
        object.__setattr__(weights, "_neighbour_index", cached)
    _, take, terms, slots = cached
    products = x.reshape(b * n, d).take(take, axis=0).ravel() * terms
    return np.bincount(slots, products, b * n * d).reshape(x.shape)


def mix(weights, states):
    """One consensus round: out[i] = sum_j w[i][j] * states[j].

    states has one row per agent, (n,) or (n, d), or is a (R, n, d) stack of
    replicates; each replicate gets the same bits as mixing it alone.  Up to
    DENSE_MIX_MAX_NODES agents this is np.matmul(w, states); above, the
    fixed-order neighbour sum of _neighbour_sum, whose results do not depend
    on the BLAS thread count.  The agent mean is preserved because the
    columns of w sum to one.
    """
    states = np.asarray(states, dtype=float)
    if states.shape[-min(states.ndim, 2)] != weights.n:
        raise ValueError("one state row per agent required")
    if weights.n <= DENSE_MIX_MAX_NODES:
        return np.matmul(weights.w, states)
    width = states.shape[-1] if states.ndim > 1 else 1
    return _neighbour_sum(weights, states.reshape(-1, weights.n, width)).reshape(states.shape)
