"""Communication graphs and consensus weight matrices.

Agents exchange estimates over an undirected connected graph.  The mixing
step uses a symmetric doubly stochastic weight matrix; its second largest
singular value controls how fast disagreement between agents decays.
"""

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12


def _normalized_edges(n, edges):
    out = []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError(f"self loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        out.append((min(i, j), max(i, j)))
    if len(set(out)) != len(out):
        raise ValueError("duplicate edge")
    return tuple(sorted(out))


def _connected(n, edges):
    # union-find over the edge list
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


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
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def neighbors(self, i):
        return tuple(sorted({j for a, b in self.edges for j in (a, b) if i in (a, b) and j != i}))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly stochastic mixing matrix with positive diagonal."""

    n: int
    w: np.ndarray

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
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class SpectralInfo:
    """Second largest singular value of a weight matrix and its spectral gap."""

    sigma2: float
    gap: float


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


def random_connected_graph(n, p, seed, max_tries=1000):
    """Erdos-Renyi G(n, p) conditioned on connectivity, by rejection."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_tries):
        keep = rng.random(len(pairs)) < p
        edges = tuple(e for e, k in zip(pairs, keep) if k)
        if _connected(n, edges):
            return Graph(n, edges)
    raise RuntimeError("failed to sample a connected graph; raise p or max_tries")


def metropolis_weights(graph):
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges,
    diagonal takes the remaining mass.  Doubly stochastic by symmetry."""
    if not _connected(graph.n, graph.edges):
        raise ValueError("graph is not connected")
    deg = graph.degrees()
    w = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightMatrix(graph.n, w)


def uniform_complete_weights(n):
    """All-to-all averaging: every entry 1/n."""
    if n < 1:
        raise ValueError("need at least one node")
    return WeightMatrix(n, np.full((n, n), 1.0 / n))


def second_singular_value(weights):
    """sigma2 of the mixing matrix; 0 by convention for n = 1."""
    if weights.n == 1:
        return SpectralInfo(0.0, 1.0)
    s = np.linalg.svd(weights.w, compute_uv=False)
    sigma2 = float(s[1])
    return SpectralInfo(sigma2, 1.0 - sigma2)


def mix(weights, states):
    """One consensus round: out[i] = sum_j w[i][j] * states[j].

    states has one row per agent, (n,) or (n, d), or is a (R, n, d) stack of
    replicates, each mixed by its own product with w (np.matmul gives each
    replicate the same bits as mixing it alone).  The agent mean is
    preserved because the columns of w sum to one.
    """
    states = np.asarray(states, dtype=float)
    if states.shape[-min(states.ndim, 2)] != weights.n:
        raise ValueError("one state row per agent required")
    return np.matmul(weights.w, states)

