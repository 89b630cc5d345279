"""Communication graphs and consensus weight matrices.

Agents exchange estimates over an undirected connected graph.  The mixing
step uses a symmetric doubly stochastic weight matrix; its second largest
singular value sigma2 controls how fast disagreement between agents decays.
W is symmetric, so sigma2 is its second largest absolute eigenvalue, found
in one of two ways chosen by the node count alone.  Below
LANCZOS_MIN_NODES agents it comes from np.linalg.eigvalsh of the dense W.
From LANCZOS_MIN_NODES on it is the Lanczos estimate of _lanczos_sigma2,
whose products with W are the neighbour sum below and whose inner products
are np.add.reduce or np.einsum, so its bits do not depend on the BLAS
thread count.

mix evaluates y_i = sum_j w_ij x_j in one of two ways, chosen by the node
count alone.  Up to DENSE_MIX_MAX_NODES agents it is the dense product
np.matmul(W, X).  Above, it is a neighbour sum over W's nonzeros, in jagged
diagonals, that adds each row's terms in column order with no BLAS involved,
so its bits do not depend on the BLAS thread count and it costs
O(nonzeros), not O(n^2).

A graph keeps its edges as an (m, 2) array and a weight matrix keeps W's
nonzeros, with a dense W only up to DENSE_MIX_MAX_NODES agents, so building
and mixing a sparse network of any size holds O(n + edges) memory.  Sampling
an Erdos-Renyi graph still takes O(n^2) time: it draws one uniform per node
pair, in blocks, so that every seed keeps the graph it has always had.
"""

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12

# Largest network mixed by the dense product.  Up to 256 nodes that product
# gave the same bits on one and two OpenBLAS threads for every width tried
# (d up to 128); from 400 nodes it did not.  Per call, the neighbour sum
# overtakes the dense product between 256 and 1000 nodes on sparse graphs.
DENSE_MIX_MAX_NODES = 256

# Smallest network whose sigma2 comes from Lanczos.  eigvalsh of the dense W
# gave different last bits on one and two OpenBLAS threads already for the
# 16x16 grid (256 nodes); up to 200 nodes every graph tried agreed.
LANCZOS_MIN_NODES = 256

# Lanczos stops once the residual bound of the Ritz pair that sets sigma2 is
# at most LANCZOS_TOL; see _lanczos_sigma2.  It first checks convergence
# after 8 steps, then whenever k has grown by max(8, k / 4): each check is
# an O(k^3) eigh, so when k runs up to n (a long path) the checks cost a
# bounded multiple of the last one.  A beta at or below _LANCZOS_BREAKDOWN
# counts as a breakdown.
LANCZOS_TOL = 1e-13
_LANCZOS_CHECK = 8
_LANCZOS_BREAKDOWN = 1e-15

# The neighbour sum adds the diagonals that cover fewer than n // _HUB_SHARE
# rows in one np.add.at.  Per (1, n, 4) call on one Xeon core, a 1000-node
# star then takes 22 us, not 1.2 ms, and ER(1000, 0.01) 53 us, not 61 (n // 4
# and n // 64 alike).
_HUB_SHARE = 16

# random_connected_graph draws its uniforms this many pairs at a time, and
# metropolis_weights sums its diagonal this many dense rows at a time.
_PAIR_BLOCK = 1 << 20
_ROW_BLOCK = 256


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
    edges = np.stack(np.divmod(key, n), axis=1)
    edges.flags.writeable = False
    return edges


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
    """Undirected connected graph on nodes 0..n-1.  edges becomes its
    canonical edge list: a read-only (m, 2) int array of pairs i < j, sorted."""

    n: int
    edges: np.ndarray = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "edges", _normalized_edges(self.n, self.edges))
        if not _connected(self.n, self.edges):
            raise ValueError("graph is not connected")

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly stochastic mixing matrix with positive diagonal.

    Given as a dense n x n w or as nonzeros, the (rows, cols, values) of W's
    nonzero entries in row-major order.  It keeps the nonzeros, on which it
    checks W and which _same compares, and a dense w only up to
    DENSE_MIX_MAX_NODES agents, where mix and second_singular_value read it;
    above, w is None.  Neither is modified after construction: the neighbour
    sum caches its layout of the nonzeros on the instance.
    """

    n: int
    w: np.ndarray = field(default=None, compare=False)
    nonzeros: tuple = field(default=None, repr=False)
    # ((replicates, width), layout, expansions) of the neighbour sum last
    # run; see _neighbour_sum
    _neighbour_index: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, w = self.n, None
        if self.nonzeros is None:
            w = np.asarray(self.w, dtype=float)
            if w.shape != (n, n):
                raise ValueError("weight matrix shape mismatch")
            rows, cols = np.nonzero(w)  # row-major
            values = w[rows, cols]
        else:
            rows, cols, values = (np.asarray(a) for a in self.nonzeros)
        # rows * n must not wrap in the indices' own type (int32 from n = 46341 on)
        rows, cols = (a.astype(np.intp, casting="safe", copy=False) for a in (rows, cols))
        key, mirror = rows * n + cols, cols * n + rows
        if (np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))
                or np.any(key[1:] <= key[:-1])):
            raise ValueError("nonzeros must be distinct n x n entries in row-major order")
        if np.any(values < -STOCHASTIC_TOL) or np.any(values > 1 + STOCHASTIC_TOL):
            raise ValueError("weights must lie in [0, 1]")
        for side, index in (("rows", rows), ("columns", cols)):
            if np.max(np.abs(np.bincount(index, values, n) - 1.0)) > STOCHASTIC_TOL:
                raise ValueError(f"{side} must sum to 1")
        if (values[rows == cols] > 0).sum() < n:
            raise ValueError("diagonal entries must be positive")
        # |w_ij - w_ji| over the nonzeros, w_ji = 0 where (j, i) is not one
        at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
        if np.max(np.abs(values - np.where(key[at] == mirror, values[at], 0.0))) > STOCHASTIC_TOL:
            raise ValueError("weights must be symmetric")
        if n > DENSE_MIX_MAX_NODES:
            w = None
        elif w is None:
            w = np.zeros((n, n))
            w[rows, cols] = values
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "nonzeros", (rows, cols, values))


def build_grid_graph(rows, cols):
    """4-neighbor lattice with rows*cols nodes, indexed row-major."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two nodes")
    node = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([node[:, :-1].ravel(), node[:, 1:].ravel()], axis=1)
    down = np.stack([node[:-1].ravel(), node[1:].ravel()], axis=1)
    return Graph(rows * cols, np.concatenate([right, down]))


def build_path_graph(n):
    """Chain 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError("path needs at least two nodes")
    return Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


def build_complete_graph(n):
    if n < 2:
        raise ValueError("complete graph needs at least two nodes")
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def random_connected_graph(n, p, seed):
    """Erdos-Renyi G(n, p) conditioned on connectivity, by rejection (1000 tries).

    Each try draws one uniform per pair i < j, in row-major order, and keeps
    the pairs whose uniform is below p.  The uniforms come _PAIR_BLOCK at a
    time from one stream, which gives the values one draw of them all would,
    and only the kept pairs' flat indices are mapped back to (i, j).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    node = np.arange(n)
    first = node * (2 * n - node - 1) // 2  # flat index of the pair (i, i + 1)
    for _ in range(1000):
        flat = np.concatenate([np.flatnonzero(rng.random(min(_PAIR_BLOCK, pairs - s)) < p) + s
                               for s in range(0, pairs, _PAIR_BLOCK)])
        i = np.searchsorted(first, flat, side="right") - 1
        edges = np.stack([i, flat - first[i] + i + 1], axis=1)
        if _connected(n, edges):
            return Graph(n, edges)
    raise RuntimeError("failed to sample a connected graph in 1000 tries; raise p")


def metropolis_weights(graph):
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges,
    diagonal takes the remaining mass.  Doubly stochastic by symmetry.

    The diagonal gets the bits of 1 - w.sum(axis=1) on the dense W with a
    zero diagonal: each row is summed by np.sum as a dense row, zeros and
    all, in one buffer of _ROW_BLOCK rows, so no n x n array is made.
    """
    n, deg = graph.n, graph.degrees()
    lo, hi = graph.edges.T
    rows, cols = np.divmod(np.sort(np.concatenate([lo * n + hi, hi * n + lo,
                                                   np.arange(n) * (n + 1)])), n)  # row-major
    diagonal = rows == cols
    values = np.where(diagonal, 0.0, 1.0 / (1.0 + np.maximum(deg[rows], deg[cols])))
    remaining, block = np.empty(n), np.zeros((min(n, _ROW_BLOCK), n))
    for s in range(0, n, _ROW_BLOCK):
        a, b = np.searchsorted(rows, [s, s + _ROW_BLOCK])
        block[rows[a:b] - s, cols[a:b]] = values[a:b]
        remaining[s:s + _ROW_BLOCK] = 1.0 - block[:n - s].sum(axis=1)
        block[rows[a:b] - s, cols[a:b]] = 0.0
    values[diagonal] = remaining
    return WeightMatrix(n, nonzeros=(rows, cols, values))


def uniform_complete_weights(n):
    """All-to-all averaging: every entry 1/n."""
    if n < 1:
        raise ValueError("need at least one node")
    return WeightMatrix(n, np.full((n, n), 1.0 / n))


def second_singular_value(weights):
    """sigma2 of the mixing matrix, a float; 0 by convention for n = 1.

    W is symmetric, so its singular values are the absolute values of its
    eigenvalues: sigma2 is the second largest |lambda|.  Below
    LANCZOS_MIN_NODES agents it is taken from eigvalsh; from there on it is
    the upper Lanczos estimate of _lanczos_sigma2.
    """
    if weights.n == 1:
        return 0.0
    if weights.n >= LANCZOS_MIN_NODES:
        return _lanczos_sigma2(weights)
    return float(np.sort(np.abs(np.linalg.eigvalsh(weights.w)))[-2])


def _dot(a, b):
    return float(np.add.reduce(a * b))


def _orthogonalize(v, basis):
    """v minus its projection on the orthonormal rows of basis, in one
    classical Gram-Schmidt pass.  np.einsum without optimize runs its own
    loops in a fixed order, never BLAS, and needs no (rows, n) temporary."""
    return v - np.einsum("i,ij->j", np.einsum("ij,j->i", basis, v), basis)


def _lanczos_sigma2(weights):
    """sigma2 by Lanczos on W restricted to the complement of 1.

    W is symmetric with W 1 = 1, so sigma2 is the largest |lambda| of W on
    1-perp.  Row 0 of the basis is 1/sqrt(n); the Lanczos vectors follow,
    each orthogonalized against every earlier row.  The start vector is a
    fixed function of n, every product with W is the fixed-order neighbour
    sum and every inner product an np.add.reduce or np.einsum, so the only
    LAPACK call is eigh of the small tridiagonal T and the same W gives the
    same bits on any thread count.

    At each check the extreme Ritz pairs (theta, s) of the k x k T give the
    upper values |theta| + r with r = beta_k |s_k|, the residual bound of
    the pair.  Lanczos stops when the pair with the largest upper value has
    r <= LANCZOS_TOL, or when the basis spans all of 1-perp.  It returns
    that upper value plus n eps, which covers the rounding of T's entries
    (||W|| = 1), capped at 1, so the bounds never get a low sigma2.

    A breakdown (beta ~ 0) means the Krylov space is invariant, so every
    Ritz value is an eigenvalue (r = 0), as on a complete graph, where
    W = 0 on 1-perp and the first step breaks down.  The start vector
    reaches every eigenspace unless it is very unlucky, so then the Ritz
    values already hold sigma2; a breakdown before a check still restarts
    from a fixed vector orthogonal to the basis, with a zero coupling in T.
    """
    n = weights.n
    basis = np.empty((min(n, 2 * _LANCZOS_CHECK), n))  # grown as Lanczos needs rows
    basis[0] = 1.0 / np.sqrt(n)
    alphas, betas = [], []
    v = _orthogonalize(np.random.default_rng(n).standard_normal(n), basis[:1])
    k, check = 1, _LANCZOS_CHECK
    while True:
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, n - k), n))])
        basis[k] = v / np.sqrt(_dot(v, v))
        w = _neighbour_sum(weights, basis[k].reshape(1, n, 1)).ravel()
        if betas:
            w -= betas[-1] * basis[k - 1]
        alphas.append(_dot(basis[k], w))
        w = _orthogonalize(w - alphas[-1] * basis[k], basis[:k + 1])
        beta = np.sqrt(_dot(w, w))
        exhausted = k == n - 1
        if beta <= _LANCZOS_BREAKDOWN or exhausted:
            beta = 0.0  # the basis spans an invariant subspace
        if k >= check or exhausted:
            upper, residual = _ritz_upper(alphas, betas, beta)
            if residual <= LANCZOS_TOL:
                return float(min(upper + n * np.finfo(float).eps, 1.0))
            check = k + max(_LANCZOS_CHECK, k // 4)
        betas.append(beta)
        if beta:
            v = w
        else:
            v = _orthogonalize(np.random.default_rng((n, k)).standard_normal(n), basis[:k + 1])
        k += 1


def _ritz_upper(alphas, betas, beta):
    """(upper value, residual bound) of the extreme Ritz pair of T with the
    largest |theta| + beta |s_k|."""
    theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    pairs = [(abs(theta[i]) + beta * abs(s[-1, i]), beta * abs(s[-1, i])) for i in (0, -1)]
    return max(pairs)


def _jagged_diagonals(weights):
    """(columns, weights, diagonal lengths, tail ranks, ranks) of W's nonzeros:
    with rows ranked by degree, descending and stable, the first lengths[k]
    ranks have more than k nonzeros, and their k-th make diagonal k.  The
    tail follows: the rest of the hub rows' nonzeros, by rank and column."""
    n = weights.n
    rows, cols, values = weights.nonzeros
    degree = np.bincount(rows, minlength=n)
    order = np.argsort(-degree, kind="stable")
    first, degree = (np.cumsum(degree) - degree)[order], degree[order]
    lengths = n - np.cumsum(np.bincount(degree))[:-1]  # ranks with degree > k
    lengths = lengths[lengths >= n // _HUB_SHARE]
    k = np.arange(len(lengths))[:, None]
    hub = np.repeat(np.arange(lengths[-1]), degree[:lengths[-1]] - len(lengths))
    tail = first[hub] + len(lengths) + np.arange(len(hub)) - np.searchsorted(hub, hub)
    terms = np.concatenate([(first + k)[degree > k], tail])
    return cols[terms], values[terms], lengths.tolist(), hub, np.argsort(order)


def _neighbour_sum(weights, x):
    """W X for a (b, n, d) stack x, summed over W's nonzeros in fixed order.

    Jagged diagonals (Saad, Iterative Methods for Sparse Linear Systems,
    3.4): one take and one multiply make the products in diagonal order;
    every output starts at +0.0 and gets one in-place add per diagonal, on
    its prefix of ranks, then the hub rows' terms in order by np.add.at.  So
    each output is ((0 + w_ij1 x_j1) + w_ij2 x_j2) + ..., j ascending, on any
    number of threads, and a take puts the ranks back in agent order.  The
    layout is built once per W, its expansions for the last (b, d).
    """
    b, n, d = x.shape
    cached = weights._neighbour_index
    if cached is None or cached[0] != (b, d):
        layout = _jagged_diagonals(weights) if cached is None else cached[1]
        _, values, lengths, hub, _ = layout
        starts = np.cumsum([0] + lengths).tolist()
        spans = [(c * d, s * d, (s + c) * d) for c, s in zip(lengths, starts)]
        slots = ((np.arange(b)[:, None] * n + hub)[:, :, None] * d + np.arange(d)).ravel()
        cached = ((b, d), layout, (np.repeat(values, d), spans, slots))
        object.__setattr__(weights, "_neighbour_index", cached)
    _, (columns, _, _, _, ranks), (terms, spans, slots) = cached
    products = x.take(columns, axis=1).reshape(b, -1)
    products *= terms
    out = np.zeros((b, n * d))
    for count, s, e in spans:
        out[:, :count] += products[:, s:e]
    if len(slots):
        np.add.at(out.reshape(-1), slots, products[:, spans[-1][2]:].ravel())
    return out.reshape(b, n, d).take(ranks, axis=1)


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
