"""Seeded workload graphs and hbgraph-free reference answers.

Everything here uses numpy and the standard library only: the graphs
are generated without hbgraph, and the references the benchmark checks
hbgraph's outputs against (component sizes, eccentricities) are
computed by code that shares nothing with the package.

A graph is an undirected simple graph given as (n, a, b) with a < b,
one entry per edge, sorted and without duplicates.
"""

from __future__ import annotations

import numpy as np


def _undirected(n, u, v):
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    a = np.minimum(u[keep], v[keep])
    b = np.maximum(u[keep], v[keep])
    key = np.unique(a * n + b)
    return n, key // n, key % n


def smallworld(n, seed):
    """Ring plus 5 random forward offsets in [1, 50) per node, plus n/10
    random shortcuts."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=np.int64)
    offs = rng.integers(1, 50, size=(n, 5))
    u = [x, np.repeat(x, 5), rng.integers(0, n, n // 10)]
    v = [(x + 1) % n, (np.repeat(x, 5) + offs.ravel()) % n, rng.integers(0, n, n // 10)]
    return _undirected(n, np.concatenate(u), np.concatenate(v))


def _whiskers(n, a, b, tail):
    """Two pendant paths of `tail` new nodes (ids from n) hung off a and b.

    Each path node links to the one before it, so ids still appear in
    order in the edge list. Whiskers, which real graphs have, set the
    diameter: the double sweep's far pair are their tips on every seed,
    and iFUB certifies in 3 or 4 searches.
    """
    path = np.arange(n, n + 2 * tail, dtype=np.int64)
    prev = path - 1
    prev[0], prev[tail] = a, b
    return path, prev


def locality(n, seed, tail=10):
    """Band graph: 8 random forward offsets in [1, 40) per node, no wrap,
    with a whisker at each end.

    Without the whiskers iFUB's search count jumps between 3 and about 35
    with the parity of the diameter.
    """
    rng = np.random.default_rng(seed)
    x = np.repeat(np.arange(n, dtype=np.int64), 8)
    y = x + rng.integers(1, 40, size=x.size)
    keep = y < n
    path, prev = _whiskers(n, 0, n - 1, tail)
    return _undirected(n + 2 * tail, np.concatenate([x[keep], path]),
                       np.concatenate([y[keep], prev]))


def scalefree(core, seed, k=3, tail=10):
    """Preferential-attachment core (k edges per new node) with a whisker
    on each of its last two nodes, plus a dust of 12 * core components of
    2 or 3 nodes, enough that labelling them outweighs interpreter start-up
    in ``hbgraph diameter``.

    On a bare core iFUB's search count is heavy-tailed across seeds (178
    to 835 at 5000 core nodes); the whiskers make it 3 or 4, so the
    steady bulk of the diameter layer's work is component labelling, one
    BFS per component."""
    rng = np.random.default_rng(seed)
    u, v = [], []
    pool = []  # one entry per edge endpoint: degree-proportional sampling
    for a in range(k + 1):
        for b in range(a + 1, k + 1):
            u.append(a)
            v.append(b)
            pool += [a, b]
    draws = iter(rng.random(64 * core))
    for x in range(k + 1, core):
        targets = set()
        while len(targets) < k:
            targets.add(pool[int(next(draws) * len(pool))])
        for t in sorted(targets):
            u.append(t)
            v.append(x)
            pool += [t, x]
    path, prev = _whiskers(core, core - 2, core - 1, tail)
    u += path.tolist()
    v += prev.tolist()
    n = core + 2 * tail
    for size in rng.integers(2, 4, size=12 * core):
        for i in range(1, size):  # a path: every node links to the one before
            u.append(n + i - 1)
            v.append(n + i)
        n += int(size)
    return _undirected(n, u, v)


def edge_lines(graph) -> str:
    """Edge list text with both directions of every edge.

    Lines are grouped by the larger endpoint, smaller endpoint first, so
    the importer's first-appearance relabelling keeps the generated ids
    (and with them the locality the codec exploits) wherever a node has
    a neighbour with a smaller id.
    """
    n, a, b = graph
    order = np.lexsort((a, b))
    a, b = a[order], b[order]
    pairs = np.empty((2 * a.size, 2), dtype=np.int64)
    pairs[0::2, 0], pairs[0::2, 1] = a, b
    pairs[1::2, 0], pairs[1::2, 1] = b, a
    return "".join(f"{p} {q}\n" for p, q in pairs.tolist())


def csr(graph):
    """Symmetric CSR (indptr, indices) with sorted successor lists."""
    n, a, b = graph
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def component_sizes(graph) -> np.ndarray:
    """Sizes of the connected components, by min-label propagation."""
    n, a, b = graph
    label = np.arange(n, dtype=np.int64)
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        np.minimum.at(new, b, label[a])
        new = new[new]  # pointer jumping
        if np.array_equal(new, label):
            return np.bincount(np.unique(label, return_inverse=True)[1])
        label = new


def eccentricities(graph, words_per_pass=64) -> np.ndarray:
    """Eccentricity of every node by bit-parallel BFS from all sources.

    Each node keeps one bit per source in uint64 words; a level ORs every
    node's bits into its neighbours'. Source s's eccentricity is the last
    level at which any node gained s's bit.
    """
    n = graph[0]
    indptr, indices = csr(graph)
    has = np.flatnonzero(np.diff(indptr) > 0)
    starts = indptr[has]
    ecc = np.zeros(n, dtype=np.int64)
    one = np.uint64(1)
    for lo in range(0, n, 64 * words_per_pass):
        src = np.arange(lo, min(n, lo + 64 * words_per_pass))
        w = (src.size + 63) // 64
        seen = np.zeros((n, w), dtype=np.uint64)
        seen[src, (src - lo) // 64] = one << ((src - lo) % 64).astype(np.uint64)
        level = 0
        while True:
            reach = seen.copy()
            reach[has] |= np.bitwise_or.reduceat(seen[indices], starts, axis=0)
            gained = np.bitwise_or.reduce(reach ^ seen, axis=0)
            if not gained.any():
                break
            level += 1
            bits = (gained[:, None] >> np.arange(64, dtype=np.uint64)) & one
            moved = np.flatnonzero(bits.ravel()[: src.size])
            ecc[lo + moved] = level
            seen = reach
    return ecc
