"""Graph generators and independent oracles shared across the tests.

Everything here is deliberately naive: dict-and-deque BFS, pure-Python
hashing, quadratic pair counting. The point is to verify the vectorized
implementations against code too simple to be wrong in the same way.
"""

from collections import deque

import numpy as np

import hbgraph.engine as engine
from hbgraph.graph import Graph
from hbgraph.hll import CounterArray, estimate_registers


# ---- generators (all deterministic in their seed) ----


def from_pairs(n, pairs, symmetric=False):
    if pairs:
        src, dst = zip(*pairs)
    else:
        src, dst = [], []
    return Graph.from_arcs(n, src, dst, symmetric=symmetric)


def sym_from_pairs(n, pairs):
    src = [a for a, b in pairs] + [b for a, b in pairs]
    dst = [b for a, b in pairs] + [a for a, b in pairs]
    return Graph.from_arcs(n, src, dst, symmetric=True)


def er(n, p, seed, symmetric=True):
    """Erdos-Renyi; the symmetric variant mirrors the upper triangle."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    if symmetric:
        mask = np.triu(mask, 1)
        s, d = np.nonzero(mask)
        return Graph.from_arcs(
            n, np.concatenate([s, d]), np.concatenate([d, s]), symmetric=True
        )
    s, d = np.nonzero(mask)
    return Graph.from_arcs(n, s, d)


def ba(n, k, seed):
    """Preferential attachment, k arcs per new node, symmetric."""
    rng = np.random.default_rng(seed)
    if n < k + 1:
        raise ValueError("need n > k")
    pairs = set()
    pool = []  # endpoint repeated once per incident edge
    for a in range(k + 1):
        for b in range(a + 1, k + 1):
            pairs.add((a, b))
            pool += [a, b]
    for x in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(int(pool[rng.integers(len(pool))]))
        for t in targets:
            pairs.add((min(x, t), max(x, t)))
            pool += [x, t]
    return sym_from_pairs(n, sorted(pairs))


def small_world(n, k, beta, seed):
    """Ring lattice with k neighbours each side, each edge rewired w.p. beta."""
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(n):
        for j in range(1, k + 1):
            a, b = u, (u + j) % n
            if rng.random() < beta:
                while True:
                    b = int(rng.integers(n))
                    if b != a and (min(a, b), max(a, b)) not in edges:
                        break
            edges.add((min(a, b), max(a, b)))
    return sym_from_pairs(n, sorted(edges))


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(i))) for i in range(1, n)]
    return sym_from_pairs(n, pairs)


def grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                pairs.append((u, u + 1))
            if r + 1 < rows:
                pairs.append((u, u + cols))
    return sym_from_pairs(rows * cols, pairs)


def cycle(n, directed=False):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    if directed:
        return from_pairs(n, pairs)
    return sym_from_pairs(n, pairs)


def star(n, directed=False):
    pairs = [(0, j) for j in range(1, n)]
    if directed:
        return from_pairs(n, pairs)
    return sym_from_pairs(n, pairs)


def band(n, seed):
    """Band graph in the shape of the benchmark's locality workload: each
    node links to 8 random later ids less than 40 ahead (no wrap), stored
    in both directions. Neighbouring lists overlap, so copying and
    intervals both fire."""
    rng = np.random.default_rng(seed)
    x = np.repeat(np.arange(n, dtype=np.int64), 8)
    y = x + rng.integers(1, 40, size=x.size)
    keep = y < n
    x, y = x[keep], y[keep]
    return Graph.from_arcs(n, np.concatenate([x, y]), np.concatenate([y, x]), symmetric=True)


def mixed_suite(seed, count, max_n=150):
    """A varied batch for bulk property tests: random, scale-free,
    lattices, trees, degenerate shapes, directed and symmetric."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = i % 8
        n = int(rng.integers(2, max_n))
        if kind == 0:
            out.append(er(n, float(rng.uniform(0.01, 0.2)), int(rng.integers(1 << 30))))
        elif kind == 1:
            out.append(er(n, float(rng.uniform(0.01, 0.2)),
                          int(rng.integers(1 << 30)), symmetric=False))
        elif kind == 2:
            out.append(ba(max(n, 6), int(rng.integers(1, 4)), int(rng.integers(1 << 30))))
        elif kind == 3:
            out.append(random_tree(n, int(rng.integers(1 << 30))))
        elif kind == 4:
            out.append(grid(int(rng.integers(1, 12)), int(rng.integers(2, 12))))
        elif kind == 5:
            out.append(cycle(n, directed=bool(rng.integers(2))))
        elif kind == 6:
            out.append(star(n, directed=bool(rng.integers(2))))
        else:
            out.append(small_world(max(n, 10), 2, 0.2, int(rng.integers(1 << 30))))
    return out


# ---- oracles ----


def bfs_oracle(g, source):
    """Dict-and-deque BFS distances; -1 for unreached."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for v in g.successors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def distance_matrix(g):
    """(n, n) shortest-path matrix by repeated oracle BFS. Keep n small."""
    return np.stack([bfs_oracle(g, s) for s in range(g.n)])


def exact_curve(g):
    """True neighbourhood function N(0..T) from the distance matrix."""
    dm = distance_matrix(g)
    finite = dm[dm >= 0]
    counts = np.bincount(finite)
    return np.cumsum(counts).astype(float)


def true_diameter(g):
    dm = distance_matrix(g)
    return int(dm.max())


def full_recompute(g, m=0, seed=0, max_iters=None):
    """(values, iterations, truncated) of a diffusion that recomputes every
    node at every step: the engine's kernel with no mask, iterated to a
    fixed point. m == 0 diffuses exact reach sets.

    This is the reference for the change-driven loop of `run` and
    `run_exact`; test_engine checks the kernel against a per-node loop.
    """
    if m:
        counters = CounterArray(g.n, m, seed)
        counters.init_singletons()
        state, reduce_op = counters.registers, np.maximum
        measure = lambda rows: estimate_registers(rows, m)
    else:
        ids = np.arange(g.n)
        state = np.zeros((g.n, max((g.n + 63) // 64, 1)), dtype=np.uint64)
        state[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
        reduce_op = np.bitwise_or
        measure = lambda rows: np.bitwise_count(rows).sum(axis=1, dtype=np.float64)
    plan = engine._plan(g.indptr)
    sizes = measure(state)
    values = [float(sizes.sum())]
    while max_iters is None or len(values) <= max_iters:
        changed, rows = engine._diffuse(state, g.indices, plan, reduce_op, mask=None)
        if changed.size == 0:
            return values, len(values) - 1, False
        state[changed] = rows
        sizes[changed] = measure(rows)
        values.append(float(sizes.sum()))
    return values, len(values) - 1, True


# ---- reference hashing (independent of the library's numpy path) ----

_M = (1 << 64) - 1


def ref_mix64(z):
    z &= _M
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M
    z ^= z >> 31
    return z


def ref_hash64(x, seed=0):
    salt = ref_mix64((seed + 0x9E3779B97F4A7C15) & _M)
    return ref_mix64(x ^ salt)


def ref_register_update(m, regs, x, seed):
    """One HLL insertion on a plain list of registers."""
    b = m.bit_length() - 1
    h = ref_hash64(x, seed)
    j = h & (m - 1)
    rem = h >> b
    if rem == 0:
        rho = 65 - b
    else:
        rho = 1 + (len(bin(rem)) - len(bin(rem).rstrip("0")))
    rho = min(rho, 31)
    regs[j] = max(regs[j], rho)
