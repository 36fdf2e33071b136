"""Pin down an exact diameter with a handful of breadth-first searches.

A double sweep finds a strong lower bound (exact on trees); fringe
refinement then certifies the true diameter, usually after far fewer
than n searches. Compare against the n-search brute force.
"""

import numpy as np

from hbgraph import Graph, double_sweep, eccentricity, giant_component, ifub


def small_world(n, k, beta, seed):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for x in range(n):
        for off in range(1, k + 1):
            y = (x + off) % n
            if rng.random() < beta:
                y = int(rng.integers(n))
                while y == x:
                    y = int(rng.integers(n))
            src += [x, y]
            dst += [y, x]
    return Graph.from_arcs(n, np.array(src), np.array(dst))


def main():
    g = giant_component(small_world(3000, 2, 0.03, seed=7))
    print(f"graph: giant component, {g.n} nodes, {g.num_arcs} arcs\n")

    ds = double_sweep(g)
    print("double sweep (3 searches):")
    print(f"  lower bound {ds.lower}, far pair ({ds.y}, {ds.z}), "
          f"midpoint {ds.midpoint} with eccentricity {ds.midpoint_ecc}")

    res = ifub(g)
    print("\nfringe refinement:")
    print(f"  exact diameter {res.diameter} certified with {res.bfs_count} "
          f"searches ({res.bfs_count / g.n:.1%} of the {g.n} a brute force "
          "needs)")

    # brute force agreement, the slow way
    brute = max(eccentricity(g, s) for s in range(g.n))
    assert brute == res.diameter
    print(f"  brute force agrees: {brute}")

    # the bound is the diameter on trees; show it on a random one
    rng = np.random.default_rng(3)
    parents = np.array([int(rng.integers(i)) for i in range(1, 800)])
    child = np.arange(1, 800)
    t = Graph.from_arcs(800, np.concatenate([parents, child]),
                        np.concatenate([child, parents]))
    ds = double_sweep(t)
    brute = max(eccentricity(t, s) for s in range(t.n))
    print(f"\nrandom tree, 800 nodes: double-sweep bound {ds.lower}, "
          f"true diameter {brute}")


if __name__ == "__main__":
    main()
