"""Estimate a neighbourhood function and compare it with the truth.

Builds a small-world graph (ring lattice + random chords), runs the
counter diffusion at two register sizes, and prints the estimated
N(t) next to the exact curve from the bitset engine.
"""

import numpy as np

from hbgraph import Graph, RunSet, eta, run, run_exact, seed_sequence


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
    g = small_world(2000, 4, 0.05, seed=1)
    print(f"graph: {g.n} nodes, {g.num_arcs} arcs, small-world ring\n")

    exact = run_exact(g)
    truth = np.asarray(exact.monotone_values)
    print(f"exact diffusion stabilized after T = {exact.iterations} sweeps")

    for m in (16, 64):
        runs = RunSet([run(g, m=m, seed=s, graph_id=exact.graph_id)
                       for s in seed_sequence(42, 10)])
        est = runs.to_matrix().mean(axis=0)
        width = max(est.size, truth.size)
        pad = lambda c: np.concatenate([c, np.full(width - c.size, c[-1])])
        rel = np.abs(pad(est) / pad(truth) - 1.0)
        # 10 runs average down the single-run spread by sqrt(10)
        print(f"m={m:3d}: worst relative error over t = {rel.max():.4f} "
              f"(single-run spread eta = {eta(m):.4f})")

    print("\n  t    exact N(t)    estimated (m=64)    rel err")
    runs = RunSet([run(g, m=64, seed=s, graph_id=exact.graph_id)
                   for s in seed_sequence(42, 10)])
    est = runs.to_matrix().mean(axis=0)
    for t in range(min(truth.size, est.size)):
        r = est[t] / truth[t] - 1.0
        print(f"{t:3d}  {truth[t]:12.0f}  {est[t]:18.1f}  {r:+9.4f}")


if __name__ == "__main__":
    main()
