"""Distance statistics with honest error bars from repeated runs.

Runs the sketched diffusion R times, jackknifes the run set for the
mean distance, spid and effective diameter, and checks the intervals
against the exact values computed from the bitset engine.
"""

import numpy as np

from hbgraph import (
    Graph,
    RunSet,
    jackknife,
    run,
    run_exact,
    seed_sequence,
    summarize,
    to_distribution,
)


def er(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    mask |= mask.T
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return Graph.from_arcs(n, src, dst)


def main():
    g = er(1500, 0.004, seed=5)
    print(f"graph: {g.n} nodes, {g.num_arcs} arcs, sparse random\n")

    exact = run_exact(g)
    truth = to_distribution(exact.monotone_values, g.n)
    print("exact values: "
          f"mean {truth.mean():.4f}, spid {truth.spid():.4f}, "
          f"effective diameter {truth.effective_diameter():.4f}")

    runs = RunSet([run(g, m=64, seed=s, graph_id=exact.graph_id)
                   for s in seed_sequence(11, 16)])
    stats = summarize(runs)
    print(f"\n16 sketched runs at m=64:\n{stats.to_text()}")

    print("\ntruth against the 2-SE intervals:")
    for name, true_value in [("mean", truth.mean()),
                             ("spid", truth.spid()),
                             ("effective_diameter",
                              truth.effective_diameter())]:
        jk = jackknife(runs, name)
        lo, hi = jk.estimate - 2 * jk.se, jk.estimate + 2 * jk.se
        inside = "inside" if lo <= true_value <= hi else "OUTSIDE"
        print(f"  {name:20s} [{lo:8.4f}, {hi:8.4f}]  true {true_value:8.4f} "
              f"({inside})")

    # error bars are only as good as their coverage; repeat with fresh
    # seeds and count how often the mean interval captures the truth
    hits = 0
    trials = 30
    seeds = seed_sequence(99, trials * 8)
    for b in range(trials):
        batch = RunSet([run(g, m=16, seed=s, graph_id=exact.graph_id)
                        for s in seeds[b * 8:(b + 1) * 8]])
        jk = jackknife(batch, "mean")
        hits += abs(jk.estimate - truth.mean()) <= 2 * jk.se
    print(f"\ncoverage at m=16, 8 runs per set: {hits}/{trials} "
          "intervals caught the true mean")


if __name__ == "__main__":
    main()
