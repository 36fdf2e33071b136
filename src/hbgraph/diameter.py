"""Exact diameters with far fewer than n breadth-first searches.

A double sweep (BFS to a far node y, BFS from y to the farthest z) gives
a strong lower bound d(y, z); the midpoint c of that path is a good
low-eccentricity pivot. The fringe refinement then walks the BFS levels
of c from the outside in: every node at depth i has eccentricity at most
i + ecc(c), and once every unexamined node provably cannot beat the
current lower bound the bound is the diameter. On graphs whose distances
hug the mean this terminates after a handful of per-node searches.

The searches assume symmetric arcs: the bound arguments use both
directions of the triangle inequality, and the midpoint walk steps
back along arcs. A graph is accepted only when its arcs pair up;
anything else is refused, since its sweep and certificate would bound
reachability, not distance. Component labelling needs no symmetry: on
one-way arcs it gives weak components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import NeighbourhoodRun
from .graph import Graph

__all__ = [
    "DiameterResult",
    "DoubleSweepResult",
    "bfs",
    "eccentricity",
    "double_sweep",
    "ifub",
    "component_labels",
    "giant_component",
    "run_length_lower_bound",
]


def bfs(g: Graph, source: int):
    """Distances from source; -1 marks unreached nodes.

    Level-synchronous with a numpy frontier, kept sorted.
    """
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} out of range [0, {g.n})")
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        # the positions of the frontier's arcs, list after list
        lens = g.indptr[frontier + 1] - g.indptr[frontier]
        gather = np.arange(int(lens.sum()), dtype=np.int64)
        gather -= np.repeat(np.cumsum(lens) - lens - g.indptr[frontier], lens)
        dsts = g.indices[gather]
        frontier = np.unique(dsts[dist[dsts] < 0])
        d += 1
        dist[frontier] = d
    return dist


def eccentricity(g: Graph, x: int) -> int:
    """Largest distance from x to any node it reaches."""
    dist = bfs(g, x)
    return int(dist.max())


@dataclass(frozen=True)
class DoubleSweepResult:
    lower: int  # d(y, z), a diameter lower bound
    y: int
    z: int
    midpoint: int
    midpoint_ecc: int  # upper bound on distance to anywhere from midpoint
    bfs_count: int


def _double_sweep(g: Graph, start):
    """The three searches shared by double_sweep and ifub.

    Returns the sweep result, the start node (resolved when None), its
    eccentricity and the midpoint's distance array.
    """
    if not g.symmetric:
        raise ValueError(
            "this computation is only correct on symmetric graphs, and some "
            "arc has no reverse; symmetrize first (import --symmetrize)"
        )
    if g.n == 0:
        raise ValueError("empty graph")
    if start is None:
        start = int(np.argmax(g.out_degrees()))
    d0 = bfs(g, start)
    y = int(np.argmax(d0))  # ties resolve to the smallest id
    d1 = bfs(g, y)
    z = int(np.argmax(d1))
    lb = int(d1[z])
    # walk from z back towards y, each step to the lowest-id neighbour one
    # closer to y, stopping floor(lb/2) steps from y
    c = z
    for _ in range(lb - lb // 2):
        nbrs = g.successors(c)
        c = int(nbrs[d1[nbrs] == d1[c] - 1][0])
    dc = bfs(g, c)
    res = DoubleSweepResult(
        lower=lb,
        y=y,
        z=z,
        midpoint=c,
        midpoint_ecc=int(dc.max()),
        bfs_count=3,
    )
    return res, start, int(d0.max()), dc


def double_sweep(g: Graph, start: int | None = None) -> DoubleSweepResult:
    """Lower-bound the diameter with three searches.

    BFS from start finds a far node y; BFS from y finds the farthest z,
    and d(y, z) is the bound. The node halfway along the y-z path comes
    back as a pivot together with its eccentricity. Defaults to starting
    at the highest-degree node. On a disconnected graph the sweep stays
    inside start's component.
    """
    return _double_sweep(g, start)[0]


@dataclass(frozen=True)
class DiameterResult:
    lower: int
    upper: int
    exact: bool
    bfs_count: int
    component_size: int

    @property
    def diameter(self) -> int:
        if not self.exact:
            raise ValueError("bounds did not close; no exact diameter")
        return self.lower


def ifub(g: Graph, start: int | None = None) -> DiameterResult:
    """Exact diameter of start's component by fringe refinement.

    Seeds bounds with a double sweep from `start` (default: the
    highest-degree node), then examines the pivot's BFS levels outside
    in. A whole level is skipped when depth + pivot eccentricity cannot
    beat the bound; the scan stops, exact, once every remaining depth is
    dominated. Worst case n + 2 searches. Measured: 698 on a 5000-node
    preferential-attachment graph (3 arcs per new node, seed 1); 3-4 on
    the benchmark's band and scale-free graphs, which carry two 10-node
    pendant paths.
    """
    ds, start, ecc_start, dist_c = _double_sweep(g, start)
    h = ds.midpoint_ecc
    comp_size = int((dist_c >= 0).sum())
    bfs_count = ds.bfs_count

    # every full BFS from a component node yields a valid diameter lower bound
    lb = max(ds.lower, h, ecc_start)
    # their eccentricities are already folded into lb
    done = {start, ds.y, ds.midpoint}
    for depth in range(h, 0, -1):
        if lb < depth + h:  # some node here could still beat lb
            for u in np.flatnonzero(dist_c == depth):
                u = int(u)
                if u in done:
                    continue
                du = bfs(g, u)
                bfs_count += 1
                lb = max(lb, int(du.max()))
        # everything at depth < current has ecc <= 2(depth - 1)
        if lb >= 2 * (depth - 1):
            break
    return DiameterResult(lb, lb, True, bfs_count, comp_size)


# ---- components ----


def component_labels(g: Graph) -> np.ndarray:
    """Connected-component label per node; labels count up from 0 in
    order of each component's smallest node id.

    Union-find over the arc array, vectorised: every node starts as its
    own root. Each round hooks every root to the smallest root it shares
    an arc with, then jumps pointers (root = root[root]) until each node
    points straight at its root. Arcs whose ends already share a root
    are dropped for good, so each round is a few passes over the arcs
    still live, and their number shrinks every round. Roots only hook to
    smaller ids, so each component ends rooted at its smallest node.
    Unlike min-label propagation, the round count does not grow with the
    component's diameter: a 200k-node path with shuffled ids takes 11-12
    rounds (0.05 s), where propagation takes tens of thousands. On
    one-way arcs the labels are weak components.
    """
    root = np.arange(g.n, dtype=np.int64)
    src = np.repeat(root, g.out_degrees())
    dst = g.indices
    while True:
        ru, rv = root[src], root[dst]
        live = ru != rv
        if not live.any():
            break
        src, dst = src[live], dst[live]
        ru, rv = ru[live], rv[live]
        # on paired arcs this hooks each root to its smallest neighbour
        # root; hooking high to low also ends on one-way arcs
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # a root is the smallest id in its component: number roots in id order
    return (np.cumsum(root == np.arange(g.n)) - 1)[root]


def giant_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component (ties: smallest node id).

    Nodes are relabelled to 0..k-1 in ascending order of their old ids;
    the old ids (mapped through g.original_ids when present) ride along
    as original_ids on the result. A component holds every arc of its
    nodes, so the result is their rows of g's CSR with the ids mapped:
    the map is increasing, so the lists stay sorted. When the component
    is the whole graph, the result shares g's arrays.
    """
    labels = component_labels(g)
    if labels.size == 0:
        raise ValueError("empty graph")
    sizes = np.bincount(labels)
    best = int(np.argmax(sizes))  # first maximum = smallest seed id
    if sizes[best] == g.n:
        old_ids = np.arange(g.n) if g.original_ids is None else np.asarray(g.original_ids)
        return Graph(g.n, g.indptr, g.indices, original_ids=old_ids)
    keep = np.flatnonzero(labels == best)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    degree = g.out_degrees()[keep]
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    start = g.indptr[keep]
    arcs = np.repeat(start - indptr[:-1], degree) + np.arange(indptr[-1])
    old_ids = keep if g.original_ids is None else np.asarray(g.original_ids)[keep]
    return Graph(keep.size, indptr, remap[g.indices[arcs]], original_ids=old_ids)


def run_length_lower_bound(run: NeighbourhoodRun) -> int:
    """Diameter lower bound from how long a diffusion kept changing.

    Counters keep moving for as long as new nodes enter some ball, so the
    iteration count never exceeds the largest finite distance; sketch
    collisions can only stop it early. Meaningless if the run was
    truncated, so that is an error.
    """
    if run.truncated:
        raise ValueError("run was truncated; its length bounds nothing")
    return run.iterations
