"""Neighbourhood-function estimation by counter diffusion.

One counter per node starts as the singleton {node}; every iteration
replaces it with the union of its own value and its successors' values,
so after t rounds counter x describes the ball B(x, t). The sum of the
per-counter estimates traces the neighbourhood function N(t), and the
process stops the first time no register anywhere moves.

Every mode runs one sweep kernel in the layout of SELL-C-sigma sparse
matrices: successor lists are cut into chunks of at most _WIDTH arcs,
sorted by length and stored column by column once per run, so the
chunks longer than j are a prefix of column j. A step gathers the rows
of its arcs into one buffer per run, n rows per np.take at most, and
folds each column's slice of it into a row per chunk with one in-place
max (or or); nodes past _WIDTH successors then fold their later chunks
into their first. max and or are commutative and idempotent, so neither
the column order nor the chunking changes a bit of the result.

Two refinements from the same playbook:

* every step after the first is change-driven (HyperANF's systolic
  refinement): a node is recomputed at step t only if one of its
  successors changed at step t - 1, found with one flag gathered per
  arc and one or per column. No other row can move, so the result is
  bit-identical to recomputing every node.
* **exact mode** runs the identical diffusion with one-bit-per-node sets
  instead of sketches, giving exact N(t) at O(n^2/64) words of state;
  it is the oracle the estimates are judged against.
"""

from __future__ import annotations

import json
import time
import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .hll import CounterArray, estimate_registers, _mix64, _EST_CELLS, _GOLDEN, _MASK64

__all__ = [
    "NeighbourhoodRun",
    "RunSet",
    "BudgetExceededError",
    "run",
    "run_exact",
    "error_evolution",
    "seed_sequence",
]

log = logging.getLogger("hbgraph.engine")


class BudgetExceededError(RuntimeError):
    """Raised when a run could allocate more than the caller's byte budget."""


@dataclass
class NeighbourhoodRun:
    """One diffusion run: N(0..T) plus enough metadata to reproduce it."""

    graph_id: str
    n: int
    m: int  # registers per counter; 0 marks an exact run
    seed: int
    values: list[float]
    iterations: int
    # set when the iteration cap ended the run before a no-change sweep
    # confirmed stabilization; values past the cap are unknown
    truncated: bool = False

    @property
    def exact(self) -> bool:
        return self.m == 0

    @property
    def monotone_values(self) -> list[float]:
        """Running maximum of values; what the statistics consume."""
        return np.maximum.accumulate(np.asarray(self.values, dtype=float)).tolist()

    def to_dict(self) -> dict:
        d = {
            "graph_id": self.graph_id,
            "n": self.n,
            "m_registers": self.m,
            "seed": self.seed,
            "values": [float(v) for v in self.values],
            "monotone_values": self.monotone_values,
            "iterations": self.iterations,
            "wall_time_s": 0.0,  # reserved; kept constant so replays are byte-stable
        }
        if self.truncated:
            # written only when set, so complete runs keep their old bytes
            d["truncated"] = True
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NeighbourhoodRun":
        m = int(d["m_registers"])
        values = [float(v) for v in d["values"]]
        return cls(
            graph_id=str(d["graph_id"]),
            n=int(d["n"]),
            m=m,
            seed=int(d["seed"]),
            values=values,
            iterations=int(d["iterations"]),
            truncated=bool(d.get("truncated", False)),
        )


@dataclass
class RunSet:
    """Repeated runs on one graph with one register size, distinct seeds."""

    runs: list[NeighbourhoodRun] = field(default_factory=list)

    def __post_init__(self):
        if not self.runs:
            raise ValueError("a run set needs at least one run")
        first = self.runs[0]
        for r in self.runs[1:]:
            if r.graph_id != first.graph_id or r.m != first.m or r.n != first.n:
                raise ValueError("runs mix graphs or register sizes")
        seeds = [r.seed for r in self.runs if not r.exact]
        if len(seeds) != len(set(seeds)):
            raise ValueError("duplicate seeds in run set")

    def __len__(self):
        return len(self.runs)

    @property
    def n(self) -> int:
        return self.runs[0].n

    @property
    def graph_id(self) -> str:
        return self.runs[0].graph_id

    def to_matrix(self, monotone: bool = True) -> np.ndarray:
        """(R, T+1) value matrix, rows right-padded with their final value.

        Refuses truncated runs: their values past the cap are unknown, so
        padding them would invent a curve.
        """
        cut = [i for i, r in enumerate(self.runs) if r.truncated]
        if cut:
            raise ValueError(
                f"run(s) {', '.join(map(str, cut))} stopped at max_iters before "
                "the counters settled; their curves are incomplete"
            )
        rows = [r.monotone_values if monotone else r.values for r in self.runs]
        width = max(len(row) for row in rows)
        out = np.empty((len(rows), width), dtype=float)
        for i, row in enumerate(rows):
            out[i, : len(row)] = row
            out[i, len(row) :] = row[-1]
        return out

    def save(self, path) -> None:
        payload = [r.to_dict() for r in self.runs]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunSet":
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        return cls([NeighbourhoodRun.from_dict(d) for d in payload])


def seed_sequence(master_seed: int, count: int) -> list[int]:
    """Expand a master seed into per-run seeds (splitmix-style stream)."""
    return [
        _mix64((master_seed + (k + 1) * _GOLDEN) & _MASK64) for k in range(count)
    ]


# ---- gather/reduce plumbing ----

# most arcs in one chunk: a successor list is cut into chunks of at most
# this many arcs, and a sweep makes at most this many column steps
_WIDTH = 32


def _plan(indptr: np.ndarray, indices: np.ndarray):
    """Successor lists cut into chunks of <= _WIDTH arcs, longest first.

    Returns (owner, width, targets, heads, extra, home, cuts): chunk c is
    node owner[c]'s; column j holds arc j of chunks 0 .. width[j] - 1 and
    targets their successor ids, column after column. heads open a
    node's list, extra are the other chunks by their place in it (which
    moves on at each cut), home their nodes' heads. The sort is stable, so
    a node's chunks keep their order; nodes without successors get none.
    """
    deg = np.diff(indptr)
    parts = -(-deg // _WIDTH)
    owner = np.repeat(np.arange(deg.size, dtype=np.int64), parts)
    part = np.arange(owner.size, dtype=np.int64)
    part -= np.repeat(np.cumsum(parts) - parts, parts)
    base = indptr[owner] + part * _WIDTH
    length = np.minimum(indptr[owner + 1] - base, _WIDTH)
    order = np.argsort(-length, kind="stable")
    owner, base, part = owner[order], base[order], part[order]
    width = owner.size - np.cumsum(np.bincount(length))[:-1]
    targets = np.concatenate([indices[base[:k] + j] for j, k in enumerate(width)] or [indices])
    heads, extra = np.split(np.argsort(part, kind="stable"), [np.count_nonzero(part == 0)])
    slot = np.empty(deg.size, dtype=np.int64)
    slot[owner[heads]] = heads
    cuts = np.cumsum(np.bincount(part[extra]))
    return owner, width, targets, heads, extra, slot[owner[extra]], cuts


def _workspace(plan, state):
    """(acc, buf, flags, idx), reused at every step of a run: a row per chunk,
    min(n, arcs) rows to gather into, a flag and a successor id per arc.
    Takes into them use mode="clip": with out=, "raise" copies via a temporary."""
    (n, w), chunks, arcs = state.shape, plan[0].size, plan[2].size
    return (np.empty((chunks, w), state.dtype), np.empty((min(n, arcs), w), state.dtype),
            np.empty(arcs, dtype=bool), np.empty(arcs, dtype=np.int64))


def _diffuse(state, plan, work, reduce_op, hit):
    """One synchronous step over the nodes with an arc into `hit`.

    Returns (changed node ids in chunk order, their new rows in `work`,
    valid until the next step). `state` is only read, so every row is
    reduced with its successors' values from the previous step.
    """
    (owner, width, targets, heads, extra, home, cuts), (acc, buf, flags, idx) = plan, work
    cols = list(zip((np.cumsum(width) - width).tolist(), width.tolist()))
    np.take(hit, targets, out=flags, mode="clip")  # the arcs into hit
    pick = flags[: owner.size]
    for a, k in cols[1:]:  # the chunks with such an arc
        np.logical_or(pick[:k], flags[a : a + k], out=pick[:k])
    if extra.size:  # all chunks of their nodes
        np.logical_or.at(pick, home, pick[extra])
        pick[extra] = pick[home]
    rank = np.cumsum(pick)  # picked chunks up to each chunk
    if rank.size == 0 or rank[-1] == 0:
        return owner[:0], state[:0]
    ends = np.cumsum(rank[width - 1]).tolist()  # of each column in idx
    for (a, k), lo, hi in zip(cols, [0] + ends, ends):
        idx[lo:hi] = targets[a : a + k][pick[:k]]
    np.take(state, idx[: ends[0]], axis=0, out=acc[: ends[0]], mode="clip")
    j = 1
    for lo in range(ends[0], ends[-1], len(buf)):
        at, hi = lo, min(lo + len(buf), ends[-1])
        rows = np.take(state, idx[lo:hi], axis=0, out=buf[: hi - lo], mode="clip")
        while at < hi:  # the part of column j in this block, then j + 1
            top = min(ends[j], hi)
            a, b = at - ends[j - 1], top - ends[j - 1]
            reduce_op(acc[a:b], rows[at - lo : top - lo], out=acc[a:b])
            at, j = top, j + (top == ends[j])
    if extra.size:  # fold each later chunk into its head; rank - 1 is a row of acc
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            keep = pick[extra[lo:hi]]
            e, h = rank[extra[lo:hi][keep]] - 1, rank[home[lo:hi][keep]] - 1
            acc[h] = reduce_op(acc[h], acc[e])
        heads = heads[pick[heads]]
        owner, acc = owner[heads], _compact(acc, rank[heads] - 1, buf)
    else:
        owner, acc = owner[pick], acc[: ends[0]]
    diff = []
    for lo in range(0, owner.size, len(buf)):  # against the previous rows
        part = owner[lo : lo + len(buf)]
        old = np.take(state, part, axis=0, out=buf[: part.size], mode="clip")
        new = reduce_op(acc[lo : lo + part.size], old, out=acc[lo : lo + part.size])
        # uint64 words, their flags read as wider ints: any() on short rows is slow
        ne = new.view(np.uint64) != old.view(np.uint64)
        while ne.shape[1] > 1 and ne.shape[1] % 2 == 0:
            ne = ne.view(f"u{min(8, ne.shape[1] & -ne.shape[1])}") != 0
        diff.append(lo + np.flatnonzero(ne.any(axis=1)))
    diff = np.concatenate(diff)
    return owner[diff], _compact(acc, diff, buf)


def _compact(acc, keep, buf):
    """Move acc[keep] to acc's front through buf; keep[i] >= i, so no row is lost."""
    for lo in range(0, keep.size, len(buf)):
        part = keep[lo : lo + len(buf)]
        acc[lo : lo + part.size] = np.take(acc, part, axis=0, out=buf[: part.size], mode="clip")
    return acc[: keep.size]


def _sweep(g, state, reduce_op, measure, max_iters):
    """Diffuse `state` in place until no row changes; (N(0..T), truncated).

    `measure` maps rows to the sizes of the sets they describe; N(t) is
    their sum after step t. A step recomputes the nodes with an arc into
    the set that changed in the step before; for the first, every node.
    """
    if max_iters is not None and max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    sizes = measure(state)
    values = [float(sizes.sum())]
    plan = _plan(g.indptr, g.indices)
    work = _workspace(plan, state)
    hit = np.ones(g.n, dtype=bool)
    while max_iters is None or len(values) <= max_iters:
        changed, rows = _diffuse(state, plan, work, reduce_op, hit)
        if changed.size == 0:
            return values, False
        state[changed] = rows
        sizes[changed] = measure(rows)
        values.append(float(sizes.sum()))
        hit[:] = False
        hit[changed] = True
    return values, True


# ---- public entry points ----


def _row_bytes(n: int, m: int) -> int:
    """Bytes of one node's state: m registers, or exact mode's reach set."""
    return m or 8 * max(-(-n // 64), 1)


def _peak_bytes(g: Graph, m: int) -> int:
    """Upper bound on the bytes a run allocates; m == 0 marks exact mode.
    The terms are those of run()'s docstring."""
    deg, n, a = np.diff(g.indptr), g.n, g.num_arcs
    b = _row_bytes(n, m)
    s = n * b
    c, r, k = int((-(-deg // _WIDTH)).sum()), min(n, a), int((deg > _WIDTH).sum())
    measure = 8 * min(s, max(_EST_CELLS, m)) if m else min(s // 8, max(_EST_CELLS, b // 8)) + 8 * n
    step = max(3 * k * b, r * b // 4, measure)
    return s + (c + r) * b + 17 * a + 48 * c + 48 * n + 68 * 1024 + step


def _check_budget(g: Graph, m: int, budget_bytes: int | None) -> None:
    """Refuse, before any state exists, a run that could exceed the budget."""
    need = _peak_bytes(g, m)
    if budget_bytes is not None and need > budget_bytes:
        raise BudgetExceededError(
            f"{'counter' if m else 'exact'} run needs up to {need} bytes for {g.n} nodes "
            f"of {_row_bytes(g.n, m)}-byte state rows and {g.num_arcs} arcs; "
            f"budget is {budget_bytes}"
        )


def run(
    g: Graph,
    m: int = 64,
    seed: int = 0,
    max_iters: int | None = None,
    budget_bytes: int | None = None,
    graph_id: str | None = None,
) -> NeighbourhoodRun:
    """Estimate the neighbourhood function with one counter per node.

    Refused if the run could allocate over `budget_bytes`. With b bytes of
    state per node (m for counters; 8*ceil(n/64) for run_exact's reach
    sets), S = n*b, A arcs, C chunks (the sum of ceil(d/_WIDTH) over
    out-degrees d), R = min(n, A) and K nodes with more than _WIDTH
    successors, a run allocates at most
    S + (C + R)*b + 17*A + 48*C + 48*n + 68 KiB + max(3*K*b, R*b/4, M)
    bytes: state, step workspace, plan and a step's chunk selection,
    per-node arrays, numpy's buffers and headers, and the largest of the
    fold of extra chunks, the comparison of R rows with the rows before
    and the measure of up to n rows. M is the estimate's lookup over one
    block of at most max(2^14, m) registers, 8*min(S, max(2^14, m)); in
    exact mode, the popcount of one block of at most max(2^14, b/8) words
    and the rows' sums, min(S/8, max(2^14, b/8)) + 8*n.
    """
    _check_budget(g, m, budget_bytes)
    counters = CounterArray(g.n, m, seed)
    counters.init_singletons()
    return _diffusion(
        g, counters.registers, np.maximum, lambda rows: estimate_registers(rows, m),
        max_iters, graph_id, m, seed,
    )


def run_exact(
    g: Graph,
    max_iters: int | None = None,
    budget_bytes: int | None = None,
    graph_id: str | None = None,
) -> NeighbourhoodRun:
    """Exact N(t) by diffusing one-bit-per-node reach sets.

    Equivalent to accumulating per-node BFS ball sizes, but runs the same
    change-driven sweep as the estimator, word-packed 64 nodes at a time,
    so the state is n^2/8 bytes. Refused like run() if it could allocate
    over `budget_bytes`, by the same bound with 8*ceil(n/64) bytes a row.
    """
    _check_budget(g, 0, budget_bytes)
    n = g.n
    state = np.zeros((n, _row_bytes(n, 0) // 8), dtype=np.uint64)
    ids = np.arange(n)
    state[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
    return _diffusion(g, state, np.bitwise_or, _reach_sizes, max_iters, graph_id, 0, 0)


def _reach_sizes(rows: np.ndarray) -> np.ndarray:
    """Sizes of the sets of exact-mode rows: their popcounts, summed in
    blocks of at most max(_EST_CELLS, w) words of w a row, so the uint8
    popcount temporary stays within one block, as estimate_registers'."""
    step = max(1, _EST_CELLS // rows.shape[1])
    out = np.empty(len(rows))
    for i in range(0, len(rows), step):
        out[i : i + step] = np.bitwise_count(rows[i : i + step]).sum(axis=1, dtype=np.float64)
    return out


def _diffusion(g, state, reduce_op, measure, max_iters, graph_id, m, seed):
    """`_sweep` wrapped as a logged NeighbourhoodRun; m == 0 marks exact mode."""
    t0 = time.perf_counter()
    values, truncated = _sweep(g, state, reduce_op, measure, max_iters)
    gid = graph_id if graph_id is not None else g.fingerprint()
    mode = "exact" if m == 0 else "counter"
    log.info(
        "anf %s run graph=%s n=%d m=%d seed=%#x iters=%d wall=%.3fs",
        mode, gid, g.n, m, seed, len(values) - 1, time.perf_counter() - t0,
    )
    return NeighbourhoodRun(
        graph_id=gid, n=g.n, m=m, seed=seed, values=values,
        iterations=len(values) - 1, truncated=truncated,
    )


def error_evolution(estimated: NeighbourhoodRun, exact: NeighbourhoodRun):
    """Per-step relative error r(t) and its change, as plot-ready arrays.

    Returns (t, r, dr) with r(t) = est(t)/exact(t) - 1 and
    dr(t) = r(t) - r(t-1) (dr(0) = 0). Shorter curves are right-padded
    with their final value so both runs align.
    """
    if estimated.n != exact.n or estimated.graph_id != exact.graph_id:
        raise ValueError("runs describe different graphs")
    a = np.asarray(estimated.values, dtype=float)
    b = np.asarray(exact.values, dtype=float)
    width = max(a.size, b.size)
    a = np.concatenate([a, np.full(width - a.size, a[-1])])
    b = np.concatenate([b, np.full(width - b.size, b[-1])])
    if (b <= 0).any():
        raise ValueError("exact curve contains nonpositive values")
    r = a / b - 1.0
    dr = np.diff(r, prepend=r[0])
    return np.arange(width), r, dr
