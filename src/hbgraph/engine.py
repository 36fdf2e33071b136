"""Neighbourhood-function estimation by counter diffusion.

One counter per node starts as the singleton {node}; every iteration
replaces it with the union of its own value and its successors' values,
so after t rounds counter x describes the ball B(x, t). The sum of the
per-counter estimates traces the neighbourhood function N(t), and the
process stops the first time no register anywhere moves.

Two refinements from the same playbook:

* **systolic mode** keeps a dirty set: a node is recomputed at step t only
  if one of its successors changed at step t - 1 (tracked through the
  predecessor graph). Results are bit-identical to the plain sweep.
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
from .hll import (
    CounterArray,
    estimate_registers,
    words_per_counter,
    _mix64,
    _GOLDEN,
    _MASK64,
)

__all__ = [
    "NeighbourhoodRun",
    "RunSet",
    "BudgetExceededError",
    "run",
    "run_systolic",
    "run_exact",
    "error_evolution",
    "seed_sequence",
]

log = logging.getLogger("hbgraph.engine")

# cap on gathered matrix cells per slab; keeps transient memory flat
_SLAB_CELLS = 4_000_000


class BudgetExceededError(RuntimeError):
    """Raised when counter state would exceed the caller's byte budget."""


@dataclass
class NeighbourhoodRun:
    """One diffusion run: N(0..T) plus enough metadata to reproduce it."""

    graph_id: str
    n: int
    m: int  # registers per counter; 0 marks an exact run
    seed: int
    values: list[float]
    iterations: int
    exact: bool = False
    # set when the iteration cap ended the run before a no-change sweep
    # confirmed stabilization; values past the cap are unknown
    truncated: bool = False

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
            exact=(m == 0),
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
        """(R, T+1) value matrix, rows right-padded with their final value."""
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


def _segments(indptr: np.ndarray, nodes: np.ndarray):
    """Arc gather indices and segment starts for the given nodes.

    Nodes without successors are filtered out; callers treat them as
    unchanged by construction.
    """
    lens = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
    keep = lens > 0
    nodes = nodes[keep]
    lens = lens[keep]
    if nodes.size == 0:
        return nodes, np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    ramp = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)
    gather = np.repeat(indptr[nodes], lens) + ramp
    return nodes, gather, starts


def _slab_bounds(starts: np.ndarray, row_cells: int):
    """Split segment list into slabs of bounded gathered size."""
    max_rows = max(_SLAB_CELLS // max(row_cells, 1), 1)
    bounds = [0]
    k = 0
    while k < starts.size:
        hi = int(np.searchsorted(starts, starts[k] + max_rows, side="left"))
        hi = max(hi, k + 1)
        bounds.append(min(hi, starts.size))
        k = bounds[-1]
    return bounds


def _diffuse(state, indptr, indices, reduce_op, act):
    """One synchronous step over `act` rows: new = old max/or successors.

    Returns (changed node ids, their new rows). `state` is only read
    here, slab by slab; the caller writes the changed rows back once all
    slabs are done, so every row is reduced with its successors' values
    from the previous step.
    """
    nodes, gather, starts = _segments(indptr, act)
    if nodes.size == 0:
        return nodes, state[:0]
    bounds = _slab_bounds(starts, state.shape[1])
    ids, rows = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg_nodes = nodes[lo:hi]
        g_lo = starts[lo]
        g_hi = starts[hi] if hi < starts.size else gather.size
        vals = state[indices[gather[g_lo:g_hi]]]
        red = reduce_op.reduceat(vals, starts[lo:hi] - g_lo, axis=0)
        old_rows = state[seg_nodes]
        new_rows = reduce_op(old_rows, red)
        diff = (new_rows != old_rows).any(axis=1)
        if diff.any():
            ids.append(seg_nodes[diff])
            rows.append(new_rows[diff])
    if not ids:
        return nodes[:0], state[:0]
    return np.concatenate(ids), np.concatenate(rows)


def _dirty_from_changed(pred: Graph, changed: np.ndarray) -> np.ndarray:
    """Nodes whose successor sets intersect the changed set (via pred graph)."""
    _, gather, _ = _segments(pred.indptr, changed)
    if gather.size == 0:
        return gather
    return np.unique(pred.indices[gather])


def _sweep(g, state, reduce_op, measure, pred, max_iters):
    """Diffuse `state` in place until no row changes; (N(0..T), truncated).

    `measure` maps rows to the sizes of the sets they describe; N(t) is
    their sum after step t. With a predecessor graph `pred`, a step only
    recomputes nodes with a successor that changed in the step before.
    """
    if max_iters is not None and max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    sizes = measure(state)
    values = [float(sizes.sum())]
    act = np.arange(g.n, dtype=np.int64)
    while max_iters is None or len(values) <= max_iters:
        changed, rows = _diffuse(state, g.indptr, g.indices, reduce_op, act)
        if changed.size == 0:
            return values, False
        state[changed] = rows
        sizes[changed] = measure(rows)
        values.append(float(sizes.sum()))
        if pred is not None:
            act = _dirty_from_changed(pred, changed)
            if act.size == 0:
                return values, False
    return values, True


# ---- public entry points ----


def run(
    g: Graph,
    m: int = 64,
    seed: int = 0,
    max_iters: int | None = None,
    budget_bytes: int | None = None,
    graph_id: str | None = None,
) -> NeighbourhoodRun:
    """Estimate the neighbourhood function with one counter per node."""
    return _run_counters(g, None, m, seed, max_iters, budget_bytes, graph_id)


def run_systolic(
    g: Graph,
    pred: Graph,
    m: int = 64,
    seed: int = 0,
    max_iters: int | None = None,
    budget_bytes: int | None = None,
    graph_id: str | None = None,
) -> NeighbourhoodRun:
    """Same values as run(), recomputing only nodes with changed successors.

    `pred` must be the transpose of `g`; it routes change notifications
    backwards along arcs.
    """
    if pred.n != g.n:
        raise ValueError("predecessor graph has a different node count")
    return _run_counters(g, pred, m, seed, max_iters, budget_bytes, graph_id)


def _run_counters(g, pred, m, seed, max_iters, budget_bytes, graph_id):
    n = g.n
    state_bytes = n * words_per_counter(m) * 8
    if budget_bytes is not None and state_bytes > budget_bytes:
        raise BudgetExceededError(
            f"counter state needs {state_bytes} bytes "
            f"({n} counters x {m} one-byte registers), budget is {budget_bytes}"
        )
    t0 = time.perf_counter()
    counters = CounterArray(n, m, seed)
    counters.init_singletons()
    values, truncated = _sweep(
        g, counters.registers, np.maximum,
        lambda rows: estimate_registers(rows, m), pred, max_iters,
    )
    elapsed = time.perf_counter() - t0
    gid = graph_id if graph_id is not None else g.fingerprint()
    mode = "systolic" if pred is not None else "plain"
    log.info(
        "anf %s run graph=%s n=%d m=%d seed=%#x iters=%d wall=%.3fs",
        mode, gid, n, m, seed, len(values) - 1, elapsed,
    )
    return NeighbourhoodRun(
        graph_id=gid,
        n=n,
        m=m,
        seed=seed,
        values=values,
        iterations=len(values) - 1,
        truncated=truncated,
    )


def run_exact(
    g: Graph,
    max_iters: int | None = None,
    max_nodes: int = 1_000_000,
    graph_id: str | None = None,
) -> NeighbourhoodRun:
    """Exact N(t) by diffusing one-bit-per-node reach sets.

    Equivalent to accumulating per-node BFS ball sizes, but runs the same
    synchronous sweep as the estimator, word-packed 64 nodes at a time.
    State is n^2/8 bytes: refuse anything past `max_nodes` (and in
    practice memory gives out long before that default).
    """
    n = g.n
    if n > max_nodes:
        raise BudgetExceededError(
            f"exact mode on {n} nodes exceeds the max_nodes={max_nodes} guard"
        )
    t0 = time.perf_counter()
    wds = (n + 63) // 64
    state = np.zeros((n, max(wds, 1)), dtype=np.uint64)
    ids = np.arange(n)
    state[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
    values, truncated = _sweep(
        g, state, np.bitwise_or,
        lambda rows: np.bitwise_count(rows).sum(axis=1, dtype=np.float64),
        None, max_iters,
    )
    elapsed = time.perf_counter() - t0
    gid = graph_id if graph_id is not None else g.fingerprint()
    log.info(
        "anf exact run graph=%s n=%d iters=%d wall=%.3fs",
        gid, n, len(values) - 1, elapsed,
    )
    return NeighbourhoodRun(
        graph_id=gid,
        n=n,
        m=0,
        seed=0,
        values=values,
        iterations=len(values) - 1,
        exact=True,
        truncated=truncated,
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
