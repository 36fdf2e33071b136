"""In-memory graph type and edge-list plumbing.

Graphs are CSR structures over compacted node ids 0..n-1 with successor
lists sorted ascending and duplicate arcs collapsed. Their arcs are never
changed after construction; only the original-id mapping may be attached
later. A symmetric (undirected) graph carries every edge as two opposite
arcs, and `Graph.symmetric` is worked out from the arcs, never stated.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "Graph",
    "load_edge_list",
    "save_edge_list",
    "parse_edges",
    "apply_permutation",
    "transpose",
    "random_permutation",
    "load_permutation",
    "save_permutation",
    "gap_histogram",
    "avg_degree",
    "info_lower_bound",
]


class Graph:
    """Directed graph in CSR form; build via from_arcs or the loaders."""

    __slots__ = ("n", "indptr", "indices", "original_ids", "_symmetric", "_fingerprint")

    def __init__(self, n, indptr, indices, original_ids=None):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.original_ids = original_ids
        self._symmetric = self._fingerprint = None
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have n + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not cover the arc array")

    # ---- construction ----

    @classmethod
    def from_arcs(cls, n, src, dst, original_ids=None):
        """Build from parallel source/target arrays; sorts and dedupes."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size:
            if src.min() < 0 or dst.min() < 0:
                raise ValueError("negative node id")
            if src.max() >= n or dst.max() >= n:
                raise ValueError("node id out of range")
            key = src * n + dst
            key = np.unique(key)  # sorts by (src, dst) and drops duplicates
            src, dst = key // n, key % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst, original_ids=original_ids)

    # ---- queries ----

    @property
    def num_arcs(self) -> int:
        return int(self.indices.size)

    def successors(self, x: int) -> np.ndarray:
        if not 0 <= x < self.n:
            raise IndexError(f"node {x} out of range [0, {self.n})")
        return self.indices[self.indptr[x] : self.indptr[x + 1]]

    def out_degree(self, x: int) -> int:
        return int(self.indptr[x + 1] - self.indptr[x])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def symmetric(self) -> bool:
        """Whether the arc set equals its transpose, worked out once. The
        arcs' keys u*n + v, in CSR order, must equal the sorted keys
        v*n + u of the reversed arcs. Both key arrays are built in place,
        so the check holds 16 bytes an arc at its peak."""
        if self._symmetric is None:
            src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
            keys = self.indices * self.n
            keys += src
            keys.sort()
            src *= self.n
            src += self.indices
            keys -= src
            self._symmetric = not keys.any()
        return self._symmetric

    def fingerprint(self) -> str:
        """Short content hash; stable provenance tag for run files."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(f"{self.n}:{self.num_arcs}:{int(self.symmetric)}:".encode())
            h.update(self.indptr)  # C-contiguous: hashed in place, no copy
            h.update(self.indices)
            self._fingerprint = h.hexdigest()[:12]
        return self._fingerprint

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.num_arcs, self.fingerprint()))

    def __repr__(self):
        kind = "symmetric" if self.symmetric else "directed"
        return f"Graph(n={self.n}, arcs={self.num_arcs}, {kind})"


# ---- edge-list I/O ----


def parse_edges(lines, symmetrize=False, allow_self_loops=False):
    """Parse 'u v' pairs into a Graph (original ids kept on the instance).

    Ids are compacted in first-appearance order. `#` starts a comment,
    blank lines are skipped, anything else malformed reports its line
    number. Duplicate arcs collapse; self-loops are an error unless
    explicitly permitted.
    """
    ids: dict[int, int] = {}
    src: list[int] = []
    dst: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node id")
        if u >= 1 << 62 or v >= 1 << 62:
            raise ValueError(f"line {lineno}: node id overflows 62 bits")
        if u == v and not allow_self_loops:
            raise ValueError(f"line {lineno}: self-loop {u}->{v} (pass allow_self_loops to permit)")
        iu = ids.setdefault(u, len(ids))
        iv = ids.setdefault(v, len(ids))
        src.append(iu)
        dst.append(iv)
        if symmetrize and iu != iv:
            src.append(iv)
            dst.append(iu)
    if not ids:
        raise ValueError("empty edge list")
    original = np.fromiter(ids.keys(), dtype=np.int64, count=len(ids))
    return Graph.from_arcs(len(ids), src, dst, original_ids=original)


def load_edge_list(path, symmetrize=False, allow_self_loops=False) -> Graph:
    """Read an ASCII edge list ('u v' per line, '#' comments)."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_edges(fh, symmetrize=symmetrize, allow_self_loops=allow_self_loops)


def save_edge_list(g: Graph, path, use_original_ids=False) -> None:
    """Write one 'u v' line per arc in CSR order (for symmetric graphs
    both directions). Each write formats a block of 2^14 arcs at once,
    which bounds the Python ints alive at a time."""
    src, dst = np.repeat(np.arange(g.n), g.out_degrees()), g.indices
    if use_original_ids:
        if g.original_ids is None:
            raise ValueError("graph carries no original-id mapping")
        names = np.asarray(g.original_ids)
        src, dst = names[src], names[dst]
    with open(path, "w", encoding="ascii") as fh:
        for i in range(0, src.size, 1 << 14):
            arcs = np.column_stack([src[i : i + (1 << 14)], dst[i : i + (1 << 14)]])
            fh.write("%d %d\n" * len(arcs) % tuple(arcs.ravel().tolist()))


# ---- permutations and transposes ----


def random_permutation(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


def _validate_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise ValueError(f"permutation has {perm.size} entries, graph has {n} nodes")
    seen = np.zeros(n, dtype=bool)
    if perm.size:
        if perm.min() < 0 or perm.max() >= n:
            raise ValueError("permutation entry out of range")
        seen[perm] = True
    if not seen.all():
        raise ValueError("permutation is not a bijection")
    return perm


def load_permutation(path, n: int, fmt: str = "auto") -> np.ndarray:
    """Load a permutation file: ASCII one-per-line or packed 64-bit LE."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if fmt == "auto":
        # packed 64-bit words always carry zero bytes; digit text never does
        if b"\x00" in blob:
            fmt = "binary"
        else:
            try:
                blob.decode("ascii")
                fmt = "text"
            except UnicodeDecodeError:
                fmt = "binary"
    if fmt == "text":
        toks = blob.decode("ascii").split()
        try:
            perm = np.array([int(t) for t in toks], dtype=np.int64)
        except ValueError:
            raise ValueError("text permutation file contains a non-integer token") from None
    elif fmt == "binary":
        if len(blob) % 8:
            raise ValueError("binary permutation file length is not a multiple of 8")
        perm = np.frombuffer(blob, dtype="<u8").astype(np.int64)
    else:
        raise ValueError(f"unknown permutation format {fmt!r}")
    return _validate_permutation(perm, n)


def save_permutation(perm: np.ndarray, path, fmt: str = "text") -> None:
    perm = np.asarray(perm, dtype=np.int64)
    if fmt == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{p}\n" for p in perm)
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(perm.astype("<u8").tobytes())
    else:
        raise ValueError(f"unknown permutation format {fmt!r}")


def apply_permutation(g: Graph, perm) -> Graph:
    """Relabel node x as perm[x]; successor lists re-sort under the new ids."""
    perm = _validate_permutation(np.asarray(perm), g.n)
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.out_degrees())
    ids = None
    if g.original_ids is not None:
        ids = np.empty(g.n, dtype=np.asarray(g.original_ids).dtype)
        ids[perm] = g.original_ids
    return Graph.from_arcs(g.n, perm[src], perm[g.indices], original_ids=ids)


def transpose(g: Graph) -> Graph:
    """Reverse every arc (predecessor graph)."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.out_degrees())
    return Graph.from_arcs(g.n, g.indices, src, original_ids=g.original_ids)


# ---- whole-graph statistics ----


def avg_degree(g: Graph) -> float:
    if g.n < 1:
        raise ValueError("average degree needs at least one node")
    return g.num_arcs / g.n


def gap_histogram(g: Graph) -> np.ndarray:
    """Histogram of successor gaps, binned by floor(log2(gap)).

    The first successor of x contributes |s - x| + 1, later ones their
    difference from the previous successor, so every arc lands in exactly
    one bin and every gap is >= 1.
    """
    if g.num_arcs == 0:
        return np.zeros(0, dtype=np.int64)
    starts = g.indptr[:-1][g.out_degrees() > 0]
    nodes = np.flatnonzero(g.out_degrees() > 0)
    first = np.abs(g.indices[starts] - nodes) + 1
    interior = np.ones(g.num_arcs, dtype=bool)
    interior[starts] = False
    rest = g.indices[interior] - g.indices[np.flatnonzero(interior) - 1]
    gaps = np.concatenate([first, rest])
    bins = np.floor(np.log2(gaps)).astype(np.int64)
    return np.bincount(bins)


def info_lower_bound(n: int, m: int, symmetric: bool = False, loops: int = 0) -> float:
    """Information-theoretic size floor for an n-node m-arc graph, in bits.

    log2 of (n^2 choose m): no encoding that distinguishes all graphs with
    these counts can beat it on average. A symmetric graph whose m arcs
    hold `loops` self-loops is (m + loops)/2 edges among the n(n+1)/2
    unordered pairs, a self-loop being a pair of its own, so its floor is
    log2 of (n(n+1)/2 choose (m + loops)/2).
    """
    if n < 0 or m < 0 or loops < 0:
        raise ValueError("counts must be nonnegative")
    pairs = n * n
    if symmetric:
        if loops > m or (m + loops) % 2:
            raise ValueError(f"{m} arcs with {loops} self-loops cannot be symmetric")
        pairs, m = n * (n + 1) // 2, (m + loops) // 2
    if m > pairs:
        raise ValueError(f"more arcs ({m}) than node pairs ({pairs})")
    if m == 0 or m == pairs:
        return 0.0
    ln2 = math.log(2.0)
    return (
        math.lgamma(pairs + 1) - math.lgamma(m + 1) - math.lgamma(pairs - m + 1)
    ) / ln2
