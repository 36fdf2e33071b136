"""Compressed successor-list storage.

Each node's list is split three ways before coding, mirroring the classic
web-graph playbook:

* **copy blocks**: if a nearby earlier node (within `window`) shares
  successors, the shared subset is expressed as a run-length mask over
  that reference list;
* **intervals**: leftover runs of >= `min_interval` consecutive ids are
  stored as (left extreme, length) pairs;
* **residuals**: whatever remains is gap-coded with the configured
  instantaneous code; the first residual is taken relative to the node id
  via a sign fold, later ones relative to their predecessor.

Chunks carry no outdegree: the per-node bit-offset table delimits every
chunk exactly, and instantaneous codes make "read residuals until the
chunk ends" unambiguous. The on-disk container (magic ``HBG1``) stores the
header, the offset table and the code stream; see FORMATS.md for the
bit-exact layout.

The encoder works on arrays, over blocks of consecutive nodes with about
_BLOCK arcs plus nodes each (and the lists of the `window` nodes before
a block, as references). For no copying and for each reference distance
r, one pass over the block's arcs gives every node's exact bit cost:
copy masks come from `searchsorted` on the sorted arc keys u*n + y,
copy blocks, intervals and gaps from segmented `diff` and `cumsum`, and
code lengths from `codes.nat_lengths`. A running minimum keeps each
node's cheapest candidate. The chosen fields then become (word, width)
arrays, sorted into chunk order and packed in bulk by
`codes.pack_words`. Decoding reads chunk by chunk with `BitReader`.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .codes import (
    BitReader, CODE_NAMES, coder, nat_length, nat_lengths, nat_words, pack_words, read_nat,
)
from .graph import Graph

__all__ = [
    "CodecConfig",
    "EncodedGraph",
    "encode",
    "decode",
    "decode_node",
    "save",
    "load",
]

MAGIC = b"HBG1"
_HEADER = struct.Struct("<4sBBHQQIIBBBxI")  # see FORMATS.md
_LITTLE = 0xFE

_CODE_IDS = {name: i for i, name in enumerate(CODE_NAMES)}
_CODE_BY_ID = {i: name for name, i in _CODE_IDS.items()}


@dataclass(frozen=True)
class CodecConfig:
    """Knobs for the successor-list codec.

    window=0 disables copying, min_interval=0 disables intervalisation;
    min_interval=1 would make every lone id an interval, so the smallest
    useful value is 2.
    """

    window: int = 7
    min_interval: int = 4
    residual_code: str = "zeta"
    zeta_k: int = 3

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.min_interval < 0 or self.min_interval == 1:
            raise ValueError("min_interval must be 0 (disabled) or >= 2")
        if self.residual_code not in CODE_NAMES:
            raise ValueError(f"residual_code must be one of {CODE_NAMES}")
        if self.zeta_k < 1 or self.zeta_k > 31:
            raise ValueError("zeta_k out of range [1, 31]")


def _unfold(val: int) -> int:
    return (val + 1) // 2 if val & 1 else -(val // 2)


def _heads(nodes: np.ndarray) -> np.ndarray:
    """Mask of the first item of each node in a node-sorted array."""
    head = np.ones(nodes.size, dtype=bool)
    head[1:] = nodes[1:] != nodes[:-1]
    return head


def _split_runs(nodes: np.ndarray, ids: np.ndarray, min_interval: int):
    """Intervals among node-sorted successor ids.

    Returns the positions where intervals start, their lengths and the
    mask of the ids left as residuals. Intervals are the maximal runs of
    consecutive ids within one node's list that are at least
    `min_interval` long; 0 disables them.
    """
    if min_interval == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, np.ones(ids.size, dtype=bool)
    brk = np.ones(ids.size, dtype=bool)
    brk[1:] = (ids[1:] != ids[:-1] + 1) | (nodes[1:] != nodes[:-1])
    starts = np.flatnonzero(brk)
    lengths = np.diff(starts, append=ids.size)
    long = lengths >= min_interval
    return starts[long], lengths[long], np.repeat(~long, lengths)


def _gaps(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int):
    """Gap fields of node-sorted items spanning ids [lo, hi].

    A node's first item is stored as fold(lo - x), x = base + node, with
    fold(d) = 2d - 1 for d > 0 and -2d otherwise; a later item as lo
    minus the previous item's hi minus 1. Returns the fields and the
    mask of first items.
    """
    gaps = np.empty(lo.size, dtype=np.int64)
    gaps[1:] = lo[1:] - hi[:-1] - 1
    head = _heads(nodes)
    d = lo[head] - nodes[head] - base
    gaps[head] = np.where(d > 0, 2 * d - 1, -2 * d)
    return gaps, head


def _rest_fields(nodes: np.ndarray, ids: np.ndarray, base: int, min_interval: int):
    """Interval and residual fields of the ids that copying left over.

    Returns the interval nodes (one per interval), the interval fields
    (left extreme then length, per interval), the residual nodes and the
    residual fields, all in stream order within each node.
    """
    starts, lengths, resid = _split_runs(nodes, ids, min_interval)
    inodes, left = nodes[starts], ids[starts]
    lgap, head = _gaps(inodes, left, left + lengths - 1, base)
    lgap[~head] -= 1
    ivals = np.empty(2 * starts.size, dtype=np.int64)
    ivals[0::2] = lgap
    ivals[1::2] = lengths - min_interval
    rnodes, rids = nodes[resid], ids[resid]
    return inodes, ivals, rnodes, _gaps(rnodes, rids, rids, base)[0]


class _Reference:
    """Every node x copying from x - r: its block fields and copied arcs.

    `keys` are the sorted arc keys u*n + y of a CSR slice with row
    pointers `indptr`. Arc (u, y) is in the copy mask of x = u + r when
    key (u + r)*n + y exists; the arc it finds is an arc of x that
    copying covers. Blocks are the runs of the mask over u's list,
    alternating copy and skip and starting with a copy run that may be
    empty; the last run is implicit. Per node x (x < r reads as no
    reference) the fields are `nblocks`, then a 0 block where the mask
    starts with a skip (`lead0`), then the runs but the last
    (`run_nodes`, `run_vals`: the first run as-is, later ones minus 1).
    `count` is the number of arcs copied.
    """

    def __init__(self, keys: np.ndarray, indptr: np.ndarray, n: int, r: int):
        m, arcs = indptr.size - 1, keys.size
        query = keys + r * n
        pos = np.searchsorted(keys, query)
        np.minimum(pos, arcs - 1, out=pos)
        hit = keys[pos] == query
        del query
        self.copied = np.zeros(arcs, dtype=bool)
        self.copied[pos[hit]] = True
        del pos
        first = indptr[:-1]
        listed = indptr[1:] > first
        brk = np.ones(arcs, dtype=bool)
        brk[1:] = hit[1:] != hit[:-1]
        brk[first[listed]] = True
        run_starts = np.flatnonzero(brk)
        del brk
        run_len = np.diff(run_starts, append=arcs)
        run_hit = hit[run_starts]
        del hit
        lo = np.searchsorted(run_starts, first)
        runs = np.searchsorted(run_starts, indptr[1:]) - lo
        count = np.bincount(
            np.repeat(np.arange(m), runs), weights=run_len * run_hit, minlength=m
        ).astype(np.int64)
        opens_hit = np.zeros(m, dtype=bool)
        opens_hit[listed] = run_hit[lo[listed]]
        lead0 = listed & ~opens_hit
        nblocks = np.maximum(runs - 1, 0) + lead0
        run_vals = run_len - 1
        run_vals[lo[opens_hit]] += 1
        explicit = np.ones(run_starts.size, dtype=bool)
        explicit[lo[listed] + runs[listed] - 1] = False
        # shift from the reference u to the node x = u + r
        self.count = np.zeros(m, dtype=np.int64)
        self.count[r:] = count[: m - r]
        self.nblocks = np.zeros(m, dtype=np.int64)
        self.nblocks[r:] = nblocks[: m - r]
        self.lead0 = np.zeros(m, dtype=bool)
        self.lead0[r:] = lead0[: m - r]
        self.run_nodes = np.repeat(np.arange(r, m + r), runs)[explicit]
        self.run_vals = run_vals[explicit]


def _node_bits_of(nodes: np.ndarray, widths: np.ndarray, m: int) -> np.ndarray:
    """Sum of the widths of each node's fields."""
    return np.bincount(nodes, weights=widths, minlength=m).astype(np.int64)


def _node_bits(nodes: np.ndarray, values: np.ndarray, m: int, code="gamma", k=3) -> np.ndarray:
    """Bits per node of coding each value in `values` for its node."""
    return _node_bits_of(nodes, nat_lengths(values, code, k), m)


def _rest_bits(nodes, ids, base: int, m: int, cfg: CodecConfig) -> np.ndarray:
    """Bits per node of the interval and residual parts."""
    inodes, ivals, rnodes, rvals = _rest_fields(nodes, ids, base, cfg.min_interval)
    bits = _node_bits(rnodes, rvals, m, cfg.residual_code, cfg.zeta_k)
    if cfg.min_interval:
        bits += nat_lengths(np.bincount(inodes, minlength=m))
        bits += _node_bits(np.repeat(inodes, 2), ivals, m)
    return bits


# arcs plus nodes per encoder block; bounds the encoder's temporaries
_BLOCK = 1 << 13


def _encode_block(g: Graph, a: int, b: int, cfg: CodecConfig):
    """Code words of nodes a..b-1, with their bit counts and tallies.

    The block also reads the lists of up to `window` nodes before a, as
    references; local node i is node base + i.
    """
    base = max(a - cfg.window, 0)
    ptr = g.indptr[base : b + 1]
    indptr = ptr - ptr[0]
    ids = g.indices[ptr[0] : ptr[-1]]
    m, front = b - base, a - base
    nodes = np.repeat(np.arange(m), np.diff(indptr))
    keys = nodes * g.n + ids

    # cheapest candidate per node: no copy (1 bit for reference 0) or
    # r = 1..window, the first strictly cheaper one winning
    best_r = np.zeros(m, dtype=np.int64)
    best_bits = _rest_bits(nodes, ids, base, m, cfg) + 1
    for r in range(1, min(cfg.window, m - 1) + 1) if keys.size else ():
        ref = _Reference(keys, indptr, g.n, r)
        keep = ~ref.copied
        bits = _rest_bits(nodes[keep], ids[keep], base, m, cfg)
        del keep
        bits += nat_length(r) + nat_lengths(ref.nblocks) + ref.lead0
        bits += _node_bits(ref.run_nodes, ref.run_vals, m)
        better = (ref.count > 0) & (bits < best_bits)
        best_bits[better] = bits[better]
        best_r[better] = r
        del ref, bits, better
    del best_bits
    best_r[:front] = 0  # nodes before a are only references here

    # gamma fields as (nodes, values) in chunk order: reference, blocks,
    # interval count, intervals; residuals follow in the residual code
    own = np.arange(front, m)
    fields = [(own, best_r[front:])] if cfg.window else []
    nblocks, lead0, runs = [], [], []
    keep = np.ones(keys.size, dtype=bool)
    keep[: indptr[front]] = False
    for r in np.unique(best_r[best_r > 0]).tolist():
        ref = _Reference(keys, indptr, g.n, r)
        chose = best_r == r
        keep &= ~(ref.copied & chose[nodes])
        at = np.flatnonzero(chose)
        nblocks.append((at, ref.nblocks[at]))
        zero = at[ref.lead0[at]]
        lead0.append((zero, np.zeros(zero.size, dtype=np.int64)))
        take = chose[ref.run_nodes]
        runs.append((ref.run_nodes[take], ref.run_vals[take]))
        del ref
    del keys
    copied = int(indptr[-1] - indptr[front] - keep.sum())
    inodes, ivals, rnodes, rvals = _rest_fields(nodes[keep], ids[keep], base, cfg.min_interval)
    del nodes, keep
    fields += nblocks + lead0 + runs
    if cfg.min_interval:
        fields += [(own, np.bincount(inodes, minlength=m)[front:]), (np.repeat(inodes, 2), ivals)]
    intervals = int(ivals[1::2].sum()) + cfg.min_interval * inodes.size
    gamma = [nat_words(vals) for _, vals in fields]
    res_words, res_widths = nat_words(rvals, cfg.residual_code, cfg.zeta_k)
    field_nodes = np.concatenate([f[0] for f in fields] + [rnodes])
    words = np.concatenate([w for w, _ in gamma] + [res_words])
    widths = np.concatenate([w for _, w in gamma] + [res_widths])
    del fields, gamma, res_words, res_widths
    node_bits = _node_bits_of(field_nodes, widths, m)[front:]
    order = np.argsort(field_nodes, kind="stable")
    return words[order], widths[order], node_bits, copied, intervals


class EncodedGraph:
    """Compressed graph: code stream + per-node bit offsets + stats."""

    def __init__(self, n, num_arcs, symmetric, cfg, stream, offsets, copied_arcs, interval_arcs):
        self.n = int(n)
        self.num_arcs = int(num_arcs)
        self.symmetric = bool(symmetric)
        self.cfg = cfg
        self.stream = stream
        self.offsets = offsets  # (n + 1) uint64 bit offsets
        self.copied_arcs = int(copied_arcs)
        self.interval_arcs = int(interval_arcs)

    @property
    def stream_bits(self) -> int:
        return int(self.offsets[-1])

    @property
    def bits_per_arc(self) -> float:
        return self.stream_bits / self.num_arcs if self.num_arcs else 0.0

    @property
    def copy_fraction(self) -> float:
        return self.copied_arcs / self.num_arcs if self.num_arcs else 0.0

    @property
    def interval_fraction(self) -> float:
        return self.interval_arcs / self.num_arcs if self.num_arcs else 0.0

    def successors(self, x: int) -> np.ndarray:
        return decode_node(self, x)

    def decode(self) -> Graph:
        return decode(self)


def encode(g: Graph, cfg: CodecConfig | None = None) -> EncodedGraph:
    """Compress a graph's successor structure under `cfg`.

    Every node takes the cheapest of no copying and copying from each
    x - r, r = 1..window; ties go to no copying, then to the smallest r.
    Nodes are coded in blocks of about _BLOCK arcs plus nodes.
    """
    cfg = cfg or CodecConfig()
    n = g.n
    weight = g.indptr + np.arange(n + 1)
    offsets = np.zeros(n + 1, dtype=np.uint64)
    stream = bytearray()
    copied = intervals = 0
    a = 0
    while a < n:
        b = max(int(np.searchsorted(weight, weight[a] + _BLOCK, side="right")) - 1, a + 1)
        words, widths, node_bits, c, i = _encode_block(g, a, b, cfg)
        offsets[a + 1 : b + 1] = offsets[a] + np.cumsum(node_bits).astype(np.uint64)
        lead = int(offsets[a]) % 8
        piece = pack_words(words, widths, lead)
        if lead:
            stream[-1] |= piece[0]
            piece = piece[1:]
        stream += piece
        copied += c
        intervals += i
        a = b
    return EncodedGraph(n, g.num_arcs, g.symmetric, cfg, bytes(stream), offsets, copied, intervals)


def _apply_blocks(ref_list: np.ndarray, blocks: list[int]) -> np.ndarray:
    take = np.zeros(ref_list.size, dtype=bool)
    pos = 0
    copying = True
    for b in blocks:
        take[pos : pos + b] = copying
        pos += b
        copying = not copying
    take[pos:] = copying
    return ref_list[take]


def _parse_chunk(enc: EncodedGraph, x: int, res_read):
    """Read one chunk into (ref, blocks, intervals, residuals).

    `res_read` reads one residual field; callers bind it once per decode.
    """
    cfg = enc.cfg
    r = BitReader(enc.stream, int(enc.offsets[x]), int(enc.offsets[x + 1]))
    ref = read_nat(r) if cfg.window > 0 else 0
    blocks: list[int] = []
    if ref:
        nblocks = read_nat(r)
        for i in range(nblocks):
            b = read_nat(r)
            blocks.append(b if i == 0 else b + 1)
    intervals: list[tuple[int, int]] = []
    if cfg.min_interval > 0:
        nint = read_nat(r)
        prev_end = None
        for _ in range(nint):
            if prev_end is None:
                left = x + _unfold(read_nat(r))
            else:
                left = prev_end + 2 + read_nat(r)
            length = read_nat(r) + cfg.min_interval
            intervals.append((left, length))
            prev_end = left + length - 1
    residuals: list[int] = []
    prev = None
    while r.remaining > 0:
        if prev is None:
            prev = x + _unfold(res_read(r))
        else:
            prev = prev + 1 + res_read(r)
        residuals.append(prev)
    return ref, blocks, intervals, residuals


def _successors(referenced, blocks, intervals, residuals) -> np.ndarray:
    """One node's sorted successor list from its parsed chunk; referenced
    is the decoded list it copies from, or None when it copies nothing."""
    parts = [] if referenced is None else [_apply_blocks(referenced, blocks)]
    for left, length in intervals:
        parts.append(np.arange(left, left + length, dtype=np.int64))
    if residuals:
        parts.append(np.asarray(residuals, dtype=np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    succ = np.concatenate(parts)
    succ.sort()
    return succ


def decode_node(enc: EncodedGraph, x: int) -> np.ndarray:
    """Successor list of one node, resolving copy chains iteratively."""
    if not 0 <= x < enc.n:
        raise IndexError(f"node {x} out of range [0, {enc.n})")
    res_read = coder(enc.cfg.residual_code, enc.cfg.zeta_k)[1]
    chain = []
    node = x
    while True:
        ref, blocks, intervals, residuals = _parse_chunk(enc, node, res_read)
        chain.append((node, ref, blocks, intervals, residuals))
        if not ref:
            break
        node -= ref
    result = None
    for node, ref, blocks, intervals, residuals in reversed(chain):
        result = _successors(result if ref else None, blocks, intervals, residuals)
    return result


def decode(enc: EncodedGraph) -> Graph:
    """Materialize the full CSR graph (single forward pass)."""
    window = max(enc.cfg.window, 1)
    recent: deque = deque(maxlen=window)
    indptr = np.zeros(enc.n + 1, dtype=np.int64)
    chunks = []
    res_read = coder(enc.cfg.residual_code, enc.cfg.zeta_k)[1]
    for x in range(enc.n):
        ref, blocks, intervals, residuals = _parse_chunk(enc, x, res_read)
        if ref > len(recent):
            raise ValueError(f"node {x}: reference {ref} reaches before the window")
        succ = _successors(recent[-ref] if ref else None, blocks, intervals, residuals)
        if succ.size and (succ[0] < 0 or succ[-1] >= enc.n):
            raise ValueError(f"node {x}: decoded successor out of range")
        chunks.append(succ)
        indptr[x + 1] = indptr[x] + succ.size
        if enc.cfg.window:
            recent.append(succ)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    if indices.size != enc.num_arcs:
        raise ValueError(
            f"corrupt stream: decoded {indices.size} arcs, header claims {enc.num_arcs}"
        )
    return Graph(enc.n, indptr, indices, symmetric=enc.symmetric)


# ---- container I/O ----


def save(enc: EncodedGraph, path) -> None:
    """Write the HBG1 container (header, offsets, stream)."""
    header = _HEADER.pack(
        MAGIC,
        1,  # format version
        _LITTLE,
        0,  # reserved
        enc.n,
        enc.num_arcs,
        enc.cfg.window,
        enc.cfg.min_interval,
        _CODE_IDS[enc.cfg.residual_code],
        enc.cfg.zeta_k,
        1 if enc.symmetric else 0,
        zlib.crc32(enc.stream),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(enc.offsets.astype("<u8").tobytes())
        fh.write(enc.stream)


def load(path) -> EncodedGraph:
    """Read an HBG1 container back into an EncodedGraph."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not an HBG1 graph file")
    (
        _magic,
        version,
        endian,
        _reserved,
        n,
        num_arcs,
        window,
        min_interval,
        code_id,
        zeta_k,
        symmetric,
        crc,
    ) = _HEADER.unpack_from(blob)
    if version != 1:
        raise ValueError(f"{path}: unsupported format version {version}")
    if endian != _LITTLE:
        raise ValueError(f"{path}: bad endianness tag {endian:#x}")
    if code_id not in _CODE_BY_ID:
        raise ValueError(f"{path}: unknown residual code id {code_id}")
    off_start = _HEADER.size
    off_end = off_start + 8 * (n + 1)
    if len(blob) < off_end:
        raise ValueError(f"{path}: truncated offset table")
    offsets = np.frombuffer(blob[off_start:off_end], dtype="<u8").copy()
    stream = blob[off_end:]
    if zlib.crc32(stream) != crc:
        raise ValueError(f"{path}: code stream checksum mismatch")
    if offsets.size and int(offsets[-1]) > len(stream) * 8:
        raise ValueError(f"{path}: offset table points past the stream")
    cfg = CodecConfig(
        window=window,
        min_interval=min_interval,
        residual_code=_CODE_BY_ID[code_id],
        zeta_k=zeta_k,
    )
    # copy/interval tallies are encode-time stats; unknown after a reload
    return EncodedGraph(n, num_arcs, bool(symmetric), cfg, stream, offsets, 0, 0)
