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
a block, as references). Each candidate, no copying and then copying
from x - r for r = 1..window, builds every node's fields once, in one
pass over the block's arcs: copy masks come from `searchsorted` on the
sorted arc keys u*n + y, copy blocks, intervals and gaps from segmented
`diff` and `cumsum`, and code words from `codes.nat_words`. A field
kind is a (nodes, words, widths) triple, and a candidate lists its kinds
in chunk order. A node's cost is the sum of its widths; it keeps the
fields of the first candidate that is strictly cheaper than those
before, so ties go to no copying, then to the smallest r. (Copying
nothing costs at least 3 bits more than no copying, so it never wins.)
The kept fields are put in chunk order by a stable sort on node and
packed in bulk by `codes.pack_words`; their widths give the offsets.

Decoding reads chunk by chunk with `BitReader`. Each list is assembled
from Python ints: the copied blocks sliced from the referenced list,
the interval ranges and the residuals, then one sort. `decode` writes it
into one preallocated `indices` array of the header's arc count and
keeps only the last `window` lists, for copying.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .codes import BitReader, CODE_NAMES, coder, nat_words, pack_words, read_nat
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


def _fields(nodes: np.ndarray, values: np.ndarray, code="gamma", k=3):
    """One field kind as (nodes, words, widths), in narrow dtypes: a
    block's local node ids fit int32 and every width fits uint8."""
    words, widths = nat_words(values, code, k)
    return nodes.astype(np.int32), words, widths.astype(np.uint8)


def _rest_fields(nodes, ids, own: np.ndarray, base: int, cfg: CodecConfig):
    """Field kinds of the ids that copying left over, in chunk order.

    These are the interval count of every node in `own`, the intervals
    (left extreme then length, per interval) and the residuals, each in
    stream order within a node.
    """
    starts, lengths, resid = _split_runs(nodes, ids, cfg.min_interval)
    inodes, left = nodes[starts], ids[starts]
    lgap, head = _gaps(inodes, left, left + lengths - 1, base)
    lgap[~head] -= 1
    ivals = np.empty(2 * starts.size, dtype=np.int64)
    ivals[0::2] = lgap
    ivals[1::2] = lengths - cfg.min_interval
    rnodes, rids = nodes[resid], ids[resid]
    kinds = []
    if cfg.min_interval:
        counts = np.bincount(inodes - own[0], minlength=own.size)
        kinds += [_fields(own, counts), _fields(np.repeat(inodes, 2), ivals)]
    gaps = _gaps(rnodes, rids, rids, base)[0]
    return kinds + [_fields(rnodes, gaps, cfg.residual_code, cfg.zeta_k)]


def _copy_fields(keys, indptr, n: int, r: int, own: np.ndarray):
    """Every node x copying from x - r: its copied arcs and block fields.

    `keys` are the sorted arc keys u*n + y of a CSR slice with row
    pointers `indptr`. Arc (u, y) is in the copy mask of x = u + r when
    key (u + r)*n + y exists; the arc it finds is an arc of x that
    copying covers. Blocks are the runs of the mask over u's list,
    alternating copy and skip and starting with a copy run that may be
    empty; the last run is implicit. Returns the mask of covered arcs,
    the arcs each node of `own` copies (none for x < r) and the field
    kinds: the reference r, the block count and a 0 block where the mask
    starts with a skip, for `own`, then the runs but the last (the first
    as-is, later ones minus 1), also for nodes before `own`, which the
    caller never picks.
    """
    m, arcs = indptr.size - 1, keys.size
    query = keys + r * n
    pos = np.searchsorted(keys, query)
    np.minimum(pos, arcs - 1, out=pos)
    hit = keys[pos] == query
    del query
    copied = np.zeros(arcs, dtype=bool)
    copied[pos[hit]] = True
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
    count = np.bincount(np.repeat(np.arange(m), runs), weights=run_len * run_hit, minlength=m)
    opens_hit = np.zeros(m, dtype=bool)
    opens_hit[listed] = run_hit[lo[listed]]
    lead0 = listed & ~opens_hit
    nblocks = np.maximum(runs - 1, 0) + lead0
    run_vals = run_len - 1
    run_vals[lo[opens_hit]] += 1
    explicit = np.ones(run_starts.size, dtype=bool)
    explicit[lo[listed] + runs[listed] - 1] = False
    run_nodes = np.repeat(np.arange(r, m + r), runs)[explicit]

    def shift(a):  # from the reference u to the node x = u + r, over own
        return np.concatenate([np.zeros(r, dtype=a.dtype), a])[own]

    zero = own[shift(lead0)]
    kinds = [
        _fields(own, np.full(own.size, r)),
        _fields(own, shift(nblocks)),
        _fields(zero, np.zeros(zero.size, dtype=np.int64)),
        _fields(run_nodes, run_vals[explicit]),
    ]
    return copied, shift(count).astype(np.int64), kinds


def _bits(kinds, m: int) -> np.ndarray:
    """Sum of the widths of each node's fields."""
    return sum(np.bincount(f[0], weights=f[2], minlength=m) for f in kinds).astype(np.int64)


def _pick(field, chose: np.ndarray):
    """The items of a field kind whose node is marked in `chose`."""
    sel = chose[field[0]]
    return tuple(a[sel] for a in field)


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
    own, start = np.arange(front, m), indptr[front]
    own_nodes, own_ids = nodes[start:], ids[start:]

    # candidates: no copy (reference 0), then r = 1..window; a node keeps
    # the fields of the first strictly cheaper one
    empty = _fields(own[:0], own[:0])
    no_copy = [_fields(own, np.zeros(own.size, dtype=np.int64)), empty, empty, empty]
    best = (no_copy if cfg.window else []) + _rest_fields(own_nodes, own_ids, own, base, cfg)
    best_bits = _bits(best, m)[front:]
    best_count = np.zeros(own.size, dtype=np.int64)
    chose = np.zeros(m, dtype=bool)
    for r in range(1, min(cfg.window, m - 1) + 1) if keys.size else ():
        copied, count, kinds = _copy_fields(keys, indptr, g.n, r, own)
        keep = ~copied[start:]
        kinds += _rest_fields(own_nodes[keep], own_ids[keep], own, base, cfg)
        bits = _bits(kinds, m)[front:]
        better = bits < best_bits
        if better.any():
            chose[front:] = better
            best = [
                tuple(map(np.concatenate, zip(_pick(f, ~chose), _pick(c, chose))))
                for f, c in zip(best, kinds)
            ]
            best_bits[better] = bits[better]
            best_count[better] = count[better]
        del keep, kinds, bits, better
    copied = int(best_count.sum())
    # every own arc is copied, in an interval or a residual
    intervals = own_ids.size - copied - best[-1][0].size
    field_nodes, words, widths = map(np.concatenate, zip(*best))
    del best
    order = np.argsort(field_nodes, kind="stable")
    return words[order], widths[order], best_bits, copied, intervals


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


def _parse_chunk(enc: EncodedGraph, x: int, res_read):
    """Read one chunk into (ref, blocks, ids): the reference, the copy
    block lengths and the ids of the intervals and residuals, unsorted.

    `res_read` reads one residual field; callers bind it once per decode.
    """
    cfg = enc.cfg
    r = BitReader(enc.stream, int(enc.offsets[x]), int(enc.offsets[x + 1]))
    ref = read_nat(r) if cfg.window > 0 else 0
    if ref > min(x, cfg.window):
        raise ValueError(f"node {x}: reference {ref} reaches before the window")
    # the first block length is as coded, later ones are stored minus 1
    blocks = [read_nat(r) + (i > 0) for i in range(read_nat(r))] if ref else []
    ids: list[int] = []
    if cfg.min_interval > 0:
        prev_end = None
        for _ in range(read_nat(r)):
            left = x + _unfold(read_nat(r)) if prev_end is None else prev_end + 2 + read_nat(r)
            prev_end = left + read_nat(r) + cfg.min_interval - 1
            if prev_end >= enc.n:  # before a corrupt length is expanded
                raise ValueError(f"node {x}: decoded successor out of range")
            ids += range(left, prev_end + 1)
    prev = None
    while r.remaining > 0:
        prev = x + _unfold(res_read(r)) if prev is None else prev + 1 + res_read(r)
        ids.append(prev)
    return ref, blocks, ids


def _successors(enc: EncodedGraph, x: int, referenced, blocks, ids) -> list[int]:
    """Node x's sorted successor list from its parsed chunk, extending
    `ids`; referenced is the list it copies from, or None."""
    if referenced is not None:
        pos, copying = 0, True
        for b in blocks:
            if copying:
                ids += referenced[pos : pos + b]
            pos += b
            copying = not copying
        if copying:
            ids += referenced[pos:]
    ids.sort()
    if ids and (ids[0] < 0 or ids[-1] >= enc.n):
        raise ValueError(f"node {x}: decoded successor out of range")
    return ids


def decode_node(enc: EncodedGraph, x: int) -> np.ndarray:
    """Successor list of one node, resolving copy chains iteratively."""
    if not 0 <= x < enc.n:
        raise IndexError(f"node {x} out of range [0, {enc.n})")
    res_read = coder(enc.cfg.residual_code, enc.cfg.zeta_k)[1]
    chain = []
    node = x
    while True:
        ref, blocks, ids = _parse_chunk(enc, node, res_read)
        chain.append((node, ref, blocks, ids))
        if not ref:
            break
        node -= ref
    succ = None
    for node, ref, blocks, ids in reversed(chain):
        succ = _successors(enc, node, succ if ref else None, blocks, ids)
    return np.array(succ, dtype=np.int64)


def decode(enc: EncodedGraph) -> Graph:
    """Materialize the full CSR graph (single forward pass)."""
    n, arcs = enc.n, enc.num_arcs
    recent: deque = deque(maxlen=max(enc.cfg.window, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(arcs, dtype=np.int64)
    res_read = coder(enc.cfg.residual_code, enc.cfg.zeta_k)[1]
    end = 0
    for x in range(n):
        ref, blocks, ids = _parse_chunk(enc, x, res_read)
        succ = _successors(enc, x, recent[-ref] if ref else None, blocks, ids)
        start, end = end, end + len(succ)
        if end > arcs:
            raise ValueError(f"corrupt stream: decoded more arcs than the header's {arcs}")
        indices[start:end] = succ
        indptr[x + 1] = end
        recent.append(succ)
    if end != arcs:
        raise ValueError(f"corrupt stream: decoded {end} arcs, header claims {arcs}")
    return Graph(n, indptr, indices, symmetric=enc.symmetric)


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
