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

Chunks carry no outdegree. In memory, an EncodedGraph keeps every
chunk's bit offset, and instantaneous codes make "read residuals until
the chunk ends" unambiguous. A symmetric graph stores each edge once:
node x's chunk codes only its successors y >= x, and `decode` mirrors
the rest. `save` writes the ``HBG4`` container: a header with the copied
and interval arc tallies, each chunk's residual count as an Elias-Fano
list of running totals, the offsets of every _STEP-th node as another,
and the code stream, under one CRC-32. A chunk's reference, block count
and interval count say how many of those fields follow, and its count
how many residuals, so `load` rebuilds every offset (`_chunk_ends`): it
reads each group of _STEP chunks on from its kept offset, following the
codeword starts over `codes.read_everywhere`, and the group must end at
the next kept offset. `load` also reads the older ``HBG3`` (every offset
as Elias-Fano), ``HBG2`` (HBG3's layout, full lists for symmetric graphs
too) and ``HBG1`` (raw u64 offsets, a CRC over the stream alone, no
tallies); the HBG1 and HBG2 symmetric flag is ignored, since the decoded
arcs say it. See FORMATS.md for the bit-exact layouts.

Both directions work on arrays, over blocks of consecutive nodes. The
encoder's blocks hold about _BLOCK arcs plus nodes (and read the lists
of the `window` nodes before, as references). Each candidate, no copying
for every node and then copying from x - r for r = 1..window for the
nodes whose reference shares an arc with them, builds those nodes'
fields once: copy masks come from `searchsorted` on the sorted arc keys
u*n + y, copy blocks, intervals and gaps from segmented `diff` and
`cumsum`. A field kind is a (nodes, values) pair, listed in chunk order;
`codes.nat_words` gives the widths of a candidate's fields in two calls,
gamma and the residual code. A node keeps the fields of the first
candidate strictly cheaper than those before, so ties go to no copying,
then to the smallest r (copying nothing costs at least 3 bits more than
no copying, so those nodes are not tried). A stable sort on node puts
the kept fields in chunk order for `codes.pack_words`; their widths
give offsets.

`encode` chooses each knob that the config leaves None for the graph at
hand (`_choose`): the residual code of the fewest bits over the graph's
gaps (gamma, delta, zeta_k or exp-Golomb_k, all costed from one
histogram of the gaps), then the window and min_interval pair of the
fewest stream bits, from one pass that totals the candidates without
packing anything. It keeps each chunk's residual count, as running
totals, for `save`.

The decoder's blocks hold about _BLOCK nodes plus stream bytes, and each
reads its chunks from one slice of the stream. `codes.read_nats` reads
field i of every chunk at once: the reference, the block count, then one
round per repeated field (copy blocks, intervals, residuals) over the
nodes that still have one, residuals until each cursor reaches its
chunk's end. Once fewer than _FEW nodes have one, `codes.read_runs`
reads the rest of theirs at once, so a hub costs a read per bit of its
chunk, not a round per item. Interval and residual ids follow by
segmented `cumsum`. Pointer jumping gives a whole copy that adds nothing
the list of the first node in its chain that adds something, then every
list's length, so each list goes straight into its slot. The other nodes
are sorted by copy level once; a level copies ranges from the levels
before it, adds its ids and sorts (node, id) keys, at a cost of what it
holds. Checks raise ValueError: offsets nondecreasing, each cursor
ending at its chunk's end (EOFError past it), references within min(x,
window), ids in [0, n) (an interval past n before it is expanded), copy
blocks within their reference's list, and the header's arc count before
any write; for upper lists, no stored id below its node and the stored
plus mirrored arcs equal to the header's count. The arc count is
allocated only as far as the tallies allow (`_held`); past that, a first
pass counts the stored arcs, so a forged count fails on the mismatch
and allocates no more than the stream holds. The scalar bit I/O went
to the tests, as their oracle.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass

import numpy as np

from .codes import (CODE_NAMES, _peek, _read, bit_windows, nat_words, pack_words,
                    read_everywhere, read_nats, read_runs)
from .graph import Graph, _spans

__all__ = [
    "CodecConfig",
    "EncodedGraph",
    "encode",
    "decode",
    "save",
    "load",
]

MAGIC = b"HBG4"  # what save writes
VERSIONS = {b"HBG1": 1, b"HBG2": 2, b"HBG3": 3, MAGIC: 4}  # every magic load reads, and its version
_HEADER = struct.Struct("<4sBBBBQQIIBBBxI")  # every version; see FORMATS.md
_TALLIES = struct.Struct("<QQQ")  # HBG2 on: copied arcs, interval arcs, stream bits
_INDEX = struct.Struct("<QI")  # HBG4: residual codewords, nodes per kept offset
_STEP = 64  # the nodes per kept offset that save writes
_LITTLE = 0xFE

_CODE_IDS = {name: i for i, name in enumerate(CODE_NAMES)}
_CODE_BY_ID = {i: name for name, i in _CODE_IDS.items()}
_LEGACY_CODES = 3  # HBG1 to HBG3 were written with gamma, delta and zeta alone


@dataclass(frozen=True)
class CodecConfig:
    """Knobs for the successor-list codec.

    window=0 disables copying, min_interval=0 disables intervalisation;
    min_interval=1 would make every lone id an interval, so the smallest
    useful value is 2. residual_code is one of `CODE_NAMES`, and zeta_k
    (1 to 31) is the parameter k of zeta and of exp-Golomb, which the
    other codes ignore. `encode` chooses each knob left None for the graph
    at hand (see `encode`); the defaults are the web-graph ones.
    """

    window: int | None = 7
    min_interval: int | None = 4
    residual_code: str | None = "zeta"
    zeta_k: int | None = 3

    def __post_init__(self):
        if self.window is not None and self.window < 0:
            raise ValueError("window must be >= 0")
        if self.min_interval is not None and (self.min_interval < 0 or self.min_interval == 1):
            raise ValueError("min_interval must be 0 (disabled) or >= 2")
        if self.residual_code not in (None, *CODE_NAMES):
            raise ValueError(f"residual_code must be one of {CODE_NAMES}")
        if self.zeta_k is not None and not 1 <= self.zeta_k <= 31:
            raise ValueError("zeta_k out of range [1, 31]")


_DEFAULT = CodecConfig()
_NONE = np.zeros(0, dtype=np.int64)


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


def _rest_fields(nodes, ids, own: np.ndarray, base: int, cfg: CodecConfig):
    """Field kinds of the ids that copying left over, in chunk order.

    These are the interval count of every node in `own` (sorted), the
    intervals (left extreme then length, per interval) and the residuals,
    each in stream order within a node; with min_interval 0, the
    residuals alone.
    """
    if not cfg.min_interval:
        return [(nodes, _gaps(nodes, ids, ids, base)[0])]
    starts, lengths, resid = _split_runs(nodes, ids, cfg.min_interval)
    inodes, left = nodes[starts], ids[starts]
    lgap, head = _gaps(inodes, left, left + lengths - 1, base)
    lgap[~head] -= 1
    ivals = np.empty(2 * starts.size, dtype=np.int64)
    ivals[0::2] = lgap
    ivals[1::2] = lengths - cfg.min_interval
    counts = np.bincount(np.searchsorted(own, inodes), minlength=own.size)
    rnodes, rids = nodes[resid], ids[resid]
    gaps = _gaps(rnodes, rids, rids, base)[0]
    return [(own, counts), (np.repeat(inodes, 2), ivals), (rnodes, gaps)]


def _copy_fields(keys, nodes, indptr, n: int, r: int, own: np.ndarray):
    """The nodes x of `own` that copy something from x - r, with their
    copied arcs and block fields.

    `keys` are the sorted arc keys u*n + y of a CSR slice with row
    pointers `indptr`, `nodes` their u. Arc (u, y) is in the copy mask of
    x = u + r when key (u + r)*n + y exists; the arc it finds is an arc of
    x that copying covers. Blocks are the runs of the mask over u's list,
    alternating copy and skip and starting with a copy run that may be
    empty; the last run is implicit. A node whose mask is empty is left
    out: it costs at least 3 bits more than not copying, so it is never
    picked. Returns those nodes x, the mask of covered arcs, the arcs each
    x copies and the field kinds: the reference r, the block count, a 0
    block where the mask starts with a skip, then the runs but the last
    (the first as-is, later ones minus 1).
    """
    arcs = keys.size
    query = keys + r * n
    pos = np.searchsorted(keys, query)
    np.minimum(pos, arcs - 1, out=pos)
    hit = keys[pos] == query
    del query
    copied = np.zeros(arcs, dtype=bool)
    copied[pos[hit]] = True
    del pos
    count = np.bincount(nodes[hit], minlength=indptr.size - 1)  # by reference u
    x = own[own >= r]
    x = x[count[x - r] > 0]
    first, size = indptr[x - r], np.diff(indptr)[x - r]
    hit = hit[_spans(first, size)]  # the masks of the references, list by list
    first = np.cumsum(size) - size
    brk = np.ones(hit.size, dtype=bool)
    brk[1:] = hit[1:] != hit[:-1]
    brk[first] = True
    run_starts = np.flatnonzero(brk)
    del brk
    run_vals = np.diff(run_starts, append=hit.size) - 1
    lo = np.searchsorted(run_starts, first)
    runs = np.diff(lo, append=run_starts.size)
    opens_hit = hit[first]
    del hit
    run_vals[lo[opens_hit]] += 1
    explicit = np.ones(run_starts.size, dtype=bool)
    explicit[lo + runs - 1] = False
    zero = x[~opens_hit]
    kinds = [
        (x, np.full(x.size, r)),
        (x, runs - opens_hit),
        (zero, np.zeros(zero.size, dtype=np.int64)),
        (np.repeat(x, runs)[explicit], run_vals[explicit]),
    ]
    return x, copied, count[x - r], kinds


def _words(kinds, cfg: CodecConfig):
    """The nodes, code words and widths of the fields of `kinds`, in
    kind order: the last kind, the residuals, in cfg's code, the others
    in gamma."""
    *front, last = kinds
    words, widths = zip(nat_words(np.concatenate([f[1] for f in front] + [_NONE])),
                        nat_words(last[1], cfg.residual_code, cfg.zeta_k))
    return np.concatenate([f[0] for f in kinds]), np.concatenate(words), np.concatenate(widths)


def _bits(kinds, m: int, cfg: CodecConfig) -> np.ndarray:
    """Sum of the widths of each node's fields."""
    nodes, _, widths = _words(kinds, cfg)
    return np.bincount(nodes, weights=widths, minlength=m).astype(np.int64)


def _pick(field, chose: np.ndarray):
    """The items of a field kind whose node is marked in `chose`."""
    sel = chose[field[0]]
    return tuple(a[sel] for a in field)


# weight (arcs plus nodes, or stream bytes plus nodes) of a codec block;
# bounds the temporaries of encode and decode
_BLOCK = 1 << 13


def _blocks(start: np.ndarray, shift: int = 0):
    """Consecutive node ranges [a, b) of about _BLOCK weight each: a node
    weighs 1 plus its step in the nondecreasing `start` (size n + 1),
    shifted right by `shift` bits, so a block fits _BLOCK + 1 entries."""
    a, n = 0, start.size - 1
    while a < n:
        weight = ((start[a : a + _BLOCK + 1] - start[a]) >> shift).astype(np.int64)
        weight += np.arange(weight.size)
        b = a + max(int(np.searchsorted(weight, _BLOCK, side="right")) - 1, 1)
        yield a, b
        a = b


def _candidates(g: Graph, a: int, b: int, cfgs):
    """Candidates of nodes a..b-1 under each of `cfgs`, which differ in
    min_interval alone: no copying, for every node, then copying from
    x - r, r = 1..window, for the nodes that copy something.

    Yields (nodes x, the arcs each copies, the field kinds under each cfg,
    the bits of each x under each cfg). The block also reads the lists
    of up to `window` nodes before a, as references; local node i, as x
    and in the kinds, is node base + i.
    """
    window = cfgs[0].window
    base = max(a - window, 0)
    ptr = g.indptr[base : b + 1]
    indptr = ptr - ptr[0]
    ids = g.indices[ptr[0] : ptr[-1]]
    m, front = b - base, a - base
    nodes = np.repeat(np.arange(m), np.diff(indptr))
    own, start = np.arange(front, m), indptr[front]
    own_nodes, own_ids = nodes[start:], ids[start:]

    def candidate(x, count, front_kinds, keep):
        kinds = [front_kinds + _rest_fields(own_nodes[keep], own_ids[keep], x, base, c)
                 for c in cfgs]
        return x, count, kinds, [_bits(k, m, c)[x] for k, c in zip(kinds, cfgs)]

    empty = (_NONE, _NONE)
    no_copy = [(own, np.zeros(own.size, dtype=np.int64)), empty, empty, empty]
    yield candidate(own, None, no_copy if window else [], slice(None))
    keys = nodes * g.n + ids
    for r in range(1, min(window, m - 1) + 1) if keys.size else ():
        x, copied, count, copy = _copy_fields(keys, nodes, indptr, g.n, r, own)
        keep = np.zeros(m, dtype=bool)
        keep[x] = True
        yield candidate(x, count, copy, keep[own_nodes] & ~copied[start:])


def _encode_block(g: Graph, a: int, b: int, cfg: CodecConfig):
    """Code words of nodes a..b-1, with their bit and residual counts and
    the block's tallies.

    A node keeps the fields of the first candidate strictly cheaper than
    those before.
    """
    cands = _candidates(g, a, b, [cfg])
    own, _, [best], [own_bits] = next(cands)
    m = own[-1] + 1
    best_bits, best_count = np.zeros((2, m), dtype=np.int64)
    best_bits[own] = own_bits
    for x, count, [kinds], [bits] in cands:
        better = bits < best_bits[x]
        if better.any():
            x = x[better]
            chose = np.zeros(m, dtype=bool)
            chose[x] = True
            best = [
                tuple(map(np.concatenate, zip(_pick(f, ~chose), _pick(c, chose))))
                for f, c in zip(best, kinds)
            ]
            best_bits[x] = bits[better]
            best_count[x] = count[better]
        del kinds, bits, better
    copied = int(best_count.sum())
    # every own arc is copied, in an interval or a residual
    intervals = int(g.indptr[b] - g.indptr[a]) - copied - best[-1][0].size
    residuals = np.bincount(best[-1][0], minlength=m)[own]
    field_nodes, words, widths = _words(best, cfg)
    del best
    order = np.argsort(field_nodes, kind="stable")
    return words[order], widths[order], best_bits[own], residuals, copied, intervals


def _block_bits(g: Graph, a: int, b: int, cfgs):
    """Stream bits of nodes a..b-1 under each of `cfgs`, which differ in
    min_interval alone: as (window 0, the cfg's window). Window 0 saves
    the 1-bit reference of no copying and loses the copy candidates."""
    cands = _candidates(g, a, b, cfgs)
    own, _, _, plain = next(cands)
    best = np.zeros((len(cfgs), own[-1] + 1), dtype=np.int64)
    best[:, own] = plain
    for x, _, _, bits in cands:
        best[:, x] = np.minimum(best[:, x], bits)
    refs = own.size if cfgs[0].window else 0
    return [(int(p.sum()) - refs, int(t.sum())) for p, t in zip(plain, best)]


class EncodedGraph:
    """Compressed graph: code stream + per-node bit offsets + stats.

    num_arcs counts the graph's arcs. With `upper`, the stream holds only
    the arcs x -> y with y >= x of a symmetric graph, and the copied and
    interval tallies count among those. `residual_totals` are the running
    counts of residual codewords over the chunks, as `encode` and an HBG4
    `load` know them; None where they are not known (older containers,
    hand-built streams), and `save` counts them then.
    """

    def __init__(self, n, num_arcs, upper, cfg, stream, offsets, copied_arcs, interval_arcs,
                 residual_totals=None):
        self.n = int(n)
        self.num_arcs = int(num_arcs)
        self.upper = bool(upper)
        self.cfg = cfg
        self.stream = stream
        self.offsets = offsets  # (n + 1) uint64 bit offsets
        self.copied_arcs = int(copied_arcs)
        self.interval_arcs = int(interval_arcs)
        self.residual_totals = residual_totals  # (n + 1) uint64, or None

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

    def decode(self) -> Graph:
        return decode(self)


def _residual_code(g: Graph, cfg: CodecConfig):
    """The (code, k) of the fewest bits over g's gaps with no copying and
    no intervals, among gamma, delta, zeta_1..zeta_7 and
    exp-Golomb_1..exp-Golomb_31, as far as `cfg` leaves them open; ties go
    to the first of these. Every option is costed on one histogram of the
    gaps, which the blocks' own histograms add up to."""
    k = _DEFAULT.zeta_k if cfg.zeta_k is None else cfg.zeta_k
    options = [(c, k) for c in ("gamma", "delta")]
    options += [("zeta", j) for j in (range(1, 8) if cfg.zeta_k is None else [k])]
    options += [("expgolomb", j) for j in (range(1, 32) if cfg.zeta_k is None else [k])]
    options = [o for o in options if cfg.residual_code in (None, o[0])]
    if len(options) == 1:
        return options[0]
    values, counts = [_NONE], [_NONE]
    for a, b in _blocks(g.indptr):
        ptr = g.indptr[a : b + 1]
        ids = g.indices[ptr[0] : ptr[-1]]
        gaps = _gaps(np.repeat(np.arange(b - a), np.diff(ptr)), ids, ids, a)[0]
        v, c = np.unique(gaps, return_counts=True)
        values.append(v)
        counts.append(c)
    values, at = np.unique(np.concatenate(values), return_inverse=True)
    counts = np.bincount(at, weights=np.concatenate(counts), minlength=values.size).astype(np.int64)
    cost = [nat_words(values, c, j)[1] @ counts for c, j in options]
    return options[int(np.argmin(cost))]


def _choose(g: Graph, cfg: CodecConfig) -> CodecConfig:
    """`cfg` with every knob it leaves None chosen for g by measured bits.

    The residual code comes first (`_residual_code`), with its k: zeta_k
    and exp-Golomb_k share the field. Then the window is the given one or
    the cheaper of 7 and 0, the min_interval the given one or the cheaper
    of 4 and 0, by the exact stream bits of each pair under that code: one
    pass over the candidates (`_block_bits`) gives all four totals. Ties
    go to 0. The HBG4 index is not counted: its kept offsets grow with the
    stream, but its residual totals shrink where copies and intervals take
    residuals away, so the fewest stream bits need not make the smallest
    file (on the benchmark graphs they do).
    """
    code, k = _residual_code(g, cfg)
    windows = [0, _DEFAULT.window] if cfg.window is None else [cfg.window]
    mins = [0, _DEFAULT.min_interval] if cfg.min_interval is None else [cfg.min_interval]
    cfgs = [CodecConfig(windows[-1], i, code, k) for i in mins]
    if len(windows) * len(mins) == 1:
        return cfgs[0]
    total = np.zeros((len(mins), 2), dtype=np.int64)  # by min_interval: window 0, windows[-1]
    for a, b in _blocks(g.indptr):
        total += _block_bits(g, a, b, cfgs)
    pairs = [(w, j) for w in windows for j in range(len(mins))]  # 0 first, to win ties
    w, j = min(pairs, key=lambda p: total[p[1], int(p[0] > 0)])
    return CodecConfig(w, mins[j], code, k)


def _upper(g: Graph) -> Graph:
    """The arcs x -> y of g with y >= x, all a symmetric graph's stream holds."""
    src = np.repeat(np.arange(g.n), g.out_degrees())
    keep = g.indices >= src
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=g.n), out=indptr[1:])
    return Graph(g.n, indptr, g.indices[keep])


def encode(g: Graph, cfg: CodecConfig | None = None) -> EncodedGraph:
    """Compress a graph's successor structure under `cfg`.

    A symmetric graph with arcs is coded as its arcs x -> y with y >= x
    (`_upper`), any other graph as its full lists. Every node takes the
    cheapest of no copying and copying from each x - r, r = 1..window;
    ties go to no copying, then to the smallest r. Nodes are coded in
    blocks of about _BLOCK arcs plus nodes. Knobs that `cfg` leaves None
    are chosen first (`_choose`); the result's cfg holds the values used.
    """
    upper = g.num_arcs > 0 and g.symmetric  # arcless: empty lists either way, flag 0
    stored = _upper(g) if upper else g
    cfg = _choose(stored, cfg or CodecConfig())
    n = g.n
    offsets, totals = np.zeros((2, n + 1), dtype=np.uint64)
    stream = bytearray()
    copied = intervals = 0
    for a, b in _blocks(stored.indptr):
        words, widths, node_bits, residuals, c, i = _encode_block(stored, a, b, cfg)
        offsets[a + 1 : b + 1] = offsets[a] + np.cumsum(node_bits).astype(np.uint64)
        totals[a + 1 : b + 1] = totals[a] + np.cumsum(residuals).astype(np.uint64)
        lead = int(offsets[a]) % 8
        piece = pack_words(words, widths, lead)
        if lead:
            stream[-1] |= piece[0]
            piece = piece[1:]
        stream += piece
        copied += c
        intervals += i
    return EncodedGraph(n, g.num_arcs, upper, cfg, bytes(stream), offsets, copied, intervals,
                        totals)


def _running(steps: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Cumsum of node-major steps (count[i] of node i), restarted at each node."""
    total, first = np.cumsum(steps), (np.cumsum(count) - count)[count > 0]
    return total - np.repeat(total[first] - steps[first], count[count > 0])


def _sums(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per-node sums of node-major values, count[i] of node i."""
    out = np.zeros(count.size, dtype=np.int64)
    out[count > 0] = _running(values, count)[np.cumsum(count)[count > 0] - 1]
    return out


def _starts(nodes: np.ndarray, count: np.ndarray, gaps: np.ndarray, after: np.ndarray):
    """First ids of node-major items: a node's first lies fold(d) = gaps
    from the node, a later one gaps past `after` ids from the one before."""
    step = np.empty_like(gaps)
    step[1:] = after[:-1] + gaps[1:]
    d = gaps[(head := (np.cumsum(count) - count)[count > 0])]
    step[head] = nodes[count > 0] + np.where(d & 1, (d + 1) >> 1, -(d >> 1))
    return _running(step, count)


def _chase(parent: np.ndarray, value: np.ndarray):
    """Pointer jumping: for every i, value[i] + value[parent[i]] + ... up
    to the end of its chain (parent -1), and that end."""
    total, last, up = value.copy(), np.arange(parent.size), parent.copy()
    while (act := np.flatnonzero(up >= 0)).size:
        nxt = up[act]
        total[act] += total[nxt]
        last[act] = last[nxt]
        up[act] = up[nxt]
    return total, last


_FEW = 16  # nodes a round of a repeated field reads at least


def _batches(sel: np.ndarray, lengths: np.ndarray):
    """`sel` in consecutive pieces whose lists hold about _BLOCK ids."""
    return np.split(sel, np.flatnonzero(np.diff(np.cumsum(lengths[sel]) // _BLOCK)) + 1)


def _chunks(enc: EncodedGraph, a: int, b: int):
    """Bit windows over the stream bytes of the chunks of nodes a..b-1,
    and each chunk's start and end in them."""
    lo, hi = enc.offsets[a:b], enc.offsets[a + 1 : b + 1]
    if (hi < lo).any():
        raise ValueError(f"node {a + (hi < lo).argmax()}: chunk ends before it starts")
    if int(hi[-1]) > 8 * len(enc.stream):
        raise ValueError("corrupt offsets: a chunk ends past the stream")
    first = int(lo[0]) >> 3
    shift = np.uint64(8 * first)
    return bit_windows(enc.stream[first : (int(hi[-1]) + 7) >> 3]), lo - shift, hi - shift


def _read_chunks(enc: EncodedGraph, a: int, b: int):
    """Every field of the chunks of nodes a..b-1: the references, the
    block counts and blocks, the interval counts, gaps and lengths, and
    the residual counts and residuals, repeated fields node-major."""
    cfg, m, every = enc.cfg, b - a, np.arange(b - a)
    table, pos, end = _chunks(enc, a, b)

    def read(sel, code="gamma", k=3):
        values, pos[sel] = read_nats(table, pos[sel], end[sel], code, k)
        return values

    def rounds(count, code="gamma", k=3):
        """A repeated field, count[i] items of node i (None: up to its
        chunk's end), node-major, and each node's count. Round j reads the
        next item of each node that has one, until fewer than _FEW do;
        they read the rest at once."""
        seen, got, sel = [], [], every
        while True:
            sel = sel[pos[sel] < end[sel] if count is None else count[sel] > len(seen)]
            if sel.size < _FEW:
                break
            seen.append(sel)
            got.append(read(sel, code, k))
        todo = None if count is None else count[sel] - len(seen)
        values, took, pos[sel] = read_runs(table, pos[sel], end[sel], code, k, todo)
        who = np.concatenate(seen + [np.repeat(sel, took)])  # a stable sort makes it node-major
        items = np.concatenate(got + [values])[np.argsort(who, kind="stable")]
        return items, np.bincount(who, minlength=m)

    ref = read(every) if cfg.window else np.zeros(m, dtype=np.int64)
    if (bad := ref > np.minimum(every + a, cfg.window)).any():
        i = bad.argmax()
        raise ValueError(f"node {a + i}: reference {ref[i]} reaches before the window")
    nblocks = np.zeros(m, dtype=np.int64)
    nblocks[ref > 0] = read(every[ref > 0])
    blocks = rounds(nblocks)[0]
    # an interval is two items, its left gap and its length
    icount = read(every) if cfg.min_interval else np.zeros(m, dtype=np.int64)
    ivals = rounds(2 * icount)[0]
    res, rcount = rounds(None, cfg.residual_code, cfg.zeta_k)
    return ref, nblocks, blocks, icount, ivals[0::2], ivals[1::2], rcount, res


def _decode_lists(enc: EncodedGraph, a: int, b: int, indptr: np.ndarray, out):
    """Decode the lists of nodes a..b-1 into `out`, after the lists before
    them, which `indptr` locates; returns the list lengths. With `out`
    None, only checks the chunks and returns their lengths."""
    n, m, every = enc.n, b - a, np.arange(b - a)
    nodes = every + a
    ref, nblocks, blocks, icount, gaps, lens, rcount, res = _read_chunks(enc, a, b)
    copying = ref > 0

    # interval and residual ids by segmented cumsum; a field past 2n gives
    # an id out of range anyway, and clipping it keeps sums from overflowing
    size = np.minimum(lens, n + 1) + enc.cfg.min_interval
    left = _starts(nodes, icount, np.minimum(gaps, 2 * n + 2), size + 1)
    resid = _starts(nodes, rcount, np.minimum(res, 2 * n + 2), np.ones_like(res))
    del gaps, lens, res
    bad = np.concatenate([np.repeat(every, icount)[(left < 0) | (left + size > n)],
                          np.repeat(every, rcount)[(resid < 0) | (resid >= n)]])
    if bad.size:
        raise ValueError(f"node {nodes[bad.min()]}: decoded successor out of range")

    # block j of a node starts at offset[j] of its reference's list; even
    # blocks are copied, and with an even block count the rest of the list
    bfirst, ifirst, rfirst = (np.cumsum(c) - c for c in (nblocks, icount, rcount))
    nth = np.arange(blocks.size) - np.repeat(bfirst, nblocks)
    blocks, even = np.minimum(blocks, n) + (nth > 0), nth % 2 == 0
    offset = _running(blocks, nblocks) - blocks
    spent = _sums(blocks, nblocks)
    rest = copying & (nblocks % 2 == 0)
    adds = _sums(size, icount) + rcount + _sums(blocks * even, nblocks)

    # a whole copy (no blocks) adding nothing has the list of the first node
    # in its chain that adds something, or of an earlier node: its source
    target = nodes - ref
    local, inside = target - a, copying & (target >= a)
    whole = copying & (nblocks == 0) & (adds == 0)
    source = _chase(np.where(whole & inside, local, -1), every)[1][np.where(inside, local, every)]
    outside = copying & (~inside | whole[source])  # copies a list of an earlier block
    ext_start, ext_len = np.zeros((2, m), dtype=np.int64)
    if outside.any():
        earlier = np.where(inside, target[source], target)[outside]
        ext_start[outside] = indptr[earlier]
        ext_len[outside] = indptr[earlier + 1] - ext_start[outside]

    # list lengths along copy chains, checked before anything is written
    adds += (rest & ~inside) * ext_len - rest * spent  # less the length of a list inside
    length = _chase(np.where(rest & inside, local, -1), adds)[0]
    del adds, target, local, inside
    reach = np.where(outside, ext_len, length[source])  # the copied list's length
    if (bad := copying & (spent > reach)).any():
        raise ValueError(f"node {nodes[bad.argmax()]}: copy blocks run past the reference list")
    if out is None:
        return length
    at = int(indptr[a])
    if at + length.sum() > out.size:
        raise ValueError(f"corrupt stream: decoded more arcs than the header's {out.size}")
    start = at + np.cumsum(length) - length
    copy_from = np.where(outside, ext_start, start[source])
    below = copying & ~outside & ~whole
    level = _chase(np.where(below, source, -1), below.astype(np.int64))[0]
    del source, outside, ext_start, ext_len, below

    def write(sel):
        """Write the lists of `sel`: copied ranges, intervals and residuals,
        sorted as node * n + id keys (as plain ids for one node)."""
        keys = []

        def add(ids, node, count):
            keys.append(ids + np.repeat(node * n, count) if sel.size > 1 else ids)

        if nblocks[sel].any():
            item = _spans(bfirst[sel], nblocks[sel])
            keep = even[item]
            item, node = item[keep], np.repeat(sel, nblocks[sel])[keep]
            add(out[_spans(copy_from[node] + offset[item], blocks[item])], node, blocks[item])
        tail = sel[rest[sel]]
        if tail.size:
            count = reach[tail] - spent[tail]
            add(out[_spans(copy_from[tail] + spent[tail], count)], tail, count)
        if icount[sel].any():
            item = _spans(ifirst[sel], icount[sel])
            add(_spans(left[item], size[item]), np.repeat(sel, icount[sel]), size[item])
        if rcount[sel].any():
            add(resid[_spans(rfirst[sel], rcount[sel])], sel, rcount[sel])
        if keys:
            key = np.concatenate(keys)
            del keys[:]
            key.sort(kind="stable")  # merges the sorted runs of each part
            if sel.size > 1:
                key -= np.repeat(sel * n, length[sel])
                out[_spans(start[sel], length[sel])] = key
            else:
                out[start[sel[0]] : start[sel[0]] + key.size] = key

    # the nodes that add ids, one copy level at a time: each level copies
    # from the levels before it or from earlier lists; then the whole
    # copies, straight from their sources
    order = np.flatnonzero(~whole)
    order = order[np.argsort(level[order], kind="stable")]
    for sel in np.split(order, np.flatnonzero(np.diff(level[order])) + 1):
        for piece in _batches(sel, length):
            write(piece)
    for piece in _batches(np.flatnonzero(whole), length):
        out[_spans(start[piece], length[piece])] = out[_spans(copy_from[piece], length[piece])]
    return length


def _mirror(n: int, ptr: np.ndarray, indices: np.ndarray, num_arcs: int) -> Graph:
    """The symmetric graph of `num_arcs` arcs whose arcs x -> y with y >= x
    are the lists (ptr, indices[:ptr[-1]]), built in `indices`, which has
    room for every arc once their count checks out: node y's list is the
    x < y that hold y, ascending, then its own.
    Stored arc i of node x moves right, to i plus the mirrored arcs of
    the nodes up to x, so the stored arcs shift in place; one stable
    argsort on y puts the mirrored arcs in node order, x ascending
    within each y, into the slots left between them."""
    stored = int(ptr[-1])
    upper = indices[:stored]
    src = np.repeat(np.arange(n), np.diff(ptr))
    if (bad := upper < src).any():
        i = bad.argmax()
        raise ValueError(f"node {src[i]}: stored successor {upper[i]} is below it")
    lower = upper != src  # a self-loop is not mirrored
    y = upper[lower]
    if stored + y.size != num_arcs:
        raise ValueError(f"corrupt stream: {stored} stored and {y.size} mirrored arcs, "
                         f"header claims {num_arcs}")
    order = np.argsort(y, kind="stable")
    before = np.cumsum(np.bincount(y, minlength=n))  # mirrored arcs of nodes up to y
    # the stored arcs move right over their own slots: copy them out first
    indices[np.arange(stored) + before[src]] = upper.copy()
    # the k-th mirrored arc lands at ptr[y] + k
    indices[ptr[y[order]] + np.arange(y.size)] = src[lower][order]
    indptr = ptr.copy()
    indptr[1:] += before
    return Graph(n, indptr, indices)


def _held(enc: EncodedGraph) -> int:
    """The arcs enc's tallies say its stream holds at most: every stored arc
    is copied, in an interval or a residual, whose codeword takes a bit or
    more, and a stored upper arc stands for two at most."""
    residuals = enc.stream_bits if enc.residual_totals is None else int(enc.residual_totals[-1])
    return (1 + enc.upper) * (enc.copied_arcs + enc.interval_arcs + residuals)


def decode(enc: EncodedGraph) -> Graph:
    """Materialize the full CSR graph, in blocks of consecutive nodes;
    a stream of upper lists is mirrored in place (`_mirror`). An arc count
    past what the tallies allow (`_held`: forged, or HBG1's missing
    tallies) is not allocated before a first pass counts the stored arcs."""
    n, arcs = enc.n, enc.num_arcs
    indptr = np.zeros(n + 1, dtype=np.int64)
    if arcs > _held(enc):
        for a, b in _blocks(enc.offsets, 3):
            indptr[a + 1 : b + 1] = indptr[a] + np.cumsum(_decode_lists(enc, a, b, indptr, None))
        arcs = min(arcs, (1 + enc.upper) * int(indptr[-1]))
    indices = np.empty(arcs, dtype=np.int64)
    for a, b in _blocks(enc.offsets, 3):  # nodes plus stream bytes
        length = _decode_lists(enc, a, b, indptr, indices)
        indptr[a + 1 : b + 1] = indptr[a] + np.cumsum(length)
    if enc.upper:
        return _mirror(n, indptr, indices, enc.num_arcs)
    if indptr[-1] != enc.num_arcs:
        raise ValueError(f"corrupt stream: decoded {indptr[-1]} arcs, "
                         f"header claims {enc.num_arcs}")
    return Graph(n, indptr, indices)


# ---- container I/O ----


def _ef_encode(offsets: np.ndarray):
    """Nondecreasing `offsets` as Elias-Fano: the low width l =
    floor(log2(U / N)) for N offsets up to U (0 when U < N), the low l
    bits of each packed, and the high parts offset >> l as unary gaps
    (gap zeros, then a one), both MSB-first."""
    low_bits = max((int(offsets[-1]) // offsets.size).bit_length() - 1, 0)
    gaps = np.diff(offsets >> np.uint64(low_bits), prepend=np.uint64(0)).astype(np.int64)
    low = pack_words(offsets & np.uint64((1 << low_bits) - 1), np.full(offsets.size, low_bits))
    return low_bits, low, pack_words(np.ones(offsets.size, dtype=np.uint64), gaps + 1)


def _ef_decode(low, high, count: int, low_bits: int) -> np.ndarray:
    """The `count` offsets whose Elias-Fano parts `_ef_encode` wrote."""
    ones = np.unpackbits(np.frombuffer(high, dtype=np.uint8)).view(bool).nonzero()[0]
    if ones.size != count:
        raise ValueError(f"Elias-Fano high part holds {ones.size} ones, expected {count}")
    offsets = (ones - np.arange(count)).astype(np.uint64) << np.uint64(low_bits)
    pos = np.arange(count, dtype=np.uint64) * np.uint64(low_bits)  # of each low part
    return offsets | _peek(bit_windows(low), pos) >> np.uint64(64 - low_bits)


def _crc(blob) -> int:
    """CRC-32 of an HBG2, HBG3 or HBG4 file but its CRC field, bytes 36 to 39."""
    with memoryview(blob) as view:
        return zlib.crc32(view[40:], zlib.crc32(view[:36]))


def _kept(n: int, step: int) -> np.ndarray:
    """The nodes whose offsets HBG4 keeps: 0, step, 2 step, ... below n, then n."""
    return np.append(np.arange(0, n, step), n)


def _residual_totals(enc: EncodedGraph) -> np.ndarray:
    """The running counts of residual codewords over enc's chunks: those
    it keeps, else read from every chunk (`_read_chunks`)."""
    if enc.residual_totals is not None:
        return enc.residual_totals
    totals = np.zeros(enc.n + 1, dtype=np.uint64)
    for a, b in _blocks(enc.offsets, 3):
        totals[a + 1 : b + 1] = totals[a] + np.cumsum(_read_chunks(enc, a, b)[6]).astype(np.uint64)
    return totals


def _residual_ends(data, cfg, bounds, totals, step, where):
    """Chunk ends, as bits of `data`, of groups of `step` chunks that hold
    residuals alone. Group g spans bits [bounds[g], bounds[g + 1]), and
    `totals` are the running residual counts of its nodes, from 0. Each
    group follows its codeword starts to its end, and node x's chunk ends
    after the (totals[x + 1] - totals[g * step])-th codeword of group g.
    A codeword past a group's end, or a group of other than its residuals,
    raises ValueError, `where(g)` naming the group."""
    width = read_everywhere(data, cfg.residual_code, cfg.zeta_k)[1].tobytes()
    marks, firsts = array("q"), []  # each group's start, then its codeword ends
    add = marks.append
    for g, (p, e) in enumerate(zip(bounds, bounds[1:])):
        firsts.append(len(marks))
        add(p)
        while p < e:
            p += width[p]
            add(p)
        if p != e:
            raise ValueError(f"{where(g)}: a codeword runs {p - e} bits past the kept offset")
    nodes = _kept(totals.size - 1, step)
    held, found = np.diff(totals[nodes]), np.diff(firsts + [len(marks)]) - 1
    if (bad := found != held).any():
        g = int(bad.argmax())
        raise ValueError(f"{where(g)}: {found[g]} codewords up to the kept offset, "
                         f"the residual totals say {held[g]}")
    group = np.arange(totals.size - 1) // step
    at = np.array(firsts)[group] + totals[1:] - totals[group * step]
    return np.frombuffer(marks, dtype=np.int64)[at].astype(np.uint64)


def _field_ends(data, cfg, bounds, totals, step, where):
    """`_residual_ends` for chunks with fields before their residuals:
    each chunk follows them in Python, the reference, the block count and
    blocks, the interval count and intervals, as `cfg` has them (gamma),
    then its count of residuals. A count of fields past its group's end
    also raises ValueError."""
    rw = read_everywhere(data, cfg.residual_code, cfg.zeta_k)[1].tobytes()
    gv, gw = read_everywhere(data)
    big = np.flatnonzero(gv == 255)  # a count of 255 or more is read again, whole
    exact = dict(zip(big.tolist(), _read(bit_windows(data), big.astype(np.uint64), "gamma", 3)[0]
                     .tolist())) if big.size else {}
    gv, gw, ends = gv.tobytes(), gw.tobytes(), []
    window, min_interval = cfg.window, cfg.min_interval

    def overrun(items, left):
        g = len(ends) // step
        return ValueError(f"{where(g)}: {items} fields in the {left} bits up to the kept offset")

    counts = np.diff(totals).tolist()
    try:
        for g, (p, e) in enumerate(zip(bounds, bounds[1:])):
            for c in counts[g * step : (g + 1) * step]:
                if window:
                    ref = gv[p]
                    p += gw[p]
                    if ref:  # a block count, then the blocks
                        items = gv[p] if gv[p] < 255 else exact[p]
                        p += gw[p]
                        if items > e - p:
                            raise overrun(items, e - p)
                        for _ in range(items):
                            p += gw[p]
                if min_interval:  # an interval count, then two fields each
                    items = 2 * (gv[p] if gv[p] < 255 else exact[p])
                    p += gw[p]
                    if items:
                        if items > e - p:
                            raise overrun(items, e - p)
                        for _ in range(items):
                            p += gw[p]
                for _ in range(c):
                    p += rw[p]
                ends.append(p)
            if p != e:
                side = "after" if p > e else "before"
                raise ValueError(f"{where(g)}: the chunks end {abs(p - e)} bits {side} "
                                 "the kept offset")
    except IndexError:
        raise ValueError(f"{where(len(ends) // step)}: a chunk runs past the stream") from None
    return np.array(ends, dtype=np.uint64)


def _chunk_ends(stream, cfg: CodecConfig, kept: np.ndarray, totals: np.ndarray, step: int):
    """The n + 1 chunk offsets that the n + 1 running residual totals give,
    from the offsets kept of the `_kept` nodes. The groups of `step`
    chunks between kept offsets are read in batches of about _BLOCK groups
    plus stream bytes: `codes.read_everywhere` reads a codeword at every
    bit of a batch, then each group follows its codeword starts in Python.
    Raises ValueError where a group's residuals cannot fit its bits or its
    chunks do not end at the next kept offset."""
    nodes = _kept(totals.size - 1, step)
    held, room = np.diff(totals[nodes]), np.diff(kept)
    if (bad := held > room).any():
        g = int(bad.argmax())
        raise ValueError(f"nodes {nodes[g]} on: {held[g]} residuals in {room[g]} bits")
    follow = _field_ends if cfg.window or cfg.min_interval else _residual_ends
    offsets = np.empty(totals.size, dtype=np.uint64)
    offsets[0] = kept[0]
    for ga, gb in _blocks(kept, 3):  # groups plus stream bytes
        a, b, first = int(nodes[ga]), int(nodes[gb]), int(kept[ga]) >> 3
        base = np.uint64(8 * first)
        data = stream[first : (int(kept[gb]) + 7) >> 3]
        bounds = (kept[ga : gb + 1] - base).tolist()
        ends = follow(data, cfg, bounds, (totals[a : b + 1] - totals[a]).astype(np.int64),
                      step, lambda g: f"nodes {a + g * step} to {min(a + (g + 1) * step, b) - 1}")
        offsets[a + 1 : b + 1] = ends + base
    return offsets


def save(enc: EncodedGraph, path) -> None:
    """Write the HBG4 container: header, the running residual totals and
    every _STEP-th offset as Elias-Fano lists, code stream. Its flag byte
    says whether the stream holds upper lists."""
    cfg, n = enc.cfg, enc.n
    totals = _residual_totals(enc)
    count_bits, *counts = _ef_encode(totals)
    low_bits, *kept = _ef_encode(enc.offsets[_kept(n, _STEP)])
    blob = bytearray(_HEADER.pack(  # the CRC goes in below
        MAGIC, VERSIONS[MAGIC], _LITTLE, low_bits, count_bits, n, enc.num_arcs, cfg.window,
        cfg.min_interval, _CODE_IDS[cfg.residual_code], cfg.zeta_k, int(enc.upper), 0,
    ))
    blob += _TALLIES.pack(enc.copied_arcs, enc.interval_arcs, enc.stream_bits)
    blob += _INDEX.pack(int(totals[-1]), _STEP)
    blob += b"".join(counts + kept) + enc.stream
    struct.pack_into("<I", blob, 36, _crc(blob))
    with open(path, "wb") as fh:
        fh.write(blob)


def load(path) -> EncodedGraph:
    """Read an HBG4, HBG3, HBG2 or HBG1 container back into an
    EncodedGraph; HBG1 keeps no codec tallies, so they read 0. Only an
    HBG3 or HBG4 stream holds upper lists; the HBG1 and HBG2 flag byte is
    read and ignored. HBG4's offsets are rebuilt by `_chunk_ends`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] not in VERSIONS:
        raise ValueError(f"{path}: not an HBG1, HBG2, HBG3 or HBG4 graph file")
    magic, version, endian, low_bits, count_bits, n, num_arcs, window, min_interval, code_id, \
        zeta_k, flag, crc = _HEADER.unpack_from(blob)
    if version != VERSIONS[magic]:
        raise ValueError(f"{path}: unsupported format version {version}")
    if endian != _LITTLE:
        raise ValueError(f"{path}: bad endianness tag {endian:#x}")
    if code_id not in _CODE_BY_ID or (version < 4 and code_id >= _LEGACY_CODES):
        raise ValueError(f"{path}: unknown residual code id {code_id}")
    cfg = CodecConfig(window, min_interval, _CODE_BY_ID[code_id], zeta_k)
    start = _HEADER.size
    if version == 1:
        end = start + 8 * (n + 1)
        if len(blob) < end:
            raise ValueError(f"{path}: truncated offset table")
        offsets = np.frombuffer(blob[start:end], dtype="<u8").copy()
        stream = blob[end:]
        if zlib.crc32(stream) != crc:
            raise ValueError(f"{path}: code stream checksum mismatch")
        if int(offsets[-1]) > len(stream) * 8:
            raise ValueError(f"{path}: offset table points past the stream")
        return EncodedGraph(n, num_arcs, False, cfg, stream, offsets, 0, 0)
    if len(blob) < start + _TALLIES.size + (_INDEX.size if version == 4 else 0):
        raise ValueError(f"{path}: truncated header")
    copied, intervals, top = _TALLIES.unpack_from(blob, start)
    start += _TALLIES.size
    # (name, unit, how many, low width, last value) of each Elias-Fano list
    if version < 4:
        lists = [("offsets", "bit ", n + 1, low_bits, top)]
    else:
        total, step = _INDEX.unpack_from(blob, start)
        start += _INDEX.size
        if step == 0:
            raise ValueError(f"{path}: offset step 0")
        lists = [("residual totals", "", n + 1, count_bits, total),
                 ("kept offsets", "bit ", -(-n // step) + 1, low_bits, top)]
    cuts = [start]  # where each low and high part ends
    for name, _, count, bits, last in lists:
        if bits > 63:
            raise ValueError(f"{path}: {name}: Elias-Fano low width {bits} is past 63")
        cuts.append(cuts[-1] + (bits * count + 7) // 8)
        cuts.append(cuts[-1] + (count + (last >> bits) + 7) // 8)
    if len(blob) != (size := cuts[-1] + (top + 7) // 8):
        what = "truncated file" if len(blob) < size else "bytes past the stream"
        raise ValueError(f"{path}: {what}: {len(blob)} bytes, the header implies {size}")
    if _crc(blob) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    values = []
    for i, (name, unit, count, bits, last) in enumerate(lists):
        low, high = blob[cuts[2 * i] : cuts[2 * i + 1]], blob[cuts[2 * i + 1] : cuts[2 * i + 2]]
        try:
            values.append(_ef_decode(low, high, count, bits))
        except ValueError as err:
            raise ValueError(f"{path}: {name}: {err}") from None
        if int(values[-1][-1]) != last:
            raise ValueError(f"{path}: {name} end at {unit}{values[-1][-1]}, "
                             f"the header says {last}")
    upper = bool(flag) and version >= 3
    stream = blob[cuts[-1] :]
    if version < 4:
        return EncodedGraph(n, num_arcs, upper, cfg, stream, values[0], copied, intervals)
    offsets = _chunk_ends(stream, cfg, values[1], values[0], step)
    return EncodedGraph(n, num_arcs, upper, cfg, stream, offsets, copied, intervals, values[0])
