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

Both directions work on arrays, over blocks of consecutive nodes. The
encoder's blocks hold about _BLOCK arcs plus nodes (and read the lists
of the `window` nodes before, as references). Each candidate, no copying
and then copying from x - r for r = 1..window, builds every node's
fields once: copy masks come from `searchsorted` on the sorted arc keys
u*n + y, copy blocks, intervals and gaps from segmented `diff` and
`cumsum`, and code words from `codes.nat_words`. A field kind is a
(nodes, words, widths) triple, listed in chunk order. A node keeps the
fields of the first candidate strictly cheaper than those before, so
ties go to no copying, then to the smallest r (copying nothing costs at
least 3 bits more than no copying). A stable sort on node puts the kept
fields in chunk order for `codes.pack_words`; their widths give offsets.

The decoder's blocks hold about _BLOCK nodes plus stream bytes.
`codes.read_nats` reads field i of every chunk at once: the reference,
the block count, then one round per repeated field (copy blocks,
intervals, residuals) over the nodes that still have one, residuals
until each cursor reaches its chunk's end. Once fewer than _FEW nodes
have one, `codes.read_runs` reads the rest of theirs at once, so a hub
costs a read per bit of its chunk, not a round per item. Interval and
residual ids follow by segmented `cumsum`. Pointer jumping gives a whole
copy that adds nothing the list of the first node in its chain that
adds something, then every list's length, so each list goes straight
into its slot. The other nodes are sorted by copy level once; a level
copies ranges from the levels before it, adds its ids and sorts (node,
id) keys, at a cost of what it holds. Checks raise ValueError: offsets
nondecreasing, each cursor ending at its chunk's end (EOFError past
it), references within min(x, window), ids in [0, n) (an interval past
n before it is expanded), copy blocks within their reference's list,
and the header's arc count before any write. `decode_node` reads one
reference per node of its copy chain, then decodes the chain's chunks
alone. The scalar bit I/O went to the tests, as their oracle.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .codes import CODE_NAMES, bit_windows, nat_words, pack_words, read_nats, read_runs
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
    offsets = np.zeros(n + 1, dtype=np.uint64)
    stream = bytearray()
    copied = intervals = 0
    for a, b in _blocks(g.indptr):
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
    return EncodedGraph(n, g.num_arcs, g.symmetric, cfg, bytes(stream), offsets, copied, intervals)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i] + 0..lengths[i]-1 for every i, concatenated."""
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(out.size)
    return out


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


def _chunks(enc: EncodedGraph, nodes: np.ndarray):
    """Bit windows over the bytes of the chunks of `nodes`, gathered in
    order, and each chunk's start and end in them."""
    lo, hi = enc.offsets[nodes], enc.offsets[nodes + 1]
    if (hi < lo).any():
        raise ValueError(f"node {nodes[(hi < lo).argmax()]}: chunk ends before it starts")
    if int(hi.max()) > 8 * len(enc.stream):
        raise ValueError("corrupt offsets: a chunk ends past the stream")
    first = (lo >> 3).astype(np.int64)
    size = ((hi + 7) >> 3).astype(np.int64) - first
    raw = np.frombuffer(enc.stream, dtype=np.uint8)[_spans(first, size)]
    # from stream bits to `raw` bits; where chunks share a byte the shift
    # is negative, and uint64 arithmetic wraps it back
    shift = 8 * (first - np.cumsum(size) + size)
    return bit_windows(raw), lo - shift.astype(np.uint64), hi - shift.astype(np.uint64)


def _read_chunks(enc: EncodedGraph, nodes: np.ndarray):
    """Every field of the chunks of `nodes`: the references, the block
    counts and blocks, the interval counts, gaps and lengths, and the
    residual counts and residuals, repeated fields node-major."""
    cfg, m, every = enc.cfg, nodes.size, np.arange(nodes.size)
    table, pos, end = _chunks(enc, nodes)

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
    if (bad := ref > np.minimum(nodes, cfg.window)).any():
        i = bad.argmax()
        raise ValueError(f"node {nodes[i]}: reference {ref[i]} reaches before the window")
    nblocks = np.zeros(m, dtype=np.int64)
    nblocks[ref > 0] = read(every[ref > 0])
    blocks = rounds(nblocks)[0]
    # an interval is two items, its left gap and its length
    icount = read(every) if cfg.min_interval else np.zeros(m, dtype=np.int64)
    ivals = rounds(2 * icount)[0]
    res, rcount = rounds(None, cfg.residual_code, cfg.zeta_k)
    return ref, nblocks, blocks, icount, ivals[0::2], ivals[1::2], rcount, res


def _decode_lists(enc: EncodedGraph, nodes: np.ndarray, indptr=None, out=None):
    """Decode the lists of `nodes` (sorted ids) into `out` after the lists
    before them (which `indptr` locates, for copies), or into a new array.
    Returns the list lengths and the array."""
    n, m, every = enc.n, nodes.size, np.arange(nodes.size)
    ref, nblocks, blocks, icount, gaps, lens, rcount, res = _read_chunks(enc, nodes)
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
    local = np.minimum(np.searchsorted(nodes, target), m - 1)
    inside = copying & (nodes[local] == target)
    whole = copying & (nblocks == 0) & (adds == 0)
    source = _chase(np.where(whole & inside, local, -1), every)[1][np.where(inside, local, every)]
    outside = copying & (~inside | whole[source])  # copies a list before `nodes`
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
    at = 0 if indptr is None else int(indptr[nodes[0]])
    if out is None:
        out = np.empty(int(length.sum()), dtype=np.int64)
    elif at + length.sum() > out.size:
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
    return length, out


def decode_node(enc: EncodedGraph, x: int) -> np.ndarray:
    """Successor list of one node: the decoder run over its copy chain."""
    if not 0 <= x < enc.n:
        raise IndexError(f"node {x} out of range [0, {enc.n})")
    chain = [x]
    while enc.cfg.window:
        node = chain[-1]
        ref = int(read_nats(*_chunks(enc, np.array([node])))[0][0])
        if ref > min(node, enc.cfg.window):
            raise ValueError(f"node {node}: reference {ref} reaches before the window")
        if not ref:
            break
        chain.append(node - ref)
    length, out = _decode_lists(enc, np.array(chain[::-1], dtype=np.int64))
    return out[out.size - length[-1] :].copy()


def decode(enc: EncodedGraph) -> Graph:
    """Materialize the full CSR graph, in blocks of consecutive nodes."""
    n, arcs = enc.n, enc.num_arcs
    indptr, indices = np.zeros(n + 1, dtype=np.int64), np.empty(arcs, dtype=np.int64)
    for a, b in _blocks(enc.offsets, 3):  # nodes plus stream bytes
        length = _decode_lists(enc, np.arange(a, b), indptr, indices)[0]
        indptr[a + 1 : b + 1] = indptr[a] + np.cumsum(length)
    if indptr[-1] != arcs:
        raise ValueError(f"corrupt stream: decoded {indptr[-1]} arcs, header claims {arcs}")
    return Graph(n, indptr, indices, symmetric=enc.symmetric)


# ---- container I/O ----


def save(enc: EncodedGraph, path) -> None:
    """Write the HBG1 container (header, offsets, stream)."""
    cfg = enc.cfg
    header = _HEADER.pack(  # format version 1; the u16 after the tag is reserved
        MAGIC, 1, _LITTLE, 0, enc.n, enc.num_arcs, cfg.window, cfg.min_interval,
        _CODE_IDS[cfg.residual_code], cfg.zeta_k, int(enc.symmetric), zlib.crc32(enc.stream),
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
    _, version, endian, _, n, num_arcs, window, min_interval, code_id, zeta_k, symmetric, crc = (
        _HEADER.unpack_from(blob)
    )
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
    cfg = CodecConfig(window, min_interval, _CODE_BY_ID[code_id], zeta_k)
    # copy/interval tallies are encode-time stats; unknown after a reload
    return EncodedGraph(n, num_arcs, bool(symmetric), cfg, stream, offsets, 0, 0)
