"""Graph generators and independent oracles shared across the tests.

Everything here is deliberately naive: dict-and-deque BFS, pure-Python
hashing, quadratic pair counting, a bit-at-a-time stream writer and
reader. The point is to verify the vectorized implementations against
code too simple to be wrong in the same way.
"""

import struct
import zlib
from collections import deque

import numpy as np

from hbgraph.codes import CODE_NAMES, nat_words
from hbgraph.graph import Graph
from hbgraph.hll import CounterArray, estimate_registers
from hbgraph.storage import _ef_encode, encode


# ---- generators (all deterministic in their seed) ----


def from_pairs(n, pairs):
    if pairs:
        src, dst = zip(*pairs)
    else:
        src, dst = [], []
    return Graph.from_arcs(n, src, dst)


def sym_from_pairs(n, pairs):
    src = [a for a, b in pairs] + [b for a, b in pairs]
    dst = [b for a, b in pairs] + [a for a, b in pairs]
    return Graph.from_arcs(n, src, dst)


def er(n, p, seed, symmetric=True):
    """Erdos-Renyi; the symmetric variant mirrors the upper triangle."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    if symmetric:
        mask = np.triu(mask, 1)
        s, d = np.nonzero(mask)
        return Graph.from_arcs(n, np.concatenate([s, d]), np.concatenate([d, s]))
    s, d = np.nonzero(mask)
    return Graph.from_arcs(n, s, d)


def ba(n, k, seed):
    """Preferential attachment, k arcs per new node, symmetric."""
    rng = np.random.default_rng(seed)
    if n < k + 1:
        raise ValueError("need n > k")
    pairs = set()
    pool = []  # endpoint repeated once per incident edge
    for a in range(k + 1):
        for b in range(a + 1, k + 1):
            pairs.add((a, b))
            pool += [a, b]
    for x in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(int(pool[rng.integers(len(pool))]))
        for t in targets:
            pairs.add((min(x, t), max(x, t)))
            pool += [x, t]
    return sym_from_pairs(n, sorted(pairs))


def small_world(n, k, beta, seed):
    """Ring lattice with k neighbours each side, each edge rewired w.p. beta."""
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(n):
        for j in range(1, k + 1):
            a, b = u, (u + j) % n
            if rng.random() < beta:
                while True:
                    b = int(rng.integers(n))
                    if b != a and (min(a, b), max(a, b)) not in edges:
                        break
            edges.add((min(a, b), max(a, b)))
    return sym_from_pairs(n, sorted(edges))


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(i))) for i in range(1, n)]
    return sym_from_pairs(n, pairs)


def grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                pairs.append((u, u + 1))
            if r + 1 < rows:
                pairs.append((u, u + cols))
    return sym_from_pairs(rows * cols, pairs)


def cycle(n, directed=False):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    if directed:
        return from_pairs(n, pairs)
    return sym_from_pairs(n, pairs)


def star(n, directed=False):
    pairs = [(0, j) for j in range(1, n)]
    if directed:
        return from_pairs(n, pairs)
    return sym_from_pairs(n, pairs)


def band(n, seed):
    """Band graph in the shape of the benchmark's locality workload: each
    node links to 8 random later ids less than 40 ahead (no wrap), stored
    in both directions. Neighbouring lists overlap, so copying and
    intervals both fire."""
    rng = np.random.default_rng(seed)
    x = np.repeat(np.arange(n, dtype=np.int64), 8)
    y = x + rng.integers(1, 40, size=x.size)
    keep = y < n
    x, y = x[keep], y[keep]
    return Graph.from_arcs(n, np.concatenate([x, y]), np.concatenate([y, x]))


def mixed_suite(seed, count, max_n=150):
    """A varied batch for bulk property tests: random, scale-free,
    lattices, trees, degenerate shapes, directed and symmetric."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = i % 8
        n = int(rng.integers(2, max_n))
        if kind == 0:
            out.append(er(n, float(rng.uniform(0.01, 0.2)), int(rng.integers(1 << 30))))
        elif kind == 1:
            out.append(er(n, float(rng.uniform(0.01, 0.2)),
                          int(rng.integers(1 << 30)), symmetric=False))
        elif kind == 2:
            out.append(ba(max(n, 6), int(rng.integers(1, 4)), int(rng.integers(1 << 30))))
        elif kind == 3:
            out.append(random_tree(n, int(rng.integers(1 << 30))))
        elif kind == 4:
            out.append(grid(int(rng.integers(1, 12)), int(rng.integers(2, 12))))
        elif kind == 5:
            out.append(cycle(n, directed=bool(rng.integers(2))))
        elif kind == 6:
            out.append(star(n, directed=bool(rng.integers(2))))
        else:
            out.append(small_world(max(n, 10), 2, 0.2, int(rng.integers(1 << 30))))
    return out


# ---- oracles ----


def bfs_oracle(g, source):
    """Dict-and-deque BFS distances; -1 for unreached."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for v in g.successors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def distance_matrix(g):
    """(n, n) shortest-path matrix by repeated oracle BFS. Keep n small."""
    return np.stack([bfs_oracle(g, s) for s in range(g.n)])


def exact_curve(g):
    """True neighbourhood function N(0..T) from the distance matrix."""
    dm = distance_matrix(g)
    finite = dm[dm >= 0]
    counts = np.bincount(finite)
    return np.cumsum(counts).astype(float)


def true_diameter(g):
    dm = distance_matrix(g)
    return int(dm.max())


def full_recompute(g, m=0, seed=0, max_iters=None):
    """(values, iterations, truncated) of a diffusion that recomputes every
    node at every step, iterated to a fixed point. m == 0 diffuses exact
    reach sets.

    A step is a plain synchronous union over the arc list: every arc
    x -> y folds y's previous row into a copy of x's with ufunc.at, and
    the run stops at the first step that changes no row. It shares no
    code with the engine's kernel, so it is the reference for the
    change-driven loop of `run` and `run_exact`.
    """
    if m:
        counters = CounterArray(g.n, m, seed)
        counters.init_singletons()
        state, union = counters.registers, np.maximum
        measure = lambda rows: estimate_registers(rows, m)
    else:
        ids = np.arange(g.n)
        state = np.zeros((g.n, max((g.n + 63) // 64, 1)), dtype=np.uint64)
        state[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
        union = np.bitwise_or
        measure = lambda rows: np.bitwise_count(rows).sum(axis=1, dtype=np.float64)
    src = np.repeat(np.arange(g.n), g.out_degrees())
    values = [float(measure(state).sum())]
    while max_iters is None or len(values) <= max_iters:
        new = state.copy()
        union.at(new, src, state[g.indices])
        if np.array_equal(new, state):
            return values, len(values) - 1, False
        state = new
        values.append(float(measure(state).sum()))
    return values, len(values) - 1, True


# ---- reference hashing (independent of the library's numpy path) ----

_M = (1 << 64) - 1


def ref_mix64(z):
    z &= _M
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M
    z ^= z >> 31
    return z


def ref_hash64(x, seed=0):
    salt = ref_mix64((seed + 0x9E3779B97F4A7C15) & _M)
    return ref_mix64(x ^ salt)


def ref_register_update(m, regs, x, seed):
    """One HLL insertion on a plain list of registers."""
    b = m.bit_length() - 1
    h = ref_hash64(x, seed)
    j = h & (m - 1)
    rem = h >> b
    if rem == 0:
        rho = 65 - b
    else:
        rho = 1 + (len(bin(rem)) - len(bin(rem).rstrip("0")))
    rho = min(rho, 31)
    regs[j] = max(regs[j], rho)


# ---- the HBG1, HBG2 and HBG3 containers (hbgraph.storage reads them, and writes HBG4) ----


def encode_full(g, cfg=None):
    """`g` encoded as HBG1 and HBG2 store it: every list whole, also those
    of a symmetric graph. A copy of g whose symmetry cache reads False
    makes `encode` keep the full lists."""
    full = Graph(g.n, g.indptr, g.indices)
    full._symmetric = False
    return encode(full, cfg)


def save_hbg1(enc, path, symmetric):
    """Write `enc` as HBG1: a 40-byte header whose CRC-32 covers the code
    stream alone, the n + 1 offsets as raw little-endian u64 words, then
    the stream. Codec tallies are not stored. `symmetric` goes in the
    header's flag byte, which readers ignore."""
    assert not enc.upper, "HBG1 holds every list whole (see encode_full)"
    cfg = enc.cfg
    header = struct.pack(  # format version 1; the u16 after the tag is reserved
        "<4sBBHQQIIBBBxI", b"HBG1", 1, 0xFE, 0, enc.n, enc.num_arcs, cfg.window,
        cfg.min_interval, CODE_NAMES.index(cfg.residual_code), cfg.zeta_k,
        int(symmetric), zlib.crc32(enc.stream),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(enc.offsets.astype("<u8").tobytes())
        fh.write(enc.stream)


def save_hbg2(enc, path, symmetric):
    """Write `enc` as HBG2: a 64-byte header with the codec tallies and a
    CRC-32 over every other byte, the offsets as Elias-Fano, then the
    stream. HBG3 has this layout, but HBG2 holds every list whole.
    `symmetric` goes in the header's flag byte, which readers ignore."""
    assert not enc.upper, "HBG2 holds every list whole (see encode_full)"
    _save_elias_fano_offsets(enc, path, b"HBG2", 2, symmetric)


def save_hbg3(enc, path):
    """Write `enc` as HBG3: HBG2's layout under magic HBG3, format version
    3, whose flag byte says whether the stream holds upper lists."""
    _save_elias_fano_offsets(enc, path, b"HBG3", 3, enc.upper)


def _save_elias_fano_offsets(enc, path, magic, version, flag):
    cfg = enc.cfg
    low_bits, low, high = _ef_encode(enc.offsets)
    blob = bytearray(struct.pack(  # the CRC goes in below
        "<4sBBBxQQIIBBBxI", magic, version, 0xFE, low_bits, enc.n, enc.num_arcs, cfg.window,
        cfg.min_interval, CODE_NAMES.index(cfg.residual_code), cfg.zeta_k, int(flag), 0,
    ))
    blob += struct.pack("<QQQ", enc.copied_arcs, enc.interval_arcs, enc.stream_bits)
    blob += low + high + enc.stream
    struct.pack_into("<I", blob, 36, zlib.crc32(blob[40:], zlib.crc32(blob[:36])))
    with open(path, "wb") as fh:
        fh.write(blob)


# ---- scalar bit I/O (the oracle for hbgraph.codes' array forms) ----


class BitWriter:
    """Accumulates an MSB-first bit stream into a bytearray."""

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append `width` bits of `value` (its low bits, MSB-first)."""
        if width < 0:
            raise ValueError("negative width")
        if width == 0:
            return
        self._acc = (self._acc << width) | (value & ((1 << width) - 1))
        self._nacc += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._buf.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._buf) * 8 + self._nacc

    def getvalue(self) -> bytes:
        """Finished stream, zero-padded to a whole byte."""
        out = bytes(self._buf)
        if self._nacc:
            out += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return out


class BitReader:
    """Reads an MSB-first bit stream produced by BitWriter."""

    __slots__ = ("_data", "_pos", "_limit")

    def __init__(self, data: bytes, bit_offset: int = 0, bit_limit: int | None = None):
        self._data = data
        self._pos = bit_offset
        self._limit = len(data) * 8 if bit_limit is None else bit_limit
        if self._pos > self._limit:
            raise ValueError("bit offset past limit")

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._limit - self._pos

    def read_bits(self, width: int) -> int:
        end = self._pos + width
        if end > self._limit:
            raise EOFError("bit stream exhausted")
        if width == 0:
            return 0
        first = self._pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        self._pos = end
        return (chunk >> (last * 8 - end)) & ((1 << width) - 1)

    def read_unary(self) -> int:
        """Count zeros up to and including the terminating one bit."""
        zeros = 0
        while True:
            take = self._limit - self._pos
            if take <= 0:
                raise EOFError("bit stream exhausted in unary code")
            if take > 32:
                take = 32
            first = self._pos >> 3
            last = (self._pos + take + 7) >> 3
            chunk = int.from_bytes(self._data[first:last], "big")
            window = (chunk >> (last * 8 - self._pos - take)) & ((1 << take) - 1)
            if window == 0:
                zeros += take
                self._pos += take
                continue
            lead = take - window.bit_length()
            self._pos += lead + 1
            return zeros + lead


# positive-integer codes (v >= 1)


def _write_gamma_pos(w: BitWriter, v: int) -> None:
    b = v.bit_length() - 1
    # b zeros then the (b+1)-bit binary of v, in one call
    w.write_bits(v, 2 * b + 1)


def _read_gamma_pos(r: BitReader) -> int:
    b = r.read_unary()
    return (1 << b) | r.read_bits(b)


def _gamma_pos_length(v: int) -> int:
    return 2 * v.bit_length() - 1


def _write_delta_pos(w: BitWriter, v: int) -> None:
    b = v.bit_length() - 1
    _write_gamma_pos(w, b + 1)
    w.write_bits(v, b)  # low b bits; the leading 1 is implicit


def _read_delta_pos(r: BitReader) -> int:
    b = _read_gamma_pos(r) - 1
    return (1 << b) | r.read_bits(b)


def _delta_pos_length(v: int) -> int:
    b = v.bit_length() - 1
    return _gamma_pos_length(b + 1) + b


def _write_zeta_pos(w: BitWriter, v: int, k: int) -> None:
    h = (v.bit_length() - 1) // k
    w.write_bits(1, h + 1)  # h zeros, then the stop bit
    base = 1 << (h * k)
    span = (base << k) - base
    width = (span - 1).bit_length()
    short = (1 << width) - span
    rem = v - base
    if rem < short:
        w.write_bits(rem, width - 1)
    else:
        w.write_bits(rem + short, width)


def _read_zeta_pos(r: BitReader, k: int) -> int:
    h = r.read_unary()
    base = 1 << (h * k)
    span = (base << k) - base
    width = (span - 1).bit_length()
    if width == 0:
        return base
    short = (1 << width) - span
    rem = r.read_bits(width - 1)
    if rem >= short:
        rem = ((rem << 1) | r.read_bits(1)) - short
    return base + rem


def _zeta_pos_length(v: int, k: int) -> int:
    h = (v.bit_length() - 1) // k
    base = 1 << (h * k)
    span = (base << k) - base
    width = (span - 1).bit_length()
    short = (1 << width) - span
    return h + 1 + (width - 1 if v - base < short else width)


# natural-number API (n >= 0, codes n + 1)


def _check_zeta_k(k: int) -> None:
    if k < 1:
        raise ValueError("zeta shrinking parameter k must be >= 1")


def write_nat(w: BitWriter, n: int, code: str = "gamma", k: int = 3) -> None:
    if n < 0:
        raise ValueError(f"cannot code negative value {n}")
    if code == "gamma":
        _write_gamma_pos(w, n + 1)
    elif code == "delta":
        _write_delta_pos(w, n + 1)
    elif code == "zeta":
        _check_zeta_k(k)
        _write_zeta_pos(w, n + 1, k)
    else:
        raise ValueError(f"unknown code {code!r}")


def read_nat(r: BitReader, code: str = "gamma", k: int = 3) -> int:
    if code == "gamma":
        return _read_gamma_pos(r) - 1
    if code == "delta":
        return _read_delta_pos(r) - 1
    if code == "zeta":
        _check_zeta_k(k)
        return _read_zeta_pos(r, k) - 1
    raise ValueError(f"unknown code {code!r}")


def nat_length(n: int, code: str = "gamma", k: int = 3) -> int:
    """Bit length of write_nat(n) without writing anything."""
    if code == "gamma":
        return _gamma_pos_length(n + 1)
    if code == "delta":
        return _delta_pos_length(n + 1)
    if code == "zeta":
        _check_zeta_k(k)
        return _zeta_pos_length(n + 1, k)
    raise ValueError(f"unknown code {code!r}")


def nat_lengths(values, code: str = "gamma", k: int = 3) -> np.ndarray:
    """The widths of nat_words: the array form of nat_length."""
    return nat_words(values, code, k)[1]
