import hashlib
import math
import re
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hbgraph import codes, storage
from hbgraph.graph import Graph
from hbgraph.storage import (
    MAGIC,
    CodecConfig,
    EncodedGraph,
    decode,
    encode,
    load,
    save,
    _crc,
    _ef_decode,
    _ef_encode,
    _kept,
    _split_runs,
)
from util import (BitReader, BitWriter, ba, band, encode_full, er, from_pairs, mixed_suite,
                  read_nat, save_hbg1, save_hbg2, save_hbg3, write_nat)

# the 12 knob combinations of acceptance check C8
C8_CONFIGS = [
    CodecConfig(window=w, min_interval=iv, residual_code=c, zeta_k=k)
    for c, k in [("gamma", 1), ("delta", 1), ("zeta", 3)]
    for w in (0, 7)
    for iv in (0, 4)
]

CONFIGS = [
    CodecConfig(),
    CodecConfig(window=0, min_interval=0, residual_code="gamma"),
    CodecConfig(window=4, min_interval=2, residual_code="delta"),
    CodecConfig(window=1, min_interval=0, residual_code="zeta", zeta_k=2),
    CodecConfig(window=16, min_interval=8, residual_code="zeta", zeta_k=5),
]


def _cfg_id(c: CodecConfig) -> str:
    return f"w{c.window}-i{c.min_interval}-{c.residual_code}{c.zeta_k}"


def _assert_same_graph(g: Graph, h: Graph):
    assert h.n == g.n
    assert h.num_arcs == g.num_arcs
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert h.symmetric == g.symmetric


class TestIntervalisation:
    def test_worked_example(self):
        # {13,15,16,17,20} with threshold 3: only 15..17 long enough
        vals = np.array([13, 15, 16, 17, 20], dtype=np.int64)
        starts, lengths, residual = _split_runs(np.zeros(5, dtype=np.int64), vals, 3)
        assert vals[starts].tolist() == [15] and lengths.tolist() == [3]
        assert vals[residual].tolist() == [13, 20]

    def test_threshold_zero_disables(self):
        vals = np.arange(5, dtype=np.int64)
        starts, lengths, residual = _split_runs(np.zeros(5, dtype=np.int64), vals, 0)
        assert starts.size == lengths.size == 0 and vals[residual].tolist() == list(range(5))

    def test_runs_stop_at_node_boundaries(self):
        # 3..6 is consecutive, but 3, 4 belong to node 0 and 5, 6 to node 1
        nodes = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        vals = np.array([3, 4, 5, 6, 9], dtype=np.int64)
        starts, lengths, residual = _split_runs(nodes, vals, 2)
        assert starts.tolist() == [0, 2] and lengths.tolist() == [2, 2]
        assert vals[residual].tolist() == [9]

    def test_worked_example_round_trips(self):
        g = from_pairs(21, [(7, t) for t in (13, 15, 16, 17, 20)])
        enc = encode(g, CodecConfig(window=0, min_interval=3))
        assert decode(enc).successors(7).tolist() == [13, 15, 16, 17, 20]
        assert enc.interval_arcs == 3
        assert enc.interval_fraction == pytest.approx(3 / 5)


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_random_graphs(self, cfg):
        for i, g in enumerate(mixed_suite(seed=900, count=12, max_n=80)):
            _assert_same_graph(g, encode(g, cfg).decode())

    def test_empty_and_arcless(self):
        bare = CodecConfig(window=0, min_interval=0)
        for g in (from_pairs(1, []), from_pairs(50, [])):
            enc = encode(g)
            _assert_same_graph(g, enc.decode())
            assert enc.bits_per_arc == 0.0
            # with copy and interval markers disabled an empty list costs 0 bits
            assert encode(g, bare).stream_bits == 0

    def test_self_loops(self):
        g = Graph.from_arcs(5, [0, 2, 2, 4], [0, 2, 3, 4])
        for cfg in CONFIGS:
            _assert_same_graph(g, encode(g, cfg).decode())

    def test_copying_kicks_in_on_shared_lists(self):
        # consecutive nodes share most successors: reference copies win
        arcs = [(x, t) for x in range(20) for t in (30, 31, 32, 33, 40)]
        g = from_pairs(41, arcs)
        enc = encode(g, CodecConfig(window=7, min_interval=0))
        assert enc.copy_fraction > 0.5
        _assert_same_graph(g, enc.decode())

    def test_window_shrinks_similar_lists(self):
        # consecutive lists share 15 of 16 targets; copying must pay off
        arcs = [(x, t) for x in range(100) for t in list(range(200, 215)) + [x + 100]]
        g = from_pairs(300, arcs)
        plain = encode(g, CodecConfig(window=0, min_interval=0))
        refd = encode(g, CodecConfig(window=7, min_interval=4))
        assert refd.stream_bits < plain.stream_bits
        _assert_same_graph(g, refd.decode())

    def test_offsets_monotone_and_complete(self):
        g = er(80, 0.05, seed=3)
        enc = encode(g)
        assert enc.offsets.size == g.n + 1
        assert enc.offsets[0] == 0
        assert np.all(np.diff(enc.offsets.astype(np.int64)) >= 0)
        assert enc.stream_bits <= len(enc.stream) * 8

    def test_cycle_is_cheap_without_references(self):
        # one +1 gap per node: gamma residuals stay ~3 bits/arc
        n = 5000
        src = np.arange(n, dtype=np.int64)
        g = Graph.from_arcs(n, src, (src + 1) % n)
        enc = encode(g, CodecConfig(window=0, min_interval=0, residual_code="gamma"))
        assert enc.bits_per_arc < 4.0
        _assert_same_graph(g, enc.decode())

    @pytest.mark.parametrize("block", [1, 16, 100])
    def test_block_size_does_not_change_the_encoding(self, block, monkeypatch):
        graphs = mixed_suite(seed=901, count=8, max_n=60) + [band(300, 2)]
        want = [[encode(g, cfg) for cfg in CONFIGS] for g in graphs]
        monkeypatch.setattr(storage, "_BLOCK", block)
        for g, encs in zip(graphs, want):
            for cfg, enc in zip(CONFIGS, encs):
                got = encode(g, cfg)
                assert got.stream == enc.stream
                assert np.array_equal(got.offsets, enc.offsets)
                assert (got.copied_arcs, got.interval_arcs) == (enc.copied_arcs, enc.interval_arcs)

    @pytest.mark.parametrize("block", [1, 16, 100])
    def test_block_size_does_not_change_the_decoding(self, block, monkeypatch):
        # small blocks copy from lists of earlier blocks, and split copy
        # levels and whole copies into several pieces
        graphs = mixed_suite(seed=902, count=6, max_n=60) + [
            band(300, 2), star_of(150), identical_lists(120, 6), staircase(40),
        ]
        encs = [(g, encode(g, cfg)) for g in graphs for cfg in CONFIGS]
        monkeypatch.setattr(storage, "_BLOCK", block)
        for g, enc in encs:
            _assert_same_graph(g, decode(enc))

    def test_200k_arc_band_graph_encodes_fast(self):
        # the per-node planner took about 14 s here
        g = band(14000, 3)
        assert g.num_arcs > 200_000
        t0 = time.perf_counter()
        enc = encode(g)
        assert time.perf_counter() - t0 < 2.0
        _assert_same_graph(g, decode(enc))

    @pytest.mark.parametrize("k", [12, 13, 31])
    def test_zeta_k_past_the_lookup_table(self, k):
        # no zeta_k codeword with k > 12 fits the reader's 12-bit table
        cfg = CodecConfig(residual_code="zeta", zeta_k=k)
        for g in mixed_suite(seed=903, count=6, max_n=80) + [long_chunk("residuals", 300)]:
            enc = encode(g, cfg)
            _assert_same_graph(g, decode(enc))

    @pytest.mark.parametrize("k", [1, 2, 8, 11, 12, 31])
    def test_expgolomb_round_trips(self, k, tmp_path):
        # exp-Golomb_k codewords fit the 12-bit table for k <= 11 alone
        graphs = mixed_suite(seed=905, count=6, max_n=80) + [long_chunk("residuals", 300)]
        for w, i in ((0, 0), (7, 4)):
            cfg = CodecConfig(w, i, "expgolomb", k)
            for g in graphs:
                enc = encode(g, cfg)
                _assert_same_graph(g, decode(enc))
                save(enc, tmp_path / "g.hbg")
                back = load(tmp_path / "g.hbg")
                assert back.cfg == cfg and np.array_equal(back.offsets, enc.offsets)
                _assert_same_graph(g, back.decode())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_round_trip(self, data):
        n = data.draw(st.integers(1, 40))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=120,
            )
        )
        g = from_pairs(n, pairs) if pairs else from_pairs(n, [])
        cfg = data.draw(st.sampled_from(CONFIGS))
        # small blocks put copy references across block edges; hypothesis
        # and function-scoped monkeypatch do not mix, so restore by hand
        block, storage._BLOCK = storage._BLOCK, data.draw(st.sampled_from([16, 64, 8192]))
        try:
            enc = encode(g, cfg)
        finally:
            storage._BLOCK = block
        h = enc.decode()
        _assert_same_graph(g, h)


def star_of(leaves):
    """Node 0 linked both ways to leaves 1..leaves: each leaf copies the
    list of the leaf before it, a copy chain as long as the star."""
    x = np.arange(1, leaves + 1)
    hub = np.zeros(leaves, dtype=np.int64)
    src, dst = np.concatenate([hub, x]), np.concatenate([x, hub])
    return Graph.from_arcs(leaves + 1, src, dst)


def identical_lists(count, width):
    """Nodes 0..count-1 all linked to the same `width` later ids."""
    src = np.repeat(np.arange(count), width)
    return Graph.from_arcs(count + width, src, np.tile(np.arange(count, count + width), count))


def staircase(steps):
    """Node x linked to 0..x: each node copies the list before it whole
    and adds one id."""
    src = np.repeat(np.arange(steps), np.arange(1, steps + 1))
    return Graph.from_arcs(steps, src, np.concatenate([np.arange(x + 1) for x in range(steps)]))


DEEP_CHAINS = {
    "star": lambda: star_of(20_000),
    "identical": lambda: identical_lists(5000, 20),
    "staircase": lambda: staircase(1000),
}


class TestDeepCopyChains:
    """No container bounds copy chains; decode must resolve them without
    a pass over the block per level. The star's chain is in its full
    lists, as HBG2 stores them; its upper lists have none."""

    @pytest.mark.parametrize("name", sorted(DEEP_CHAINS))
    def test_decodes_fast_and_whole(self, name):
        g = DEEP_CHAINS[name]()
        enc = encode_full(g)
        assert enc.copy_fraction > 0.45  # the chains are really there
        t0 = time.perf_counter()
        h = decode(enc)
        # a level loop that re-sorts its block takes 1.1-3.0 s here
        assert time.perf_counter() - t0 < 1.0
        _assert_same_graph(g, h)


LONG_CHUNKS = ("residuals", "intervals", "blocks")


def long_chunk(kind, size):
    """A graph whose one long chunk holds `size` items of one field kind:
    node 0 linked to every other id (residuals), node 0 linked to runs of
    4 ids with one missing between (intervals), or node 2 copying every
    other id of node 1's list of 2 * size (copy blocks)."""
    if kind == "residuals":
        ids = np.arange(2, 2 * size + 1, 2)
    elif kind == "intervals":
        ids = ((5 * np.arange(size // 4))[:, None] + np.arange(4)).ravel()
    else:
        ids = np.concatenate([np.arange(2 * size), np.arange(0, 2 * size, 2)])
        return Graph.from_arcs(2 * size, np.repeat([1, 2], [2 * size, size]), ids)
    return Graph.from_arcs(int(ids[-1]) + 1, np.zeros(ids.size, dtype=np.int64), ids)


class TestLongChunks:
    """A round of the decoder reads one item of every node that has one
    left; the nodes left when few are, read the rest of their chunks in
    passes over bit windows instead."""

    @pytest.mark.parametrize("kind", LONG_CHUNKS)
    def test_decodes_fast_and_whole(self, kind):
        g = long_chunk(kind, 20_000)
        enc = encode(g)
        node = 2 if kind == "blocks" else 0
        assert g.successors(node).size == 20_000
        t0 = time.perf_counter()
        h = decode(enc)
        # a round per item took 0.2-1.0 s here, the per-chunk reader before
        # it 0.17-0.32 s
        assert time.perf_counter() - t0 < 0.15
        _assert_same_graph(g, h)

    @pytest.mark.parametrize("few,run", [(1, 4096), (16, 64), (10**9, 100)])
    def test_rounds_and_passes_agree(self, few, run, monkeypatch):
        # few=1 reads every item in rounds, 10**9 every repeated field in
        # passes; small passes cut codewords at their windows' ends
        graphs = mixed_suite(seed=904, count=6, max_n=80) + [
            long_chunk(kind, 300) for kind in LONG_CHUNKS
        ] + [band(400, 3), star_of(100)]
        encs = [(g, encode(g, cfg)) for g in graphs for cfg in CONFIGS]
        monkeypatch.setattr(storage, "_FEW", few)
        monkeypatch.setattr(codes, "_RUN", run)
        for g, enc in encs:
            _assert_same_graph(g, decode(enc))


def _scalar_residual_counts(enc):
    """Each chunk's count of residuals, read field by field with the
    scalar reader: the reference, blocks and intervals, then residuals up
    to the chunk's end."""
    cfg, counts = enc.cfg, []
    for x in range(enc.n):
        r = BitReader(enc.stream, int(enc.offsets[x]), int(enc.offsets[x + 1]))
        if cfg.window and read_nat(r):
            for _ in range(read_nat(r)):
                read_nat(r)
        for _ in range(2 * read_nat(r) if cfg.min_interval else 0):
            read_nat(r)
        count = 0
        while r.remaining:
            read_nat(r, cfg.residual_code, cfg.zeta_k)
            count += 1
        counts.append(count)
    return counts


def _sections(blob):
    """Byte ranges of the Elias-Fano parts of an HBG3 or HBG4 file, as
    FORMATS.md sizes them ("offsets low", "offsets high" or "residual
    totals low", ..., "kept offsets high"), and for HBG4 the decoded
    "totals" and "kept" lists."""
    header = storage._HEADER.unpack_from(blob)
    low_bits, count_bits, n = header[3:6]
    top = struct.unpack_from("<Q", blob, 56)[0]
    if blob[:4] == b"HBG3":
        lists, at = [("offsets", n + 1, low_bits, top)], 64
    else:
        total, step = struct.unpack_from("<QI", blob, 64)
        lists, at = [("residual totals", n + 1, count_bits, total),
                     ("kept offsets", -(-n // step) + 1, low_bits, top)], 76
    out = {}
    for name, count, bits, last in lists:
        low, high = (bits * count + 7) // 8, (count + (last >> bits) + 7) // 8
        out[f"{name} low"], out[f"{name} high"] = (at, at + low), (at + low, at + low + high)
        if name != "offsets":
            key = "totals" if name == "residual totals" else "kept"
            parts = blob[at : at + low], blob[at + low : at + low + high]
            out[key] = _ef_decode(*parts, count, bits)
        at += low + high
    out["stream"] = (at, len(blob))
    return out


class TestContainer:
    def _graph(self):
        return er(60, 0.08, seed=11)

    def test_save_load_round_trip(self, tmp_path):
        g = band(300, 4)
        enc = encode(g, CodecConfig(window=5, min_interval=3, residual_code="zeta", zeta_k=4))
        assert enc.copied_arcs and enc.interval_arcs
        p = tmp_path / "g.hbg"
        save(enc, p)
        back = load(p)
        assert back.cfg == enc.cfg
        assert back.upper == enc.upper
        assert back.stream == enc.stream
        assert np.array_equal(back.offsets, enc.offsets)
        assert (back.copied_arcs, back.interval_arcs) == (enc.copied_arcs, enc.interval_arcs)
        _assert_same_graph(g, back.decode())

    def test_magic_and_layout(self, tmp_path):
        cfg = CodecConfig()
        enc = encode(band(300, 4), cfg)
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = p.read_bytes()
        n, top = enc.n, enc.stream_bits
        totals = np.cumsum([0] + _scalar_residual_counts(enc)).astype(np.uint64)
        kept = enc.offsets[[0, 64, 128, 192, 256, 300]]
        total = int(totals[-1])
        count_bits, low_bits = int(math.log2(total / (n + 1))), int(math.log2(top / 6))
        assert MAGIC == b"HBG4"
        assert blob[:8] == MAGIC + bytes([4, 0xFE, low_bits, count_bits])
        assert struct.unpack_from("<QQIIBBBx", blob, 8) == (
            n, enc.num_arcs, cfg.window, cfg.min_interval, 2, cfg.zeta_k, 1)  # zeta is code 2
        assert struct.unpack_from("<QQQQI", blob, 40) == (
            enc.copied_arcs, enc.interval_arcs, top, total, 64)
        # header(76), the totals and the kept offsets as Elias-Fano, the stream verbatim
        cuts = np.cumsum([76, (count_bits * (n + 1) + 7) // 8,
                          (n + 1 + (total >> count_bits) + 7) // 8,
                          (low_bits * 6 + 7) // 8, (6 + (top >> low_bits) + 7) // 8])
        assert _ef_encode(totals) == (count_bits, blob[cuts[0]:cuts[1]], blob[cuts[1]:cuts[2]])
        assert _ef_encode(kept) == (low_bits, blob[cuts[2]:cuts[3]], blob[cuts[3]:cuts[4]])
        assert blob[cuts[4]:] == enc.stream
        crc = zlib.crc32(blob[:36] + blob[40:])
        assert crc == int.from_bytes(blob[36:40], "little") == _crc(blob)
        assert np.array_equal(load(p).offsets, enc.offsets)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.hbg"
        p.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError, match="not an HBG1"):
            load(p)

    def test_bad_version(self, tmp_path):
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = bytearray(p.read_bytes())
        blob[4] = 9
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load(p)

    def test_corrupt_stream_detected(self, tmp_path):
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = bytearray(p.read_bytes())
        blob[-1] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load(p)

    def test_truncated_offsets_detected(self, tmp_path):
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        save(enc, p)
        p.write_bytes(p.read_bytes()[:60])
        with pytest.raises(ValueError, match="truncated"):
            load(p)

    def test_truncated_stream_detected(self, tmp_path):
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - len(enc.stream) // 2])
        with pytest.raises(ValueError):
            load(p)

    def test_every_cut_and_extra_byte_is_named(self, tmp_path):
        # HBG4's header is 76 bytes and HBG3's 64
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        for write, header in [(save, 76), (save_hbg3, 64)]:
            write(enc, p)
            blob = p.read_bytes()
            for size in range(40, header):
                p.write_bytes(blob[:size])
                with pytest.raises(ValueError, match="truncated header"):
                    load(p)
            for size in (header, header + 1, 100, len(blob) - len(enc.stream), len(blob) - 1):
                p.write_bytes(blob[:size])
                want = f"truncated file: {size} bytes, the header implies {len(blob)}"
                with pytest.raises(ValueError, match=want):
                    load(p)
            p.write_bytes(blob + b"\0")
            with pytest.raises(ValueError, match="bytes past the stream"):
                load(p)

    @pytest.mark.parametrize("change,error", [
        ("clear", "high part holds {} ones, expected {}"),
        ("set", "high part holds {} ones, expected {}"),
        ("move", "offsets end at bit {}, the header says {}"),
    ])
    def test_high_part_checked_past_the_checksum(self, change, error, tmp_path):
        # each list is rewritten under a valid CRC, so only the Elias-Fano
        # checks can see the change: HBG3's offsets, and HBG4's residual
        # totals and kept offsets
        enc = encode(band(300, 4))
        p = tmp_path / "g.hbg"
        for write, name in [(save_hbg3, "offsets"), (save, "residual totals"),
                            (save, "kept offsets")]:
            write(enc, p)
            blob = bytearray(p.read_bytes())
            sections = _sections(blob)
            values = {"offsets": enc.offsets, "residual totals": sections.get("totals"),
                      "kept offsets": sections.get("kept")}[name]
            a, b = sections[f"{name} high"]
            bits = np.unpackbits(np.frombuffer(blob[a:b], dtype=np.uint8))
            ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
            count = ones.size
            if change in ("clear", "move"):
                bits[ones[-1]] = 0
                count -= 1
            if change in ("set", "move"):
                bits[zeros[0]] = 1  # before the last one, or in the padding
                count += 1
            blob[a:b] = np.packbits(bits).tobytes()
            struct.pack_into("<I", blob, 36, _crc(blob))
            p.write_bytes(bytes(blob))
            if change == "move":
                want = error.format(r"\d+", int(values[-1]))
                if name == "residual totals":
                    want = want.replace("offsets end at bit", "residual totals end at")
            else:
                want = f"{name}: Elias-Fano " + error.format(count, values.size)
            with pytest.raises(ValueError, match=want):
                load(p)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_hbg1_files_still_load(self, cfg, tmp_path):
        g = band(300, 4)
        enc = encode_full(g, cfg)
        p = tmp_path / "g.hbg"
        save_hbg1(enc, p, True)
        back = load(p)
        assert back.cfg == enc.cfg and back.stream == enc.stream
        assert np.array_equal(back.offsets, enc.offsets)
        assert (back.copied_arcs, back.interval_arcs) == (0, 0)  # HBG1 keeps no tallies
        _assert_same_graph(g, back.decode())

    @pytest.mark.parametrize("cut,error", [
        (lambda b, s: b[:60], "truncated offset table"),
        (lambda b, s: b[:-1] + bytes([b[-1] ^ 1]), "code stream checksum mismatch"),
        # no stream at all, whose CRC is 0
        (lambda b, s: b[:36] + bytes(4) + b[40 : len(b) - len(s)],
         "offset table points past the stream"),
    ], ids=["offsets", "stream", "empty-stream"])
    def test_hbg1_checks(self, cut, error, tmp_path):
        enc = encode_full(self._graph())
        p = tmp_path / "g.hbg"
        save_hbg1(enc, p, True)
        p.write_bytes(cut(p.read_bytes(), enc.stream))
        with pytest.raises(ValueError, match=error):
            load(p)

    @pytest.mark.parametrize("cfg", C8_CONFIGS, ids=_cfg_id)
    def test_save_load_save_is_byte_identical(self, cfg, tmp_path):
        for i, g in enumerate(mixed_suite(seed=904, count=8, max_n=80) + [band(400, 5)]):
            first, second = tmp_path / f"{i}.hbg", tmp_path / f"{i}-again.hbg"
            save(encode(g, cfg), first)
            save(load(first), second)
            assert first.read_bytes() == second.read_bytes()


# the codec settings of the benchmark graphs (residuals alone) and the defaults
HBG4_CONFIGS = [CodecConfig(0, 0, "zeta", 2), CodecConfig()]


class TestHBG4:
    """The HBG4 index: each node's residual count as running totals and
    the offsets of every _STEP-th node, from which load rebuilds every
    offset. Corrupt indexes are rewritten under a valid CRC, so only the
    index checks can see them."""

    @staticmethod
    def _rewrite(enc, tmp_path, edit):
        """The path of enc saved, its bytes changed by edit(blob, sections)
        and its CRC made good again."""
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = bytearray(p.read_bytes())
        edit(blob, _sections(blob))
        struct.pack_into("<I", blob, 36, _crc(blob))
        p.write_bytes(bytes(blob))
        return p

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 128, 129, 300])
    @pytest.mark.parametrize("cfg", HBG4_CONFIGS, ids=_cfg_id)
    def test_groups_of_every_size(self, n, cfg, tmp_path):
        g = band(n, 6)
        enc = encode(g, cfg)
        save(enc, tmp_path / "g.hbg")
        sections = _sections((tmp_path / "g.hbg").read_bytes())
        assert np.array_equal(sections["kept"], enc.offsets[_kept(n, 64)])
        assert sections["kept"].size == -(-n // 64) + 1
        assert sections["totals"].tolist() == np.cumsum([0] + _scalar_residual_counts(enc)).tolist()
        back = load(tmp_path / "g.hbg")
        assert back.stream == enc.stream and np.array_equal(back.offsets, enc.offsets)
        _assert_same_graph(g, back.decode())

    @pytest.mark.parametrize("cfg", HBG4_CONFIGS + [CodecConfig(4, 2, "gamma", 3)], ids=_cfg_id)
    @pytest.mark.parametrize("block", [1, 16, storage._BLOCK])
    def test_batch_size_does_not_change_the_offsets(self, cfg, block, monkeypatch, tmp_path):
        # a batch of groups reads one byte range, so its first and last
        # groups must find their chunks as any other does
        for i, g in enumerate([band(700, 2), ba(900, 2, 5), er(200, 0.3, 4, symmetric=False)]):
            enc = encode(g, cfg)
            save(enc, tmp_path / f"{i}.hbg")
            monkeypatch.setattr(storage, "_BLOCK", block)
            assert np.array_equal(load(tmp_path / f"{i}.hbg").offsets, enc.offsets)
            monkeypatch.undo()

    @pytest.mark.parametrize("cfg", [CodecConfig(0, 2, "gamma"), CodecConfig(1, 2, "zeta", 3)],
                             ids=_cfg_id)
    def test_counts_of_255_fields_or_more(self, cfg, tmp_path):
        # node 0 holds 300 intervals of two ids, past what a byte of
        # read_everywhere says; node 1 may copy every other one of them
        ids = [3 * i + j for i in range(300) for j in (0, 1)]
        g = from_pairs(1000, [(0, y) for y in ids] + [(1, y) for y in ids[::2]])
        enc = encode(g, cfg)
        save(enc, tmp_path / "g.hbg")
        back = load(tmp_path / "g.hbg")
        assert np.array_equal(back.offsets, enc.offsets)
        _assert_same_graph(g, back.decode())

    @pytest.mark.parametrize("step", [1, 5, 64, 1000])
    def test_any_recorded_step_loads(self, step, monkeypatch, tmp_path):
        g = band(300, 4)
        enc = encode(g)
        monkeypatch.setattr(storage, "_STEP", step)
        save(enc, tmp_path / "g.hbg")
        assert struct.unpack_from("<I", (tmp_path / "g.hbg").read_bytes(), 72)[0] == step
        _assert_same_graph(g, load(tmp_path / "g.hbg").decode())

    @pytest.mark.parametrize("cfg", HBG4_CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("shift", [-9, -1, 1, 9])
    def test_moved_kept_offset(self, cfg, shift, tmp_path):
        # node 128's offset, where group 1 (nodes 64 to 127) ends, moves
        # by `shift` bits; the list keeps its size, as it keeps its count
        # and its last value
        enc = encode(band(300, 4), cfg)

        def move(blob, sections):
            kept = sections["kept"].copy()
            kept[2] = int(kept[2]) + shift
            a, b = sections["kept offsets low"][0], sections["kept offsets high"][1]
            blob[a:b] = b"".join(_ef_encode(kept)[1:])

        with pytest.raises(ValueError, match="nodes 64 to 127: .*kept offset"):
            load(self._rewrite(enc, tmp_path, move))

    @pytest.mark.parametrize("cfg", HBG4_CONFIGS, ids=_cfg_id)
    def test_residual_total_must_match_the_header(self, cfg, tmp_path):
        # with a low width of 1 or more, the total's lowest bit leaves every
        # part's size as it was
        enc = encode(band(300, 4), cfg)
        total = sum(_scalar_residual_counts(enc))

        def change(blob, sections):
            assert blob[7] >= 1  # the totals' low width
            struct.pack_into("<Q", blob, 64, total ^ 1)

        want = f"residual totals end at {total}, the header says {total ^ 1}$"
        with pytest.raises(ValueError, match=want):
            load(self._rewrite(enc, tmp_path, change))

    @pytest.mark.parametrize("field,value,error", [
        ("step", 0, "offset step 0"),
        ("count_bits", 64, "residual totals: Elias-Fano low width 64 is past 63"),
        ("low_bits", 70, "kept offsets: Elias-Fano low width 70 is past 63"),
    ])
    def test_header_fields_checked(self, field, value, error, tmp_path):
        def change(blob, sections):
            if field == "step":
                struct.pack_into("<I", blob, 72, value)
            else:
                blob[{"low_bits": 6, "count_bits": 7}[field]] = value

        with pytest.raises(ValueError, match=error):
            load(self._rewrite(encode(band(300, 4)), tmp_path, change))

    @pytest.mark.parametrize("section", ["residual totals low", "residual totals high",
                                         "kept offsets low", "kept offsets high", "stream"])
    def test_a_flipped_bit_fails_the_checksum(self, section, tmp_path):
        p = tmp_path / "g.hbg"
        save(encode(band(300, 4), CodecConfig(0, 0, "zeta", 2)), p)
        blob = bytearray(p.read_bytes())
        a, b = _sections(blob)[section]
        assert b > a
        blob[(a + b) // 2] ^= 0x10
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load(p)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_containers_keep_their_code_set(self, version, tmp_path):
        # exp-Golomb (code id 3) came with HBG4: no HBG1 to HBG3 writer wrote it
        g, p = band(300, 4), tmp_path / "old.hbg"
        cfg = CodecConfig(7, 4, "expgolomb", 2)
        if version == 3:
            save_hbg3(encode(g, cfg), p)
        else:
            (save_hbg1 if version == 1 else save_hbg2)(encode_full(g, cfg), p, True)
        assert p.read_bytes()[32] == 3
        with pytest.raises(ValueError, match="unknown residual code id 3$"):
            load(p)
        save(encode(g, cfg), p)
        _assert_same_graph(g, load(p).decode())

    @pytest.mark.parametrize("cfg", HBG4_CONFIGS + [CodecConfig(0, 0, "expgolomb", 3)],
                             ids=_cfg_id)
    def test_save_reads_no_chunk(self, cfg, monkeypatch, tmp_path):
        # encode and an HBG4 load keep the running residual totals, so save
        # writes them without reading the stream again
        g = band(300, 4)
        enc = encode(g, cfg)
        want = np.cumsum([0] + _scalar_residual_counts(enc)).tolist()
        assert enc.residual_totals.tolist() == want
        first, second = tmp_path / "first.hbg", tmp_path / "second.hbg"
        save(enc, first)

        def read_chunks(*args):
            raise AssertionError("save read the chunks")

        monkeypatch.setattr(storage, "_read_chunks", read_chunks)
        save(enc, second)
        assert second.read_bytes() == first.read_bytes()
        back = load(first)
        assert np.array_equal(back.residual_totals, enc.residual_totals)
        save(back, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_older_files_save_as_hbg4(self, version, cfg, tmp_path):
        g = band(300, 4)
        old, new = tmp_path / "old.hbg", tmp_path / "new.hbg"
        if version == 3:
            save_hbg3(encode(g, cfg), old)
        else:
            (save_hbg1 if version == 1 else save_hbg2)(encode_full(g, cfg), old, True)
        first = load(old)
        save(first, new)
        assert new.read_bytes()[:5] == b"HBG4\x04"
        back = load(new)
        assert back.stream == first.stream and np.array_equal(back.offsets, first.offsets)
        assert back.upper == (version == 3)
        _assert_same_graph(g, back.decode())


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A directory and the bytes of three saved files: with copies
    and intervals, with neither, and without arcs."""
    where = tmp_path_factory.mktemp("flips")
    blobs = {}
    for name, g, cfg in [("band", band(200, 3), CodecConfig()),
                         ("er", er(60, 0.08, seed=11), CodecConfig(window=0, min_interval=0)),
                         ("arcless", from_pairs(9, []), CodecConfig())]:
        save(encode(g, cfg), where / name)
        blobs[name] = (where / name).read_bytes()
    return where, blobs


class TestBitFlips:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_flipped_bit_is_refused(self, saved_files, data):
        # header, offsets or stream: the CRC covers them all
        where, blobs = saved_files
        blob = bytearray(blobs[data.draw(st.sampled_from(sorted(blobs)))])
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit >> 3] ^= 0x80 >> (bit & 7)
        (where / "flipped").write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load(where / "flipped")


def _offset_arrays():
    """Nondecreasing u64 arrays: any start below 2^40, then gaps that are
    mostly small, often 0 (flat runs) and now and then huge."""
    gap = st.just(0) | st.integers(0, 3) | st.integers(0, 1 << 20) | st.integers(0, 1 << 40)
    return st.builds(
        lambda start, gaps: np.cumsum([start] + gaps).astype(np.uint64),
        st.just(0) | st.integers(0, 1 << 40),
        st.lists(gap, max_size=300),
    )


class TestEliasFano:
    @settings(max_examples=200, deadline=None)
    @given(_offset_arrays())
    @example(np.zeros(1, dtype=np.uint64))  # N = 1, U = 0
    @example(np.array([1 << 40], dtype=np.uint64))  # N = 1, U near 2^40
    @example(np.zeros(500, dtype=np.uint64))  # U = 0
    @example(np.arange(100, dtype=np.uint64) // 3)  # U < N
    @example(np.array([0] * 200 + [(1 << 40) - 1] * 200, dtype=np.uint64))  # one huge gap
    @example(np.array([5, 7, 7, 1 << 40, (1 << 40) + 9], dtype=np.uint64))
    @example(np.array([(1 << 58) - 1, (1 << 60) + 3, (1 << 63) + 5], dtype=np.uint64))  # l = 61
    def test_round_trip_and_size(self, offsets):
        count, top = offsets.size, int(offsets[-1])
        low_bits, low, high = _ef_encode(offsets)
        # the largest l with N * 2^l <= U, or 0
        assert low_bits == max((b for b in range(64) if count << b <= top), default=0)
        back = _ef_decode(low, high, count, low_bits)
        assert back.dtype == np.uint64 and np.array_equal(back, offsets)
        # l bits each, then one stop bit each and top >> l zeros in all
        bits = count * low_bits + count + (top >> low_bits)
        assert len(low) == (count * low_bits + 7) // 8
        assert len(high) == (count + (top >> low_bits) + 7) // 8
        # top >> l < 2N, so at most l + 3 bits each, and within Elias and
        # Fano's 2 + log2(U/N)
        assert bits <= count * (low_bits + 3) - 1
        if top >= count:
            assert bits <= count * (2 + math.log2(top / count)) * (1 + 1e-12)


def _formats_example():
    """The offsets and hex bytes of the worked example in FORMATS.md."""
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    block = text.split("### Elias-Fano worked example")[1].split("```")[1]
    fields = dict(re.findall(r"^(\w+)\s*:\s*(.*?)\s*(?:#.*)?$", block, re.M))
    hexes = {k: bytes.fromhex(fields[k]) for k in ("low", "high")}
    return np.array(fields["offsets"].split(), dtype=np.uint64), int(fields["l"]), hexes


def test_formats_md_elias_fano_example():
    offsets, low_bits, parts = _formats_example()
    assert _ef_encode(offsets) == (low_bits, parts["low"], parts["high"])
    assert np.array_equal(_ef_decode(parts["low"], parts["high"], offsets.size, low_bits), offsets)


def test_formats_md_symmetric_example():
    # the worked example under "Symmetric graphs": its table, offsets and
    # stream are what encode writes, and its mirrored lists decode back
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    block = text.split("### Symmetric graphs")[1].split("```")[1]
    fields = dict(re.findall(r"^(offsets|stream)\s*:\s*(.*?)\s*(?:#.*)?$", block, re.M))
    rows = re.findall(r"^(\d)\s+([-\d ]+?)\s{2,}([-\d ]+?)\s{2,}", block, re.M)
    lists = [[int(v) for v in full.split() if v != "-"] for _, full, _ in rows]
    upper = [[int(v) for v in up.split() if v != "-"] for _, _, up in rows]
    g = Graph.from_arcs(7, np.repeat(np.arange(7), [len(x) for x in lists]), sum(lists, []))
    assert g.symmetric
    assert upper == [[y for y in x if y >= i] for i, x in enumerate(lists)]
    enc = encode(g, CodecConfig(0, 0, "gamma"))
    assert enc.offsets.tolist() == [int(v) for v in fields["offsets"].split()]
    assert enc.stream == bytes.fromhex(fields["stream"])
    assert enc.num_arcs == 9 and enc.stream_bits == 15
    _assert_same_graph(g, decode(enc))


def test_formats_md_symmetric_example_as_hbg4(tmp_path):
    # the HBG4 index of the same example: its counts, totals and kept
    # offsets, and the bytes of the parts that save writes and load reads
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    block = [b for b in text.split("### Symmetric graphs")[1].split("###")[0].split("```")
             if "kept:" in b][0]
    fields = dict(re.findall(r"^(\w+(?: \w+)?)\s*:[ \t]*(.*?)\s*(?:#.*)?$", block, re.M))
    g = Graph.from_arcs(7, [0, 0, 1, 2, 2, 2, 3, 3, 5], [0, 2, 2, 0, 1, 3, 2, 5, 3])
    enc = encode(g, CodecConfig(0, 0, "gamma"))
    assert _scalar_residual_counts(enc) == [int(v) for v in fields["counts"].split()]
    save(enc, tmp_path / "g.hbg")
    blob = (tmp_path / "g.hbg").read_bytes()
    sections = _sections(blob)
    assert sections["totals"].tolist() == [int(v) for v in fields["totals"].split()]
    assert sections["kept"].tolist() == [int(v) for v in fields["kept"].split()]
    for part in ("totals low", "totals high", "kept low", "kept high"):
        a, b = sections[part.replace("totals", "residual totals").replace("kept", "kept offsets")]
        assert blob[a:b] == bytes.fromhex(fields[part]), part
    assert blob[6:8] == bytes([2, 0])  # the low widths l and m
    assert struct.unpack_from("<QQI", blob, 56) == (15, 5, 64)  # U, R, K
    assert len(blob) == 82
    back = load(tmp_path / "g.hbg")
    assert back.offsets.tolist() == [0, 4, 7, 10, 15, 15, 15, 15]
    _assert_same_graph(g, back.decode())


def _hand_built(chunks, num_arcs, window=7, min_interval=0, upper=False):
    """EncodedGraph whose node x's chunk is the gamma-coded naturals
    chunks[x], read with gamma residuals; with `upper`, as the upper
    lists of a symmetric graph."""
    w, offsets = BitWriter(), [0]
    for values in chunks:
        for v in values:
            write_nat(w, v)
        offsets.append(w.bit_length)
    cfg = CodecConfig(window=window, min_interval=min_interval, residual_code="gamma")
    offsets = np.array(offsets, dtype=np.uint64)
    return EncodedGraph(len(chunks), num_arcs, upper, cfg, w.getvalue(), offsets, 0, 0)


class TestCorruptStreams:
    """decode's checks, reached without the container's checksum.

    A chunk here is a reference, then (with one) a block count and
    blocks, then (with min_interval) an interval count and intervals,
    then residuals: the first as fold(y - x), with fold(d) = 2d - 1 for
    d > 0 and -2d otherwise, later ones as gaps minus 1.
    """

    def test_the_hand_built_graph_decodes(self):
        # node 0 -> 1; node 1 copies node 0's list and adds 0
        enc = _hand_built([[0, 1], [1, 0, 2]], 3)
        assert decode(enc).successors(1).tolist() == [0, 1]

    @pytest.mark.parametrize("chunks,window,node", [
        ([[3], [0]], 7, 0),  # before node 0
        ([[0], [0], [2, 0]], 1, 2),  # beyond the window
    ], ids=["before-node-0", "beyond-window"])
    def test_reference_out_of_reach(self, chunks, window, node):
        enc = _hand_built(chunks, 0, window)
        want = rf"node {node}: reference \d+ reaches before the window"
        with pytest.raises(ValueError, match=want):
            decode(enc)

    @pytest.mark.parametrize("chunks,node", [
        ([[0, 3], [0]], 0),  # node 0 -> 2 on 2 nodes
        ([[0], [0, 4]], 1),  # node 1 -> -1
    ], ids=["id-n", "id-negative"])
    def test_successor_out_of_range(self, chunks, node):
        enc = _hand_built(chunks, 1)
        with pytest.raises(ValueError, match=f"node {node}: decoded successor out of range"):
            decode(enc)

    def test_interval_past_n_fails_before_it_is_expanded(self):
        # reference 0, one interval: left 0, length 2 + 2^40
        enc = _hand_built([[0, 1, 0, 2**40], [0, 0]], 0, min_interval=2)
        with pytest.raises(ValueError, match="node 0: decoded successor out of range"):
            decode(enc)

    def test_successor_out_of_range_through_a_copy(self):
        # node 1 copies node 0's bad list and adds nothing
        enc = _hand_built([[0, 3], [1, 0]], 2)
        with pytest.raises(ValueError, match="node 0: decoded successor out of range"):
            decode(enc)

    @pytest.mark.parametrize("claimed,error", [
        (0, "decoded more arcs than the header's 0"),
        (1, "decoded more arcs than the header's 1"),
        (2, "decoded more arcs than the header's 2"),
        (4, "decoded 3 arcs, header claims 4"),
        (10, "decoded 3 arcs, header claims 10"),
    ])
    def test_arc_count_must_match_the_header(self, claimed, error):
        # three arcs: 0 -> 1, 2 and 1 -> 0; node 0's two ids do not fit
        # a preallocated array of 0 or 1 arcs
        enc = _hand_built([[0, 1, 0], [0, 2], [0]], claimed)
        with pytest.raises(ValueError, match=f"corrupt stream: {error}$"):
            decode(enc)


class TestSymmetricFiles:
    """HBG3 files of hand-built upper lists, through save and load: every
    stored arc x -> y has y >= x, and the header's arc count is the stored
    arcs plus the mirrored ones, self-loops mirrored never."""

    def _decode(self, chunks, num_arcs, tmp_path):
        save(_hand_built(chunks, num_arcs, upper=True), tmp_path / "g.hbg")
        back = load(tmp_path / "g.hbg")
        assert back.upper
        return decode(back)

    def test_loop_is_mirrored_once(self, tmp_path):
        # node 0 stores 0 and 1 (fold(0) = 0, then gap 0), node 1 stores 1
        g = self._decode([[0, 0, 0], [0, 0]], 4, tmp_path)
        assert [g.successors(x).tolist() for x in range(2)] == [[0, 1], [0, 1]]
        assert g.symmetric
        with pytest.raises(ValueError, match="3 stored and 1 mirrored arcs, header claims 5$"):
            self._decode([[0, 0, 0], [0, 0]], 5, tmp_path)

    def test_stored_arc_below_its_node(self, tmp_path):
        # node 1 stores fold(0 - 1) = 2: the arc 1 -> 0 of a full list
        with pytest.raises(ValueError, match="node 1: stored successor 0 is below it"):
            self._decode([[0], [0, 2]], 2, tmp_path)

    @pytest.mark.parametrize("claimed", [1, 3, 4])
    def test_mirrored_count_must_match_the_header(self, claimed, tmp_path):
        # node 0 stores 1 (fold(1) = 1): one stored and one mirrored arc
        want = f"corrupt stream: 1 stored and 1 mirrored arcs, header claims {claimed}$"
        with pytest.raises(ValueError, match=want):
            self._decode([[0, 1], [0]], claimed, tmp_path)
        assert self._decode([[0, 1], [0]], 2, tmp_path).successors(1).tolist() == [0]

    def test_full_lists_of_a_symmetric_graph_save_unflagged(self, tmp_path):
        g = band(50, 2)
        enc = encode_full(g)
        save(enc, tmp_path / "g.hbg")
        assert storage._HEADER.unpack_from((tmp_path / "g.hbg").read_bytes())[-2] == 0  # flag
        back = load(tmp_path / "g.hbg")
        assert not back.upper and back.stream == enc.stream
        _assert_same_graph(g, back.decode())

    def test_one_way_arcs_encode_as_full_lists(self):
        # paired but for 2 -> 0, whose reverse is missing
        g = from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)])
        enc = encode(g)
        assert not g.symmetric and not enc.upper
        assert enc.stream == encode_full(g, enc.cfg).stream
        _assert_same_graph(g, decode(enc))


class TestArcCount:
    """The header's arc count A, forged under a good CRC. decode allocates
    A arcs only as far as the tallies say the stream can hold (`_held`);
    past that it counts the stored arcs first, so a forged A fails on the
    mismatch with ValueError, not with MemoryError."""

    FORGED = 1 << 60

    @staticmethod
    def _saved(g, version, path):
        if version == 4:
            save(encode(g), path)
        elif version == 3:
            save_hbg3(encode(g), path)
        else:
            (save_hbg1 if version == 1 else save_hbg2)(encode_full(g), path, True)
        return path

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["upper", "full"])
    def test_forged_count(self, version, symmetric, tmp_path):
        g = band(300, 4) if symmetric else er(200, 0.05, 4, symmetric=False)
        p = self._saved(g, version, tmp_path / "g.hbg")
        blob = bytearray(p.read_bytes())
        struct.pack_into("<Q", blob, 16, self.FORGED)
        if version > 1:  # HBG1's CRC covers the stream alone
            struct.pack_into("<I", blob, 36, _crc(blob))
        p.write_bytes(bytes(blob))
        back = load(p)
        assert back.upper == (symmetric and version >= 3)
        assert storage._held(back) < self.FORGED
        with pytest.raises(ValueError, match=f"header claims {self.FORGED}$"):
            decode(back)

    @pytest.mark.parametrize("cfg", CONFIGS + [CodecConfig(7, 4, "expgolomb", 2)], ids=_cfg_id)
    def test_tallies_hold_every_arc(self, cfg, tmp_path):
        # what encode and load give never takes the counting pass
        for g in mixed_suite(seed=906, count=8, max_n=80) + [identical_lists(120, 6), band(300, 4)]:
            enc = encode(g, cfg)
            save(enc, tmp_path / "g.hbg")
            assert storage._held(enc) >= g.num_arcs
            assert storage._held(load(tmp_path / "g.hbg")) >= g.num_arcs

    def test_hbg1_without_tallies_counts_first(self, tmp_path):
        # copies of whole lists take a few bits for many arcs, and HBG1
        # keeps no tallies to say so
        g = identical_lists(120, 6)
        p = self._saved(g, 1, tmp_path / "g.hbg")
        back = load(p)
        assert storage._held(back) < g.num_arcs
        _assert_same_graph(g, back.decode())


class TestDecoderChecks:
    """The checks the array decoder added to those of TestCorruptStreams,
    on chunks built the same way."""

    def test_copy_blocks_past_the_reference_list(self):
        # node 0 -> 1; node 1 copies a block of 5 from that list of 1
        enc = _hand_built([[0, 1], [1, 1, 5]], 1)
        with pytest.raises(ValueError, match="node 1: copy blocks run past the reference list"):
            decode(enc)

    def test_offsets_must_not_decrease(self):
        enc = _hand_built([[0, 1], [0], [0]], 1)
        enc.offsets[2] = enc.offsets[1] - np.uint64(1)
        with pytest.raises(ValueError, match="node 1: chunk ends before it starts"):
            decode(enc)

    def test_offsets_past_the_stream(self):
        enc = _hand_built([[0, 1], [0]], 1)
        enc.offsets[2] += np.uint64(8 * len(enc.stream))
        with pytest.raises(ValueError, match="past the stream"):
            decode(enc)

    @pytest.mark.parametrize("block", [1, 16, storage._BLOCK])
    def test_offset_checks_at_block_edges(self, block, monkeypatch):
        # a block reads its chunks as one byte range, so the per-node
        # checks must fire where a block starts or ends: with block 1
        # every node is an edge, with 16 blocks hold 2-3 nodes of this
        # graph, and with the default its one block ends at node 299; node
        # 0's chunk starts at bit 0, so it cannot end before it
        enc = encode(band(300, 2))
        good = enc.offsets.copy()
        monkeypatch.setattr(storage, "_BLOCK", block)
        edge = [b for _, b in storage._blocks(good, 3)][0]
        for node in sorted({1, 2, 17, 150, 299, edge - 1, edge} - {0, enc.n}):
            enc.offsets = good.copy()
            enc.offsets[node + 1] = good[node] - np.uint64(1)
            with pytest.raises(ValueError, match=f"node {node}: chunk ends before it starts"):
                decode(enc)
            enc.offsets = good.copy()
            enc.offsets[node + 1 :] += np.uint64(8 * len(enc.stream))
            with pytest.raises(ValueError, match="corrupt offsets: a chunk ends past the stream"):
                decode(enc)

    def test_codeword_cut_by_the_chunk_end(self):
        # node 0's residual (gamma of 1000, 19 bits) loses its last 3 bits
        # to node 1's chunk
        enc = _hand_built([[0, 1000], [0]], 1)
        enc.offsets[1] -= np.uint64(3)
        with pytest.raises((ValueError, EOFError)):
            decode(enc)


class TestCodecConfig:
    def test_repr_mentions_every_knob(self):
        text = repr(CodecConfig(window=3, min_interval=2, residual_code="zeta", zeta_k=4))
        for token in ("3", "2", "zeta", "4"):
            assert token in text

    def test_validation(self):
        with pytest.raises(ValueError):
            CodecConfig(window=-1)
        with pytest.raises(ValueError):
            CodecConfig(min_interval=-2)
        with pytest.raises(ValueError):
            CodecConfig(residual_code="huffman")
        with pytest.raises(ValueError):
            CodecConfig(residual_code="zeta", zeta_k=0)
        # None leaves a knob for encode to choose
        assert CodecConfig(None, None, None, None).window is None


def shared_successors(n, seed, group=8, share=40):
    """Each group of `group` consecutive nodes links to the same `share`
    random nodes: copying pays, intervals almost never fire."""
    rng = np.random.default_rng(seed)
    succ = np.array([rng.choice(n, share, replace=False) for _ in range(0, n, group)])
    return Graph.from_arcs(n, np.repeat(np.arange(n), share), succ[np.arange(n) // group].ravel())


def dust(count, seed):
    """`count` paths of 2 or 3 nodes, in both directions."""
    sizes = np.random.default_rng(seed).integers(2, 4, size=count)
    first = np.cumsum(sizes) - sizes
    u = np.concatenate([f + np.arange(s - 1) for f, s in zip(first.tolist(), sizes.tolist())])
    return Graph.from_arcs(int(sizes.sum()), np.concatenate([u, u + 1]),
                           np.concatenate([u + 1, u]))


CHOOSER_GRAPHS = {
    "band": lambda: band(1500, 7),
    "ba": lambda: ba(2000, 3, 1),
    "dust": lambda: dust(3000, 2),
    "shared": lambda: shared_successors(1000, 5),
}
ALL_CODES = ([("gamma", 3), ("delta", 3)] + [("zeta", k) for k in range(1, 8)]
             + [("expgolomb", k) for k in range(1, 32)])
OPEN = CodecConfig(None, None, None, None)


def _file_bytes(enc, tmp_path, name):
    path = tmp_path / name
    save(enc, path)
    return path.read_bytes()


class TestChooser:
    @pytest.mark.parametrize("name", CHOOSER_GRAPHS)
    def test_no_larger_than_any_pair_or_the_defaults(self, name, tmp_path):
        g = CHOOSER_GRAPHS[name]()
        enc = encode(g, OPEN)
        cfg = enc.cfg
        _assert_same_graph(g, decode(enc))
        size = len(_file_bytes(enc, tmp_path, "chosen"))
        # the code: fewest bits with no copying and no intervals, where
        # the residuals are the whole stream
        plain = [encode(g, CodecConfig(0, 0, c, k)).stream_bits for c, k in ALL_CODES]
        assert ALL_CODES[int(np.argmin(plain))] == (cfg.residual_code, cfg.zeta_k)
        # window and intervals: the fewest stream bits of the four pairs
        pairs = {(w, i): encode(g, CodecConfig(w, i, cfg.residual_code, cfg.zeta_k))
                 for w in (0, 7) for i in (0, 4)}
        assert enc.stream_bits == min(e.stream_bits for e in pairs.values())
        assert pairs[cfg.window, cfg.min_interval].stream == enc.stream
        for (w, i), other in pairs.items():
            assert size <= len(_file_bytes(other, tmp_path, f"w{w}i{i}"))
        assert size <= len(_file_bytes(encode(g), tmp_path, "default"))

    @pytest.mark.parametrize("block", [64, 1 << 13])
    def test_totals_are_the_stream_bits(self, block, monkeypatch):
        # the chooser's one pass gives, for each min_interval, the stream
        # bits of window 0 and of the window, exactly
        monkeypatch.setattr(storage, "_BLOCK", block)
        for g in (band(300, 3), shared_successors(400, 3), dust(200, 1)):
            cfgs = [CodecConfig(7, i, "zeta", 2) for i in (0, 4)]
            total = np.zeros((2, 2), dtype=np.int64)
            stored = storage._upper(g) if g.symmetric else g
            for a, b in storage._blocks(stored.indptr):
                total += storage._block_bits(stored, a, b, cfgs)
            want = [[encode(g, CodecConfig(w, i, "zeta", 2)).stream_bits for w in (0, 7)]
                    for i in (0, 4)]
            assert total.tolist() == want

    def test_picks_per_graph(self):
        picks = {name: encode(make(), OPEN).cfg for name, make in CHOOSER_GRAPHS.items()}
        assert picks["band"] == CodecConfig(0, 0, "expgolomb", 1)
        assert picks["ba"] == CodecConfig(0, 0, "expgolomb", 6)
        # each upper list is one arc x -> x + 1, gap fold(1) = 1: 2 bits, where gamma takes 3
        assert picks["dust"] == CodecConfig(0, 0, "expgolomb", 1)
        # shared lists: copying stays, intervals go
        assert picks["shared"] == CodecConfig(7, 0, "expgolomb", 4)

    def test_given_knobs_are_kept(self):
        g = shared_successors(400, 3)
        for given in (CodecConfig(), CodecConfig(3, 2, "delta", 4), CodecConfig(0, 0, "gamma")):
            assert encode(g, given).cfg == given
        # each knob left None is chosen alone; the others stay as given
        enc = encode(g, CodecConfig(window=None, min_interval=4))
        assert (enc.cfg.window, enc.cfg.min_interval) == (7, 4)
        assert (enc.cfg.residual_code, enc.cfg.zeta_k) == ("zeta", 3)
        enc = encode(g, CodecConfig(window=0, min_interval=None, residual_code="zeta", zeta_k=None))
        assert enc.cfg.window == 0 and enc.cfg.residual_code == "zeta"
        assert 1 <= enc.cfg.zeta_k <= 7
        enc = encode(g, CodecConfig(2, 0, residual_code="gamma", zeta_k=None))
        assert enc.cfg == CodecConfig(2, 0, "gamma", 3)

    def test_chosen_settings_survive_a_reload(self, tmp_path):
        g = shared_successors(400, 3)
        enc = encode(g, OPEN)
        save(enc, tmp_path / "g.hbg")
        back = load(tmp_path / "g.hbg")
        assert back.cfg == enc.cfg
        _assert_same_graph(g, decode(back))

    @pytest.mark.parametrize("g", [from_pairs(0, []), from_pairs(9, []), from_pairs(3, [(0, 1)])],
                             ids=["empty", "arcless", "one-arc"])
    def test_degenerate_graphs(self, g):
        enc = encode(g, OPEN)
        _assert_same_graph(g, decode(enc))
        assert None not in vars(enc.cfg).values()


# Node 4 costs 13 bits with no copy, r=1 and r=2 under CodecConfig(), so
# no-copy must win; node 7 costs 22 bits with r=1 and r=4 against 24
# without copying, so r=1 must win.
TIE_PAIRS = [
    (0, 1), (0, 7), (0, 10), (0, 11), (1, 1), (2, 1), (2, 6), (2, 7), (2, 9),
    (3, 6), (3, 9), (4, 1), (4, 9), (5, 1), (6, 0), (6, 3), (6, 6), (7, 0),
    (7, 4), (7, 6), (7, 9), (7, 10),
]

GOLDEN_GRAPHS = {
    "mixed": lambda: mixed_suite(seed=900, count=16, max_n=80),
    "worked": lambda: [from_pairs(21, [(0, t) for t in (13, 15, 16, 17, 20)])],
    "self_loops": lambda: [Graph.from_arcs(5, [0, 2, 2, 4], [0, 2, 3, 4])],
    "empty": lambda: [from_pairs(0, [])],
    "arcless": lambda: [from_pairs(50, [])],
    "band": lambda: [band(1500, 7)],
    "ties": lambda: [from_pairs(12, TIE_PAIRS)],
}


def _golden_record(graphs, cfg, tmp_path, write=save_hbg1, coder=encode_full):
    """sha256 over the files that `write` makes of the encodings that
    `coder` makes of `graphs`, in order, and their summed copied and
    interval arc counts. As HBG1 files of full lists they pin the code
    stream and the raw offsets. `write` takes the encoding, the path and
    the legacy header flag as the recordings set it: when the graph has
    arcs and they pair up."""
    digest = hashlib.sha256()
    copied = interval = 0
    for i, g in enumerate(graphs):
        enc = coder(g, cfg)
        path = tmp_path / f"{i}.hbg"
        write(enc, path, g.num_arcs > 0 and g.symmetric)
        digest.update(path.read_bytes())
        copied += enc.copied_arcs
        interval += enc.interval_arcs
    return digest.hexdigest(), copied, interval


# (sha256 of the HBG1 files, copied_arcs, interval_arcs), recorded with
# the per-node encoder that the array encoder replaced; never regenerate
# these
GOLDEN = {
    ("arcless", "w7-i4-zeta3"): (
        "2920db3132dafb743618916ab83f56e62b112855e11ec7dfef58666dd5002be2", 0, 0,
    ),
    ("arcless", "w0-i0-gamma3"): (
        "cc5491c0697139b8e6508f48a6910a6b45bcb699e26fdc532576af94e935f631", 0, 0,
    ),
    ("arcless", "w4-i2-delta3"): (
        "dc42cbab47a62608f244f3e41248bdda3e6d4dfabc0d9d3763bb1138ae1c8def", 0, 0,
    ),
    ("arcless", "w1-i0-zeta2"): (
        "bcba4c9b201878d95efe4c05c165f8ad7f56c888b377a7502e1ad3472fc5b142", 0, 0,
    ),
    ("arcless", "w16-i8-zeta5"): (
        "6b7ae2a093b1dcd1d6fa2aa704fb5f55e821265790e577b68404b8cf953c6927", 0, 0,
    ),
    ("band", "w7-i4-zeta3"): (
        "029446e029a981655d33e110c8859759b1e322f356d42a87886ced1417aa7b2b", 276, 350,
    ),
    ("band", "w0-i0-gamma3"): (
        "a45d4e4a5fb76ff941d8468d1dc7cbff6a3ad7a762b6e2402b7005df4a7779d7", 0, 0,
    ),
    ("band", "w4-i2-delta3"): (
        "f534101b987c21676d10eca1a825b119264a9e4b6c2c9fdf197837ac0dda6087", 1571, 5870,
    ),
    ("band", "w1-i0-zeta2"): (
        "8e9c42c8acb3b8caf098608ded550d818a1cd69191369b10289e36754518b2c1", 18, 0,
    ),
    ("band", "w16-i8-zeta5"): (
        "08012ee859fa76bd44f88db183e35a5a1e1f6ba551617ae05360a131a8758968", 4479, 0,
    ),
    ("empty", "w7-i4-zeta3"): (
        "c36fbc661faa0d06b32bb69e07753c4c13098d4a3dfcf64212f4784037820b36", 0, 0,
    ),
    ("empty", "w0-i0-gamma3"): (
        "a31cca00c1755f46daaeb7737784b77e6b02c1ee544e3e0e97628b2f77895122", 0, 0,
    ),
    ("empty", "w4-i2-delta3"): (
        "c6d80d28091d04232f29038bf84e3d3b306f21bb14ccbaecaecebb327f34bb0f", 0, 0,
    ),
    ("empty", "w1-i0-zeta2"): (
        "698c738b390d17a9a1a0c67a26e1d6eb149486cceaf86b02e848b16b2fd7fd36", 0, 0,
    ),
    ("empty", "w16-i8-zeta5"): (
        "f9af5b0bf3667e976acec60cdddba9a24a5a879c7552b97a3db3da91596f93f2", 0, 0,
    ),
    ("mixed", "w7-i4-zeta3"): (
        "609c4f9218c3b06c153bb5f7bee7e1c5cb28fea1d3ddfd8a88ec41919c37b237", 174, 129,
    ),
    ("mixed", "w0-i0-gamma3"): (
        "98dd5033a48c8db5a21f2db31f98c08231f54fe2dbba4a26fd07ec28dc3b6a63", 0, 0,
    ),
    ("mixed", "w4-i2-delta3"): (
        "d7cd45b589bd2fdfd9787db42e96ee21dce03230834c8fcc1703fbea3bfad5d2", 172, 390,
    ),
    ("mixed", "w1-i0-zeta2"): (
        "c34d979df76d29662ff6c847f56a938ed8ab30b04497622a6cdd59fcfe34f4fe", 62, 0,
    ),
    ("mixed", "w16-i8-zeta5"): (
        "8d09ea033f63705845250cc7dbfc09fbe7188881d551355f021a479bd70dd141", 345, 106,
    ),
    ("self_loops", "w7-i4-zeta3"): (
        "65d73727af12d9c08ab52a2db38ea32085b977c8270d192e6f4550335b02a082", 0, 0,
    ),
    ("self_loops", "w0-i0-gamma3"): (
        "0c9ac8a7e27f44adbddbbaa0cf0ab1003700e2037abe1dfd9f8aca84c9649cc0", 0, 0,
    ),
    ("self_loops", "w4-i2-delta3"): (
        "a405a448187c94c08e71dfbf038825468fd9a11db8d4345464928f11b4edff53", 0, 2,
    ),
    ("self_loops", "w1-i0-zeta2"): (
        "25776812ce48f511d69c06b83ad03e5900251a590916c33cfb7e8d496179027e", 0, 0,
    ),
    ("self_loops", "w16-i8-zeta5"): (
        "6e1f808c2817426c103306281b578f0bb2a9b1dd8248934a8c7998e9bd3bc317", 0, 0,
    ),
    ("ties", "w7-i4-zeta3"): (
        "d7118e642f2cc0d262d53b2db4e509885fa1508eb80d5795017da37dc3ca72e3", 3, 0,
    ),
    ("ties", "w0-i0-gamma3"): (
        "9a0e5aad9a0c8488bc4029b85fdeb9b37039a986f97b038a10ff7f5f7c45274d", 0, 0,
    ),
    ("ties", "w4-i2-delta3"): (
        "64d3b1b08cf6f023c83380855d0d56e231bb43c04fc88fd4601b76a4b802cb56", 7, 4,
    ),
    ("ties", "w1-i0-zeta2"): (
        "2b09860350641746a558f86d79c7de7329ce74d5b07aa744bb819e35d73b8fe6", 0, 0,
    ),
    ("ties", "w16-i8-zeta5"): (
        "14827a70f129f404b5fe39d42731c65540ef644a12cc85b80a12e9b3f92761a4", 8, 0,
    ),
    ("worked", "w7-i4-zeta3"): (
        "ae302c091365ff740524e1fc050c8fab3029bf28af324f1b4d1866e08883db7d", 0, 0,
    ),
    ("worked", "w0-i0-gamma3"): (
        "1d74a316e6b91f338db150e2a563c58029606e6ff88c5b994f798209c3235a1a", 0, 0,
    ),
    ("worked", "w4-i2-delta3"): (
        "3470b548571e40d3bb1dd3c66f4421ed37e1496dac1cba8edcb4923a6d660bef", 0, 3,
    ),
    ("worked", "w1-i0-zeta2"): (
        "272a09d345f469cc81103c74797e0d68ae716fe9c577a170b483c85622d18ae7", 0, 0,
    ),
    ("worked", "w16-i8-zeta5"): (
        "c6a603ab8e17d1abbab829a7919ce7aaae5c88ce5c4ec804b79c05531df61e04", 0, 0,
    ),
}


# sha256 of the HBG2 files of the same encodings, recorded when HBG2
# replaced HBG1 as what save() writes; GOLDEN pins their streams and
# offsets, and the tallies they carry are GOLDEN's. Since HBG3 they are
# written by tests/util.save_hbg2, from the same full lists. Never
# regenerate.
GOLDEN_HBG2 = {
    ("arcless", "w7-i4-zeta3"):
        "b60fa8af7c2b119215a4e6ec8c27cebf7ac8a00b25a630231a03affd1b3fd0ba",
    ("arcless", "w0-i0-gamma3"):
        "489a9a02d0a46b52e1b63f46326d0d668a467587c22f09883650aee393a0b6b4",
    ("arcless", "w4-i2-delta3"):
        "040dd70373c8c3daa9f9c8bbf0b93fa655e6af2d4666f7f120156e6dac409e25",
    ("arcless", "w1-i0-zeta2"):
        "db61a7e0d211809f94f739694102de72c3d889b6cac4a9e3bff3b4c8d95c1a7f",
    ("arcless", "w16-i8-zeta5"):
        "c82c1317a5071c7081c383626854a6fcbb3a54d49f510a5a39f77f72642d6f5a",
    ("band", "w7-i4-zeta3"):
        "c4e2258da8e6ca4b4d311d6168522fac2ad102693cbba1f0703d32562b36ed2d",
    ("band", "w0-i0-gamma3"):
        "9aaedb3801f85e4e527c87dff7c4465f4b9ece4dd6a7e7bef85a6d005d93dbd2",
    ("band", "w4-i2-delta3"):
        "1e1fe161bd43bb43c8e5e7d3673253dfaf60a8d17398b63a9d12110bb7e08844",
    ("band", "w1-i0-zeta2"):
        "fb92f051cf813ccaba394dd9c0631f3931c21fe46cc6397a218fe20a9c98317f",
    ("band", "w16-i8-zeta5"):
        "12c0d5de14db41924ba730322f66568ad8bfbfe57a8b564717849d529f19620d",
    ("empty", "w7-i4-zeta3"):
        "e9c1549fe53893180a864d13b7f2c9576bba07034fe5b903c253948a69d6d6fd",
    ("empty", "w0-i0-gamma3"):
        "d5994644e60a6acd3f738e61a04d8d086dc2a7f986f778289d5bacd84a0772ba",
    ("empty", "w4-i2-delta3"):
        "3058476f69b8c038113d996e68845facfccdbf08dc20db4fdab892f206a1e5f1",
    ("empty", "w1-i0-zeta2"):
        "514632b9c4025adc6b74c0fd308c399c6de3a39b14d1d4ef177afd60406d1469",
    ("empty", "w16-i8-zeta5"):
        "1a36da38863998820d24df4a7553ce4b237843f4b661bd3c6ca504236ef3927a",
    ("mixed", "w7-i4-zeta3"):
        "ffd3ed0874d0d7032108efd6d010a1011afa19d7ac26a133545adfb8403718ec",
    ("mixed", "w0-i0-gamma3"):
        "6c3bcaa87a0d98ee81c0027c9e47eccbe1094ef5968fbdf20e5ec1f2988460e3",
    ("mixed", "w4-i2-delta3"):
        "cfb12a911bc3a05d60ae4567422b3419e19c9f74deec01b3d0f858796606319b",
    ("mixed", "w1-i0-zeta2"):
        "18c73a2844dcb49d09dea0658f548e83990b63fe651f64be09d1247bbb6613b1",
    ("mixed", "w16-i8-zeta5"):
        "43799947b9721e0ee5edc3ef563b771017d4d113868155499b2a3d6ea0b64866",
    ("self_loops", "w7-i4-zeta3"):
        "878299d18e81cb7bb555baadca882a014b729106f075567a1509f56fac8ad176",
    ("self_loops", "w0-i0-gamma3"):
        "68951f74869d9e21242d871a7ff7dccaab56eb56a371592c4bc2392ac75c7705",
    ("self_loops", "w4-i2-delta3"):
        "aa2ae70c2699536324933a83d361712438730c2bc261fa9eb0f1d411f5743986",
    ("self_loops", "w1-i0-zeta2"):
        "c3adec57f4702fd28df0cf59e84bfaebc32e60c4a759f222de895d405fba8e11",
    ("self_loops", "w16-i8-zeta5"):
        "01f50df99ae51d5855cb05b28325b9822877a8ab43a5c7db00dcc18de3a84e8d",
    ("ties", "w7-i4-zeta3"):
        "d3caf934350ae17c9c5843bbf757a8a3d5e23bbff67a2556b3885433f43eec24",
    ("ties", "w0-i0-gamma3"):
        "5ee676d91cae1b30c5a50102ded5e01173394873a4f13919e3b77e6c1ac18671",
    ("ties", "w4-i2-delta3"):
        "eb488fa7789c46f5cafae406e888f1d5b44a3717cd22231451b3668690309e4b",
    ("ties", "w1-i0-zeta2"):
        "952634d9d7c36cf96153b2a963dc851687880a8de518d8358d3a1e59fe3c5a40",
    ("ties", "w16-i8-zeta5"):
        "7d2aec5f4ecaaa06d07ff88e780bfcfd2b0eb2cd5c0cd1d185f17974747c43f4",
    ("worked", "w7-i4-zeta3"):
        "ef99e053482f1319c8aa8eafcc1a22967ca0bd8705990f01c4d99ae99e58e0e4",
    ("worked", "w0-i0-gamma3"):
        "f990677a5d53895333390540b81402c8c87b533c4391fca00441b74079466176",
    ("worked", "w4-i2-delta3"):
        "a3ddb28d53034927483fedaf715798fc18794485116c9ef27cc874c7a96488f6",
    ("worked", "w1-i0-zeta2"):
        "8fc7c60537b1b934514b20d1a3787af0949695c88a684ab4bfaf913240f87bf2",
    ("worked", "w16-i8-zeta5"):
        "862f19c7268ff89154be5371466575d8958596f0d243f5712555ddc941777ab2",
}


# (sha256 of the HBG3 files, copied_arcs, interval_arcs) of the same graphs,
# recorded when HBG3 replaced HBG2, once each file was checked to decode
# to its input graph. Symmetric graphs store their upper lists alone.
GOLDEN_HBG3 = {
    ("arcless", "w7-i4-zeta3"): (
        "8ea97e2a917e0bb8bf777bc69c13038a22cd31f86f117acd1f7e2a73f49f78e8", 0, 0,
    ),
    ("arcless", "w0-i0-gamma3"): (
        "5ddbcb206ee1705b569e7b27ff26c943d959ceab2ca2174a142b2c21e343786a", 0, 0,
    ),
    ("arcless", "w4-i2-delta3"): (
        "123b2195c8bddb439dace0a931d8289d4e2487e47e912a71bd5cebba65604054", 0, 0,
    ),
    ("arcless", "w1-i0-zeta2"): (
        "bf880893af2b0611c5f40058bf1ea2b7ec82e720dd49b0048305cf306f9923f7", 0, 0,
    ),
    ("arcless", "w16-i8-zeta5"): (
        "c16a129b2781e5e265308206935bd6275d046778754dbcf532bdf7442bc64548", 0, 0,
    ),
    ("band", "w7-i4-zeta3"): (
        "f14757773b5f5a1e754937261268d566b97d5aee8f5b2cb033ea516d91dc2abd", 122, 129,
    ),
    ("band", "w0-i0-gamma3"): (
        "a2838ff8949ed9ad7111c12ac264e437019b4e2ac2904e30c52aef79e5ae8ec8", 0, 0,
    ),
    ("band", "w4-i2-delta3"): (
        "962f42f26e280b1505eee24dac7750a723361a35ee7e35bdffbd74f407eb3e8e", 725, 2827,
    ),
    ("band", "w1-i0-zeta2"): (
        "3736a7670a95560268341d405a736492eee2835b5af35a77b0931a45d84ada4c", 18, 0,
    ),
    ("band", "w16-i8-zeta5"): (
        "7409ed02c69fb3f4d2b78c412497ac02f0c17058d94dcf2052dd73c9aa32202f", 1738, 0,
    ),
    ("empty", "w7-i4-zeta3"): (
        "14b1f1c696566207e518a2872e60461d80ccd82f0f3eabd1e8f32a86ba7cca09", 0, 0,
    ),
    ("empty", "w0-i0-gamma3"): (
        "82024e6a167d24e8a310c1d538d07bb3b473494760739d66562a0218792af394", 0, 0,
    ),
    ("empty", "w4-i2-delta3"): (
        "e7d03e49a82b60a86bd972d7ef83269a4abfa3c64686eaaf3f5fef16971c87c1", 0, 0,
    ),
    ("empty", "w1-i0-zeta2"): (
        "c5425b932cdf8b7747ba101dc023d1db39d26690d4be27ea419698eec2fa331f", 0, 0,
    ),
    ("empty", "w16-i8-zeta5"): (
        "b4ab14823bf8ecefbf3de61ffe94fcb2878fad8c309e512a3c263b9f661a12a4", 0, 0,
    ),
    ("mixed", "w7-i4-zeta3"): (
        "2d4ab9a38538bfa7f523cb281c05b089e2fc1013c55d0a0f1f71a033babdfbf5", 30, 129,
    ),
    ("mixed", "w0-i0-gamma3"): (
        "2996ab50da90c503efd774ace3748c16f8f5470e3daf533f1fee4fb6ff5fb336", 0, 0,
    ),
    ("mixed", "w4-i2-delta3"): (
        "407a4127005ccbe818e595791af08f4ad66b9097b08bc3fd75e885476b30c9db", 28, 286,
    ),
    ("mixed", "w1-i0-zeta2"): (
        "b3eb8a9bd8ce9d7dfa9ec21ee8df5d467c108a8e31ede26ff5f3e700ce853131", 1, 0,
    ),
    ("mixed", "w16-i8-zeta5"): (
        "ce48e5eef887036c2a86abb4e310443cba5fadd161050d33a42addece8c59a1d", 76, 106,
    ),
    ("self_loops", "w7-i4-zeta3"): (
        "99728f5c027adeec4f48b6840d5d774f52a58927a949d78d41c1212531832ba4", 0, 0,
    ),
    ("self_loops", "w0-i0-gamma3"): (
        "8a2b7790064ed294896047a1c0a350f5c99e4994f6cb3428d4693affd71173d0", 0, 0,
    ),
    ("self_loops", "w4-i2-delta3"): (
        "ab926b3cb9ebb4ec3fb84ddd4fb9480f835814c0c359dd39f72a61e84c3b3c63", 0, 2,
    ),
    ("self_loops", "w1-i0-zeta2"): (
        "8015c7eaa6d2fdf67b82b0570b4681dc48e0c2ebdfd5e15d10a85ade033ea227", 0, 0,
    ),
    ("self_loops", "w16-i8-zeta5"): (
        "577ada6026e0d3fbdc2b314be1f75a42d951be199deb42c6d14cd651ea5a0996", 0, 0,
    ),
    ("ties", "w7-i4-zeta3"): (
        "dcbaf668b86226be4ee61d78cfba463ed579c1d73d25606f7d84e0c4bea5e965", 3, 0,
    ),
    ("ties", "w0-i0-gamma3"): (
        "1e63da57d165d5d4a74e78ae7b9c68c74388a2640862b535725772fe0968522e", 0, 0,
    ),
    ("ties", "w4-i2-delta3"): (
        "56c78da9ed2bc1443317fa5591e912dc5c231d8a5ed1fa38a02ccf6ea9586b02", 7, 4,
    ),
    ("ties", "w1-i0-zeta2"): (
        "ca64eec3bb2e7f20b46b907e166827cfa2ff3d7a20aa12c5ee97a20bc49a4afb", 0, 0,
    ),
    ("ties", "w16-i8-zeta5"): (
        "79325dcaa17cc7ecb156b3ea8d7f92fd4efb3c9c9001164ed183195e4e05b99f", 8, 0,
    ),
    ("worked", "w7-i4-zeta3"): (
        "fb46915db9a7393d785741055ce800affc308019ba98914c7a0349630dc419ae", 0, 0,
    ),
    ("worked", "w0-i0-gamma3"): (
        "bd3222688d27a37108bdaf28ed2399a913904d198986c8c7cded568f37f86c26", 0, 0,
    ),
    ("worked", "w4-i2-delta3"): (
        "85018cbf11279fde135a6625b14434b2c78c0cbaa002674861048262b7526afd", 0, 3,
    ),
    ("worked", "w1-i0-zeta2"): (
        "84f8a5eaa01a6c5256d09a66b9ef968512b86d251d106928df4f471b0767f7aa", 0, 0,
    ),
    ("worked", "w16-i8-zeta5"): (
        "941aaa914cd9bce3008017bb3c39700fa0ea5e8397b1080df1efbc5cfc69d20e", 0, 0,
    ),
}


# (sha256 of the HBG4 files, copied_arcs, interval_arcs) of the same
# encodings as GOLDEN_HBG3, recorded when HBG4 replaced HBG3, once each
# file was checked to load back to the offsets and decode to the graph
GOLDEN_HBG4 = {
    ("arcless", "w7-i4-zeta3"): (
        "cd55f8427e8237abd1ae966d04496183a338ed4b17e48f8c04bec067408162a0", 0, 0,
    ),
    ("arcless", "w0-i0-gamma3"): (
        "d1e3478717b6e7b6e4ec4c0ec50ea30020b542aa84f08c1015c0c2b1ce6181c6", 0, 0,
    ),
    ("arcless", "w4-i2-delta3"): (
        "dbaa409da1b5a652c39d55cf3fc26d7246be7a74d8d7c826efce443c8da7af26", 0, 0,
    ),
    ("arcless", "w1-i0-zeta2"): (
        "d00ac38c41d4cadcdc9720624e1775a47eaa9305b2ef262eb9bc6e16b1c10347", 0, 0,
    ),
    ("arcless", "w16-i8-zeta5"): (
        "e3572b7201532edbeb2a4ed16b19d87958fd3dffb7d50d8d866410bc6f5cfa03", 0, 0,
    ),
    ("band", "w7-i4-zeta3"): (
        "44fa01d01b66472bd246fec2c91091d0859366e219aa877ee3aec539d091f748", 122, 129,
    ),
    ("band", "w0-i0-gamma3"): (
        "bc1deaf13ff287ff23ce38ece6fc6dc9200711569feb49dbb084b75e8f24d4af", 0, 0,
    ),
    ("band", "w4-i2-delta3"): (
        "32c31947563e9d7622a9074c35da19cdcc81f078a7bdd7976d21721746ba5f37", 725, 2827,
    ),
    ("band", "w1-i0-zeta2"): (
        "92b62949e9202c2edd977521435bea66ec69a6e94be343ec21d2e7855be34ac9", 18, 0,
    ),
    ("band", "w16-i8-zeta5"): (
        "94a43a4c2baaaf5d91f22bdf339fc3eefdab3daca6ee881f54941a84b26eebcf", 1738, 0,
    ),
    ("empty", "w7-i4-zeta3"): (
        "10bcafed22f683527772c021a48f885088c0aa7f9cdf79c9df28fdc126d2e61e", 0, 0,
    ),
    ("empty", "w0-i0-gamma3"): (
        "e1065a1d25e3ed3b64f8c97aa53cbfac6daaf6e42b5fec4fd5e77f2d6b721927", 0, 0,
    ),
    ("empty", "w4-i2-delta3"): (
        "1ca5491f5dab17684cb257576230c91887b9faeadf932b580f9b056d91495604", 0, 0,
    ),
    ("empty", "w1-i0-zeta2"): (
        "a19505caf3c5cd11c9011337a5a9265214f0dbdd06e993e668addde0adbdc1ac", 0, 0,
    ),
    ("empty", "w16-i8-zeta5"): (
        "67b53dbb2941e4ec9b03ea3122fdf6f59985f9bec019aab0a965394e6f501cdc", 0, 0,
    ),
    ("mixed", "w7-i4-zeta3"): (
        "47e8fbc415c30086afe4f39ad1a12c545eeb4306070dbb8d36bcc1a1339201e3", 30, 129,
    ),
    ("mixed", "w0-i0-gamma3"): (
        "66484f1da1f48cf426098a9a41038451ef221c110080618e35571adecfdab809", 0, 0,
    ),
    ("mixed", "w4-i2-delta3"): (
        "2b05ceec44c0e11e0ef28a6d3aeeab03726ec03a8e38c062cb7dd60e36057323", 28, 286,
    ),
    ("mixed", "w1-i0-zeta2"): (
        "a426bca600a4e2580a8dab42f1abd6a93ac31b645ff78526e02a4c5857c1a0bb", 1, 0,
    ),
    ("mixed", "w16-i8-zeta5"): (
        "c86b1bfb53a235d202a6af6f5d45aabe6bd9b473603ea80d48feb5a075763e15", 76, 106,
    ),
    ("self_loops", "w7-i4-zeta3"): (
        "f43c24941a05260796ad799707ca6fda9333943ac7af0a28a60fe1e1325abd92", 0, 0,
    ),
    ("self_loops", "w0-i0-gamma3"): (
        "d3bafdb9dc34d3b24054da2110565150058b485619309d70a77f4c04ae07cf71", 0, 0,
    ),
    ("self_loops", "w4-i2-delta3"): (
        "4860838be4627f8bae90db8ce406a718ce5999d6b8cc25699e9b0e81f55d6d12", 0, 2,
    ),
    ("self_loops", "w1-i0-zeta2"): (
        "26b1abe6de4dede88a83f843ce9addc41b6a443a05138b700ea4d54158d6fc9c", 0, 0,
    ),
    ("self_loops", "w16-i8-zeta5"): (
        "acf8f53549be2c75aeaac923e912185934c98cb50bb8369c0d67b537a9d685d1", 0, 0,
    ),
    ("ties", "w7-i4-zeta3"): (
        "bc094712a7a34c393b45e0d2ff36f4749fc6ff32f20ea0e5f9f0d5330e4da935", 3, 0,
    ),
    ("ties", "w0-i0-gamma3"): (
        "490a0b0f9cbe216833807e0142c564d29237e65b00e85960bf6abafc17c425a5", 0, 0,
    ),
    ("ties", "w4-i2-delta3"): (
        "df6437fa74ea88e29479ff84ebfe27fde10b8298def00a04bbccc1c1069f7d71", 7, 4,
    ),
    ("ties", "w1-i0-zeta2"): (
        "062d6ef5961804a6a452aa8e2934a0777a364dc30e1ba41b882299549b5078d9", 0, 0,
    ),
    ("ties", "w16-i8-zeta5"): (
        "c966d293dc81c4a2c0c2125bfedb89483f262c575447336bd15ed32612191b1d", 8, 0,
    ),
    ("worked", "w7-i4-zeta3"): (
        "1411d7b9ce8894edb411833927f651c7dae5112c59be5ea37f4d34819c9fc83c", 0, 0,
    ),
    ("worked", "w0-i0-gamma3"): (
        "e0e0b295efc95b0b26aaaf7a56d677a05d99b22333c389c11b983197605208fa", 0, 0,
    ),
    ("worked", "w4-i2-delta3"): (
        "60427613e5a6d61ea5efe4036a859859de0998ce357d84660bdd2dd3c63d0f7b", 0, 3,
    ),
    ("worked", "w1-i0-zeta2"): (
        "814cd298fa42e9fa7f51544f0355a8fb7ee54e561373350036b10776628b8dcc", 0, 0,
    ),
    ("worked", "w16-i8-zeta5"): (
        "27ae179b5aa702863503068312891dd7afeda0e9330596da7999a2dcf5640b6a", 0, 0,
    ),
    # exp-Golomb, which only HBG4 holds, recorded when it came, once each
    # file was checked to load back to the offsets, decode to the graph and
    # hold the residual counts that the scalar reader finds
    ("arcless", "w7-i4-expgolomb2"): (
        "ee80ff8e7989c08f2488c4cd3569152276e0f6fe3fd97dd4967cc4c7963bd764", 0, 0,
    ),
    ("band", "w7-i4-expgolomb2"): (
        "959da0b8cd724a3309b19a693ba83552bb002a24d8c858c6795dfc4497bb0914", 19, 133,
    ),
    ("empty", "w7-i4-expgolomb2"): (
        "3981ac346d74150dd37a297103bfd20624953da1d34f6e694fef7644f530a2a3", 0, 0,
    ),
    ("mixed", "w7-i4-expgolomb2"): (
        "89fe432a5770d7d03b334fab778e9108f87a5f7476aba22d79a7cfeeab0b3cca", 5, 129,
    ),
    ("self_loops", "w7-i4-expgolomb2"): (
        "de0b58d7294d03bf0ef8f57bee071bab25d38bd411e0dbba9137e5f5e80f9876", 0, 0,
    ),
    ("ties", "w7-i4-expgolomb2"): (
        "797508dc60db16ce6f10a2f4b35989ece06a7e9445deace900e27bb1b7cdb9d9", 0, 0,
    ),
    ("worked", "w7-i4-expgolomb2"): (
        "3b6169a6e16a4f886650f0e1bad2c81f9947c8c1d04e8bf8d72623966ccb50a0", 0, 0,
    ),
}

# the exp-Golomb config of GOLDEN_HBG4
EXPGOLOMB = CodecConfig(window=7, min_interval=4, residual_code="expgolomb", zeta_k=2)

class TestGolden:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_saved_bytes_and_tallies(self, name, cfg, tmp_path):
        got = _golden_record(GOLDEN_GRAPHS[name](), cfg, tmp_path)
        assert got == GOLDEN[name, _cfg_id(cfg)]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_hbg2_bytes_and_reloaded_tallies(self, name, cfg, tmp_path):
        graphs = GOLDEN_GRAPHS[name]()
        digest = _golden_record(graphs, cfg, tmp_path, save_hbg2)[0]
        back = [load(tmp_path / f"{i}.hbg") for i in range(len(graphs))]
        tallies = sum(b.copied_arcs for b in back), sum(b.interval_arcs for b in back)
        assert digest == GOLDEN_HBG2[name, _cfg_id(cfg)]
        assert tallies == GOLDEN[name, _cfg_id(cfg)][1:]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_hbg3_bytes_round_trip_and_reloaded_tallies(self, name, cfg, tmp_path):
        graphs = GOLDEN_GRAPHS[name]()
        got = _golden_record(graphs, cfg, tmp_path, lambda enc, path, _: save_hbg3(enc, path),
                             encode)
        back = [load(tmp_path / f"{i}.hbg") for i in range(len(graphs))]
        for g, b in zip(graphs, back):
            _assert_same_graph(g, b.decode())
        tallies = sum(b.copied_arcs for b in back), sum(b.interval_arcs for b in back)
        assert got == GOLDEN_HBG3[name, _cfg_id(cfg)]
        assert tallies == got[1:]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_hbg4_bytes_round_trip_and_offsets(self, name, cfg, tmp_path):
        # the same encodings as GOLDEN_HBG3's, so the streams and the
        # tallies are theirs; the offsets come back from the HBG4 index
        graphs = GOLDEN_GRAPHS[name]()
        got = _golden_record(graphs, cfg, tmp_path, lambda enc, path, _: save(enc, path), encode)
        for i, g in enumerate(graphs):
            enc, back = encode(g, cfg), load(tmp_path / f"{i}.hbg")
            assert back.stream == enc.stream and np.array_equal(back.offsets, enc.offsets)
            _assert_same_graph(g, back.decode())
        assert got == GOLDEN_HBG4[name, _cfg_id(cfg)]
        assert got[1:] == GOLDEN_HBG3[name, _cfg_id(cfg)][1:]

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_hbg4_expgolomb_bytes_round_trip_and_offsets(self, name, tmp_path):
        graphs = GOLDEN_GRAPHS[name]()
        got = _golden_record(graphs, EXPGOLOMB, tmp_path, lambda enc, path, _: save(enc, path),
                             encode)
        for i, g in enumerate(graphs):
            enc, back = encode(g, EXPGOLOMB), load(tmp_path / f"{i}.hbg")
            assert back.stream == enc.stream and np.array_equal(back.offsets, enc.offsets)
            assert back.residual_totals.tolist() == np.cumsum(
                [0] + _scalar_residual_counts(enc)).tolist()
            _assert_same_graph(g, back.decode())
        assert got == GOLDEN_HBG4[name, _cfg_id(EXPGOLOMB)]
