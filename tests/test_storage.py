import hashlib
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbgraph import storage
from hbgraph.codes import BitWriter, write_nat
from hbgraph.graph import Graph
from hbgraph.storage import (
    MAGIC,
    CodecConfig,
    EncodedGraph,
    decode,
    decode_node,
    encode,
    load,
    save,
    _split_runs,
)
from util import ba, band, er, from_pairs, mixed_suite

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
        assert decode_node(enc, 7).tolist() == [13, 15, 16, 17, 20]
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

    def test_decode_node_matches_full_decode(self):
        g = ba(120, 4, seed=5)
        enc = encode(g)
        h = decode(enc)
        for x in range(g.n):
            assert np.array_equal(decode_node(enc, x), h.successors(x))

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

    def test_200k_arc_band_graph_encodes_fast(self):
        # the per-node planner took about 14 s here
        g = band(14000, 3)
        assert g.num_arcs > 200_000
        t0 = time.perf_counter()
        enc = encode(g)
        assert time.perf_counter() - t0 < 2.0
        for x in (0, 6999, 13999):
            assert np.array_equal(decode_node(enc, x), g.successors(x))

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
        for x in range(n):
            assert np.array_equal(decode_node(enc, x), h.successors(x))


class TestContainer:
    def _graph(self):
        return er(60, 0.08, seed=11, symmetric=True)

    def test_save_load_round_trip(self, tmp_path):
        g = self._graph()
        enc = encode(g, CodecConfig(window=5, min_interval=3, residual_code="zeta", zeta_k=4))
        p = tmp_path / "g.hbg"
        save(enc, p)
        back = load(p)
        assert back.cfg == enc.cfg
        assert back.symmetric == enc.symmetric
        assert back.stream == enc.stream
        assert np.array_equal(back.offsets, enc.offsets)
        _assert_same_graph(g, back.decode())

    def test_magic_and_layout(self, tmp_path):
        enc = encode(self._graph())
        p = tmp_path / "g.hbg"
        save(enc, p)
        blob = p.read_bytes()
        assert blob[:4] == MAGIC
        # header(40) + offsets, then the stream verbatim
        assert blob[40 : 40 + 8 * (enc.n + 1)] == enc.offsets.astype("<u8").tobytes()
        assert blob[40 + 8 * (enc.n + 1) :] == enc.stream
        assert zlib.crc32(enc.stream) == int.from_bytes(blob[36:40], "little")

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


def _hand_built(chunks, num_arcs, window=7, min_interval=0):
    """EncodedGraph whose node x's chunk is the gamma-coded naturals
    chunks[x], read with gamma residuals."""
    w, offsets = BitWriter(), [0]
    for values in chunks:
        for v in values:
            write_nat(w, v)
        offsets.append(w.bit_length)
    cfg = CodecConfig(window=window, min_interval=min_interval, residual_code="gamma")
    offsets = np.array(offsets, dtype=np.uint64)
    return EncodedGraph(len(chunks), num_arcs, False, cfg, w.getvalue(), offsets, 0, 0)


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
        assert decode_node(enc, 1).tolist() == [0, 1]

    @pytest.mark.parametrize("chunks,window,node", [
        ([[3], [0]], 7, 0),  # before node 0
        ([[0], [0], [2, 0]], 1, 2),  # beyond the window
    ], ids=["before-node-0", "beyond-window"])
    def test_reference_out_of_reach(self, chunks, window, node):
        enc = _hand_built(chunks, 0, window)
        with pytest.raises(ValueError, match="reaches before the window"):
            decode(enc)
        with pytest.raises(ValueError, match="reaches before the window"):
            decode_node(enc, node)

    @pytest.mark.parametrize("chunks,node", [
        ([[0, 3], [0]], 0),  # node 0 -> 2 on 2 nodes
        ([[0], [0, 4]], 1),  # node 1 -> -1
    ], ids=["id-n", "id-negative"])
    def test_successor_out_of_range(self, chunks, node):
        enc = _hand_built(chunks, 1)
        with pytest.raises(ValueError, match="out of range"):
            decode(enc)
        with pytest.raises(ValueError, match="out of range"):
            decode_node(enc, node)

    def test_interval_past_n_fails_before_it_is_expanded(self):
        # reference 0, one interval: left 0, length 2 + 2^40
        enc = _hand_built([[0, 1, 0, 2**40], [0, 0]], 0, min_interval=2)
        with pytest.raises(ValueError, match="node 0: decoded successor out of range"):
            decode(enc)
        with pytest.raises(ValueError, match="node 0: decoded successor out of range"):
            decode_node(enc, 0)

    def test_successor_out_of_range_through_a_copy(self):
        # node 1 copies node 0's bad list and adds nothing
        enc = _hand_built([[0, 3], [1, 0]], 2)
        with pytest.raises(ValueError, match="node 0: decoded successor out of range"):
            decode_node(enc, 1)

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
        # decode_node reads one list and cannot see the count
        assert [decode_node(enc, x).tolist() for x in range(3)] == [[1, 2], [0], []]


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


def _golden_record(graphs, cfg, tmp_path):
    """sha256 over the saved files of `graphs`, in order, and the summed
    copied and interval arc counts."""
    digest = hashlib.sha256()
    copied = interval = 0
    for i, g in enumerate(graphs):
        enc = encode(g, cfg)
        path = tmp_path / f"{i}.hbg"
        save(enc, path)
        digest.update(path.read_bytes())
        copied += enc.copied_arcs
        interval += enc.interval_arcs
    return digest.hexdigest(), copied, interval


# (sha256, copied_arcs, interval_arcs), recorded with the per-node
# encoder that the array encoder replaced; never regenerate these
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


class TestGolden:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_saved_bytes_and_tallies(self, name, cfg, tmp_path):
        got = _golden_record(GOLDEN_GRAPHS[name](), cfg, tmp_path)
        assert got == GOLDEN[name, _cfg_id(cfg)]
