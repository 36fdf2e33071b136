import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbgraph import graph
from hbgraph.graph import (
    Graph,
    apply_permutation,
    avg_degree,
    gap_histogram,
    info_lower_bound,
    load_edge_list,
    load_permutation,
    parse_edges,
    random_permutation,
    save_edge_list,
    save_permutation,
    transpose,
)
from util import band, er, from_pairs, sym_from_pairs


class TestFromArcs:
    def test_dedupe_and_sort(self):
        g = Graph.from_arcs(4, [2, 0, 0, 2, 0], [1, 3, 1, 1, 3])
        assert g.successors(0).tolist() == [1, 3]
        assert g.successors(2).tolist() == [1]
        assert g.num_arcs == 3

    @pytest.mark.parametrize("n, src, dst", [
        (3, [], []),
        (4, [2] * 50, [1] * 50),
        (1, [0, 0, 0], [0, 0, 0]),
        (300, *np.random.default_rng(5).integers(0, 300, size=(2, 5000))),
        (70, *np.random.default_rng(6).integers(0, 70, size=(2, 5000))),
    ], ids=["empty", "all-duplicate", "one-node", "random", "dense"])
    def test_dedupe_matches_np_unique(self, n, src, dst):
        key = np.unique(np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64))
        g = Graph.from_arcs(n, src, dst)
        assert g.indices.tolist() == (key % n).tolist()
        assert g.indptr.tolist() == [0] + np.cumsum(np.bincount(key // n, minlength=n)).tolist()

    def test_out_degrees(self):
        g = from_pairs(3, [(0, 1), (0, 2), (2, 1)])
        assert g.out_degrees().tolist() == [2, 0, 1]
        assert g.out_degree(0) == 2

    def test_range_checks(self):
        with pytest.raises(ValueError):
            Graph.from_arcs(2, [0], [2])
        with pytest.raises(ValueError):
            Graph.from_arcs(2, [-1], [0])
        with pytest.raises(IndexError):
            from_pairs(2, [(0, 1)]).successors(2)

    def test_structural_symmetry_check(self):
        assert sym_from_pairs(3, [(0, 1), (1, 2)]).symmetric
        assert not from_pairs(3, [(0, 1)]).symmetric
        assert from_pairs(2, [(0, 1), (1, 0)]).symmetric
        # a self-loop is its own reverse
        assert from_pairs(3, [(0, 1), (1, 0), (2, 2)]).symmetric
        # symmetric but for one arc, whose reverse is missing
        pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0)]
        assert not from_pairs(4, pairs).symmetric
        assert from_pairs(4, pairs + [(0, 3)]).symmetric

    def test_symmetry_cannot_be_stated(self):
        g = from_pairs(2, [(0, 1)])
        with pytest.raises(TypeError):
            Graph(g.n, g.indptr, g.indices, symmetric=True)
        with pytest.raises(TypeError):
            Graph.from_arcs(2, [0], [1], symmetric=True)
        with pytest.raises(AttributeError):
            g.symmetric = True
        assert not g.symmetric

    def test_fingerprints_are_pinned(self):
        # run files carry these as graph_id, and RunSet compares them
        # across versions: the hashed bytes, the symmetry bit included,
        # must not drift
        assert sym_from_pairs(3, [(0, 1), (1, 2)]).fingerprint() == "421aa51d5b90"
        assert from_pairs(3, [(0, 1), (1, 2)]).fingerprint() == "7c5833f2b1f5"
        assert er(40, 0.1, seed=3).fingerprint() == "3ace2a1b2f88"
        assert er(40, 0.1, seed=3, symmetric=False).fingerprint() == "2740647ac59d"

    def test_fingerprint_distinguishes(self):
        a = from_pairs(3, [(0, 1), (1, 2)])
        b = from_pairs(3, [(0, 1), (1, 2)])
        c = from_pairs(3, [(0, 1), (2, 1)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a == b and a != c and hash(a) == hash(b)


class TestParseEdges:
    def test_basic_with_comments(self):
        g = parse_edges(["# header", "", "10 20", "20 30", "10 30"])
        assert g.n == 3 and g.num_arcs == 3
        # first-appearance compaction: 10 -> 0, 20 -> 1, 30 -> 2
        assert g.original_ids.tolist() == [10, 20, 30]
        assert g.successors(0).tolist() == [1, 2]

    def test_symmetrize_doubles(self):
        g = parse_edges(["1 2", "2 3"], symmetrize=True)
        assert g.symmetric and g.num_arcs == 4

    def test_paired_arcs_are_flagged(self):
        assert parse_edges(["1 2", "2 1", "2 3", "3 2"]).symmetric
        assert parse_edges(["5 5", "1 2", "2 1"], allow_self_loops=True).symmetric
        assert not parse_edges(["1 2", "2 3"]).symmetric
        assert not parse_edges(["1 2", "2 1", "2 3"]).symmetric

    def test_self_loop_rejected_then_allowed(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edges(["1 2", "3 3"])
        g = parse_edges(["1 2", "3 3"], allow_self_loops=True)
        assert g.num_arcs == 2

    def test_bad_token_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edges(["1 2 3"])

    def test_non_integer(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edges(["1 2", "a b"])

    def test_negative_id(self):
        with pytest.raises(ValueError, match="negative"):
            parse_edges(["-1 2"])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            parse_edges(["# nothing"])

    def test_huge_id_rejected(self):
        with pytest.raises(ValueError):
            parse_edges([f"{1 << 63} 1"])


def _loop(path, **kw):
    """What the line loop makes of an edge-list file: (graph, ids) or the
    ValueError's message."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            g = parse_edges(fh, **kw)
    except ValueError as err:
        return str(err)
    return g, g.original_ids.tolist()


def _array(path, **kw):
    """The same for load_edge_list."""
    try:
        g = load_edge_list(path, **kw)
    except ValueError as err:
        return str(err)
    return g, g.original_ids.tolist()


_ID = st.one_of(st.integers(0, 12), st.integers(0, (1 << 62) - 1))
_GAP = st.sampled_from([" ", "  ", "\t", " \t "])
_TOKEN = st.one_of(_ID.map(str), _ID.map(lambda v: f"+{v}"), st.sampled_from(["007", "-0"]))
_PAIR = st.tuples(_TOKEN, _TOKEN, _GAP, st.sampled_from(["", " ", "\t", " # tail"])).map(
    lambda p: f"{p[0]}{p[2]}{p[1]}{p[3]}")
_LINE = st.one_of(_PAIR, _PAIR, _PAIR, st.sampled_from(["", "   ", "\t", "# comment", "  # x"]))


class TestLoadEdgeList:
    """load_edge_list reads a file in one array pass and must agree with
    the line loop, parse_edges, on what it returns and on every error."""

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_LINE, max_size=30), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           last=st.booleans(), symmetrize=st.booleans(), loops=st.booleans())
    def test_matches_the_line_loop(self, lines, newline, last, symmetrize, loops):
        text = newline.join(lines) + (newline if last else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.txt"
            path.write_bytes(text.encode("ascii"))
            kw = dict(symmetrize=symmetrize, allow_self_loops=loops)
            want, got = _loop(path, **kw), _array(path, **kw)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("bad", [
        "1.0 2", "1e3 2", "0x1 2", "5 6 7", "5", "-1 2", "4611686018427387904 1",
        "9223372036854775807 1", "9223372036854775808 1", "1 1",
    ])
    def test_errors_are_the_loops(self, bad, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(f"# edges\n1 2\n{bad}\n3 4\n")
        message = _array(path)
        assert isinstance(message, str) and message.startswith("line 3: ")
        assert message == _loop(path)

    def test_non_ascii_bytes_give_the_loops_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"1 2\n# caf\xc3\xa9\n3 4\n")
        message = _array(path)
        assert isinstance(message, str) and "ascii" in message
        assert message == _loop(path)

    def test_empty_file_gives_the_loops_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# nothing\n\n")
        assert _array(path) == _loop(path) == "empty edge list"

    @pytest.mark.parametrize("text, ids", [("+5 6\n6 7\n", [5, 6, 7]),
                                           ("1_000 2\n2 3\n", [1000, 2, 3])])
    def test_what_the_loop_accepts_is_kept(self, text, ids, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(text)
        g, got = _array(path)
        assert got == ids and (g, got) == _loop(path)

    def test_clean_files_skip_the_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "e.txt"
        path.write_text("10 20\n20 30 # c\n\n30 10\n10 20\n")

        def refuse(*args, **kw):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(graph, "parse_edges", refuse)
        g = load_edge_list(path, symmetrize=True)
        assert g.original_ids.tolist() == [10, 20, 30]
        assert g.successors(0).tolist() == [1, 2] and g.num_arcs == 6 and g.symmetric


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = parse_edges(["5 9", "9 5", "5 7"])
        p = tmp_path / "e.txt"
        save_edge_list(g, p)
        g2 = load_edge_list(p)
        assert g2.n == g.n and np.array_equal(g2.indices, g.indices)

    def test_round_trip_original_ids(self, tmp_path):
        g = parse_edges(["50 90", "90 70"])
        p = tmp_path / "e.txt"
        save_edge_list(g, p, use_original_ids=True)
        lines = p.read_text().splitlines()
        assert lines == ["50 90", "90 70"]

    @staticmethod
    def _per_arc(g, path, names=None):
        """The writer save_edge_list replaced: one write per arc."""
        with open(path, "w", encoding="ascii") as fh:
            for x in range(g.n):
                for y in g.successors(x):
                    fh.write(f"{x} {y}\n" if names is None else f"{names[x]} {names[y]}\n")

    @pytest.mark.parametrize("ids", [False, True])
    @pytest.mark.parametrize("graph", ["band", "directed", "arcless"])
    def test_bytes_match_a_per_arc_writer(self, graph, ids, tmp_path):
        g = {
            "band": lambda: band(5000, 3),  # more arcs than one write's block
            "directed": lambda: er(60, 0.1, seed=5, symmetric=False),
            "arcless": lambda: from_pairs(4, []),
        }[graph]()
        names = None
        if ids:
            names = np.random.default_rng(2).permutation(g.n) * (1 << 40) + 7
            g.original_ids = names
        save_edge_list(g, tmp_path / "got.txt", use_original_ids=ids)
        self._per_arc(g, tmp_path / "want.txt", names)
        got = (tmp_path / "got.txt").read_bytes()
        assert got == (tmp_path / "want.txt").read_bytes()
        assert got.count(b"\n") == g.num_arcs

    def test_save_original_ids_requires_them(self, tmp_path):
        g = from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            save_edge_list(g, tmp_path / "e.txt", use_original_ids=True)


class TestPermutations:
    def test_random_permutation_is_seeded_bijection(self):
        p1 = random_permutation(100, 7)
        p2 = random_permutation(100, 7)
        assert np.array_equal(p1, p2)
        assert sorted(p1.tolist()) == list(range(100))
        assert not np.array_equal(p1, random_permutation(100, 8))

    def test_apply(self):
        g = from_pairs(3, [(0, 1), (1, 2)])
        h = apply_permutation(g, [2, 0, 1])  # 0->2, 1->0, 2->1
        assert h.successors(2).tolist() == [0]
        assert h.successors(0).tolist() == [1]

    def test_apply_carries_original_ids(self):
        g = parse_edges(["10 20", "20 30"])
        h = apply_permutation(g, [2, 0, 1])
        assert h.original_ids.tolist() == [20, 30, 10]

    def test_rejects_non_bijection(self):
        g = from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError):
            apply_permutation(g, [0, 0, 1])
        with pytest.raises(ValueError):
            apply_permutation(g, [0, 1])

    def test_text_and_binary_files(self, tmp_path):
        perm = random_permutation(40, 3)
        t = tmp_path / "p.txt"
        b = tmp_path / "p.bin"
        save_permutation(perm, t, fmt="text")
        save_permutation(perm, b, fmt="binary")
        assert np.array_equal(load_permutation(t, 40), perm)
        assert np.array_equal(load_permutation(b, 40), perm)
        # sniffing picks the right parser for both
        assert np.array_equal(load_permutation(t, 40, fmt="auto"), perm)
        assert np.array_equal(load_permutation(b, 40, fmt="auto"), perm)

    def test_wrong_length_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        save_permutation(random_permutation(5, 0), p)
        with pytest.raises(ValueError):
            load_permutation(p, 6)


class TestTranspose:
    def test_reverses_arcs(self):
        g = from_pairs(3, [(0, 1), (0, 2)])
        t = transpose(g)
        assert t.successors(1).tolist() == [0]
        assert t.successors(2).tolist() == [0]
        assert t.out_degree(0) == 0

    def test_involution(self):
        g = from_pairs(5, [(0, 1), (2, 4), (3, 1), (4, 0)])
        assert transpose(transpose(g)) == g

    def test_keeps_original_ids(self):
        g = parse_edges(["10 20"])
        assert transpose(g).original_ids.tolist() == [10, 20]


class TestStatistics:
    def test_avg_degree(self):
        g = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert avg_degree(g) == pytest.approx(3 / 4)

    def test_gap_histogram_path(self):
        # 0->1 and 1->2: both first gaps are |s - x| + 1 = 2, so bin 1
        g = from_pairs(3, [(0, 1), (1, 2)])
        assert gap_histogram(g).tolist() == [0, 2]

    def test_gap_histogram_mixed(self):
        # node 0 -> {2, 3, 11}: first gap 3 (bin 1), then 1 (bin 0), 8 (bin 3)
        g = from_pairs(12, [(0, 2), (0, 3), (0, 11)])
        assert gap_histogram(g).tolist() == [1, 1, 0, 1]

    def test_gap_histogram_counts_all_arcs(self):
        g = sym_from_pairs(30, [(i, (i + 7) % 30) for i in range(30)])
        assert int(gap_histogram(g).sum()) == g.num_arcs

    def test_gap_histogram_empty(self):
        assert gap_histogram(from_pairs(3, [])).size == 0

    def test_info_lower_bound_small_case(self):
        # 2 nodes, 2 arcs: log2(C(4, 2)) = log2(6)
        assert info_lower_bound(2, 2) == pytest.approx(math.log2(6))

    def test_info_lower_bound_edges(self):
        assert info_lower_bound(5, 0) == 0.0
        assert info_lower_bound(2, 4) == 0.0  # only one such graph
        with pytest.raises(ValueError):
            info_lower_bound(2, 5)

    def test_info_lower_bound_symmetric_by_enumeration(self):
        # every symmetric arc set on 3 nodes, self-loops allowed: the floor
        # of each is log2 of how many such sets hold as many edges
        n = 3
        cells = [(u, v) for u in range(n) for v in range(n)]
        found = []
        for mask in range(1 << len(cells)):
            arcs = {c for i, c in enumerate(cells) if mask >> i & 1}
            if all((v, u) in arcs for u, v in arcs):
                found.append((len(arcs), sum(u == v for u, v in arcs)))
        assert len(found) == 2 ** 6  # one set per subset of the 6 unordered pairs
        for arcs, loops in found:
            same = sum((a + lp) == (arcs + loops) for a, lp in found)
            assert info_lower_bound(n, arcs, True, loops) == pytest.approx(math.log2(same))
        with pytest.raises(ValueError, match="cannot be symmetric"):
            info_lower_bound(3, 3, True, 0)

    def test_info_lower_bound_monotone_peak(self):
        n = 10
        vals = [info_lower_bound(n, m) for m in range(0, n * n + 1)]
        peak = vals.index(max(vals))
        assert vals[0] == vals[-1] == 0.0
        assert abs(peak - n * n // 2) <= 1
