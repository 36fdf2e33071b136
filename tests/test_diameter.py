import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbgraph.diameter import (
    bfs,
    component_labels,
    double_sweep,
    eccentricity,
    giant_component,
    ifub,
    run_length_lower_bound,
)
from hbgraph.engine import NeighbourhoodRun, run, run_exact
from hbgraph.graph import Graph, parse_edges
from hbgraph.storage import load
from util import (
    bfs_oracle,
    cycle,
    encode_full,
    from_pairs,
    grid,
    mixed_suite,
    random_tree,
    save_hbg1,
    save_hbg2,
    small_world,
    sym_from_pairs,
    true_diameter,
)


def brute_diameter(g):
    return true_diameter(g)


class TestBfs:
    def test_matches_oracle(self):
        for g in mixed_suite(seed=55, count=20, max_n=80):
            for s in (0, g.n // 2, g.n - 1):
                assert np.array_equal(bfs(g, s), bfs_oracle(g, s))

    def test_source_out_of_range(self):
        g = from_pairs(3, [(0, 1)])
        with pytest.raises(IndexError):
            bfs(g, 3)

    def test_eccentricity(self):
        g = cycle(9)
        assert eccentricity(g, 0) == 4
        p = sym_from_pairs(5, [(i, i + 1) for i in range(4)])
        assert eccentricity(p, 0) == 4
        assert eccentricity(p, 2) == 2


class TestDoubleSweep:
    def test_exact_on_trees(self):
        for seed in range(50):
            t = random_tree(3 + (seed * 7) % 60, seed=seed)
            res = double_sweep(t)
            assert res.lower == brute_diameter(t)
            assert res.bfs_count == 3

    def test_lower_bound_holds(self):
        for g in mixed_suite(seed=66, count=25, max_n=80):
            if not g.symmetric:
                continue
            gc = giant_component(g)
            res = double_sweep(gc)
            assert res.lower <= brute_diameter(gc)
            assert res.midpoint_ecc >= (res.lower + 1) // 2

    def test_midpoint_sits_centrally(self):
        p = sym_from_pairs(11, [(i, i + 1) for i in range(10)])
        res = double_sweep(p)
        assert res.lower == 10
        assert res.midpoint == 5

    def test_midpoint_takes_the_lowest_id_step(self):
        # from start 0, y = 3 and z = 0; the walk back from z may step to
        # 1 or 2, and takes 1
        g = sym_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        res = double_sweep(g, start=0)
        assert (res.y, res.z, res.lower) == (3, 0, 2)
        assert res.midpoint == 1

    def test_midpoint_is_on_a_shortest_y_z_path(self):
        for g in mixed_suite(seed=77, count=20, max_n=80):
            if not g.symmetric:
                continue
            gc = giant_component(g)
            for start in (0, gc.n // 2, gc.n - 1):
                res = double_sweep(gc, start=start)
                from_y, from_z = bfs_oracle(gc, res.y), bfs_oracle(gc, res.z)
                assert from_y[res.midpoint] == res.lower // 2
                assert from_z[res.midpoint] == res.lower - res.lower // 2

    def test_requires_symmetry_flag(self):
        # a directed path is refused; paired arcs are accepted
        g = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="symmetric"):
            double_sweep(g)
        g2 = from_pairs(2, [(0, 1), (1, 0)])
        assert g2.symmetric
        assert double_sweep(g2).lower == 1


class TestIfub:
    def test_exact_on_many_graphs(self):
        checked = 0
        for g in mixed_suite(seed=88, count=40, max_n=70):
            if not g.symmetric:
                continue
            gc = giant_component(g)
            res = ifub(gc)
            assert res.exact
            assert res.diameter == brute_diameter(gc)
            assert res.bfs_count <= gc.n + 2
            checked += 1
        assert checked >= 15

    def test_named_small_cases(self):
        assert ifub(cycle(10)).diameter == 5
        assert ifub(cycle(11)).diameter == 5
        assert ifub(grid(4, 9)).diameter == 11
        assert ifub(sym_from_pairs(2, [(0, 1)])).diameter == 1
        assert ifub(from_pairs(1, [])).diameter == 0

    def test_component_restriction(self):
        # two components: a triangle and a 5-path
        pairs = [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 7)]
        g = sym_from_pairs(8, pairs)
        assert ifub(g, start=0).component_size == 3
        assert ifub(g, start=0).diameter == 1
        assert ifub(g, start=3).diameter == 4

    def test_beats_brute_force_on_small_world(self):
        wins = 0
        trials = 10
        for seed in range(trials):
            g = small_world(400, 3, 0.1, seed=seed)
            res = ifub(g)
            assert res.exact
            if res.bfs_count < g.n:
                wins += 1
        assert wins >= 8  # the point of the algorithm

    def test_asymmetric_guard(self):
        # the directed path 0 -> 1 -> 2 -> 3 has no diameter to certify
        g = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="symmetric"):
            ifub(g)
        with pytest.raises(ValueError, match="symmetric"):
            ifub(from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)]))

    def test_paired_arcs_need_no_flag(self):
        g = from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
        assert g.symmetric
        assert ifub(g).diameter == 3

    @pytest.mark.parametrize("write", [save_hbg1, save_hbg2], ids=["hbg1", "hbg2"])
    @pytest.mark.parametrize("search", [ifub, double_sweep])
    def test_one_way_cycle_is_refused_not_walked(self, search, write, tmp_path):
        # the directed 4-cycle in a file whose header says symmetric: the
        # midpoint walk finds no step back on it, so the header must not
        # let it past the check
        write(encode_full(cycle(4, directed=True)), tmp_path / "g.hbg", True)
        g = load(tmp_path / "g.hbg").decode()
        with pytest.raises(ValueError, match="only correct on symmetric graphs"):
            search(g)


class TestComponents:
    def test_labels_in_seed_order(self):
        g = sym_from_pairs(6, [(0, 1), (2, 3), (4, 5)])
        assert component_labels(g).tolist() == [0, 0, 1, 1, 2, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_bfs_per_component(self, data):
        # labels from one oracle BFS per unlabelled seed, in id order
        n = data.draw(st.integers(0, 40))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=60)) if n else []
        g = sym_from_pairs(n, [(a, b) for a, b in pairs if a != b])
        want = np.full(n, -1, dtype=np.int64)
        for seed in range(n):
            if want[seed] < 0:
                want[bfs_oracle(g, seed) >= 0] = want.max() + 1
        got = component_labels(g)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_one_way_arcs_end_in_weak_components(self):
        g = from_pairs(5, [(1, 0), (2, 1), (3, 4)])
        assert not g.symmetric
        labels = component_labels(g)
        assert labels.tolist() == [0, 0, 0, 1, 1]

    def test_long_path_with_shuffled_ids_is_fast(self):
        # min-label propagation needs one round per hop here: minutes
        n = 200_000
        ids = np.random.default_rng(0).permutation(n)
        src = np.concatenate([ids[:-1], ids[1:]])
        dst = np.concatenate([ids[1:], ids[:-1]])
        g = Graph.from_arcs(n, src, dst)
        t0 = time.perf_counter()
        labels = component_labels(g)
        assert time.perf_counter() - t0 < 2.0
        assert not labels.any()

    def test_million_isolated_nodes_under_a_second(self):
        g = from_pairs(1_000_000, [])
        t0 = time.perf_counter()
        labels = component_labels(g)
        assert time.perf_counter() - t0 < 1.0
        assert np.array_equal(labels, np.arange(1_000_000))

    def test_giant_component_picks_largest(self):
        g = sym_from_pairs(7, [(0, 1), (2, 3), (3, 4), (4, 2)])
        gc = giant_component(g)
        assert gc.n == 3
        assert gc.original_ids.tolist() == [2, 3, 4]

    def test_giant_component_tie_takes_smallest_seed(self):
        g = sym_from_pairs(4, [(0, 1), (2, 3)])
        assert giant_component(g).original_ids.tolist() == [0, 1]

    def test_original_ids_map_through(self):
        g = parse_edges(["10 20", "30 40", "40 50"], symmetrize=True)
        gc = giant_component(g)
        assert gc.n == 3
        assert gc.original_ids.tolist() == [30, 40, 50]


def _giant_by_arcs(g):
    """The giant as the arc filter and rebuild that giant_component did."""
    labels = component_labels(g)
    keep = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    src = np.repeat(np.arange(g.n), g.out_degrees())
    mask = remap[src] >= 0
    ids = keep if g.original_ids is None else np.asarray(g.original_ids)[keep]
    return Graph.from_arcs(keep.size, remap[src[mask]], remap[g.indices[mask]], original_ids=ids)


class TestGiantSlice:
    @pytest.mark.parametrize("name", ["dusty", "connected", "dusty-ids", "connected-ids"])
    def test_matches_the_rebuild(self, name):
        if name.startswith("dusty"):
            core = small_world(60, 4, 0.2, seed=3)
            pairs = [(u, v) for u in range(core.n) for v in core.successors(u).tolist()]
            # 30 paths of 1 to 3 nodes after it
            pairs += [(60 + 3 * i + j, 61 + 3 * i + j) for i in range(30) for j in range(i % 3)]
            g = sym_from_pairs(150, pairs)
        else:
            g = small_world(80, 4, 0.2, seed=4)
        if name.endswith("ids"):
            g.original_ids = np.arange(g.n) * 7 + 2**33
        want, got = _giant_by_arcs(g), giant_component(g)
        assert got == want
        assert np.array_equal(got.original_ids, want.original_ids)
        # --start maps to the same node, and the diameter is the same
        for start in want.original_ids[[0, want.n // 2, -1]].tolist():
            local = int(np.searchsorted(got.original_ids, start))
            assert got.original_ids[local] == start
            assert ifub(got, start=local) == ifub(want, start=local)
        if name.startswith("connected"):
            assert got.indices is g.indices

class TestRunLengthBound:
    def test_exact_run_on_connected_graph_hits_diameter(self):
        for g in (cycle(12), grid(5, 6), random_tree(40, seed=2)):
            r = run_exact(g)
            assert run_length_lower_bound(r) == brute_diameter(g)

    def test_sketched_run_never_exceeds(self):
        for g in mixed_suite(seed=99, count=20, max_n=60):
            d = brute_diameter(g)  # largest finite distance, any direction
            for seed in (0, 1):
                r = run(g, m=16, seed=seed)
                assert run_length_lower_bound(r) <= d

    def test_truncated_run_rejected(self):
        g = sym_from_pairs(8, [(i, i + 1) for i in range(7)])
        r = run(g, m=16, seed=0, max_iters=2)
        assert r.truncated
        with pytest.raises(ValueError, match="truncated"):
            run_length_lower_bound(r)

    def test_accepts_plain_record(self):
        r = NeighbourhoodRun("g", 4, 16, 0, [4.0, 8.0, 12.0], 2)
        assert run_length_lower_bound(r) == 2
