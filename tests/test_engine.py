import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbgraph.engine as engine
from hbgraph.engine import (
    BudgetExceededError,
    NeighbourhoodRun,
    RunSet,
    error_evolution,
    run,
    run_exact,
    seed_sequence,
)
from hbgraph.distance import jackknife, summarize
from hbgraph.graph import Graph
from util import (
    exact_curve, from_pairs, full_recompute, mixed_suite, small_world, star,
    sym_from_pairs,
)


class TestExactRuns:
    @pytest.mark.parametrize("words", [1, 200, 1 << 15])
    def test_reach_sizes_in_blocks(self, words):
        # 200 words a row make blocks of 81 rows; 2^15 words, one row each
        count = min(300, max(2, (1 << 16) // words))
        rows = np.random.default_rng(words).integers(0, 1 << 63, (count, words), dtype=np.uint64)
        want = [sum(bin(int(v)).count("1") for v in row) for row in rows]
        assert engine._reach_sizes(rows).tolist() == want

    def test_directed_path(self):
        g = from_pairs(3, [(0, 1), (1, 2)])
        r = run_exact(g)
        assert r.values == [3.0, 5.0, 6.0]
        assert r.exact and r.m == 0 and not r.truncated
        assert r.iterations == 2

    def test_star_stabilizes_fast(self):
        out_star = star(21, directed=True)
        r = run_exact(out_star)
        assert r.iterations == 1  # hub reaches all, leaves reach themselves
        assert r.values == [21.0, 41.0]
        sym = run_exact(star(21))
        assert sym.iterations == 2  # leaf-hub-leaf
        assert sym.values[-1] == 21 * 21

    def test_matches_bfs_census(self):
        for g in mixed_suite(seed=41, count=25, max_n=90):
            got = np.asarray(run_exact(g).monotone_values)
            want = exact_curve(g)
            padded = np.full(max(got.size, want.size), want[-1], dtype=float)
            padded[: want.size] = want
            assert np.array_equal(got, padded[: got.size])
            assert got[-1] == want[-1]

    def test_truncation_boundary(self):
        # path has T = 4; a cap of 4 leaves stabilization unconfirmed
        g = from_pairs(5, [(i, i + 1) for i in range(4)])
        assert run_exact(g, max_iters=4).truncated
        assert not run_exact(g, max_iters=5).truncated
        assert run_exact(g, max_iters=2).values == exact_curve(g)[:3].tolist()


class TestApproximateRuns:
    def test_singleton_start_is_deterministic(self):
        # every t=0 counter has exactly one occupied register, so the
        # occupancy correction gives n * 64 * ln(64/63) no matter the seed
        g = from_pairs(10, [])
        for seed in (0, 1, 99):
            r = run(g, m=64, seed=seed)
            assert r.values[0] == pytest.approx(10 * 64 * math.log(64 / 63), rel=1e-12)

    def test_curve_tracks_exact_loosely(self):
        g = sym_from_pairs(60, [(i, (i + 1) % 60) for i in range(60)])
        est = np.asarray(run(g, m=64, seed=5).monotone_values)
        true = exact_curve(g).astype(float)
        width = min(est.size, true.size)
        err = np.abs(est[:width] / true[:width] - 1.0)
        assert err.max() < 0.5  # single run, coarse bound

    def test_seed_changes_values_not_shape(self):
        g = sym_from_pairs(40, [(i, (i + 3) % 40) for i in range(40)])
        a = run(g, m=16, seed=1)
        b = run(g, m=16, seed=2)
        assert a.values != b.values
        assert a.n == b.n

    def test_same_seed_reproduces(self):
        g = sym_from_pairs(30, [(i, (i + 1) % 30) for i in range(30)])
        assert run(g, m=16, seed=9).values == run(g, m=16, seed=9).values

    def test_graph_id_defaults_to_fingerprint(self):
        g = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert run(g, m=16, seed=0).graph_id == g.fingerprint()
        assert run(g, m=16, seed=0, graph_id="tag").graph_id == "tag"

    def test_budget_enforced_with_sizes_in_message(self):
        g = from_pairs(100, [(0, 1)])
        with pytest.raises(BudgetExceededError, match="bytes"):
            run(g, m=64, seed=0, budget_bytes=100)
        run(g, m=64, seed=0, budget_bytes=10_000_000)

    def test_truncated_flag(self):
        g = from_pairs(6, [(i, i + 1) for i in range(5)])
        exact_iters = run_exact(g).iterations
        capped = run(g, m=16, seed=3, max_iters=2)
        assert capped.truncated and capped.iterations == 2
        free = run(g, m=16, seed=3, max_iters=exact_iters + 1)
        assert not free.truncated


class TestSystolic:
    """`run` and `run_exact` recompute only nodes with a changed successor;
    every result must match recomputing every node at every step."""

    def test_bit_identical_to_plain(self):
        for g in mixed_suite(seed=77, count=30, max_n=80):
            for m, seed in ((16, 0), (64, 5)):
                r = run(g, m=m, seed=seed)
                assert (r.values, r.iterations) == full_recompute(g, m, seed)[:2]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_directed_graphs_at_any_cap(self, data):
        # few arcs on up to 40 nodes leave sources, sinks and isolated nodes
        n = data.draw(st.integers(0, 40))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=0 if n == 0 else 80,
        ))
        g = from_pairs(n, sorted({(a, b) for a, b in pairs if a != b}))
        max_iters = data.draw(st.none() | st.integers(0, 12))
        seed = data.draw(st.integers(0, 2**32))
        r = run(g, m=16, seed=seed, max_iters=max_iters)
        want = full_recompute(g, 16, seed, max_iters)
        assert (r.values, r.iterations, r.truncated) == want
        e = run_exact(g, max_iters=max_iters)
        assert (e.values, e.iterations, e.truncated) == full_recompute(g, 0, 0, max_iters)

    def test_cap_at_the_settling_step_is_truncated(self):
        # 0 -> 1 -> 2: step 2 changes only node 0, which has no
        # predecessor, so the dirty set is empty, yet only a third sweep
        # could confirm that nothing moves
        g = from_pairs(3, [(0, 1), (1, 2)])
        for go in (lambda **kw: run(g, m=64, seed=1, **kw), lambda **kw: run_exact(g, **kw)):
            assert go().iterations == 2
            capped = go(max_iters=2)
            assert capped.truncated and capped.values == go().values
            assert not go(max_iters=3).truncated


def hub_graph():
    """Directed: node 0 points at 110 nodes (4 chunks at width 32), node 1
    at 40; 121..129 are sinks and 130..149 isolated."""
    pairs = [(0, j) for j in range(1, 111)]
    pairs += [(1, j) for j in range(60, 100)]
    pairs += [(i, (7 * i + 3) % 130) for i in range(2, 121)]
    pairs += [(i, (13 * i + 5) % 130) for i in range(50, 121)]
    pairs += [(5, 0), (77, 0), (120, 1)]
    return from_pairs(150, sorted({(a, b) for a, b in pairs if a != b}))


def step_by_loop(g, state, reduce_op, active):
    """One step over `active`, one node and one successor at a time."""
    ids, rows = [], []
    for x in active:
        row = state[x].copy()
        for y in g.successors(x):
            row = reduce_op(row, state[y])
        if (row != state[x]).any():
            ids.append(x)
            rows.append(row)
    return ids, np.array(rows, dtype=state.dtype).reshape(len(ids), state.shape[1])


class TestKernel:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunk_width_keeps_values(self, monkeypatch, width):
        graphs = mixed_suite(seed=13, count=6, max_n=70)
        def curves():
            out = []
            for g in graphs:
                out.append((run(g, m=64, seed=7).values, run_exact(g).values))
            return out
        whole = curves()
        monkeypatch.setattr(engine, "_WIDTH", width)  # most nodes become hubs
        assert curves() == whole

    def test_plan_covers_every_arc_once(self):
        g = hub_graph()
        owner, width, targets, heads, extra, home, cuts = engine._plan(g.indptr, g.indices)
        width = width.tolist()
        assert width[0] == owner.size and len(width) == engine._WIDTH
        assert all(a >= b >= 1 for a, b in zip(width, width[1:]))  # longest first
        # column j holds arc j of chunks 0 .. width[j] - 1; read back in
        # chunk order, a node's chunks rebuild its successor list
        chunks = [[] for _ in range(owner.size)]
        for a, k in zip(np.cumsum([0] + width[:-1]), width):
            for c in range(k):
                chunks[c].append(int(targets[a + c]))
        lists = [[] for _ in range(g.n)]
        for x, arcs in zip(owner, chunks):
            assert 1 <= len(arcs) <= engine._WIDTH
            lists[x] += arcs
        for x in range(g.n):
            assert lists[x] == g.successors(x).tolist()
        assert sum(map(len, chunks)) == targets.size == g.num_arcs
        assert np.array_equal(np.sort(owner[heads]), np.flatnonzero(g.out_degrees()))
        # node 0 has four chunks, node 1 two: their later ones, by index
        cuts = cuts.tolist()
        assert [owner[extra[lo:hi]].tolist()
                for lo, hi in zip(cuts[:-1], cuts[1:])] == [[0, 1], [0], [0]]
        assert np.array_equal(owner[extra], owner[home])
        assert np.isin(home, heads).all()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_step_matches_per_node_loop(self, data):
        n = data.draw(st.integers(0, 40))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=0 if n == 0 else 300,
        ))
        g = from_pairs(n, sorted({(a, b) for a, b in pairs if a != b}))
        width = data.draw(st.sampled_from([1, 2, 3, 32]))
        block = data.draw(st.none() | st.integers(1, 5))  # gather rows at a time
        seed = data.draw(st.integers(0, 2**32))
        rng = np.random.default_rng(seed)
        hit = rng.random(n) < 0.5 if data.draw(st.booleans()) else np.ones(n, dtype=bool)
        cases = (
            (np.maximum, rng.integers(0, 32, (n, 16)).astype(np.uint8)),
            (np.bitwise_or, rng.integers(0, 2**64, (n, 2), dtype=np.uint64)),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_WIDTH", width)
            plan = engine._plan(g.indptr, g.indices)
            for reduce_op, state in cases:
                ids, rows = step(state, plan, reduce_op, hit, block)
                want_ids, want_rows = step_by_loop(g, state, reduce_op, active(g, hit))
                order = np.argsort(ids)
                assert ids[order].tolist() == want_ids
                assert np.array_equal(rows[order], want_rows)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    def test_hub_folds_under_a_mask(self, block):
        # node 0 has 110 successors (4 chunks, more than 2 * _WIDTH); with
        # nodes 40 and 77 changed, nodes 0 and 1 are recomputed, and
        # gather blocks of a few rows cut across every column
        g = hub_graph()
        plan = engine._plan(g.indptr, g.indices)
        hit = np.zeros(g.n, dtype=bool)
        hit[[40, 77]] = True
        assert {0, 1} <= set(active(g, hit).tolist())
        rng = np.random.default_rng(block)
        for reduce_op, state in (
            (np.maximum, rng.integers(0, 32, (g.n, 16)).astype(np.uint8)),
            (np.bitwise_or, rng.integers(0, 2**64, (g.n, 2), dtype=np.uint64)),
        ):
            state[40] = 31 if reduce_op is np.maximum else ~np.uint64(0)
            ids, rows = step(state, plan, reduce_op, hit, block)
            want_ids, want_rows = step_by_loop(g, state, reduce_op, active(g, hit))
            assert 0 in want_ids
            order = np.argsort(ids)
            assert ids[order].tolist() == want_ids
            assert np.array_equal(rows[order], want_rows)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_runs_gather_a_few_rows_at_a_time(self, monkeypatch, block):
        whole = [(run(g, m=16, seed=3).values, run_exact(g).values)
                 for g in mixed_suite(seed=5, count=12, max_n=60)]
        monkeypatch.setattr(engine, "_workspace", small_blocks(engine._workspace, block))
        for width in (2, 32):
            monkeypatch.setattr(engine, "_WIDTH", width)
            assert [(run(g, m=16, seed=3).values, run_exact(g).values)
                    for g in mixed_suite(seed=5, count=12, max_n=60)] == whole


def small_blocks(workspace, rows):
    """`workspace` with its gather buffer cut to `rows` rows."""
    def cut(plan, state):
        acc, buf, flags, idx = workspace(plan, state)
        return acc, buf[:rows], flags, idx
    return cut


def step(state, plan, reduce_op, hit, block=None):
    """One kernel step in a fresh workspace, optionally gathering `block`
    rows at a time; checks that the step only reads `state`."""
    acc, buf, flags, idx = engine._workspace(plan, state)
    work = acc, buf[:block], flags, idx  # buf[:None] is all of it
    before = state.copy()
    ids, rows = engine._diffuse(state, plan, work, reduce_op, hit)
    assert np.array_equal(state, before)
    return ids, rows.copy()


def active(g, hit):
    """Nodes with an arc into `hit`, by a loop over the arcs."""
    return np.array([x for x in range(g.n) if hit[g.successors(x)].any()], dtype=np.int64)


def one_way(g):
    """Each edge of a symmetric graph kept in one direction, from the
    smaller id, which leaves sources and sinks."""
    src = np.repeat(np.arange(g.n), g.out_degrees())
    keep = src < g.indices
    return Graph.from_arcs(g.n, src[keep], g.indices[keep])


def dense_digraph():
    """300 nodes with out-degrees 100-298, about 60,000 arcs."""
    rng = np.random.default_rng(0)
    src, dst = [], []
    for u in range(300):
        vs = rng.choice(np.delete(np.arange(300), u), int(rng.integers(100, 299)),
                        replace=False)
        src += [u] * vs.size
        dst += vs.tolist()
    return Graph.from_arcs(300, np.array(src), np.array(dst))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBudget:
    g = small_world(2000, 5, 0.1, 1)

    # at m=2048 the 4,096,000 registers fill four estimate blocks, and the
    # step's accumulator, previous rows and their comparison (3*S) set
    # the peak
    @pytest.mark.parametrize("m", [64, 256, 2048])
    @pytest.mark.parametrize("directed", [False, True])
    def test_formula_bounds_the_traced_peak(self, m, directed):
        g = one_way(self.g) if directed else self.g
        bound = engine._peak_bytes(g, m)
        peak = traced_peak(lambda: run(g, m=m, seed=1, budget_bytes=bound))
        assert peak <= bound <= 1.5 * peak
        with pytest.raises(BudgetExceededError, match=f"needs up to {bound} bytes"):
            run(g, m=m, seed=1, budget_bytes=bound - 1)

    def test_dense_digraph(self):
        # about 200 arcs per node at m=16: the dirty set's flag per arc
        # outweighs the registers
        g = dense_digraph()
        bound = engine._peak_bytes(g, 16)
        assert traced_peak(lambda: run(g, m=16, seed=1)) <= bound

    # exact mode, 8*ceil(n/64) bytes a row: without arcs, the state and
    # the first measure of every row, a block of popcounts at a time, set
    # the peak
    EXACT = {
        "small_world": lambda g: g,
        "one_way": one_way,
        "dense": lambda g: dense_digraph(),
        "star": lambda g: star(4000),
        "path": lambda g: from_pairs(3000, [(i, i + 1) for i in range(2999)]),
        "100_arcs": lambda g: Graph.from_arcs(
            5000, *np.random.default_rng(0).integers(0, 5000, (2, 100))),
        "no_arcs": lambda g: from_pairs(8000, []),
    }

    @pytest.mark.parametrize("shape", list(EXACT))
    def test_exact_formula_bounds_the_traced_peak(self, shape):
        g = self.EXACT[shape](self.g)
        bound = engine._peak_bytes(g, 0)
        peak = traced_peak(lambda: run_exact(g, budget_bytes=bound))
        assert peak <= bound <= 1.5 * peak
        with pytest.raises(BudgetExceededError, match=f"needs up to {bound} bytes"):
            run_exact(g, budget_bytes=bound - 1)


# N(t) as float.hex() on small_world(40, 2, 0.2, 3), recorded with the
# earlier packed 5-bit register layout; the uint8 layout must match it
GOLDEN = {
    (16, 1): [
        "0x1.4a6fee305c888p+5", "0x1.93c7b40c91a5ap+7", "0x1.0304da09f2dbcp+9",
        "0x1.176318e0442ecp+10", "0x1.9fc87527520acp+10", "0x1.bf1fb68ca8cdcp+10",
        "0x1.bfe4415fe6fd4p+10", "0x1.c0005534efdf8p+10",
    ],
    (16, 2): [
        "0x1.4a6fee305c888p+5", "0x1.a7502e1fc8f5ap+7", "0x1.12f925119ff68p+9",
        "0x1.10d62f8ebbb55p+10", "0x1.71a471b7fc9b4p+10", "0x1.aee6e82d43704p+10",
        "0x1.b8d7738bad3f8p+10", "0x1.bb9d3beb8c86bp+10",
    ],
    (64, 1): [
        "0x1.4286beeb82e45p+5", "0x1.940f5de15e89fp+7", "0x1.07c73c94846b4p+9",
        "0x1.e5ba7b8bfa313p+9", "0x1.5a6226a9ab1b2p+10", "0x1.8895a7ae6c93fp+10",
        "0x1.9459c358c8ffcp+10", "0x1.94d07efb76cb6p+10",
    ],
    (64, 2): [
        "0x1.4286beeb82e45p+5", "0x1.9635c65e81d64p+7", "0x1.07f43e226a6f8p+9",
        "0x1.f8fd78a1bebcap+9", "0x1.7c4b5d812a780p+10", "0x1.bc66a0b3223cap+10",
        "0x1.ceeadaff4f27cp+10", "0x1.cfeef0d7ed9c0p+10",
    ],
    "exact": [
        "0x1.4000000000000p+5", "0x1.9000000000000p+7", "0x1.0300000000000p+9",
        "0x1.e500000000000p+9", "0x1.5800000000000p+10", "0x1.8500000000000p+10",
        "0x1.8f80000000000p+10", "0x1.9000000000000p+10",
    ],
}


# N(t) as float.hex() on hub_graph(), recorded with the slab-and-reduceat
# sweep before the column kernel replaced it
GOLDEN_HUB = {
    "plain 64": [
        "0x1.2e5e52fccab61p+7", "0x1.ec6091c3f922ep+8", "0x1.39bd8132f5877p+10",
        "0x1.70b6b588eb75cp+11", "0x1.54d91cded128cp+12", "0x1.077853209c514p+13",
        "0x1.6a118ccbf05eep+13", "0x1.b1f456ea27ad8p+13", "0x1.dc7bdd8ffa886p+13",
        "0x1.fc15102f414a3p+13", "0x1.054c56df7ebf6p+14", "0x1.080f71001b8c9p+14",
        "0x1.09b3da098b100p+14", "0x1.0a1ba6993e0e6p+14",
    ],
    "systolic 128": [
        "0x1.2d2d925bc64a4p+7", "0x1.ec7339ae07842p+8", "0x1.3364a884883fap+10",
        "0x1.629849fb13bfbp+11", "0x1.419f3861cd534p+12", "0x1.e8facd971363ep+12",
        "0x1.4b144e2f8565ap+13", "0x1.86fba59a433f0p+13", "0x1.a998a2f8713d3p+13",
        "0x1.c4089dfaa41a3p+13", "0x1.cf2d464fc73b6p+13", "0x1.d32c060da957cp+13",
        "0x1.d6085010fedb6p+13", "0x1.d65f83acc623cp+13",
    ],
    "exact": [
        "0x1.2c00000000000p+7", "0x1.ec00000000000p+8", "0x1.2f00000000000p+10",
        "0x1.59e0000000000p+11", "0x1.3620000000000p+12", "0x1.d4c0000000000p+12",
        "0x1.3b78000000000p+13", "0x1.7328000000000p+13", "0x1.93d0000000000p+13",
        "0x1.acf8000000000p+13", "0x1.b7b0000000000p+13", "0x1.bb68000000000p+13",
        "0x1.be38000000000p+13", "0x1.be80000000000p+13",
    ],
}


class TestGolden:
    g = small_world(40, 2, 0.2, 3)

    @pytest.mark.parametrize("m, seed", [(16, 1), (16, 2), (64, 1), (64, 2)])
    def test_counter_runs(self, m, seed):
        want = GOLDEN[(m, seed)]
        assert [v.hex() for v in run(self.g, m=m, seed=seed).values] == want

    def test_exact_run(self):
        assert [v.hex() for v in run_exact(self.g).values] == GOLDEN["exact"]

    def test_hub_graph(self):
        g = hub_graph()
        plain = run(g, m=64, seed=1).values
        wide = run(g, m=128, seed=1).values
        assert [v.hex() for v in plain] == GOLDEN_HUB["plain 64"]
        assert [v.hex() for v in wide] == GOLDEN_HUB["systolic 128"]
        assert [v.hex() for v in run_exact(g).values] == GOLDEN_HUB["exact"]


class TestSeedSequence:
    def test_deterministic_and_distinct(self):
        a = seed_sequence(42, 50)
        assert a == seed_sequence(42, 50)
        assert len(set(a)) == 50
        assert a[:10] == seed_sequence(42, 10)

    def test_master_seed_matters(self):
        assert seed_sequence(1, 5) != seed_sequence(2, 5)

    def test_values_are_u64(self):
        assert all(0 <= s < (1 << 64) for s in seed_sequence(7, 100))


class TestRunSet:
    def _runs(self, count=3):
        g = sym_from_pairs(25, [(i, (i + 1) % 25) for i in range(25)])
        return RunSet([run(g, m=16, seed=s, graph_id="g") for s in seed_sequence(1, count)])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RunSet([])
        r = self._runs(2).runs
        with pytest.raises(ValueError, match="duplicate"):
            RunSet([r[0], r[0]])
        other = NeighbourhoodRun("other", 25, 16, 99, [1.0], 0)
        with pytest.raises(ValueError, match="mix"):
            RunSet([r[0], other])

    def test_to_matrix_monotone_and_padded(self):
        rs = self._runs(4)
        mat = rs.to_matrix()
        assert mat.shape[0] == 4
        assert np.all(np.diff(mat, axis=1) >= 0)
        raw = rs.to_matrix(monotone=False)
        assert raw.shape == mat.shape

    def test_to_matrix_pads_with_final_value(self):
        a = NeighbourhoodRun("g", 3, 16, 1, [1.0, 2.0], 1)
        b = NeighbourhoodRun("g", 3, 16, 2, [1.0, 2.0, 5.0], 2)
        mat = RunSet([a, b]).to_matrix()
        assert mat[0].tolist() == [1.0, 2.0, 2.0]

    def test_truncated_runs_refused(self):
        g = from_pairs(6, [(i, i + 1) for i in range(5)])
        rs = RunSet([run(g, m=16, seed=3, graph_id="g"),
                     run(g, m=16, seed=4, max_iters=2, graph_id="g")])
        for use in (rs.to_matrix, lambda: summarize(rs), lambda: jackknife(rs, "mean")):
            with pytest.raises(ValueError, match=r"run\(s\) 1 stopped at max_iters"):
                use()

    def test_save_load_byte_stable(self, tmp_path):
        rs = self._runs()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rs.save(p1)
        RunSet.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = RunSet.load(p1)
        assert [r.values for r in back.runs] == [r.values for r in rs.runs]
        assert [r.seed for r in back.runs] == [r.seed for r in rs.runs]

    def test_save_load_keeps_every_field(self, tmp_path):
        g = from_pairs(6, [(i, i + 1) for i in range(5)])
        sketched = [
            run(g, m=16, seed=3, graph_id="g"),
            run(g, m=16, seed=4, max_iters=2, graph_id="g"),
        ]
        exact = [run_exact(g, graph_id="g"), run_exact(g, max_iters=1, graph_id="g")]
        # complete runs write no key, as in files from before it existed
        assert "truncated" not in sketched[0].to_dict()
        for runs in (sketched, exact):
            assert [r.truncated for r in runs] == [False, True]
            p = tmp_path / "runs.json"
            RunSet(runs).save(p)
            assert RunSet.load(p).runs == runs  # dataclass equality: all fields

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([0, 16, 64, 1024]),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 64) - 1),
                st.lists(st.floats(allow_nan=False), min_size=1, max_size=12),
                st.integers(min_value=0, max_value=10**6),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda row: row[0],
        ),
        graph_id=st.text(max_size=8),
        n=st.integers(min_value=0, max_value=1 << 40),
    )
    def test_save_load_save_property(self, m, rows, graph_id, n):
        # sketched (m > 0) and exact (m = 0) runs with any values, seeds,
        # iteration counts and truncated flags
        runs = [
            NeighbourhoodRun(graph_id, n, m, seed, values, iters, truncated=cut)
            for seed, values, iters, cut in rows
        ]
        with tempfile.TemporaryDirectory() as d:
            first, second = Path(d) / "a.json", Path(d) / "b.json"
            RunSet(runs).save(first)
            back = RunSet.load(first)
            back.save(second)
            assert first.read_bytes() == second.read_bytes()
        assert back.runs == runs

    def test_exactness_is_m_zero(self):
        # run files record exactness only as m_registers: 0
        assert NeighbourhoodRun("g", 3, 0, 0, [3.0], 0).exact
        sketched = NeighbourhoodRun("g", 3, 64, 0, [3.0], 0)
        assert not sketched.exact
        with pytest.raises(ValueError, match="duplicate seeds"):
            RunSet([sketched, sketched])

    def test_exact_runs_allowed_alongside(self):
        g = from_pairs(3, [(0, 1), (1, 2)])
        ex = run_exact(g, graph_id="g")
        # two exact rows share seed 0 but are not treated as duplicates
        RunSet([ex, run_exact(g, graph_id="g")])


class TestErrorEvolution:
    def test_shapes_and_zero_error_on_exact(self):
        g = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        ex = run_exact(g, graph_id="g")
        t, r, dr = error_evolution(ex, ex)
        assert t.tolist() == list(range(len(ex.values)))
        assert np.all(r == 0.0) and np.all(dr == 0.0)

    def test_relative_error_definition(self):
        ex = NeighbourhoodRun("g", 3, 0, 0, [2.0, 4.0], 1)
        est = NeighbourhoodRun("g", 3, 16, 1, [2.2, 5.0], 1)
        _, r, dr = error_evolution(est, ex)
        assert r == pytest.approx([0.1, 0.25])
        assert dr == pytest.approx([0.0, 0.15])  # first step has no predecessor

    def test_pads_shorter_curve(self):
        ex = NeighbourhoodRun("g", 3, 0, 0, [2.0, 4.0, 4.0], 2)
        est = NeighbourhoodRun("g", 3, 16, 1, [2.0, 4.0], 1)
        t, r, _ = error_evolution(est, ex)
        assert t.size == 3 and r[-1] == 0.0

    def test_rejects_mismatched_graphs(self):
        ex = NeighbourhoodRun("g", 3, 0, 0, [2.0], 0)
        est = NeighbourhoodRun("h", 3, 16, 1, [2.0], 0)
        with pytest.raises(ValueError):
            error_evolution(est, ex)

    def test_rejects_nonpositive_exact(self):
        ex = NeighbourhoodRun("g", 3, 0, 0, [0.0, 2.0], 1)
        est = NeighbourhoodRun("g", 3, 16, 1, [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            error_evolution(est, ex)
