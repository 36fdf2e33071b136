import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbgraph import hll
from hbgraph.hll import (
    _INV_POW2,
    _inverse_sum,
    CounterArray,
    alpha,
    estimate_registers,
    eta,
    hash64,
    rho_values,
    words_per_counter,
)
from util import ref_hash64, ref_register_update

U64 = st.integers(0, (1 << 64) - 1)


class TestHash:
    def test_matches_reference(self):
        for x, seed in [(0, 0), (1, 0), (0, 1), (123456789, 42), ((1 << 64) - 1, 7)]:
            assert hash64(x, seed) == ref_hash64(x, seed)

    def test_vector_matches_scalar(self):
        xs = np.array([0, 1, 2, 10**12, (1 << 64) - 1], dtype=np.uint64)
        vec = hash64(xs, seed=9)
        assert vec.dtype == np.uint64
        for x, h in zip(xs.tolist(), vec.tolist()):
            assert h == hash64(x, 9)

    def test_seed_changes_everything(self):
        xs = np.arange(1000, dtype=np.uint64)
        assert not np.any(hash64(xs, 1) == hash64(xs, 2))

    def test_avalanche_rough(self):
        # flipping one input bit should flip about half the output bits
        xs = np.arange(2000, dtype=np.uint64)
        flips = np.bitwise_count(hash64(xs, 0) ^ hash64(xs ^ np.uint64(1), 0))
        assert 28 < flips.mean() < 36

    @settings(max_examples=50, deadline=None)
    @given(U64, st.integers(0, (1 << 63) - 1))
    def test_reference_property(self, x, seed):
        assert hash64(x, seed) == ref_hash64(x, seed)


class TestRho:
    def test_register_index_comes_from_low_bits(self):
        m = 16
        h = np.array([(1 << 10) | 3], dtype=np.uint64)  # low 4 bits = 3
        idx, _ = rho_values(h, m)
        assert idx.tolist() == [3]

    def test_rho_counts_trailing_zeros_of_remainder(self):
        m = 16  # b = 4
        # remainder = h >> 4; rho = trailing zeros of remainder + 1
        cases = [
            (0b1_0000, 1),  # remainder 1
            (0b10_0000, 2),  # remainder 2
            (0b100_0000, 3),
            (0b1000_0000 | 0b1111, 4),  # low bits only pick the register
        ]
        for h, want in cases:
            _, rho = rho_values(np.array([h], dtype=np.uint64), m)
            assert rho.tolist() == [want]

    def test_zero_remainder_gets_full_width(self):
        m = 16
        _, rho = rho_values(np.array([0b0101], dtype=np.uint64), m)
        assert rho.tolist() == [31]  # 65 - 4 = 61, clamped to register max

    def test_kept_below_register_capacity(self):
        xs = np.arange(50000, dtype=np.uint64)
        for m in (16, 64, 256):
            _, rho = rho_values(hash64(xs, 3), m)
            assert rho.min() >= 1
            assert rho.max() <= 31


class TestLayout:
    @pytest.mark.parametrize("m", [16, 32, 64, 128])
    def test_register_matrix_shape(self, m):
        c = CounterArray(7, m=m)
        assert c.registers.shape == (7, m)
        assert c.registers.dtype == np.uint8
        assert c.registers.flags.c_contiguous
        assert words_per_counter(m) * 8 == c.registers[0].nbytes

    def test_register_index_is_column(self):
        # an item lands in the column its hash's low log2(m) bits name
        m, seed = 16, 4
        c = CounterArray(2, m=m, seed=seed)
        c.add_many(np.array([99]), i=1)
        j, rho = rho_values(np.array([hash64(99, seed)], dtype=np.uint64), m)
        want = np.zeros((2, m), dtype=np.uint8)
        want[1, j[0]] = rho[0]
        assert np.array_equal(c.registers, want)


class TestConstants:
    def test_alpha_values(self):
        assert alpha(16) == 0.673
        assert alpha(32) == 0.697
        assert alpha(64) == 0.709
        assert alpha(128) == pytest.approx(0.7213 / (1 + 1.079 / 128))
        assert alpha(4096) == pytest.approx(0.7213 / (1 + 1.079 / 4096))

    def test_eta(self):
        assert eta(16) == pytest.approx(1.06 / 4)
        assert eta(64) == pytest.approx(1.06 / 8)

    def test_m_validation(self):
        for bad in (8, 0, 15, 48, 100):
            with pytest.raises(ValueError):
                CounterArray(1, m=bad)
        CounterArray(1, m=16)  # smallest allowed


class TestCounterArray:
    def test_add_matches_reference(self):
        # one item at a time: the registers after every insertion
        m, seed = 16, 5
        c = CounterArray(1, m=m, seed=seed)
        ref = [0] * m
        for x in range(200):
            c.add_many(np.array([x]))
            ref_register_update(m, ref, x, seed)
            assert c.registers[0].tolist() == ref

    def test_add_many_matches_add(self):
        # one batch, with repeated register indices, against item by item
        m = 64
        c = CounterArray(1, m=m, seed=1)
        items = np.arange(500, dtype=np.uint64)
        c.add_many(items)
        ref = [0] * m
        for x in items.tolist():
            ref_register_update(m, ref, x, 1)
        assert c.registers[0].tolist() == ref

    def test_single_item_small_range_estimate(self):
        # one occupied register: the occupancy correction m*ln(m/(m-1))
        c = CounterArray(1, m=16, seed=0)
        c.add_many(np.array([1234]))
        assert estimate_registers(c.registers[0:1], c.m)[0] == pytest.approx(16 * math.log(16 / 15))

    def test_empty_counter_estimates_zero(self):
        assert estimate_registers(CounterArray(1, m=16).registers, 16)[0] == 0.0

    def test_init_singletons(self):
        n, m = 20, 64
        c = CounterArray(n, m=m, seed=3)
        c.init_singletons()
        ref = [[0] * m for _ in range(n)]
        for i in range(n):
            ref_register_update(m, ref[i], i, 3)
        assert c.registers.tolist() == ref

    def test_init_singletons_custom_keys(self):
        keys = np.array([100, 200, 300], dtype=np.uint64)
        c = CounterArray(3, m=16, seed=1)
        c.init_singletons(keys)
        ref = [[0] * 16 for _ in keys]
        for i, k in enumerate(keys.tolist()):
            ref_register_update(16, ref[i], k, 1)
        assert c.registers.tolist() == ref

    def test_estimate_tracks_cardinality(self):
        c = CounterArray(1, m=1024, seed=7)
        c.add_many(np.arange(100_000, dtype=np.uint64))
        assert abs(estimate_registers(c.registers[0:1], c.m)[0] / 100_000 - 1.0) < 3 * eta(1024)

    def test_duplicates_do_not_inflate(self):
        c = CounterArray(1, m=64, seed=2)
        c.add_many(np.arange(1000, dtype=np.uint64))
        before = c.registers.copy()
        c.add_many(np.arange(1000, dtype=np.uint64))
        assert np.array_equal(c.registers, before)

    def test_union_equals_counter_of_union(self):
        # the elementwise maximum of two rows, as the engine unions them
        m, seed = 64, 11
        a = CounterArray(2, m=m, seed=seed)
        a.add_many(np.arange(0, 600, dtype=np.uint64), i=0)
        a.add_many(np.arange(400, 1000, dtype=np.uint64), i=1)
        whole = CounterArray(1, m=m, seed=seed)
        whole.add_many(np.arange(0, 1000, dtype=np.uint64))
        assert np.array_equal(np.maximum(a.registers[0], a.registers[1]), whole.registers[0])

    def test_estimate_registers_matches_counter(self):
        # every row against the estimator written out in scalar Python:
        # the harmonic mean, or m ln(m / V) while it is <= 5m/2 and V > 0
        # registers are zero; rows run from empty to saturated
        def scalar(row, m):
            raw = alpha(m) * m * m / sum(2.0 ** -int(r) for r in row)
            zeros = sum(1 for r in row if r == 0)
            return m * math.log(m / zeros) if raw <= 2.5 * m and zeros else raw

        for m in (16, 64, 256):
            rng = np.random.default_rng(m)
            sizes = [0, 1, 2, 5, m // 2, m, 2 * m, 3 * m, 10 * m, 1000 * m]
            c = CounterArray(len(sizes) + 2, m=m, seed=9)
            for i, size in enumerate(sizes):
                c.add_many(rng.integers(0, 1 << 62, size=size).astype(np.uint64), i=i)
            c.registers[-2] = rng.integers(0, 4, size=m)  # many zeros, small values
            c.registers[-1] = 31
            # and rows around the switch at 5m/2: a register is k with
            # probability (1 - p) p^k, so the zeros thin out as p grows
            p = rng.uniform(0.5, 0.97, size=(300, 1))
            rows = np.minimum(np.log(rng.random((300, m))) // np.log(p), 31).astype(np.uint8)
            regs = np.concatenate([c.registers, rows])
            est = estimate_registers(regs, m)
            for i, row in enumerate(regs):
                assert est[i] == pytest.approx(scalar(row, m), rel=1e-13, abs=0.0)
            alone = [estimate_registers(c.registers[i : i + 1], m)[0] for i in range(c.count)]
            assert np.array_equal(est[: c.count], alone)
            small = [(row == 0).any() and e <= 2.5 * m for row, e in zip(regs, est)]
            assert est[0] == 0.0 and any(small) and not all(small)  # both branches ran

    def test_estimate_sums_powers_of_two_bit_for_bit(self):
        rng = np.random.default_rng(6)
        # no zero register, so the small-range correction stays out of it
        regs = rng.integers(1, 32, size=(300, 128)).astype(np.uint8)
        z = np.ldexp(1.0, -regs.astype(np.int64)).sum(axis=1)
        want = alpha(128) * 128 * 128 / z
        assert np.array_equal(estimate_registers(regs, 128), want)

    def test_blocks_estimate_every_row_as_alone(self, monkeypatch):
        # 2000 x 64 registers in blocks of 256 rows, the last one partial
        monkeypatch.setattr(hll, "_EST_CELLS", 1 << 14)
        rng = np.random.default_rng(8)
        regs = rng.integers(0, 12, size=(2000, 64)).astype(np.uint8)
        regs[::5] = 0
        regs[1::5, :40] = 0  # small-range correction in both blocks
        want = np.concatenate([estimate_registers(row[None], 64) for row in regs])
        assert np.array_equal(estimate_registers(regs, 64), want)

    @pytest.mark.parametrize("cells", [1 << 6, 1 << 10, None])
    def test_zeros_counted_only_where_the_switch_can_fire(self, monkeypatch, cells):
        # rows on both sides of 5m/2, with and without zero registers,
        # against counting the zeros of every row
        if cells is not None:
            monkeypatch.setattr(hll, "_EST_CELLS", cells)
        m = 64
        rng = np.random.default_rng(3)
        rows = np.minimum(rng.geometric(rng.uniform(0.05, 0.6, (400, 1)), (400, m)) - 1,
                          31).astype(np.uint8)
        edge = np.ones((5, m), dtype=np.uint8)  # raw 2 alpha m: small, no zero
        edge[1, :20] = 0  # small with zeros
        edge[2, 1:] = 31  # one zero left, raw far past 5m/2
        edge[2, 0] = 0
        edge[3] = 31  # large, no zero
        edge[4] = 0  # empty: ln(m / m) = 0
        regs = np.concatenate([edge, rows])
        est = estimate_registers(regs, m)
        raw = alpha(m) * m * m / _INV_POW2[regs].sum(axis=1)
        zeros = (regs == 0).sum(axis=1)
        want = raw.copy()
        small = (raw <= 2.5 * m) & (zeros > 0)
        want[small] = m * np.log(m / zeros[small])
        assert np.array_equal(est, want)
        for side in (raw <= 2.5 * m, raw > 2.5 * m):  # all four kinds of row
            assert (zeros[side] > 0).any() and (zeros[side] == 0).any()

    @pytest.mark.parametrize("m", [16, 32, 64, 128, 256])
    def test_pair_sum_equals_register_sum_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        regs = rng.integers(0, 32, size=(500, m)).astype(np.uint8)
        regs[0], regs[1] = 0, 31  # the extremes of the table
        regs[2, ::2], regs[2, 1::2] = 31, 0
        assert np.array_equal(_inverse_sum(regs), _INV_POW2[regs].sum(axis=1))
        # a strided view reads the same registers
        wide = np.zeros((500, 2 * m), dtype=np.uint8)
        wide[:, ::2] = regs
        assert np.array_equal(_inverse_sum(wide[:, ::2]), _INV_POW2[regs].sum(axis=1))
