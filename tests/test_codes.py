import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgraph import codes
from hbgraph.codes import (
    CODE_NAMES,
    bit_windows,
    nat_words,
    pack_words,
    read_everywhere,
    read_nats,
    read_runs,
)
from util import BitReader, BitWriter, nat_length, nat_lengths, read_nat, write_nat


def roundtrip(values, code, k=3):
    w = BitWriter()
    for v in values:
        write_nat(w, v, code, k)
    data = w.getvalue()
    r = BitReader(data, bit_limit=w.bit_length)
    out = [read_nat(r, code, k) for _ in values]
    assert r.remaining == 0
    return out, w.bit_length


class TestBitIO:
    def test_write_read_bits(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0, 3)
        w.write_bits(0x1FFFF, 17)
        assert w.bit_length == 24
        r = BitReader(w.getvalue())
        assert r.read_bits(4) == 0b1011
        assert r.read_bits(3) == 0
        assert r.read_bits(17) == 0x1FFFF

    def test_padding_is_zero(self):
        w = BitWriter()
        w.write_bits(0b111, 3)
        data = w.getvalue()
        assert len(data) == 1
        assert data[0] == 0b11100000  # MSB-first, zero padded

    def test_bit_limit_enforced(self):
        w = BitWriter()
        w.write_bits(0b10, 2)
        r = BitReader(w.getvalue(), bit_limit=2)
        r.read_bits(2)
        with pytest.raises(EOFError):
            r.read_bits(1)

    def test_long_unary(self):
        # unary runs longer than the reader's internal scan window
        w = BitWriter()
        w.write_bits(0, 97)
        w.write_bits(1, 1)
        r = BitReader(w.getvalue(), bit_limit=98)
        assert r.read_unary() == 97

    def test_bit_offset_window(self):
        w = BitWriter()
        w.write_bits(0b1010, 4)
        w.write_bits(0b11, 2)
        r = BitReader(w.getvalue(), bit_offset=4, bit_limit=6)
        assert r.read_bits(2) == 0b11
        assert r.remaining == 0


class TestKnownCodewords:
    def test_gamma(self):
        # value v is coded as the classic code of v + 1
        cases = {0: "1", 1: "010", 2: "011", 3: "00100", 6: "00111", 7: "0001000"}
        for v, bits in cases.items():
            w = BitWriter()
            write_nat(w, v, "gamma")
            assert w.bit_length == len(bits)
            got = "".join(
                str((w.getvalue()[i // 8] >> (7 - i % 8)) & 1)
                for i in range(w.bit_length)
            )
            assert got == bits, v

    def test_delta_lengths(self):
        # delta beats gamma from 2^5 on, by construction
        for v in (0, 1, 2, 10, 100, 1000, 10**6):
            lg = nat_length(v, "gamma")
            ld = nat_length(v, "delta")
            if v + 1 >= 32:
                assert ld < lg
        assert nat_length(0, "delta") == 1

    def test_expgolomb(self):
        # gamma of (v >> k) + 1, then the k low bits of v
        cases = {(0, 2): "100", (3, 2): "111", (4, 2): "01000", (5, 2): "01001",
                 (11, 2): "01111", (12, 2): "0010000", (0, 1): "10", (6, 3): "1110"}
        for (v, k), bits in cases.items():
            w = BitWriter()
            write_nat(w, v, "expgolomb", k)
            got = "".join(
                str((w.getvalue()[i // 8] >> (7 - i % 8)) & 1)
                for i in range(w.bit_length)
            )
            assert got == bits, (v, k)
            assert nat_length(v, "expgolomb", k) == len(bits)

    def test_zeta_k1_matches_gamma(self):
        # shape parameter 1 degenerates to gamma's length for every value
        for v in range(200):
            assert nat_length(v, "zeta", 1) == nat_length(v, "gamma")

    def test_lengths_match_written_bits(self):
        values = [0, 1, 2, 3, 7, 8, 63, 64, 12345]
        for code in CODE_NAMES:
            for k in (1, 2, 3, 5) if code in ("zeta", "expgolomb") else (3,):
                for v in values:
                    w = BitWriter()
                    write_nat(w, v, code, k)
                    assert w.bit_length == nat_length(v, code, k), (code, k, v)


class TestRoundTrip:
    @pytest.mark.parametrize("code", CODE_NAMES)
    def test_boundaries(self, code):
        values = [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128,
                  255, 256, 1 << 20, (1 << 20) - 1, (1 << 20) + 1]
        for k in (1, 2, 3, 4, 8) if code in ("zeta", "expgolomb") else (3,):
            out, _ = roundtrip(values, code, k)
            assert out == values

    @pytest.mark.parametrize("k", [1, 2, 8, 31])
    def test_expgolomb_up_to_2_to_63(self, k):
        # the scalar oracle and the array forms, across every gamma prefix
        # length up to the largest natural
        values = [0, 1, (1 << k) - 1, 1 << k, (1 << 40) + 3, (1 << 62) - 1, 1 << 62,
                  (1 << 63) - 2, (1 << 63) - 1] + [(1 << b) - 1 for b in range(1, 64)]
        out, nbits = roundtrip(values, "expgolomb", k)
        assert out == values
        arr = np.array(values, dtype=np.int64)
        words, widths = nat_words(arr, "expgolomb", k)
        assert widths.tolist() == [nat_length(v, "expgolomb", k) for v in values]
        assert int(widths.sum()) == nbits
        data = pack_words(words, widths)
        assert data == written(values, "expgolomb", k)
        starts = (np.cumsum(widths) - widths).astype(np.uint64)
        got, after = read_nats(bit_windows(data), starts, np.full(starts.size, nbits, np.uint64),
                               "expgolomb", k)
        assert got.tolist() == values
        assert after.tolist() == starts[1:].tolist() + [nbits]

    def test_interleaved_codes_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = [int(v) for v in rng.integers(0, 1 << 16, size=40)]
            for code in CODE_NAMES:
                out, nbits = roundtrip(values, code)
                assert out == values
                assert nbits == sum(nat_length(v, code, 3) for v in values)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=30),
        code=st.sampled_from(CODE_NAMES),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_roundtrip_property(self, values, code, k):
        out, _ = roundtrip(values, code, k)
        assert out == values

    def test_array_reader_reads_one_writer_in_rounds(self):
        # one cursor read round by round, as the decoder reads a chunk
        for code in CODE_NAMES:
            w = BitWriter()
            for v in (0, 5, 977):
                write_nat(w, v, code, 2)
            table = bit_windows(w.getvalue())
            pos, end = np.zeros(1, dtype=np.uint64), np.full(1, w.bit_length, dtype=np.uint64)
            got = []
            for _ in range(3):
                value, pos = read_nats(table, pos, end, code, 2)
                got.append(int(value[0]))
            assert got == [0, 5, 977]
            assert int(pos[0]) == w.bit_length == sum(nat_length(v, code, 2) for v in got)


class TestErrors:
    def test_negative_value(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            write_nat(w, -1, "gamma")

    def test_unknown_code(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            write_nat(w, 1, "elias")

    def test_bad_zeta_k(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            write_nat(w, 1, "zeta", 0)
        with pytest.raises(ValueError):
            write_nat(w, 1, "expgolomb", 0)

    def test_truncated_stream(self):
        w = BitWriter()
        write_nat(w, 1000, "gamma")
        r = BitReader(w.getvalue(), bit_limit=5)  # cut mid-codeword
        with pytest.raises(EOFError):
            read_nat(r, "gamma")


def written(values, code, k=3, lead=0):
    """Bytes of BitWriter + write_nat after `lead` zero bits."""
    w = BitWriter()
    w.write_bits(0, lead)
    for v in values:
        write_nat(w, v, code, k)
    return w.getvalue()


class TestArrayForms:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=40),
        code=st.sampled_from(CODE_NAMES),
        k=st.integers(min_value=1, max_value=8),
        lead=st.integers(min_value=0, max_value=7),
    )
    def test_match_scalar_codes_bit_for_bit(self, values, code, k, lead):
        arr = np.array(values, dtype=np.int64)
        assert nat_lengths(arr, code, k).tolist() == [nat_length(v, code, k) for v in values]
        words, widths = nat_words(arr, code, k)
        assert pack_words(words, widths, lead) == written(values, code, k, lead)

    @settings(max_examples=40, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 40),
                st.sampled_from(CODE_NAMES),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=40,
        )
    )
    def test_interleaved_codes_pack_like_one_writer(self, items):
        w = BitWriter()
        words, widths = [], []
        for v, code, k in items:
            write_nat(w, v, code, k)
            word, width = nat_words(np.array([v]), code, k)
            words.append(word)
            widths.append(width)
        if items:
            words, widths = np.concatenate(words), np.concatenate(widths)
        else:
            words, widths = np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
        assert pack_words(words, widths) == w.getvalue()

    def test_words_wider_than_64_bits_are_written_whole(self):
        # gamma of 2^40 - 1 takes 81 bits and of 2^32 - 1 takes 65, all but
        # the last 41 and 33 of them zeros; one-bit zeros in front move
        # them through every bit offset, so they span two and three words
        for code, k in (("gamma", 3), ("zeta", 1)):
            for shift in range(64):
                values = [0] * shift + [(1 << 40) - 1, (1 << 32) - 1, 5]
                words, widths = nat_words(np.array(values), code, k)
                assert widths[shift:].tolist() == [81, 65, 5]
                assert pack_words(words, widths) == written(values, code, k)

    def test_exact_past_2_to_53(self):
        # 2^60 - 1 and 2^63 - 1 round up to a power of two as floats
        values = [(1 << 53) - 1, 1 << 53, (1 << 60) - 2, (1 << 60) - 1, (1 << 63) - 2]
        for code, k in (("gamma", 3), ("zeta", 1), ("zeta", 3)):
            arr = np.array(values, dtype=np.int64)
            assert nat_lengths(arr, code, k).tolist() == [nat_length(v, code, k) for v in values]
            assert pack_words(*nat_words(arr, code, k)) == written(values, code, k)

    def test_codewords_past_64_significant_bits_raise(self):
        # delta of 2^62 is gamma(63) then 62 low bits, 68 of them
        # significant; zeta_8 of 2^62 a stop bit then a 64-bit remainder
        for code, k in (("delta", 3), ("zeta", 8)):
            with pytest.raises(ValueError, match="64 significant bits"):
                nat_words(np.array([1 << 62]), code, k)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            nat_words(np.array([3, -1]))
        with pytest.raises(ValueError):
            nat_lengths(np.array([1]), "elias")
        with pytest.raises(ValueError):
            nat_words(np.array([1]), "zeta", 0)
        for k in (0, 64):
            with pytest.raises(ValueError, match="exp-Golomb parameter"):
                nat_words(np.array([1]), "expgolomb", k)

    def test_empty(self):
        words, widths = nat_words(np.zeros(0, dtype=np.int64), "zeta", 3)
        assert pack_words(words, widths) == b""
        assert pack_words(words, widths, 5) == b"\x00"


def cursors(values, code, k=3, lead=0):
    """(table, starts, ends) of the oracle writer's codewords for values,
    after `lead` zero bits: one cursor per codeword, each ending where
    the stream does."""
    w = BitWriter()
    w.write_bits(0, lead)
    starts = []
    for v in values:
        starts.append(w.bit_length)
        write_nat(w, v, code, k)
    ends = np.full(len(values), w.bit_length, dtype=np.uint64)
    return bit_windows(w.getvalue()), np.array(starts, dtype=np.uint64), ends


class TestArrayReader:
    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=1 << 40),
                st.sampled_from([0, (1 << 32) - 1, 1 << 32, 1 << 40]),
            ),
            max_size=40,
        ),
        code=st.sampled_from(CODE_NAMES),
        k=st.integers(min_value=1, max_value=31),
        lead=st.integers(min_value=0, max_value=70),
    )
    def test_reads_the_oracle_writer_bit_for_bit(self, values, code, k, lead):
        # gamma words of 2^32 and more are wider than 64 bits; no zeta_k
        # codeword with k > 12 fits the 12-bit lookup table
        table, starts, ends = cursors(values, code, k, lead)
        got, after = read_nats(table, starts, ends, code, k)
        assert got.dtype == np.int64 and got.tolist() == values
        assert after.tolist() == starts[1:].tolist() + ends[:1].tolist()

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(min_value=0, max_value=1 << 40), st.sampled_from([0, 1 << 32])),
            min_size=1,
            max_size=200,
        ),
        code=st.sampled_from(CODE_NAMES),
        k=st.integers(min_value=1, max_value=31),
        data=st.data(),
    )
    def test_runs_read_the_oracle_writer(self, values, code, k, data):
        # cursors at some codeword starts, each reading up to the next one
        # or a drawn number of codewords; small passes cut codewords
        table, starts, ends = cursors(values, code, k, data.draw(st.integers(0, 70)))
        cuts = sorted(data.draw(st.sets(st.integers(0, len(values) - 1), min_size=1)))
        bounds = np.append(starts, ends[:1])[cuts[1:] + [len(values)]]
        size = np.diff(cuts + [len(values)])
        count = None
        if data.draw(st.booleans()):
            count = np.array([data.draw(st.integers(0, c)) for c in size])
        run = data.draw(st.sampled_from([64, 300, 4096]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_RUN", run)
            got, took, after = read_runs(table, starts[cuts], bounds, code, k, count)
        want = size if count is None else count
        assert took.tolist() == want.tolist()
        assert got.dtype == np.int64
        assert got.tolist() == [v for c, n in zip(cuts, want) for v in values[c : c + n]]
        assert after.tolist() == np.append(starts, ends[:1])[np.array(cuts) + want].tolist()

    def test_runs_raise_as_reads_do(self):
        # a codeword cut by its cursor's end, and one past 2^63 - 1
        for code, k in (("gamma", 3), ("delta", 3), ("zeta", 3), ("zeta", 20), ("expgolomb", 2),
                        ("expgolomb", 20)):
            table, starts, _ = cursors([7, 1000, 3], code, k)
            with pytest.raises((ValueError, EOFError)):
                read_runs(table, starts[:1], starts[2:] - np.uint64(1), code, k)
        table, starts, ends = cursors([5, 1 << 63], "gamma")
        with pytest.raises(ValueError, match="past 2"):
            read_runs(table, starts[:1], ends[:1], "gamma")

    def test_longest_unary_run_and_beyond(self):
        # gamma (and zeta_1) of 2^63 - 1: 63 zeros, then 64 bits, 127 in all
        for code, k in (("gamma", 3), ("zeta", 1)):
            table, starts, ends = cursors([(1 << 63) - 1, 6], code, k, lead=5)
            got, after = read_nats(table, starts, ends, code, k)
            assert got.tolist() == [(1 << 63) - 1, 6]
            assert int(starts[1] - starts[0]) == 127
        # values past 2^63 - 1, which no int64 holds, raise: 2^63 has 63
        # zeros, the others 64 and 70
        for value in (1 << 63, (1 << 64) - 1, 1 << 70):
            for code, k in (("gamma", 3), ("zeta", 1), ("expgolomb", 1), ("expgolomb", 31)):
                table, starts, ends = cursors([value, 0], code, k, lead=3)
                with pytest.raises(ValueError, match="past 2"):
                    read_nats(table, starts[:1], ends[:1], code, k)
        # a run of 100 zeros that reaches its cursor's end
        w = BitWriter()
        w.write_bits(0, 100)
        table = bit_windows(w.getvalue())
        for code in CODE_NAMES:
            with pytest.raises((ValueError, EOFError)):
                read_nats(table, np.zeros(1, np.uint64), np.full(1, 100, np.uint64), code)

    @pytest.mark.parametrize(
        "code,k", [("gamma", 3), ("delta", 3), ("zeta", 1), ("zeta", 3), ("zeta", 8),
                   ("expgolomb", 2), ("expgolomb", 31)]
    )
    def test_codeword_cut_by_its_end(self, code, k):
        # the codeword is followed by more bits, so the cut is not at the
        # stream's end; the CLI reports both errors as `error:` lines
        for value in (0, 5, 1000, 1 << 32, 1 << 40):
            table, starts, _ = cursors([value, 3], code, k)
            for end in range(int(starts[1])):
                with pytest.raises((ValueError, EOFError)):
                    read_nats(table, starts[:1], np.full(1, end, np.uint64), code, k)

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(min_value=0, max_value=1 << 40),
                                  st.sampled_from([0, 1 << 32])), max_size=40),
        code=st.sampled_from(CODE_NAMES),
        k=st.integers(min_value=1, max_value=31),
        lead=st.integers(min_value=0, max_value=70),
    )
    def test_everywhere_reads_the_oracle_writer_at_its_starts(self, values, code, k, lead):
        w = BitWriter()
        w.write_bits(0, lead)
        starts = []
        for v in values:
            starts.append(w.bit_length)
            write_nat(w, v, code, k)
        got, width = read_everywhere(w.getvalue(), code, k)
        assert got.size == width.size == 8 * len(w.getvalue())
        assert got[starts].tolist() == np.minimum(values, 255).tolist()
        assert width[starts].tolist() == np.diff(starts + [w.bit_length]).clip(max=255).tolist()

    @pytest.mark.parametrize("code,k", [("gamma", 3), ("delta", 3), ("zeta", 1), ("zeta", 2),
                                        ("zeta", 3), ("zeta", 12), ("zeta", 13),
                                        ("expgolomb", 1), ("expgolomb", 2), ("expgolomb", 11),
                                        ("expgolomb", 12), ("expgolomb", 31)])
    def test_everywhere_is_a_read_at_every_bit(self, code, k):
        # random bytes, many of them 0, hold codewords of every length and
        # values past 2^63 - 1, which _read marks with _FAR and more
        rng = np.random.default_rng(k)
        for size in (0, 1, 3, 40, 300):
            data = rng.integers(0, 256, size, dtype=np.uint8)
            data[rng.random(size) < 0.5] = 0
            data = data.tobytes()
            got, width = read_everywhere(data, code, k)
            want, want_width = codes._read(bit_windows(data), np.arange(8 * size, dtype=np.uint64),
                                           code, k)
            assert got.dtype == width.dtype == np.uint8
            assert np.array_equal(got, np.minimum(want, 255))
            assert np.array_equal(width, np.minimum(want_width, 255))

    def test_bad_code(self):
        table, starts, ends = cursors([1], "gamma")
        with pytest.raises(ValueError):
            read_nats(table, starts, ends, "elias")
        with pytest.raises(ValueError):
            read_nats(table, starts, ends, "zeta", 0)

    def test_empty(self):
        none = np.zeros(0, dtype=np.uint64)
        got, after = read_nats(bit_windows(b""), none, none, "zeta", 3)
        assert got.size == after.size == 0

