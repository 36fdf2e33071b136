"""Instantaneous integer codes, written and read as numpy arrays.

The compressed graph store writes small nonnegative integers with one of
three self-delimiting codes:

* ``gamma``: unary length prefix + binary mantissa, good for tiny values.
* ``delta``: gamma-coded length + mantissa, better past ~32.
* ``zeta_k``: unary count of k-bit groups + truncated binary remainder,
  tuned for power-law gap distributions (k=3 is a good web-graph default).

Every function codes a natural n >= 0 as n + 1, so callers never
special-case zero. Streams are MSB-first within each byte.

`nat_words` gives every value's codeword and `pack_words` packs them.
`read_nats`, their inverse, reads one codeword at each of a vector of
bit cursors and returns the values and the advanced cursors. It looks
codewords of up to 12 bits up in a table per code, indexed by the bits
at the cursor from `bit_windows` (the 64 bits at every byte of the
stream); zeta_k with k > 12 has none that short. It reads longer ones by
arithmetic on the 64 bits at the cursor (a 9-byte gather), with
`_bit_lengths` for the unary part, and a second window for the rest of
one wider than 64 bits (gamma of 2^32 or more). Without the table,
decoding the benchmark graphs took 1.2-1.6 times as long on a 2-core
VM. `read_runs` reads many codewords at a few cursors: it reads one at
every bit of a window and follows the codeword starts, so a long run
costs a read per bit, not a pass per codeword. Values go up to 2^63 - 1.
`read_everywhere` reads a codeword at every bit of a byte string, eight
table lookups per byte, with value and width capped at 255, for a reader
that follows codeword starts it does not know in advance.
The scalar bit writer and reader these replaced are the oracle the tests
check them against (tests/util.py).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["nat_words", "pack_words", "bit_windows", "read_nats", "read_runs", "read_everywhere",
           "CODE_NAMES"]

CODE_NAMES = ("gamma", "delta", "zeta")


_ONE = np.uint64(1)


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """Bit length of every positive uint64, exact past 2^53."""
    b = np.frexp(x.astype(np.float64))[1].astype(np.uint64)
    # the float conversion can round up to the next power of two
    return b - ((x >> (b - _ONE)) == 0)


def nat_words(values, code: str = "gamma", k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The (words, widths) of every value's codeword.

    Codeword i is the low widths[i] bits of words[i], MSB-first. A word
    wider than 64 bits (gamma of 2^32 or more) starts with zeros, which
    its width counts. A codeword with more than 64 significant bits
    (delta or zeta of values near 2^63) raises ValueError.
    """
    v = np.asarray(values)
    if v.size and v.min() < 0:
        raise ValueError("cannot code negative values")
    x = v.astype(np.uint64) + _ONE
    b = _bit_lengths(x)
    if code == "gamma":
        return x, (2 * b - _ONE).astype(np.int64)
    if code == "delta":
        lb = _bit_lengths(b)
        low = b - _ONE
        if b.size and int((lb + low).max()) > 64:
            raise ValueError("a codeword has more than 64 significant bits")
        return (b << low) | (x ^ (_ONE << low)), (2 * lb + low - _ONE).astype(np.int64)
    if code == "zeta":
        if k < 1:
            raise ValueError("zeta shrinking parameter k must be >= 1")
        kk = np.uint64(k)
        hk = (b - _ONE) // kk * kk
        base = _ONE << hk
        rem = x - base
        # minimal binary code over [0, 2^hk (2^k - 1)): for k > 1 the first
        # 2^hk values take hk + k - 1 bits and the rest hk + k bits shifted
        # up by 2^hk; for k = 1 every value takes hk bits
        short = base if k > 1 else np.zeros_like(base)
        is_short = rem < short
        width = (hk + kk if k > 1 else hk) - is_short
        if b.size and int(width.max()) > 63:
            raise ValueError("a codeword has more than 64 significant bits")
        payload = np.where(is_short, rem, rem + short)
        return (_ONE << width) | payload, (hk // kk + _ONE + width).astype(np.int64)
    raise ValueError(f"unknown code {code!r}")


def pack_words(words: np.ndarray, widths: np.ndarray, lead: int = 0) -> bytes:
    """Codewords in order, MSB-first, zero-padded to a whole byte.

    The first word starts after `lead` zero bits. Each word's significant
    bits (at most 64, the last of its width) are ORed into one or two
    big-endian 64-bit output words.
    """
    end = np.cumsum(widths, dtype=np.int64)
    end += lead
    total = int(end[-1]) if end.size else lead
    size = np.minimum(widths, 64)
    start = end - size
    del end
    slot = start >> 6
    spare = 64 - (start & 63) - size  # free bits after the word in its slot
    del start, size
    out = np.zeros(total // 64 + 2, dtype=np.uint64)
    left = np.maximum(spare, 0).astype(np.uint64)
    right = np.maximum(-spare, 0).astype(np.uint64)
    np.bitwise_or.at(out, slot, words << left >> right)
    split = spare < 0
    np.bitwise_or.at(out, slot[split] + 1, words[split] << (64 + spare[split]).astype(np.uint64))
    return out.astype(">u8").tobytes()[: (total + 7) // 8]


def bit_windows(data) -> np.ndarray:
    """The table `read_nats` reads: the 64 bits that start at each byte
    of `data` and of the zeros after it, as far as a cursor can look."""
    raw = np.frombuffer(data, dtype=np.uint8)
    buf = np.zeros(raw.size + 32, dtype=np.uint8)
    buf[: raw.size] = raw
    return np.ndarray((raw.size + 25,), ">u8", buf, 0, (1,)).astype(np.uint64)


def _peek(table: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 64 bits at each bit cursor: the window of its byte shifted
    left by its bit within the byte, and the 9th byte's bits after them
    (numpy shifts a uint64 by 64 or more to 0)."""
    i, s = pos >> 3, pos & 7
    return (table[i] << s) | (table[i + 8] >> (64 - s))


def _field(table, w, pos, skip, width):
    """The `width` bits (at most 64) that start `skip` bits past each
    cursor, from its window `w` where they fit, else from a second one."""
    out = (w << skip) >> (64 - width)
    far = skip + width > 64
    if far.any():
        out[far] = _peek(table, pos[far] + skip[far]) >> (64 - width[far])
    return out


def _read_long(table, pos, code: str, k: int):
    """(value + 1, width) of the codeword at each cursor, by arithmetic;
    value + 1 is 0 where the codeword codes a value past 2^63 - 1."""
    w = _peek(table, pos)
    u = 64 - _bit_lengths(w | _ONE)  # zeros before the stop bit
    ok = w > 0  # else 64 zeros or more
    if code == "gamma":
        x, width = _field(table, w, pos, u, u + 1), 2 * u + 1
    elif code == "delta":
        b = _field(table, w, pos, u, u + 1) - _ONE  # bits after the leading 1
        ok &= b < 64
        x, width = (_ONE << b) | _field(table, w, pos, 2 * u + 1, b), 2 * u + 1 + b
    else:
        kk = np.uint64(k)
        hk = u * kk
        ok &= hk + kk <= 64
        # hk + k bits after the stop bit: a short codeword is one bit less
        x = _field(table, w, pos, u + 1, hk + kk)
        short = _ONE << hk
        is_short = (x >> _ONE) < short
        x, width = np.where(is_short, short + (x >> _ONE), x), u + 1 + hk + kk - is_short
    return np.where(ok, x, 0), width


_SHORT = 12  # codewords this short are read by table lookup


@lru_cache(maxsize=40)
def _short_table(code: str, k: int) -> np.ndarray:
    """(value + 1) << 8 | width of the codeword that each _SHORT-bit
    pattern starts with, or 0 where that codeword is longer (read-only)."""
    words, widths = nat_words(np.arange(1 << _SHORT), code, k)
    free = (_SHORT - widths).astype(np.uint64)
    fit = np.flatnonzero(widths <= _SHORT)
    pattern = np.arange(1 << _SHORT, dtype=np.uint64)
    table = np.zeros(pattern.size, dtype=np.uint64)
    if fit.size:  # zeta_k has none for k > _SHORT
        fit = fit[np.argsort(words[fit] << free[fit])]  # by the smallest pattern each starts
        free, first = free[fit], words[fit] << free[fit]
        i = np.maximum(np.searchsorted(first, pattern, side="right") - 1, 0)
        entry = ((fit[i] + 1) << 8 | widths[fit[i]]).astype(np.uint64)
        table = np.where(pattern >> free[i] == first[i] >> free[i], entry, table)
    table.flags.writeable = False
    return table


_FAR = _ONE << 63  # values from here on code no int64 natural


def _read(table, pos, code: str, k: int):
    """(value, width) of the codeword at each cursor, value as uint64
    and _FAR or more where it codes a value past 2^63 - 1."""
    if code == "zeta" and k == 1:
        code = "gamma"  # zeta_1 codes every value as gamma does
    # at least 57 bits at each cursor, enough for a short codeword
    entry = _short_table(code, k)[(table[pos >> 3] << (pos & 7)) >> (64 - _SHORT)]
    x, width = entry >> 8, entry & 255
    long = width == 0
    if long.any():
        x[long], width[long] = _read_long(table, pos[long], code, k)
    return x - _ONE, width


@lru_cache(maxsize=40)
def _capped_table(code: str, k: int) -> np.ndarray:
    """_short_table as min(value, 255) << 8 | width, little-endian uint16."""
    entry = _short_table(code, k)
    value = np.minimum((entry >> 8) - _ONE, 255)  # where a codeword fits
    table = np.where(entry & 255, value << 8 | (entry & 255), 0).astype("<u2")
    table.flags.writeable = False
    return table


def read_everywhere(data, code: str = "gamma", k: int = 3):
    """_read at every bit of `data`: the value of the codeword that starts
    at bit 8i + s (byte i, s from its top bit) and its width, each as
    uint8, 255 standing for 255 or more (and for a value past 2^63 - 1).
    Eight passes, one per s, look short codewords up from the 32 bits at
    each byte; the longer ones are read by arithmetic."""
    if code == "zeta" and k == 1:
        code = "gamma"
    raw = np.frombuffer(data, dtype=np.uint8)
    buf = np.zeros(raw.size + 3, dtype=np.uint8)
    buf[: raw.size] = raw
    words = np.ndarray((raw.size,), ">u4", buf, 0, (1,)).astype(np.uint32)
    table = _capped_table(code, k)
    entry = np.empty((raw.size, 8), dtype="<u2")
    for s in range(8):  # a short codeword at bit s lies in bits s..s + _SHORT - 1 of the word
        np.take(table, (words >> np.uint32(32 - _SHORT - s)) & np.uint32((1 << _SHORT) - 1),
                out=entry[:, s])
    pairs = entry.reshape(-1).view(np.uint8)  # width, value, width, value, ...
    value, width = pairs[1::2].copy(), pairs[0::2].copy()
    long = np.flatnonzero(width == 0)
    if long.size:
        x, w = _read_long(bit_windows(data), long.astype(np.uint64), code, k)
        value[long], width[long] = np.minimum(x - _ONE, 255), np.minimum(w, 255)
    return value, width


def read_nats(table, pos, end, code: str = "gamma", k: int = 3):
    """Inverse of nat_words: the natural coded at each bit cursor.

    `table` is bit_windows(stream); `pos` and `end` are uint64 bit
    positions with pos <= end <= the stream's length in bits. Returns
    the int64 values and the cursors past their codewords. A codeword
    that runs past its cursor's end raises EOFError; one that codes a
    value past 2^63 - 1 raises ValueError.
    """
    value, width = _read(table, pos, code, k)
    if (value >= _FAR).any():
        raise ValueError("a codeword codes a value past 2^63 - 1")
    pos = pos + width
    if (pos > end).any():
        raise EOFError("bit stream exhausted")
    return value.view(np.int64), pos


_RUN = 1 << 12  # bits a pass of read_runs reads a codeword at


def read_runs(table, pos, end, code: str = "gamma", k: int = 3, count=None):
    """read_nats repeated at each cursor up to its end or, where `count`
    is given, count[i] times: the values cursor-major, each cursor's
    count of them and the advanced cursors. A pass reads a codeword at
    every bit of windows of _RUN bits in all, split among the cursors,
    and follows each one's codeword starts in Python: a long run costs
    a read per bit, not a numpy pass per codeword. Errors are read_nats'.
    """
    pos, got, who = pos.copy(), [], []
    left = (end - pos if count is None else count).astype(np.int64)  # a codeword has >= 1 bit
    while (act := np.flatnonzero((pos < end) & (left > 0))).size:
        span = np.minimum(end[act] - pos[act], np.uint64(max(_RUN // act.size, 64)))
        first = np.cumsum(span) - span  # where each cursor's window starts in `at`
        at = np.repeat(pos[act] - first, span.astype(np.int64))
        value, width = _read(table, at + np.arange(at.size, dtype=np.uint64), code, k)
        step, hits, stops = width.tolist(), [], []
        for j, stop, todo in zip(first.tolist(), (first + span).tolist(), left[act].tolist()):
            while j < stop and todo:
                hits.append(j)
                j, todo = j + step[j], todo - 1
            stops.append(j)
        if (value[hits] >= _FAR).any():
            raise ValueError("a codeword codes a value past 2^63 - 1")
        took = np.bincount(np.searchsorted(first, hits, side="right") - 1, minlength=act.size)
        pos[act] += np.array(stops, dtype=np.uint64) - first
        left[act] -= took
        got.append(value[hits])
        who.append(np.repeat(act, took))
    if (pos > end).any():
        raise EOFError("bit stream exhausted")
    who = np.concatenate(who + [act])  # act is empty by now
    values = np.concatenate(got + [np.zeros(0, dtype=np.uint64)])[np.argsort(who, kind="stable")]
    return values.view(np.int64), np.bincount(who, minlength=pos.size), pos
