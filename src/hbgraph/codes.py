"""Bit-level stream I/O and instantaneous integer codes.

The compressed graph store writes small nonnegative integers with one of
three self-delimiting codes:

* ``gamma``: unary length prefix + binary mantissa, good for tiny values.
* ``delta``: gamma-coded length + mantissa, better past ~32.
* ``zeta_k``: unary count of k-bit groups + truncated binary remainder,
  tuned for power-law gap distributions (k=3 is a good web-graph default).

All public read/write helpers operate on *naturals* (n >= 0) by coding
n + 1 internally, so callers never special-case zero. Streams are MSB-first
within each byte.

`nat_lengths`, `nat_words` and `pack_words` are the array forms of
`nat_length`, `write_nat` and `BitWriter`: they code a whole numpy array
of naturals at once and produce the same bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitWriter",
    "BitReader",
    "write_nat",
    "read_nat",
    "nat_length",
    "nat_lengths",
    "nat_words",
    "pack_words",
    "coder",
    "CODE_NAMES",
]

CODE_NAMES = ("gamma", "delta", "zeta")


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


# ---- positive-integer codes (v >= 1) ----


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


# ---- natural-number API (n >= 0, codes n + 1) ----


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


# ---- array forms ----

_ONE = np.uint64(1)


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """Bit length of every positive uint64, exact past 2^53."""
    b = np.frexp(x.astype(np.float64))[1].astype(np.uint64)
    # the float conversion can round up to the next power of two
    return b - ((x >> (b - _ONE)) == 0)


def _check_fits(bits: np.ndarray) -> None:
    if bits.size and int(bits.max()) > 64:
        raise ValueError("a codeword has more than 64 significant bits")


def nat_words(values, code: str = "gamma", k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Array form of write_nat: the (words, widths) of every value.

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
        _check_fits(lb + low)
        return (b << low) | (x ^ (_ONE << low)), (2 * lb + low - _ONE).astype(np.int64)
    if code == "zeta":
        _check_zeta_k(k)
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
        _check_fits(width + _ONE)
        payload = np.where(is_short, rem, rem + short)
        return (_ONE << width) | payload, (hk // kk + _ONE + width).astype(np.int64)
    raise ValueError(f"unknown code {code!r}")


def nat_lengths(values, code: str = "gamma", k: int = 3) -> np.ndarray:
    """Array form of nat_length: the bit length of every value's codeword."""
    return nat_words(values, code, k)[1]


def pack_words(words: np.ndarray, widths: np.ndarray, lead: int = 0) -> bytes:
    """Array form of BitWriter: codewords in order, MSB-first, zero-padded.

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


def coder(code: str, k: int = 3):
    """Bind (write, read, length) closures for one code choice."""
    if code not in CODE_NAMES:
        raise ValueError(f"unknown code {code!r}; expected one of {CODE_NAMES}")
    if code == "zeta":
        _check_zeta_k(k)

    def write(w: BitWriter, n: int) -> None:
        write_nat(w, n, code, k)

    def read(r: BitReader) -> int:
        return read_nat(r, code, k)

    def length(n: int) -> int:
        return nat_length(n, code, k)

    return write, read, length
