"""HyperLogLog counter arrays.

A counter approximates the size of a node set with m registers of one
byte each; a register never holds more than 31. A batch of counters is
one C-contiguous (count, m) uint8 matrix, so a union is an elementwise
maximum of rows. The estimator is the classic harmonic mean with the
small-range correction; by design there is no large-range correction
(64-bit hashes make collisions irrelevant at any realistic scale).

The relative standard deviation guarantee is eta_m = 1.06/sqrt(m): about
13.25% for m=64 and 18.7% for m=32.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CounterArray",
    "hash64",
    "alpha",
    "eta",
]

_RHO_MAX = 31  # register ceiling

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-k for every byte value k (registers stay <= 31)
_INV_POW2 = np.ldexp(1.0, -np.arange(256))
# 2^-a + 2^-b at index 256*a + b: a register matrix viewed as uint16
# looks up two terms at once, in either byte order since the table is
# symmetric
_PAIR_INV_POW2 = np.add.outer(_INV_POW2, _INV_POW2).ravel()
# registers per block in estimate_registers: caps the lookup's index and
# terms at 64 KiB each
_EST_CELLS = 1 << 14


def _mix64(z: np.ndarray | int):
    """splitmix-style avalanche finalizer (bijective on 64 bits)."""
    if isinstance(z, np.ndarray):
        z = z ^ (z >> _U64(30))
        z = z * _U64(_MIX1)
        z = z ^ (z >> _U64(27))
        z = z * _U64(_MIX2)
        return z ^ (z >> _U64(31))
    z &= _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def hash64(x, seed: int = 0):
    """64-bit keyed hash of item ids; accepts a scalar or a uint64 array."""
    salt = _mix64((seed + _GOLDEN) & _MASK64)
    if isinstance(x, np.ndarray):
        return _mix64(x.astype(_U64) ^ _U64(salt))
    return _mix64((int(x) & _MASK64) ^ salt)


def alpha(m: int) -> float:
    """Bias-correction constant of the harmonic-mean estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def eta(m: int) -> float:
    """Guaranteed relative standard deviation for m registers."""
    return 1.06 / math.sqrt(m)


def _check_m(m: int) -> None:
    if m < 16 or m & (m - 1):
        raise ValueError(f"register count m={m} must be a power of two >= 16")


def words_per_counter(m: int) -> int:
    """64-bit words that the m one-byte registers of one counter occupy.

    Nothing in the package calls it: the benchmark (`perfbench/run.py
    --trace 1`) imports it to size a counter.
    """
    return m // 8


def rho_values(hashes: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split hashes into (register index, rho) pairs.

    The low log2(m) bits pick the register; rho is 1 + the count of
    trailing zeros of the remaining bits, capped at 31 (an all-zero
    remainder would otherwise ask for 65 - log2(m)).
    """
    b = m.bit_length() - 1
    j = (hashes & _U64(m - 1)).astype(np.int64)
    rem = hashes >> _U64(b)
    tz = np.bitwise_count(~rem & (rem - _U64(1)))
    rho = np.minimum(tz.astype(np.int64) + 1, _RHO_MAX)
    return j, rho.astype(np.uint8)


def _inverse_sum(regs: np.ndarray) -> np.ndarray:
    """sum(2^-M_j) of every (N, m) register row, two registers a lookup.

    The terms are added by a matrix-vector product. Every term is a
    multiple of 2^-31 and a row sums to at most m, so for m <= 2^21
    every partial sum is exact and no order of addition changes a bit.
    """
    pairs = np.ascontiguousarray(regs).view(np.uint16)
    return np.take(_PAIR_INV_POW2, pairs, mode="clip") @ np.ones(pairs.shape[1])


def estimate_registers(regs: np.ndarray, m: int) -> np.ndarray:
    """Cardinality estimates for (N, m) register rows.

    Harmonic mean alpha_m * m^2 / sum(2^-M_j), swapped for m*ln(m/V) when
    the raw value is <= 5m/2 and V registers are still zero; only those
    rows have their zeros counted. Rows go in blocks of at most
    max(_EST_CELLS, m) registers, so the temporaries (an intp index and a
    float64 term per register pair, 8 bytes a register) stay within one
    block.
    """
    step = max(1, _EST_CELLS // m)
    inv = np.empty(len(regs))
    for i in range(0, len(regs), step):
        inv[i : i + step] = _inverse_sum(regs[i : i + step])
    est = (alpha(m) * m * m) / inv
    small = np.flatnonzero(est <= 2.5 * m)
    for i in range(0, small.size, step):
        rows = small[i : i + step]
        zeros = (regs[rows] == 0).sum(axis=1)
        rows, zeros = rows[zeros > 0], zeros[zeros > 0]
        est[rows] = m * np.log(m / zeros)
    return est


class CounterArray:
    """A batch of HyperLogLog counters sharing one (m, seed) hash setup.

    `registers` is the (count, m) uint8 matrix; row i is counter i.
    """

    __slots__ = ("count", "m", "seed", "registers")

    def __init__(self, count: int, m: int = 64, seed: int = 0):
        _check_m(m)
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = int(count)
        self.m = int(m)
        self.seed = int(seed) & _MASK64
        self.registers = np.zeros((self.count, self.m), dtype=np.uint8)

    def add_many(self, items: np.ndarray, i: int = 0) -> None:
        """Fold a whole array of items into counter i (vectorized)."""
        h = hash64(np.asarray(items), self.seed)
        j, rho = rho_values(h, self.m)
        np.maximum.at(self.registers[i], j, rho)

    def init_singletons(self, keys: np.ndarray | None = None) -> None:
        """Counter i := {key_i} for all i in one shot (engine start state)."""
        keys = np.arange(self.count, dtype=np.int64) if keys is None else np.asarray(keys)
        if keys.shape != (self.count,):
            raise ValueError("need exactly one key per counter")
        j, rho = rho_values(hash64(keys, self.seed), self.m)
        self.registers[:] = 0
        self.registers[np.arange(self.count), j] = rho
