"""NumPy's PCG64 streams, made without importing numpy.random.

`Stream` draws what `numpy.random.default_rng(key)` draws, bit for bit, for
the four calls the simulator makes. NumPy's NEP 19 keeps `SeedSequence` and
`PCG64` stable, and the formulas are Generator's own:

- `random`: a double is (word >> 11) * 2^-53;
- `uniform`: lo + (hi - lo) * double;
- `permutation` of a 1-d array: Fisher-Yates from the top, each index by
  `random_interval`, masked `next_uint32` draws until one is at most i;
- `choice` of one element: Lemire's bounded `uint32`.

`next_uint32` hands out a word's low half and keeps the high half for the
next call, as PCG64's `has_uint32` buffer does.

PCG64 steps f(x) = M x + inc mod 2^128, and its `srandom` leaves f(p) with
p = seed + inc, so word j is the XSL-RR output of f^(j + 2)(p). With
M - 1 = 4 o, o odd, f^k(p) = M^k p + (M^k - 1) / (M - 1) inc is D_k g + p
mod 2^128, where D_k = (M^k - 1) / 4 and g = 4 p + inc / o: one 128-bit
product per word with an entry of a table of D_k, and no loop over the
stream. Array arithmetic is uint64 with wrap-around; scalar arithmetic
stays in Python ints, since numpy scalars warn on overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = ["Stream", "seed_blocks", "block_doubles", "uniform"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# streams hashed at once (about 170 bytes each while they hash), so seeding
# holds the same memory at any run length
_SEED_CHUNK = 256
# words a Stream makes at once
_STREAM_WORDS = 1024


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a key entry; 0 is [0]."""
    if value < 0:
        raise ValueError("stream keys must be non-negative")
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash(columns: list[np.ndarray]) -> np.ndarray:
    """(m, 4) uint64 seed rows (g_hi, g_lo, p_hi, p_lo) of m streams, the
    entropy word e of stream r being columns[e][r] (uint32)."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _M32
        value *= const
        return value ^ (value >> 16)

    def mix(x, y):
        x = x * _MIX_L - y * _MIX_R
        return x ^ (x >> 16)

    zero = np.zeros_like(columns[0])
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(column))
    words, const = np.empty((len(pool[0]), 8), "<u4"), _INIT_B  # generate_state(4, uint64)
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value *= const
        words[:, i] = value ^ (value >> 16)
    seed_hi, seed_lo, seq_hi, seq_lo = words.view("<u8").astype(np.uint64, copy=False).T[:, :, None]
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    p_lo = seed_lo + inc_lo
    p_hi = seed_hi + inc_hi + (p_lo < inc_lo)
    g_hi, g_lo = _affine(_INV_O, inc_hi, inc_lo, p_hi << 2 | p_lo >> 62, p_lo << 2)
    return np.concatenate([g_hi, g_lo, p_hi, p_lo], axis=1)


def _seed_range(head: list[int], lo: int, hi: int) -> np.ndarray:
    """Seed rows of the streams (*head, k) for k in lo..hi - 1, head being
    the prefix's words; the rows of each run of equal k >> 32 hash at once."""
    parts = []
    while lo < hi:
        top = min(hi, (lo | _M32) + 1)
        low = np.arange(lo & _M32, (lo & _M32) + top - lo, dtype=np.int64).astype(np.uint32)
        tail = _uint32_words(lo >> 32) if lo >> 32 else []
        columns = [np.full(low.size, w, dtype=np.uint32) for w in head + [0] + tail]
        columns[len(head)] = low
        parts.append(_hash(columns))
        lo = top
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def seed_blocks(
    prefix: tuple[int, ...], first: int, count: int, block: int
) -> Iterator[np.ndarray]:
    """Yield the seed rows of the streams (*prefix, k), k = first..first +
    count - 1, block rows at a time, hashing about _SEED_CHUNK streams at once."""
    if first < 0:
        raise ValueError("stream keys must be non-negative")
    head = [w for key in prefix for w in _uint32_words(key)]
    chunk = block * max(1, _SEED_CHUNK // block)
    for lo in range(first, first + count, chunk):
        rows = _seed_range(head, lo, min(lo + chunk, first + count))
        for k in range(0, len(rows), block):
            yield rows[k : k + block]


def _split(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(4, n) uint64 table of n 128-bit values from their high and low words:
    hi, lo, and lo's low and high halves."""
    return np.stack([hi, lo, lo & _M32, lo >> 32]).reshape(4, -1)


def _column(*values: int) -> list[np.ndarray]:
    """The high and low words of each 128-bit value, as (1, 1) uint64 arrays."""
    return [np.array([[word]], np.uint64) for x in values for word in (x >> 64, x & _M64)]


_INV_O = _split(*_column(pow((_MULT - 1) >> 2, -1, 1 << 128)))


@lru_cache(maxsize=8)
def _jump_table(n: int) -> np.ndarray:
    """The table of D_(j + 2), j < n (a power of two), doubled from D_2:
    since M^h = 4 D_h + 1, D_(k + h) = D_k M^h + D_h."""
    table = _split(*_column(((_MULT * _MULT - 1) >> 2) & _M128))
    while table.shape[1] < n:
        h = table.shape[1]
        power = pow(_MULT, h, 1 << 130)
        hi, lo = _affine(table, *_column(power & _M128, (power - 1) >> 2))
        table = np.concatenate([table, _split(hi, lo)], axis=1)
    return table


def _affine(table: np.ndarray, g_hi, g_lo, p_hi, p_lo) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of table * g + p mod 2^128, for a _split table
    of n values and (m, 1) uint64 columns of g and p: (m, n) each."""
    t_hi, t_lo, t0, t1 = table
    g0, g1 = g_lo & _M32, g_lo >> 32
    shape = (g_lo.shape[0], t_lo.shape[0])
    hi, lo, u, v = (np.empty(shape, np.uint64) for _ in range(4))
    # the high word of t_lo * g_lo from four 32 x 32-bit products
    np.multiply(t1, g1, out=hi)
    np.multiply(t0, g0, out=u)
    u >>= 32
    np.multiply(t1, g0, out=v)
    u += v
    np.multiply(t0, g1, out=v)
    np.bitwise_and(u, _M32, out=lo)
    v += lo
    u >>= 32
    hi += u
    v >>= 32
    hi += v
    for a, b in ((t_hi, g_lo), (t_lo, g_hi)):
        np.multiply(a, b, out=u)
        hi += u
    np.multiply(t_lo, g_lo, out=lo)
    lo += p_lo
    hi += p_hi
    hi += lo < p_lo  # the carry
    return hi, lo


def _words(rows: np.ndarray, n: int) -> np.ndarray:
    """(m, n) uint64: the first n words of the m streams of the seed rows."""
    table = _jump_table(1 << max(n - 1, 0).bit_length())[:, :n]
    hi, lo = _affine(table, rows[:, 0:1], rows[:, 1:2], rows[:, 2:3], rows[:, 3:4])
    # XSL-RR: rotate hi ^ lo right by the top six bits of hi
    lo ^= hi
    hi >>= 58
    turned = lo >> hi
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    lo |= turned
    return lo


def _doubles(words: np.ndarray) -> np.ndarray:
    """Generator.random's doubles of the words: (word >> 11) * 2^-53."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def block_doubles(rows: np.ndarray, n: int) -> np.ndarray:
    """(m, n) float64: Generator.random(n) of each stream of the seed rows."""
    return _doubles(_words(rows, n))


def uniform(lo: float, hi: float, doubles: np.ndarray) -> np.ndarray:
    """Generator.uniform(lo, hi) on the doubles it would draw."""
    lo, hi = float(lo), float(hi)
    return lo + (hi - lo) * doubles


def _jump(g: int, p: int, n: int) -> int:
    """f^n(p) = D_n g + p mod 2^128, g = 4 p + inc / o."""
    return (((pow(_MULT, n, 1 << 130) - 1) >> 2) * g + p) & _M128


class Stream:
    """The draws of numpy.random.default_rng(key) from a seed row of
    seed_blocks, or from the key itself with Stream.of(*key).

    Words are made _STREAM_WORDS at a time: words[used:] are the next ones,
    and p is the position of words[0]."""

    __slots__ = ("p", "e", "words", "used", "half")

    def __init__(self, row: np.ndarray):
        g_hi, g_lo, p_hi, p_lo = (int(x) for x in row)
        self.p = p_hi << 64 | p_lo
        self.e = (g_hi << 64 | g_lo) - 4 * self.p & _M128  # inc / o, fixed
        self.words, self.used = np.empty(0, np.uint64), 0
        self.half = None  # the buffered high half of next_uint32

    @classmethod
    def of(cls, *key: int) -> "Stream":
        return cls(next(seed_blocks(key[:-1], key[-1], 1, 1))[0])

    def _peek(self, n: int) -> np.ndarray:
        """The next n words, not consumed."""
        if self.used + n > self.words.size:
            self.p = _jump(4 * self.p + self.e & _M128, self.p, self.used)
            row = np.hstack(_column(4 * self.p + self.e & _M128, self.p))
            self.words, self.used = _words(row, max(n, _STREAM_WORDS))[0], 0
        return self.words[self.used : self.used + n]

    def random(self, size) -> np.ndarray:
        """Generator.random(size), size an int or a shape."""
        shape = (int(size),) if np.ndim(size) == 0 else tuple(map(int, size))
        count = math.prod(shape)
        out = _doubles(self._peek(count)).reshape(shape)
        self.used += count
        return out

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        return uniform(lo, hi, self.random(size))

    def _halves(self, count: int) -> list[int]:
        """At least count next_uint32 draws from here, consuming none: the
        buffered half, then each following word's low and high halves."""
        halves = [] if self.half is None else [self.half]
        words = self._peek(max(0, -(-(count - len(halves)) // 2)))
        return halves + np.stack([words & _M32, words >> 32], axis=1).ravel().tolist()

    def _consume(self, halves: list[int], used: int) -> None:
        """Step past the first `used` draws of halves, a list from _halves."""
        if used:
            words, odd = divmod(used - (self.half is not None), 2)
            self.half = halves[used] if odd else None
            self.used += words + odd

    def permutation(self, values: np.ndarray) -> np.ndarray:
        """Generator.permutation of a 1-d array: a shuffled copy."""
        values = np.asarray(values)
        order = list(range(values.size))
        halves, used = self._halves(2 * values.size), 0
        for i in range(values.size - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = i + 1
            while j > i:
                if used == len(halves):
                    halves = self._halves(2 * used)
                j = halves[used] & mask
                used += 1
            order[i], order[j] = order[j], order[i]
        self._consume(halves, used)
        return values[order]

    def choice(self, values: np.ndarray):
        """Generator.choice of one element of a non-empty 1-d array."""
        values = np.asarray(values)
        size = values.size
        if size == 0:
            raise ValueError("a cannot be empty unless no samples are taken")
        if size == 1:  # a range of one value draws nothing
            return values[0]
        threshold = ((1 << 32) - size) % size
        halves, used, m = self._halves(2), 0, 0
        while used == 0 or m & _M32 < threshold:
            if used == len(halves):
                halves = self._halves(2 * used)
            m = halves[used] * size
            used += 1
        self._consume(halves, used)
        return values[m >> 32]
