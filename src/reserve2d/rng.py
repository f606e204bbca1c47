"""Deterministic splittable random streams.

Every randomized routine in this package draws from a :class:`SplitStream`.
A stream is identified by a 64-bit key; its outputs are the splitmix64
sequence for that key, and child streams are derived by mixing the key with
the child's index.  This gives

* reproducibility: one seed determines every draw, independent of iteration
  order or platform;
* cheap independent substreams: one department / replication / diagnostic
  gets its own stream without consuming draws from any other;
* exact rational Bernoulli draws via rejection sampling, so lottery
  probabilities like 7/24 are honoured exactly rather than through floats.

A stream's u64 number n depends only on its key and n, so :func:`_mix_lanes`
mixes u64s of any streams side by side, as the lanes of one integer: the roster
descents and every rounding walk read batches of them, and a run all at once.
The output function is a bijection: :func:`_unmix64` inverts it, and
:func:`_index_of` finds the n at which a stream outputs a given u64.

The algorithm identifier below is recorded in report metadata so that
archived outputs name the generator that produced them.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from sys import byteorder

ALGORITHM = "splitmix64-tree/v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 sequence increment
# The multipliers of splitmix64's output function (Stafford variant 13).
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_INV, _MIX1_INV, _MIX2_INV = (pow(m, -1, 1 << 64) for m in (_GAMMA, _MIX1, _MIX2))
_WORDS = 1 if byteorder == "little" else -1  # words[::_WORDS]: an array("Q") of an int's bytes, lowest first


def _mix64(z: int) -> int:
    # splitmix64 output function; the u64 with index n is _mix64(key + n * _GAMMA).
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _unmix64(u: int) -> int:
    """The inverse of :func:`_mix64`; for 3s >= 64, z = x ^ x >> s gives x = z ^ z >> s ^ z >> 2s."""
    u = (u ^ u >> 31 ^ u >> 62) * _MIX2_INV & _MASK64
    u = (u ^ u >> 27 ^ u >> 54) * _MIX1_INV & _MASK64
    return u ^ u >> 30 ^ u >> 60


def _index_of(key: int, u: int) -> int:
    """The n (mod 2**64) at which stream ``key``'s u64 number n is ``u``."""
    return (_unmix64(u) - key) * _GAMMA_INV & _MASK64


def _pack(values: list[int]) -> int:
    """``values``, each below 2**64, as the low words of the 128-bit lanes of one int, the first lowest."""
    words = array("Q", bytes(16 * len(values)))
    words[::2] = array("Q", values)
    return int.from_bytes(words[::_WORDS], byteorder)


@lru_cache(maxsize=128)
def _lanes(count: int) -> tuple[int, int, int]:
    """A 1 in each of ``count`` 128-bit lanes, lane i's i * _GAMMA, and every low word."""
    return (ones := _pack([1] * count)), _pack([i * _GAMMA & _MASK64 for i in range(count)]), ones * _MASK64


def _mix_lanes(z: int, count: int):
    """:func:`_mix64` of the low word of each of the ``count`` 128-bit lanes of ``z``, lowest first."""
    if count == 1:
        return (_mix64(z & _MASK64),)
    low = _lanes(count)[2]
    z &= low  # each lane is cut to its low word here and before every multiply
    z = ((z ^ z >> 30) & low) * _MIX1 & low
    z = ((z ^ z >> 27) & low) * _MIX2 & low
    return array("Q", (z ^ z >> 31).to_bytes(16 * count, byteorder))[::2 * _WORDS]


def _u64s(key: int, n: int, count: int):
    """u64s n+1 .. n+count of stream ``key``, mixed side by side in one :func:`_mix_lanes` pass."""
    ones, steps, _ = _lanes(count)
    return _mix_lanes((key + (n + 1) * _GAMMA & _MASK64) * ones + steps, count)


class SplitStream:
    """A deterministic random stream with derivable child streams."""

    __slots__ = ("key", "_n")

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.key = seed
        self._n = 0

    def child(self, index: int) -> "SplitStream":
        """Derive the ``index``-th child stream without consuming draws."""
        if index < 0:
            raise ValueError(f"child index must be nonnegative, got {index}")
        child = object.__new__(SplitStream)  # _mix64 keeps the key below 2**64
        child.key, child._n = _mix64(self.key ^ (_GAMMA * (2 * index + 1) & _MASK64)), 0
        return child

    def next_u64(self) -> int:
        self._n += 1
        return _mix64((self.key + self._n * _GAMMA) & _MASK64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), exactly (rejection sampling).

        A bound up to 2**64 reads one u64 per attempt; a wider one reads
        ceil(log2(n) / 64) of them, most significant first.
        """
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        if n <= 1 << 64:
            limit = (1 << 64) - ((1 << 64) % n)
            while True:
                u = self.next_u64()
                if u < limit:
                    return u % n
        words = -(-(n - 1).bit_length() // 64)
        limit = (1 << 64 * words) - (1 << 64 * words) % n
        while True:
            u = 0
            for _ in range(words):
                u = u << 64 | self.next_u64()
            if u < limit:
                return u % n

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly ``p`` (a rational in [0, 1])."""
        if p < 0 or p > 1:
            raise ValueError(f"Bernoulli probability must lie in [0, 1], got {p}")
        if p.denominator == 1:
            return p.numerator == 1
        return self.randrange(p.denominator) < p.numerator


def _batched(rng, _next_u64=SplitStream.next_u64) -> bool:
    """Whether ``rng``'s class keeps ``SplitStream.next_u64`` as imported, so batches may stand in for it."""
    return getattr(type(rng), "next_u64", None) is _next_u64
