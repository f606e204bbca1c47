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

This module alone knows the key and index layout (SplitMix; Steele, Lea and
Flood 2014): u64 n of key k is mix(k + n*gamma), child i of k is keyed
mix(k ^ gamma*(2i+1)).  :func:`_mix_lanes` mixes u64s of any streams as the
lanes of one integer for :func:`_u64s` (consecutive u64s of a stream, read
ahead by :func:`_ahead`) and the two lane reads, built once and applied per
run: :func:`_plan` (chosen u64s of fresh streams; both screen where
``randrange`` might reject) and :func:`_children` (a key's child keys).  :func:`_unmix64` inverts the output function, and
:func:`_index_of` finds where a stream outputs a u64.

The algorithm identifier below is recorded in report metadata so that
archived outputs name the generator that produced them.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_
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


def _lanes(count: int) -> tuple[int, int]:
    """A 1 in each of ``count`` 128-bit lanes, and every low word."""
    return (ones := _pack([1] * count)), ones * _MASK64


@lru_cache(maxsize=64)  # _u64s's callers read at most 64 lanes, so each entry is at most 3 KB
def _steps(count: int) -> tuple[int, int, int]:
    """:func:`_lanes` of ``count``, and lane i's i * _GAMMA."""
    return (*_lanes(count), _pack([i * _GAMMA & _MASK64 for i in range(count)]))


def _mix_lanes(z: int, count: int, low: int):
    """:func:`_mix64` of the low word of each of the ``count`` 128-bit lanes of ``z``, lowest first; ``low`` masks them."""
    z &= low  # each lane is cut to its low word here and before every multiply
    z = ((z ^ z >> 30) & low) * _MIX1 & low
    z = ((z ^ z >> 27) & low) * _MIX2 & low
    return array("Q", (z ^ z >> 31).to_bytes(16 * count, byteorder))[::2 * _WORDS]


def _u64s(key: int, n: int, count: int):
    """u64s n+1 .. n+count of stream ``key``, mixed side by side in one :func:`_mix_lanes` pass."""
    ones, low, steps = _steps(count)
    return _mix_lanes((key + (n + 1) * _GAMMA & _MASK64) * ones + steps, count, low)


def _ahead(rng, count: int, limit: int):
    """u64s n+1 .. n+``count`` of ``rng`` at draw n, mixed by :func:`_u64s` in batches of at most 64; None if ``rng``
    is not :func:`_batched`, or if one is above 2**64 - ``limit`` (``randrange`` might reject it for a bound up to
    ``limit``).  u64 n+1 depends only on the key and n, so reading ahead changes no draw; the caller moves ``_n``."""
    if not _batched(rng):
        return None
    us, key, end = [], rng.key, rng._n + count
    for n in range(rng._n, end, 64):
        us += _u64s(key, n, min(end - n, 64))
    return None if us and max(us) + limit > 1 << 64 else us


def _children(count: int):
    """The keys of children 0 .. ``count``-1 of a key, as a function of the key: one :func:`_mix_lanes` pass."""
    (ones, low), odd = _lanes(count), _pack([_GAMMA * (2 * i + 1) & _MASK64 for i in range(count)])
    return lambda key: _mix_lanes(key * ones ^ odd, count, low)


def _plan(numbers: list[list[int]], spans: list[int], limit: int):
    """Screen bytes, and u64s ``numbers[s]`` of the fresh stream of each ``keys[s]`` mixed in one :func:`_mix_lanes`
    pass, as a function of ``keys``.  Byte s is 0 if u64s 1 .. ``spans[s]`` of stream s hold one above 2**64 - ``limit``
    (``randrange`` might reject it for a bound up to ``limit``), or while ``SplitStream.next_u64`` is rebound.  Lane s
    of one integer holds where stream s outputs each such u64, less 1, and keeps bit 64 if none is below the span."""
    (ones, low), size = _lanes(len(spans)), 16 * len(spans)
    high, marks = ones << 64, [_index_of(0, u) * ones for u in range((1 << 64) - limit + 1, 1 << 64)]
    room = high - _pack(spans)  # lane s: 2**64 - span s
    owner = [s for s, own in enumerate(numbers) for _ in own]  # each wanted u64's stream
    steps, wide = _pack([n for own in numbers for n in own]) * _GAMMA, _lanes(len(owner))[1]

    def plan(keys: list[int]):
        back = high - (_pack(keys) * _GAMMA_INV + ones & low)  # key k's u64 n is stream 0's n + k * _GAMMA_INV
        gate = high if _batched(SplitStream(0)) else 0
        ok = reduce(and_, [(m + back & low) + room for m in marks], gate).to_bytes(size, "little")[8::16]
        return ok, owner and _mix_lanes(_pack([*map(keys.__getitem__, owner)]) + steps, len(owner), wide)

    return plan


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
