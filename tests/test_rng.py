"""Tests for the splittable random stream."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reserve2d import ALGORITHM, SplitStream
from reserve2d.rng import _GAMMA, _MASK64, _batched, _index_of, _mix64, _mix_lanes, _pack, _u64s, _unmix64

from conftest import time_limit


def test_same_seed_same_sequence():
    a = SplitStream(12345)
    b = SplitStream(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    a = SplitStream(1)
    b = SplitStream(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_child_streams_are_stable_and_distinct():
    root = SplitStream(99)
    kids = [root.child(i).key for i in range(50)]
    assert len(set(kids)) == 50
    assert root.child(7).key == SplitStream(99).child(7).key


def test_child_does_not_consume_parent_draws():
    a = SplitStream(5)
    b = SplitStream(5)
    a.child(0)
    a.child(1)
    assert a.next_u64() == b.next_u64()


def test_outputs_are_u64():
    s = SplitStream(0)
    for _ in range(100):
        u = s.next_u64()
        assert 0 <= u < 1 << 64


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitStream(-1)
    with pytest.raises(ValueError):
        SplitStream(1 << 64)
    SplitStream((1 << 64) - 1)  # largest valid seed


def test_child_index_validation():
    with pytest.raises(ValueError):
        SplitStream(0).child(-1)


@pytest.mark.parametrize("index", [0, 1, 2**32, 2**64])
@pytest.mark.parametrize("key", [0, 99, _MASK64])
def test_child_key_is_the_mixed_index(key, index):
    """A child is the stream of _mix64(key ^ gamma*(2i+1)), fresh: it draws what
    a stream seeded with that key draws."""
    child = SplitStream(key).child(index)
    assert child.key == _mix64(key ^ (_GAMMA * (2 * index + 1) & _MASK64))
    assert type(child) is SplitStream and child._n == 0
    fresh = SplitStream(child.key)
    assert [child.next_u64() for _ in range(3)] == [fresh.next_u64() for _ in range(3)]


def test_randrange_bounds_and_coverage():
    s = SplitStream(17)
    seen = {s.randrange(6) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        s.randrange(0)


def test_randrange_roughly_uniform():
    s = SplitStream(23)
    n, draws = 5, 50000
    counts = [0] * n
    for _ in range(draws):
        counts[s.randrange(n)] += 1
    # each count is Binomial(50000, 1/5): sd = sqrt(50000*0.2*0.8) = 89.4
    for c in counts:
        assert abs(c - draws / n) < 4 * 89.5, counts


def test_bernoulli_endpoints_consume_nothing():
    s = SplitStream(3)
    before = s.next_u64()
    t = SplitStream(3)
    t.next_u64()
    assert t.bernoulli(Fraction(0)) is False
    assert t.bernoulli(Fraction(1)) is True
    assert s.next_u64() == t.next_u64(), "integer probabilities must not draw"
    assert before is not None


def test_bernoulli_rejects_bad_probability():
    s = SplitStream(0)
    with pytest.raises(ValueError):
        s.bernoulli(Fraction(-1, 2))
    with pytest.raises(ValueError):
        s.bernoulli(Fraction(3, 2))


def test_bernoulli_frequency_matches_rational():
    s = SplitStream(41)
    p = Fraction(7, 24)
    draws = 60000
    hits = sum(s.bernoulli(p) for _ in range(draws))
    # sd = sqrt(60000 * p * (1-p)) ~ 111.4
    assert abs(hits - draws * p) < 4 * 112


def test_bernoulli_equals_randrange_on_same_stream():
    a = SplitStream(8)
    b = SplitStream(8)
    p = Fraction(5, 12)
    outcomes = [a.bernoulli(p) for _ in range(200)]
    assert outcomes == [b.randrange(12) < 5 for _ in range(200)]


def test_algorithm_label():
    assert ALGORITHM == "splitmix64-tree/v1"


def test_randrange_draws_for_64_bit_bounds_are_pinned():
    """Bounds up to 2**64 read one u64 per attempt, as they always have."""
    s = SplitStream(7)
    assert [s.randrange(10) for _ in range(3)] == [7, 4, 6]
    t = SplitStream(7)
    assert [t.randrange(2**64) for _ in range(3)] == [
        7191089600892374487, 309689372594955804, 16616101746815609346,
    ]
    assert s._n == t._n == 3


def test_randrange_beyond_64_bits_terminates_and_covers():
    with time_limit(10):
        s = SplitStream(1)
        values = [s.randrange(2**65) for _ in range(200)]
        t = SplitStream(2)
        thirds = {t.randrange(3 * 2**64) >> 64 for _ in range(200)}
    assert all(0 <= v < 2**65 for v in values)
    assert any(v >= 2**64 for v in values)
    assert s._n >= 2 * len(values)  # two words per attempt
    assert thirds == {0, 1, 2}


@given(
    key=st.integers(0, _MASK64),
    n=st.integers(0, 1 << 66) | st.integers((1 << 64) - 70, (1 << 64) + 70),
    count=st.integers(1, 64),
)
@example(key=0, n=0, count=64)
@example(key=_MASK64, n=0, count=64)
@example(key=_MASK64, n=(1 << 64) - 1, count=2)
@example(key=0, n=(1 << 64) - 32, count=64)
def test_batched_u64s_equal_successive_draws(key, n, count):
    """``_u64s(key, n, count)`` mixes u64s n+1 .. n+count side by side in
    one integer; it returns what ``count`` calls of ``next_u64`` return."""
    stream = SplitStream(key)
    stream._n = n
    assert list(_u64s(key, n, count)) == [stream.next_u64() for _ in range(count)]


@given(pairs=st.lists(st.tuples(st.integers(0, _MASK64), st.integers(0, _MASK64)), min_size=1, max_size=300))
@example(pairs=[(0, 0)])
@example(pairs=[(_MASK64, 0)])
@example(pairs=[(_MASK64, _MASK64)])
@example(pairs=[(_MASK64 - i, i) for i in range(64)])
@example(pairs=[(i * _GAMMA & _MASK64, _MASK64 * (i % 2)) for i in range(65)])
@example(pairs=[((i + 1) * _GAMMA & _MASK64, i * 7) for i in range(300)])
def test_lane_mixer_equals_mix64_lane_by_lane(pairs):
    """``_mix_lanes`` mixes the 64-bit inputs packed in 128-bit lanes side by
    side and returns ``_mix64`` of each, lane by lane, for one lane, 64 or
    more.  A lane that holds a sum past 2**64 is mixed as its low word, and
    its carry never reaches the next lane."""
    values, extra = ([pair[i] for pair in pairs] for i in (0, 1))
    assert list(_mix_lanes(_pack(values), len(values))) == [_mix64(v) for v in values]
    assert list(_mix_lanes(_pack(values) + _pack(extra), len(pairs))) == [_mix64((v + e) & _MASK64) for v, e in pairs]


@given(x=st.integers(0, _MASK64))
@example(x=0)
@example(x=_MASK64)
@example(x=1 << 63)
def test_unmix64_inverts_the_output_function(x):
    """``_unmix64`` undoes splitmix64's output function, both ways round."""
    assert _unmix64(_mix64(x)) == x
    assert _mix64(_unmix64(x)) == x


@given(key=st.integers(0, _MASK64), u=st.integers(0, _MASK64))
@example(key=0, u=_MASK64)
@example(key=_MASK64, u=_MASK64 - 1)
@example(key=12345, u=0)
def test_index_of_finds_the_draw_that_outputs_a_value(key, u):
    """Stream ``key``'s u64 number ``_index_of(key, u)`` is ``u``."""
    i = _index_of(key, u)
    assert 0 <= i <= _MASK64
    assert _u64s(key, i - 1, 1)[0] == u
    stream = SplitStream(key)
    stream._n = i - 1
    assert stream.next_u64() == u


def test_only_streams_that_keep_next_u64_are_batched():
    """Batches stand in for ``next_u64`` only where the class keeps it: not
    for a subclass that overrides it, nor for a source without one."""

    class Counting(SplitStream):
        def next_u64(self):
            return super().next_u64()

    class Renamed(SplitStream):
        pass

    assert _batched(SplitStream(1)) and _batched(Renamed(1))
    assert not _batched(Counting(1))
    assert not _batched(object())
