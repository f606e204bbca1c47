"""Tests for the splittable random stream."""

import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reserve2d import ALGORITHM, SplitStream
from reserve2d.rng import (
    _GAMMA,
    _MASK64,
    _ahead,
    _batched,
    _children,
    _index_of,
    _lanes,
    _mix64,
    _mix_lanes,
    _pack,
    _plan,
    _u64s,
    _unmix64,
)

from conftest import CountedU64s, CountingRandom, key_with_u64, time_limit


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
    low = _lanes(len(pairs))[1]
    assert list(_mix_lanes(_pack(values), len(values), low)) == [_mix64(v) for v in values]
    assert list(_mix_lanes(_pack(values) + _pack(extra), len(pairs), low)) == [_mix64((v + e) & _MASK64) for v, e in pairs]


def test_wide_lane_mix_holds_no_lane_constants():
    """The lane reads hold their own lane constants and ``_mix_lanes`` takes its mask from its
    caller, so no module cache keeps a wide constant: building a child-key read of 100,000
    lanes and a plan of 100,000 wanted u64s, reading them and dropping them leaves less than
    1 MB held (one lane constant of that width holds 1.6 MB), and both equal ``_mix64`` lane
    by lane."""
    key, numbers = 12345, [list(range(1, 50_001)), list(range(7, 50_007))]
    children = [_mix64(key ^ (_GAMMA * (2 * i + 1) & _MASK64)) for i in range(100_000)]
    wanted = [_mix64(key + n * _GAMMA & _MASK64) for own in numbers for n in own]
    tracemalloc.start()
    try:
        equal = [_children(100_000)(key).tolist() == children, _plan(numbers, [0, 0], 3)([key, key])[1].tolist() == wanted]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert equal == [True, True]
    assert held < 1 << 20


def _u64(key, n):
    """U64 number ``n`` (from 1) of the stream of ``key``, drawn by ``next_u64``."""
    stream = SplitStream(key)
    stream._n = n - 1
    return stream.next_u64()


@given(
    key=st.integers(0, _MASK64),
    count=st.sampled_from([1, 2, 64, 65, 300]) | st.integers(1, 700),
)
@example(key=0, count=1)
@example(key=_MASK64, count=1)
@example(key=0, count=64)
@example(key=_MASK64, count=65)
@example(key=_MASK64, count=500)
def test_child_key_read_equals_split_stream_children(key, count):
    """``_children(count)`` returns, for a key, the keys of its children 0 .. count-1 that
    ``SplitStream.child`` derives, for one lane, 64, 65 and several hundred."""
    assert list(_children(count)(key)) == [SplitStream(key).child(i).key for i in range(count)]


@given(key=st.integers(0, _MASK64), n=st.integers(0, 1 << 66), count=st.sampled_from([0, 1, 2, 3, 4, 5, 64, 65, 300]))
@example(key=_MASK64, n=(1 << 64) - 1, count=65)
@example(key=_MASK64, n=(1 << 64) - 1, count=1)
@example(key=1, n=0, count=2)
@example(key=2, n=5, count=3)
@example(key=3, n=1 << 65, count=4)
@example(key=_MASK64, n=63, count=5)
def test_read_ahead_is_the_next_u64s_of_the_stream(key, n, count):
    """``_ahead`` of a stream at draw n returns u64s n+1 .. n+``count``, none, one to five lanes,
    64 or more, and leaves the stream at draw n."""
    stream = SplitStream(key)
    stream._n = n
    assert _ahead(stream, count, 1) == [_u64(key, n + i) for i in range(1, count + 1)]
    assert stream._n == n


@pytest.mark.parametrize("count", [1, 64, 65, 200])
def test_read_ahead_screens_every_u64_it_reads(count):
    """A key built to put 2**64 - 3 + b at number j: from draw 5, a read-ahead of ``count`` u64s with
    limit 3 is None exactly when j is its first, middle or last number and b > 0 (``randrange`` might
    reject the u64 for a bound up to 3), and not for j = 5 or one past its numbers.  Streams that
    override ``next_u64`` and other rngs are never read ahead."""
    for b in range(3):
        for j in (5, 6, 6 + count // 2, 5 + count, 6 + count):
            stream = SplitStream(key_with_u64((1 << 64) - 3 + b, j))
            stream._n = 5
            assert (_ahead(stream, count, 3) is None) == (b > 0 and 5 < j <= 5 + count), (b, j)
    assert _ahead(CountedU64s(1), count, 3) is None and _ahead(CountingRandom(1), count, 3) is None


_streams = st.lists(
    st.tuples(st.integers(0, _MASK64), st.lists(st.integers(1, _MASK64), max_size=70), st.integers(0, 120)),
    min_size=1,
    max_size=12,
)


@given(streams=_streams, limit=st.integers(1, 64))
@example(streams=[(0, [1], 1)], limit=3)
@example(streams=[(_MASK64, [1], 1)], limit=3)
@example(streams=[(0, list(range(1, 65)), 64)], limit=2)
@example(streams=[(_MASK64, list(range(1, 33)), 40), (0, list(range(5, 38)), 0)], limit=3)
@example(streams=[(i * 7 & _MASK64, list(range(1, 101)), 100) for i in range(3)] + [(_MASK64, [], 9)], limit=5)
def test_plan_reads_the_wanted_u64s_and_screens_the_spans(streams, limit):
    """A plan of each stream's wanted u64 numbers, span and bound ``limit`` returns, for the
    keys, the u64s ``SplitStream`` draws at those numbers, stream after stream, for one lane,
    64, 65 and several hundred; screen byte s is 1 exactly when none of u64s 1 .. span of
    stream s lies above 2**64 - ``limit``, where ``randrange`` might reject it."""
    keys, numbers, spans = (list(column) for column in zip(*streams))
    ok, us = _plan(numbers, spans, limit)(keys)
    assert list(us) == [_u64(key, n) for key, own in zip(keys, numbers) for n in own]
    top = (1 << 64) - limit
    assert list(ok) == [all(_u64(key, n) <= top for n in range(1, span + 1)) for key, span in zip(keys, spans)]


@given(
    limit=st.integers(2, 200),
    below=st.integers(0, 199),
    span=st.integers(2, 300),
    others=st.lists(st.integers(0, _MASK64), max_size=6),
    at=st.integers(0, 6),
)
@example(limit=2, below=1, span=2, others=[], at=0)
@example(limit=3, below=0, span=300, others=[0, _MASK64], at=1)
def test_plan_screens_a_key_built_to_output_a_rejectable_u64(limit, below, span, others, at):
    """A key built with the inverse output function puts the u64 ``u`` at ``2**64 - limit``
    or above at number j; ``_index_of`` finds it there.  At number 0, which no read draws, or
    one past the span the stream passes the screen; at 1, in the middle and last in its span
    it fails if u is above 2**64 - ``limit`` (a u64 ``randrange`` might reject) and passes at
    2**64 - ``limit``.  Other keys in the same plan keep their bytes."""
    u = (1 << 64) - limit + below % limit
    for j, inside in ((0, False), (1, True), (span // 2, True), (span, True), (span + 1, False)):
        built = key_with_u64(u, j)
        keys = others[:at] + [built] + others[at:]
        spans = [span if key == built else 10 for key in keys]
        ok, _ = _plan([[]] * len(keys), spans, limit)(keys)
        assert ok[min(at, len(others))] == (not inside or u == (1 << 64) - limit), (u, j)
        assert list(ok) == [all(_u64(key, n) <= (1 << 64) - limit for n in range(1, sp + 1))
                            for key, sp in zip(keys, spans)]


def test_a_rebound_next_u64_fails_every_stream_of_a_plan(monkeypatch):
    """While ``SplitStream.next_u64`` is rebound on the class (a tracer), a plan screens
    every stream out, and its u64s are still those of the streams."""
    keys, numbers = [0, 5, _MASK64], [[1, 2], [], [9]]
    plan = _plan(numbers, [2, 0, 9], 3)
    assert list(plan(keys)[0]) == [1, 1, 1]
    next_u64 = SplitStream.next_u64
    monkeypatch.setattr(SplitStream, "next_u64", lambda rng: next_u64(rng))
    ok, us = plan(keys)
    assert list(ok) == [0, 0, 0]
    assert list(us) == [_u64(0, 1), _u64(0, 2), _u64(_MASK64, 9)]


# The names of the splitmix64 key and index layout, and of the batches mixed from it, that only ``rng`` may know.
_LAYOUT = {"_GAMMA", "_GAMMA_INV", "_MASK64", "_index_of", "_unmix64", "_pack", "_lanes", "_mix_lanes",
           "_u64s", "_steps", "_batched"}


def test_only_rng_knows_the_stream_layout():
    """No module of the library but ``rng.py`` defines, imports or reads a name of the
    splitmix64 layout or of its batches: the others read lanes through ``rng``'s lane
    reads and read-ahead."""
    source = Path(__file__).resolve().parents[1] / "src" / "reserve2d"
    for path in sorted(source.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        if path.name == "rng.py":
            assert _LAYOUT <= names
        else:
            assert not names & _LAYOUT, (path.name, sorted(names & _LAYOUT))


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
