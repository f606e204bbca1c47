"""The cycle search of the dependent-rounding walk, against an oracle.

``Walk.run``, the loop that rounding and block draws run, resumes each
search where the last push broke it; ``Walk.cycle`` searches afresh with
per-vertex pointers past integral incidence entries.  The oracle here is
the from-scratch search both replaced: start at the tail of the smallest
fractional edge, leave each vertex by its smallest fractional edge other
than the arrival edge, close at the first revisited vertex.  Every step of
a seeded walk must choose the oracle's cycle and consume the same draws, on
both graphs and across pushes of caller-supplied cycles (what
``decompose_once`` and ``decompose_flow_once`` do with ``cycle=``).

``Walk.run`` reads a ``SplitStream``'s u64s ahead in chunks of 64 as its
steps use them; the last tests check that against a ``randrange`` call at
every step.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve2d import ReservationProblem, ReservationScheme, build_fair_share_table, controlled_round, draw_block
from reserve2d import roster, rounding
from reserve2d._walk import Graph, Walk
from reserve2d.rng import SplitStream

from conftest import FIVE, CountedU64s, CountingRandom, CountingStream, key_with_u64, per_step, recorded_batches
from conftest import time_limit


def oracle_cycle(walk: Walk, start: int = 0):
    """The from-scratch search from the first fractional edge at or after ``start``."""
    flows, scale = walk.flows, walk.scale
    e, end = start, len(flows)
    while e < end and not flows[e] % scale:
        e += 1
    if e == end:
        return None
    incidence = walk.graph.incidence
    vertex, arrived = walk.graph.tails[e], -1
    seen = {vertex: 0}
    path = []
    while True:
        for edge, direction, other in incidence[vertex]:
            if edge != arrived and flows[edge] % scale:
                break
        else:
            raise RuntimeError(f"the walk stalled at vertex {vertex}")
        path.append((edge, direction))
        if other in seen:
            break
        seen[other] = len(path)
        vertex, arrived = other, edge
    cycle = path[seen[other]:]
    low = min(range(len(cycle)), key=lambda s: cycle[s][0])
    if cycle[low][1] < 0:
        cycle = [(edge, -direction) for edge, direction in reversed(cycle)]
        low = len(cycle) - 1 - low
    return cycle[low:] + cycle[:low]


class OracleWalk(Walk):
    """A walk that searches every cycle from scratch."""

    def cycle(self):
        return oracle_cycle(self)


def assert_walks_agree(start: Walk, seed: int, foreign=(), stream=SplitStream) -> None:
    """Step ``start`` to integral flows with ``Walk.cycle`` and with the
    oracle's search in lockstep, and walk it once more through ``Walk.run``.

    At each step listed in ``foreign`` the walks first push the same
    caller-supplied cycle, found by searching from a later fractional edge.
    The run copy makes the same steps up to the last foreign push and then
    runs; its draws, flows and ``rng._n`` must be the oracle's.
    """
    walk, oracle, runner = (kind(start.graph, start.scale, start.flows) for kind in (Walk, OracleWalk, Walk))
    rng, oracle_rng, runner_rng = stream(seed), stream(seed), stream(seed)
    draws, ran = [], []  # (num, den, take) of every oracle and every run-copy step
    steps = 0
    while True:
        if steps in foreign:
            fractional = [e for e, f in enumerate(walk.flows) if f % walk.scale]
            if fractional:
                cycle = oracle_cycle(walk, fractional[len(fractional) // 2])
                push = oracle.step(oracle_rng, list(cycle))
                assert walk.step(rng, list(cycle)) == push == runner.step(runner_rng, list(cycle))
                draws.append(push)
                ran.append(push)
        cycle = oracle.cycle()
        assert walk.cycle() == cycle, f"step {steps}"
        if cycle is None:
            break
        push = oracle.step(oracle_rng, cycle)
        assert walk.step(rng, cycle) == push
        assert rng._n == oracle_rng._n and walk.flows == oracle.flows
        draws.append(push)
        if steps < max(foreign, default=0):  # the run copy steps up to the last foreign push
            assert runner.step(runner_rng, cycle) == push
            ran.append(push)
        steps += 1
    with time_limit(5):  # a push that moves nothing would loop for ever
        runner.run(runner_rng, lambda *draw: ran.append(draw))
    assert ran == draws
    assert runner.flows == oracle.flows and runner_rng._n == oracle_rng._n


@st.composite
def schemes(draw, max_height: int = 60) -> tuple[ReservationScheme, int]:
    """A 2-5 category scheme whose fractions are c_j / height."""
    n = draw(st.integers(2, 5))
    height = draw(st.integers(n, max_height))
    cuts = sorted(draw(st.sets(st.integers(1, height - 1), min_size=n - 1, max_size=n - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [height])]
    scheme = ReservationScheme([f"c{j}" for j in range(n)], [Fraction(c, height) for c in counts])
    return scheme, height


@settings(max_examples=40, deadline=None)
@given(scheme=schemes(), seed=st.integers(0, 2**64 - 1),
       foreign=st.sets(st.integers(0, 100), max_size=3))
def test_resumed_walk_matches_the_oracle_on_scheme_tables(scheme, seed, foreign):
    scheme, height = scheme
    network = roster.build_flow_network(roster.build_scheme_table(scheme, height))
    assert_walks_agree(roster._walk(network), seed, foreign)


@settings(max_examples=60, deadline=None)
@given(scheme=schemes(max_height=30), seed=st.integers(0, 2**64 - 1),
       vacancies=st.lists(st.integers(0, 20), min_size=2, max_size=8),
       foreign=st.sets(st.integers(0, 30), max_size=3))
def test_resumed_walk_matches_the_oracle_on_extended_fair_tables(scheme, seed, vacancies, foreign):
    scheme, _ = scheme
    problem = ReservationProblem([f"d{i}" for i in range(len(vacancies))], scheme, [vacancies])
    table = rounding.extend_table(build_fair_share_table(problem, 1))
    assert_walks_agree(rounding._walk(table), seed, foreign)


@settings(max_examples=15, deadline=None)
@given(scheme=schemes(max_height=30), seed=st.integers(0, 2**64 - 1),
       foreign=st.sets(st.integers(0, 30), max_size=2))
def test_run_matches_the_oracle_with_another_rng(scheme, seed, foreign):
    scheme, height = scheme
    network = roster.build_flow_network(roster.build_scheme_table(scheme, height))
    assert_walks_agree(roster._walk(network), seed, foreign, CountingRandom)
    problem = ReservationProblem([f"d{i}" for i in range(3)], scheme, [[height, 1, height // 2 + 1]])
    table = rounding.extend_table(build_fair_share_table(problem, 1))
    assert_walks_agree(rounding._walk(table), seed, foreign, CountingRandom)


def test_run_draws_denominators_beyond_64_bits_as_the_oracle():
    """Branch denominators near 2**70 make ``randrange`` read several words."""
    big = 2**70
    scheme = ReservationScheme(("c1", "c2"), (Fraction(1, big + 1), Fraction(big, big + 1)))
    table = rounding.extend_table(build_fair_share_table(ReservationProblem(("d1", "d2"), scheme, ((1, 2),)), 1))
    start, dens = rounding._walk(table), []
    rounding._walk(table).run(SplitStream(0), lambda num, den, take: dens.append(den))
    assert max(dens) > 2**64
    for seed in range(20):
        for foreign in ((), (0,), (1,)):
            assert_walks_agree(start, seed, foreign)
            assert_walks_agree(start, seed, foreign, CountingRandom)


class CountingIncidence(tuple):
    """A vertex's incidence that counts the entries read from it."""

    reads = 0

    def __getitem__(self, i):
        CountingIncidence.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for entry in tuple.__iter__(self):
            CountingIncidence.reads += 1
            yield entry


def test_resumed_walk_reads_under_half_the_incidence_of_the_oracle():
    start = roster._walk(roster.build_flow_network(roster.build_scheme_table(FIVE, 200)))
    counting = Graph(0, [])
    counting.tails = start.graph.tails
    counting.incidence = tuple(map(CountingIncidence, start.graph.incidence))
    CountingIncidence.reads = 0
    Walk(counting, start.scale, start.flows).run(SplitStream(7))
    resumed, CountingIncidence.reads = CountingIncidence.reads, 0
    oracle, rng = OracleWalk(counting, start.scale, start.flows), SplitStream(7)
    while (cycle := oracle.cycle()) is not None:
        oracle.step(rng, cycle)
    assert resumed <= CountingIncidence.reads / 2, (resumed, CountingIncidence.reads)


def assert_batched_run_draws_per_step(start: Walk, stream: SplitStream) -> list:
    """Run ``start`` on ``stream``, on a copy of it read one ``randrange`` per
    step, and on a ``SplitStream`` copy with no hook: the same (num, den, take)
    of every step, flows and ``_n``."""
    plain, quiet = SplitStream(stream.key), SplitStream(stream.key)
    plain._n = quiet._n = stream._n
    batched, stepped, unhooked = (Walk(start.graph, start.scale, start.flows) for _ in range(3))
    draws, one_by_one = [], []
    batched.run(stream, lambda *draw: draws.append(draw))
    stepped.run(per_step(plain), lambda *draw: one_by_one.append(draw))
    unhooked.run(quiet)
    assert draws == one_by_one and batched.flows == stepped.flows == unhooked.flows
    assert stream._n == plain._n == quiet._n
    return draws


def _block_start(height: int = 200) -> Walk:
    return roster._BlockSampler(roster.build_scheme_table(FIVE, height)).start


def _round_starts(sizes=(5, 7, 10, 14, 20, 28, 40)):
    """The start of rounding five-category tables of ``sizes`` departments."""
    vacancies = random.Random(14)
    for m in sizes:
        row = [vacancies.randint(1, 30) for _ in range(m)]
        fair = build_fair_share_table(ReservationProblem([f"d{i}" for i in range(m)], FIVE, [row]), 1)
        yield Walk(rounding._graph(m + 1, 5), *rounding._extension(fair))


def test_batched_run_draws_what_per_step_randrange_draws(monkeypatch):
    """Five-category height-200 blocks and 5- to 40-department rounding
    tables, from even and odd draw indices, read u64s ahead in chunks of 64
    from the stream's draw index, one chunk whenever the steps have used the
    last (never past the edge count; once with a hook and once without), so
    a walk mixes at most its steps + 63 u64s, and draw what a ``randrange``
    at every step draws."""
    block = _block_start()
    for seed in range(3):
        stream = SplitStream(seed)
        for _ in range(seed):
            stream.next_u64()
        for start, rng in ((block, stream), *((start, SplitStream(seed + 10)) for start in _round_starts())):
            n, edges = rng._n, len(start.flows)
            batches = recorded_batches(monkeypatch)
            steps = len(assert_batched_run_draws_per_step(start, rng))
            chunks = [(n + m, min(64, edges - m)) for m in range(0, steps, 64)]
            assert batches == 2 * chunks, seed
            assert steps <= sum(count for _, count in chunks) <= steps + 63
            if start is block:
                assert 704 < steps <= 768 and len(chunks) == 12 and edges == 2195, seed
            monkeypatch.undo()
    assert edges > 64


def test_run_draws_every_step_by_randrange_when_its_read_ahead_holds_a_rejectable_u64():
    """Streams whose u64 number j is 2**64 - 1, which ``randrange`` rejects
    for any den that is no power of two.  A height-200 block's walk of S
    steps (727-751) reads 12 chunks of 64 u64s ahead, the last u64s 705-768.
    From the chunk holding u64 j, every step goes to ``randrange``: at j = 1
    (the first chunk) every step, which reads the rejected u64 once more; at
    j = 705 (the first of the last chunk used) the last chunk's steps, with
    one more u64 read; at j = 746, which is S + 1 for its key (just past the
    last u64 used), the last chunk's steps, reading no more.  At j = 769, past the last chunk
    read, no step calls ``randrange``.  The walk draws what per-step draws
    do."""
    start = _block_start()
    for j, first, rejected in ((1, 0, True), (705, 704, True), (746, 704, False), (769, None, False)):
        stream = CountingStream(key_with_u64((1 << 64) - 1, j))
        dens = [den for _, den, _ in assert_batched_run_draws_per_step(start, stream)]
        assert 704 < len(dens) <= 768 and (j != 746 or len(dens) == 745), j  # S: u64 j sits as said
        if rejected:
            assert dens[j - 1] & (dens[j - 1] - 1), j  # the den step j draws for is no power of two
        assert stream.bounds == ([] if first is None else dens[first:]), j
        assert stream._n == len(dens) + rejected, j
    assert len(start.flows) == 2195


def test_batched_run_draws_denominators_beyond_64_bits_per_step():
    """A den over 2**64 is always handed to ``randrange``, which reads
    several words."""
    big = 2**70
    scheme = ReservationScheme(("c1", "c2"), (Fraction(1, big + 1), Fraction(big, big + 1)))
    problem = ReservationProblem(("d1", "d2", "d3"), scheme, ((1, 2, 2),))
    start = rounding._walk(rounding.extend_table(build_fair_share_table(problem, 1)))
    widest = 0
    for seed in range(20):
        stream = CountingStream(seed)
        wide = [den for _, den, _ in assert_batched_run_draws_per_step(start, stream) if den > 2**64]
        assert [b for b in stream.bounds if b > 2**64] == wide, seed
        widest = max(widest, *wide, 0)
    assert widest > 2**64


def test_run_calls_any_other_rng_once_per_step(monkeypatch):
    """A ``random.Random`` is read by one ``randrange`` per step and never
    read ahead."""
    batches = recorded_batches(monkeypatch)
    for start in (_block_start(), *_round_starts((5, 14))):
        rng, steps = CountingRandom(3), []
        Walk(start.graph, start.scale, start.flows).run(rng, lambda *draw: steps.append(draw))
        assert rng._n == len(steps) > 0
    assert batches == []


def test_run_honours_an_overridden_next_u64():
    """A stream class that overrides ``next_u64`` (a counter, say, or a
    wrapper bound on ``SplitStream`` itself) sees every u64 the walk draws."""
    class Counted(SplitStream):
        __slots__ = ("calls",)

        def next_u64(self):
            self.calls += 1
            return super().next_u64()

    for start in _round_starts((5, 14)):
        stream = Counted(9)
        stream.calls = 0
        assert assert_batched_run_draws_per_step(start, stream)
        assert stream.calls == stream._n > 0


def test_hooks_see_the_draw_index_of_per_step_draws(third_scheme):
    """An observed rounding of a five-category table of 14 departments and an
    observed 1/3 block of height 60 show, at every step's hook, the ``rng._n``
    the same key shows under per-step draws (a stream that overrides
    ``next_u64``), though a ``SplitStream`` reads its u64s ahead."""
    vacancies = random.Random(14)
    problem = ReservationProblem([f"d{i}" for i in range(14)], FIVE, [[vacancies.randint(1, 30) for _ in range(14)]])
    fair = build_fair_share_table(problem, 1)
    observed = (lambda rng, hook: controlled_round(fair, rng, on_step=hook),
                lambda rng, hook: draw_block(third_scheme, 60, rng, on_step=hook))
    for draw in observed:
        for seed in range(2):
            seen = []
            for rng in (SplitStream(seed), CountedU64s(seed)):
                seen.append([])
                draw(rng, lambda step: seen[-1].append(rng._n))
            assert seen[0] == seen[1] and len(seen[0]) > 10, seed


def test_a_walk_with_a_lone_fractional_edge_stalls_before_drawing():
    """Vertex 1 touches one fractional edge, which no balanced flow allows: the search finds no way on
    and says where, before any draw."""
    rng = SplitStream(0)
    with pytest.raises(RuntimeError) as stalled:
        Walk(Graph(3, [(0, 1), (1, 2)]), 2, [1, 2]).run(rng)
    assert str(stalled.value) == "internal error: the walk stalled at vertex 1"
    assert rng._n == 0
