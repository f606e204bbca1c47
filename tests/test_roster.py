"""Tests for scheme tables, the constraint network, and roster lotteries."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from reserve2d import (
    FlowNetwork,
    IntegralBlock,
    ReservationScheme,
    SplitStream,
    build_flow_network,
    build_scheme_table,
    decompose_flow_once,
    draw_block,
    draw_roster,
    find_flow_cycle,
    minimal_height,
)
from reserve2d import roster
from reserve2d._walk import scaled
from reserve2d.rng import _GAMMA, _MASK64, _MIX1, _MIX2, _mix64
from reserve2d.roster import (
    cell_vertex,
    prefix_vertex,
    row_vertex,
    sink_vertex,
    source_vertex,
)

from conftest import ForcedRng, time_limit

F = Fraction

FIVE = ReservationScheme(
    ("s", "t", "o", "e", "g"),
    (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200)),
)


def _flow(network, tail, head):
    return next(e.flow for e in network.edges if e.tail == tail and e.head == head)


# ---------------------------------------------------------------- scheme tables


def test_minimal_height(third_scheme, half_scheme, quarters_scheme):
    assert minimal_height(third_scheme) == 3
    assert minimal_height(half_scheme) == 2
    assert minimal_height(quarters_scheme) == 4


def test_minimal_height_with_many_denominators():
    scheme = ReservationScheme(
        ("s", "t", "o", "e", "g"),
        (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200)),
    )
    assert minimal_height(scheme) == 200


def test_scheme_table_rejects_bad_height(third_scheme):
    with pytest.raises(ValueError, match="3"):
        build_scheme_table(third_scheme, 4)
    scheme = ReservationScheme(
        ("s", "t", "o", "e", "g"),
        (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200)),
    )
    with pytest.raises(ValueError, match="200"):
        build_scheme_table(scheme, 100)


def test_scheme_table_rejects_more_than_the_cell_limit(third_scheme):
    """Tables past 50,000 cells fail fast instead of allocating a network."""
    five = ReservationScheme(
        ("s", "t", "o", "e", "g"),
        (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200)),
    )
    assert build_scheme_table(five, 10_000).height == 10_000
    wide = ReservationScheme(("c1", "c2"), (F(1, 999983), F(999982, 999983)))
    with time_limit(5):
        with pytest.raises(ValueError, match="more than 50,000 cells"):
            build_scheme_table(five, 10_200)
        with pytest.raises(ValueError, match="height 3000000 over 2 categories"):
            build_scheme_table(third_scheme, 3_000_000)
        with pytest.raises(ValueError, match="height 999983"):
            draw_roster(wide, 5, SplitStream(1))


def test_scheme_table_shape(third_scheme):
    table = build_scheme_table(third_scheme)
    assert table.height == 3
    assert table.rows == (third_scheme.fractions,) * 3
    assert table.column_totals == (1, 2)
    taller = build_scheme_table(third_scheme, 6)
    assert taller.column_totals == (2, 4)


# ---------------------------------------------------------------- the network


def test_network_structure(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    assert len(net.edges) == 19
    assert _flow(net, source_vertex(), prefix_vertex(3, 0)) == 1
    assert _flow(net, source_vertex(), prefix_vertex(3, 1)) == 2
    assert _flow(net, prefix_vertex(3, 1), prefix_vertex(2, 1)) == F(4, 3)
    assert _flow(net, prefix_vertex(2, 0), cell_vertex(0, 0)) == F(1, 3)
    assert _flow(net, cell_vertex(2, 1), row_vertex(2)) == F(2, 3)
    assert _flow(net, row_vertex(0), sink_vertex()) == 1
    for e in net.edges:
        assert e.upper - e.lower in (0, 1)
        assert e.lower <= e.flow <= e.upper
        if e.flow.denominator == 1:
            assert e.lower == e.upper == e.flow


def test_network_validates_conservation(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    edges = list(net.edges)
    target = next(
        i for i, e in enumerate(edges) if e.tail == cell_vertex(0, 0)
    )
    edges[target] = replace(edges[target], flow=F(2, 3), upper=1)
    with pytest.raises(ValueError, match="not conserved"):
        FlowNetwork(net.table, tuple(edges))


def test_network_validates_bounds(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    edges = list(net.edges)
    edges[0] = replace(edges[0], upper=edges[0].lower + 2)
    with pytest.raises(ValueError, match="width"):
        FlowNetwork(net.table, tuple(edges))


def _tuple_sorted_network(table):
    """The reference construction: tuple vertices in canonical order, edges
    sorted by that order, and ``Fraction`` flows at each constraint's sum.
    Returns the vertex count, the numbered edges, the scaled flows, the
    tuple edges and the ``Fraction`` flows."""
    k, alphas = table.height, table.scheme.fractions
    n = len(alphas)
    seq = [source_vertex()]
    for j in range(n):
        for depth in range(k, 1, -1):
            seq.append(prefix_vertex(depth, j))
    for i in range(k):
        for j in range(n):
            seq.append(cell_vertex(i, j))
    for i in range(k):
        seq.append(row_vertex(i))
    seq.append(sink_vertex())
    order = {v: pos for pos, v in enumerate(seq)}
    pairs = []
    for j in range(n):
        pairs.append((source_vertex(), prefix_vertex(k, j)))
        for depth in range(k, 2, -1):
            pairs.append((prefix_vertex(depth, j), prefix_vertex(depth - 1, j)))
        for depth in range(k, 1, -1):
            pairs.append((prefix_vertex(depth, j), cell_vertex(depth - 1, j)))
        pairs.append((prefix_vertex(2, j), cell_vertex(0, j)))
    for i in range(k):
        for j in range(n):
            pairs.append((cell_vertex(i, j), row_vertex(i)))
    for i in range(k):
        pairs.append((row_vertex(i), sink_vertex()))
    pairs.sort(key=lambda e: (order[e[0]], order[e[1]]))

    def initial(tail, head):
        if head[0] == "prefix":  # the first l cells of column j carry l*a_j
            return head[1] * alphas[head[2]]
        if head[0] == "cell":
            return alphas[head[2]]
        if tail[0] == "cell":
            return alphas[tail[2]]
        return F(1)  # row -> sink

    fractions = [initial(t, h) for t, h in pairs]
    scale, flows = scaled(fractions)
    numbered = [(order[t], order[h]) for t, h in pairs]
    return len(seq), numbered, scale, flows, pairs, fractions


def test_numbered_network_equals_the_tuple_sorted_one(third_scheme, quarters_scheme):
    """The integer edges and scaled flows equal the tuple-sorted network's
    index for index: the edge order fixes the cycle rule, hence every draw."""
    for scheme, heights in (
        (third_scheme, (3, 6, 30, 99)), (quarters_scheme, (4, 8, 40)), (FIVE, (200, 400))
    ):
        for k in heights:
            table = build_scheme_table(scheme, k)
            vertices, edges, scale, flows, pairs, fractions = _tuple_sorted_network(table)
            assert roster._scheme_network(table) == (vertices, edges, scale, flows), k
            network = build_flow_network(table)
            assert [(e.tail, e.head, e.flow) for e in network.edges] == [
                (t, h, f) for (t, h), f in zip(pairs, fractions)
            ], k


# ---------------------------------------------------------------- cycles


def test_deterministic_cycle_is_stable(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    cycle = find_flow_cycle(net)
    assert cycle == (
        (2, 1), (4, 1), (10, 1), (11, -1), (8, -1),
        (6, -1), (7, 1), (15, 1), (14, -1), (3, -1),
    )
    assert find_flow_cycle(net) == cycle
    # every edge on the cycle is fractional, and consecutive edges chain up
    skeleton = [(e.tail, e.head) for e in net.edges]
    for (e, d), (e2, d2) in zip(cycle, cycle[1:] + cycle[:1]):
        assert net.edges[e].flow.denominator > 1
        reached = skeleton[e][1] if d == +1 else skeleton[e][0]
        departed = skeleton[e2][0] if d2 == +1 else skeleton[e2][1]
        assert reached == departed


def test_integral_network_has_no_cycle(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    while not net.is_integral:
        net = decompose_flow_once(net, SplitStream(11))
    assert find_flow_cycle(net) is None


PAPER_STYLE_CYCLE = [
    ("prefix", 3, 0), ("cell", 2, 0), ("row", 2), ("cell", 2, 1),
    ("prefix", 3, 1), ("prefix", 2, 1), ("cell", 1, 1), ("row", 1),
    ("cell", 1, 0), ("prefix", 2, 0),
]


def test_named_cycle_step_is_an_even_split(third_scheme):
    """A known 10-edge cycle has headroom 1/3 both ways, so the step is a
    fair coin; both branch networks are checked edge by edge."""
    net = build_flow_network(build_scheme_table(third_scheme))
    captured = []
    decompose_flow_once(
        net, ForcedRng(True), cycle=PAPER_STYLE_CYCLE, on_step=captured.append
    )
    (step,) = captured
    assert step.d_plus == F(1, 3)
    assert step.d_minus == F(1, 3)
    assert step.probability == F(1, 2)
    assert step.branch == "raise-forward"
    fwd, bwd = step.raise_forward, step.raise_backward
    assert _flow(fwd, prefix_vertex(2, 1), cell_vertex(1, 1)) == 1
    assert _flow(fwd, prefix_vertex(3, 1), prefix_vertex(2, 1)) == F(5, 3)
    assert _flow(fwd, cell_vertex(2, 0), row_vertex(2)) == F(2, 3)
    assert _flow(fwd, cell_vertex(1, 0), row_vertex(1)) == 0
    assert _flow(bwd, cell_vertex(1, 0), row_vertex(1)) == F(2, 3)
    assert _flow(bwd, prefix_vertex(3, 1), prefix_vertex(2, 1)) == 1
    # untouched edges keep their flow in both branches
    assert _flow(fwd, source_vertex(), prefix_vertex(3, 1)) == 2
    assert _flow(bwd, source_vertex(), prefix_vertex(3, 1)) == 2
    # exact mixture identity
    for e, f, b in zip(net.edges, fwd.edges, bwd.edges):
        assert F(1, 2) * f.flow + F(1, 2) * b.flow == e.flow


def test_supplied_cycle_is_validated(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    with pytest.raises(ValueError, match="no edge joins"):
        decompose_flow_once(
            net, ForcedRng(True), cycle=[source_vertex(), cell_vertex(0, 0)]
        )
    with pytest.raises(ValueError, match="integral"):
        # source edges are integral, so this walk is not a fractional cycle
        decompose_flow_once(
            net,
            ForcedRng(True),
            cycle=[
                source_vertex(), prefix_vertex(3, 0), prefix_vertex(2, 0),
                cell_vertex(0, 0), row_vertex(0), cell_vertex(0, 1),
                prefix_vertex(2, 1), prefix_vertex(3, 1),
            ],
        )


@pytest.mark.parametrize("cycle", [
    [(3, 1), (14, 1), (-5, -1), (-16, -1)],  # -5 and -16 alias edges 14 and 3
    [(999, 1), (3, 1)],
    [(3, 1), (19, 1)],  # the network has 19 edges
])
def test_supplied_cycle_must_stay_in_the_network(third_scheme, cycle):
    net = build_flow_network(build_scheme_table(third_scheme))
    assert len(net.edges) == 19
    rng = SplitStream(1)
    with pytest.raises(ValueError) as exc:
        decompose_flow_once(net, rng, cycle=cycle)
    assert str(exc.value) == f"cycle {tuple(cycle)} leaves the network's edges 0..18"
    assert rng._n == 0


def test_decomposition_strictly_reduces_fractional_edges(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme, 6))
    rng = SplitStream(21)
    counts = [sum(e.flow.denominator > 1 for e in net.edges)]
    while not net.is_integral:
        net = decompose_flow_once(net, rng)
        counts.append(sum(e.flow.denominator > 1 for e in net.edges))
        assert counts[-1] < counts[-2]
    assert len(counts) - 1 <= counts[0]
    block = IntegralBlock.from_network(net)
    assert len(block.positions) == 6


# ---------------------------------------------------------------- blocks


def _enumerate_blocks(scheme, height=None):
    """Exact block distribution by expanding both branches of every step."""
    outcomes = {}

    def expand(network, mass):
        if network.is_integral:
            key = IntegralBlock.from_network(network).positions
            outcomes[key] = outcomes.get(key, F(0)) + mass
            return
        captured = []
        decompose_flow_once(network, ForcedRng(True), on_step=captured.append)
        step = captured[0]
        expand(step.raise_forward, mass * step.probability)
        expand(step.raise_backward, mass * (1 - step.probability))

    expand(build_flow_network(build_scheme_table(scheme, height)), F(1))
    return outcomes


def test_block_distribution_is_exactly_uniform_for_one_in_three(third_scheme):
    assert _enumerate_blocks(third_scheme) == {
        ("c1", "c2", "c2"): F(1, 3),
        ("c2", "c1", "c2"): F(1, 3),
        ("c2", "c2", "c1"): F(1, 3),
    }


def test_block_distribution_half_half(half_scheme):
    assert _enumerate_blocks(half_scheme) == {
        ("c1", "c2"): F(1, 2),
        ("c2", "c1"): F(1, 2),
    }


def test_block_marginals_are_exactly_the_fractions(quarters_scheme):
    outcomes = _enumerate_blocks(quarters_scheme)
    assert sum(outcomes.values()) == 1
    for pos in range(4):
        for cat, frac in zip(quarters_scheme.categories, quarters_scheme.fractions):
            marginal = sum(m for key, m in outcomes.items() if key[pos] == cat)
            assert marginal == frac, (pos, cat)


def test_taller_table_marginals_stay_exact(third_scheme):
    outcomes = _enumerate_blocks(third_scheme, height=6)
    assert sum(outcomes.values()) == 1
    for pos in range(6):
        marginal = sum(m for key, m in outcomes.items() if key[pos] == "c1")
        assert marginal == F(1, 3), pos


def _stepwise_draw(table, rng):
    """A block and its observed steps from :func:`decompose_flow_once`, which
    searches every cycle afresh on a network of its own."""
    network, steps = build_flow_network(table), []
    while not network.is_integral:
        network = decompose_flow_once(network, rng, on_step=steps.append)
    return IntegralBlock.from_network(network), steps


def test_cached_draw_matches_stepwise_draw(third_scheme, quarters_scheme):
    """Observed and unobserved draws walk the cached sampler, and both give
    the block and the draw count of stepping the network one
    :func:`decompose_flow_once` at a time; the observed draw shows that
    loop's steps record for record (cycle, d+, d-, probability, branch, and
    the pre-step, branch and result flows).  On 1/4, 1/3, 5/12 at height 12
    the live walk resumes its cycle search where the loop starts afresh."""
    mixed = ReservationScheme(("a", "b", "c"), (F(1, 4), F(1, 3), F(5, 12)))
    for scheme, height in ((third_scheme, None), (quarters_scheme, None), (mixed, 12)):
        table = build_scheme_table(scheme, height)
        for seed in range(40):
            fast, watched, slow = SplitStream(seed), SplitStream(seed), SplitStream(seed)
            block, oracle = _stepwise_draw(table, slow)
            steps = []
            assert draw_block(scheme, height, fast) == block, (height, seed)
            assert draw_block(scheme, height, watched, on_step=steps.append) == block, (height, seed)
            assert fast._n == watched._n == slow._n, (height, seed)
            assert len(steps) == len(oracle), (height, seed)
            for number, (got, want) in enumerate(zip(steps, oracle)):
                assert got == want, (height, seed, number)


def test_sampler_tree_past_its_node_cap_draws_like_an_uncapped_one(
    monkeypatch, quarters_scheme
):
    """Once the decision tree is full, draws walk on without recording and
    still return the blocks a walk on an uncapped tree returns for the same
    draws."""
    table = build_scheme_table(quarters_scheme, 8)
    free, capped = roster._BlockSampler(table), roster._BlockSampler(table)
    monkeypatch.setattr(capped, "_NODE_CAP", 40)
    for seed in range(60):
        a, b = SplitStream(seed), SplitStream(seed)
        assert capped.blocks(a, 1) == [free.walk(b)], seed
        assert a._n == b._n, seed
    assert capped.nodes == 40 < free.nodes
    # Inner nodes hold only a probability and two children; leaves are blocks.
    pending = [free.root[0]]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            num, den, forward, backward = node
            assert 0 < num < den
            pending += [child for child in (forward, backward) if child is not None]
        else:
            assert isinstance(node, IntegralBlock)


def _block_loop(sampler, rng, count):
    """``count`` blocks walked one at a time."""
    return [sampler.walk(rng) for _ in range(count)]


def test_fused_positions_draw_what_the_block_loop_draws(monkeypatch, third_scheme, quarters_scheme):
    """The fused descent returns the blocks that per-block walks on a
    sampler of its own return, and leaves the stream at the same draw
    index: on warm trees, on the five-category scheme, on fresh samplers,
    and on samplers whose tree is capped at 40 nodes or holds none at all
    (so every block misses).  Any other source of randrange is walked one
    block at a time."""
    cases = [(third_scheme, 3, range(200)), (quarters_scheme, 4, range(200)), (FIVE, 200, range(2))]
    for scheme, height, seeds in cases:
        table = build_scheme_table(scheme, height)
        fused, looped = roster._BlockSampler(table), roster._BlockSampler(table)
        for seed in seeds:
            count = seed % 7 if height < 200 else 2
            a, b = SplitStream(seed), SplitStream(seed)
            assert fused.blocks(a, count) == _block_loop(looped, b, count), (height, seed)
            assert a._n == b._n, (height, seed)
    for scheme, height, cap in ((third_scheme, 6, None), (quarters_scheme, 8, 40), (quarters_scheme, 8, 0)):
        table = build_scheme_table(scheme, height)
        looped = roster._BlockSampler(table)
        fused = roster._BlockSampler(table)
        for seed in range(60):
            if cap is None:
                fused = roster._BlockSampler(table)  # fresh: its first block misses
            else:
                monkeypatch.setattr(fused, "_NODE_CAP", cap)
            a, b = SplitStream(seed), SplitStream(seed)
            assert fused.blocks(a, 4) == _block_loop(looped, b, 4), (height, cap, seed)
            assert a._n == b._n, (height, cap, seed)
        if cap is not None:
            assert fused.nodes == cap
    looped = roster._BlockSampler(build_scheme_table(quarters_scheme))
    for seed in range(20):
        fused = roster._BlockSampler(build_scheme_table(quarters_scheme))
        a, b = random.Random(seed), random.Random(seed)
        assert fused.blocks(a, 3) == _block_loop(looped, b, 3), seed
        assert a.random() == b.random(), seed


def _unmix64(u):
    """The inverse of splitmix64's output function ``rng._mix64``."""
    def unshift(z, shift):  # solves x ^ (x >> shift) == z for x
        x = z
        for _ in range(3):
            x = z ^ (x >> shift)
        return x

    u = unshift(u, 31) * pow(_MIX2, -1, 1 << 64) & _MASK64
    u = unshift(u, 27) * pow(_MIX1, -1, 1 << 64) & _MASK64
    return unshift(u, 30)


class _CountingStream(SplitStream):
    """A stream that records the bound of every ``randrange`` call."""

    __slots__ = ("bounds",)

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return super().randrange(n)


def test_fused_positions_redraw_a_rejected_u64_like_randrange(third_scheme):
    """Streams whose u64 number j is 2**64 - 1, which ``randrange(3)``
    rejects: the fused descent hands such a u64 to ``randrange`` and draws
    the blocks and the draw count of per-block walks on another sampler."""
    assert _mix64(_unmix64(_MASK64)) == _MASK64

    def stream(j, kind=SplitStream):  # u64 number j (from 1) is 2**64 - 1
        return kind((_unmix64(_MASK64) - j * _GAMMA) & _MASK64)

    rejecting = stream(1)
    assert rejecting.randrange(3) < 3 and rejecting._n == 2
    table = build_scheme_table(third_scheme)
    sampler, plain = roster._BlockSampler(table), roster._BlockSampler(table)
    for seed in range(200):  # grow the whole tree, so no block misses
        sampler.walk(SplitStream(seed))
    root = sampler.root[0]
    assert root[1] == 2 and root[2][1] == root[3][1] == 3  # a block reads two u64s
    for j in range(1, 7):
        a, b = stream(j, _CountingStream), stream(j)
        assert sampler.blocks(a, 3) == _block_loop(plain, b, 3), j
        # u64 number j falls on a root (den 2, odd j) or on a depth-2 node
        # (den 3, even j), where it is rejected and costs one more u64.
        assert a.bounds == [3 - j % 2], j
        assert a._n == b._n == 7 - j % 2, j


def test_walk_on_a_grown_tree_adds_nothing_and_draws_what_the_descent_draws(third_scheme):
    """Once every branch of the 1/3 tree hangs, a walk follows existing
    children only: it adds no node and returns the block, and leaves the
    stream at the draw index, that the fused descent gives."""
    sampler = roster._BlockSampler(build_scheme_table(third_scheme))
    for seed in range(200):
        sampler.walk(SplitStream(seed))
    pending = [sampler.root[0]]
    while pending:  # the tree is whole: no inner node misses a child
        node = pending.pop()
        if isinstance(node, list):
            assert None not in node[2:]
            pending += node[2:]
    grown = sampler.nodes
    for seed in range(50):
        a, b = SplitStream(seed), SplitStream(seed)
        assert [sampler.walk(a)] == sampler.blocks(b, 1), seed
        assert a._n == b._n, seed
        assert sampler.nodes == grown, seed


def test_sampler_cache_stays_bounded_and_evicted_samplers_draw_alike():
    """Drawing from more schemes than the sampler cache holds never grows it
    past its size, and a scheme drawn again after eviction gives the same
    blocks for the same draws."""

    def draws(scheme):
        out = []
        for seed in range(8):
            rng = SplitStream(seed)
            out.append((draw_block(scheme, None, rng), rng._n))
        return out

    size = roster._sampler.cache_info().maxsize
    schemes = [ReservationScheme(("c1", "c2"), (F(1, d), F(d - 1, d))) for d in range(2, 2 * size + 4)]
    before = draws(schemes[0])
    for scheme in schemes[1:]:
        draws(scheme)
        assert roster._sampler.cache_info().currsize <= size
    misses = roster._sampler.cache_info().misses
    assert draws(schemes[0]) == before
    assert roster._sampler.cache_info().misses == misses + 1, "the first sampler was not evicted"


def test_block_validation():
    scheme = ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3)))
    with pytest.raises(ValueError, match="exactly one 1"):
        IntegralBlock(scheme, 3, ((1, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="fair share"):
        # two c1 in the first two rows drifts a full seat from 2 * 1/3
        IntegralBlock(scheme, 3, ((1, 0), (1, 0), (0, 1)))
    ok = IntegralBlock(scheme, 3, ((0, 1), (1, 0), (0, 1)))
    assert ok.positions == ("c2", "c1", "c2")


def test_draw_block_respects_height(third_scheme):
    block = draw_block(third_scheme, 6, SplitStream(0))
    assert len(block.positions) == 6
    assert block.positions.count("c1") == 2
    with pytest.raises(ValueError, match="3"):
        draw_block(third_scheme, 5, SplitStream(0))


# ---------------------------------------------------------------- rosters


def test_roster_blocks_and_truncation(third_scheme):
    roster = draw_roster(third_scheme, 7, SplitStream(13))
    assert len(roster) == 7
    assert roster.block_length == 3
    assert roster.extension_policy == "independent-blocks"
    # first two blocks appear unchanged, the third is cut to one position
    full = draw_roster(third_scheme, 9, SplitStream(13))
    assert full.assignment[:7] == roster.assignment


def test_repeat_block_roster_is_periodic(third_scheme):
    # seed 1 realizes the block (c2, c2, c1)
    roster = draw_roster(third_scheme, 11, SplitStream(1), "repeat-block")
    assert roster.assignment == ("c2", "c2", "c1") * 3 + ("c2", "c2")
    assert roster.extension_policy == "repeat-block"
    assert draw_block(third_scheme, None, SplitStream(1)).positions == ("c2", "c2", "c1")


def test_empty_and_invalid_rosters(third_scheme):
    assert len(draw_roster(third_scheme, 0, SplitStream(0))) == 0
    with pytest.raises(ValueError):
        draw_roster(third_scheme, -1, SplitStream(0))
    with pytest.raises(ValueError, match="extension policy"):
        draw_roster(third_scheme, 3, SplitStream(0), "tile")


def test_roster_prefix_counts_never_drift_a_full_seat(third_scheme, quarters_scheme):
    for scheme, seeds in ((third_scheme, range(25)), (quarters_scheme, range(10))):
        for seed in seeds:
            roster = draw_roster(scheme, 30, SplitStream(seed))
            counts = dict.fromkeys(scheme.categories, 0)
            for q, cat in enumerate(roster.assignment, start=1):
                counts[cat] += 1
                for c, frac in zip(scheme.categories, scheme.fractions):
                    assert abs(counts[c] - q * frac) < 1, (seed, q, c)


def test_position_marginals_monte_carlo(third_scheme):
    draws = 3000
    rng = SplitStream(7)
    hits = [0] * 6
    for _ in range(draws):
        roster = draw_roster(third_scheme, 6, rng)
        for p in range(6):
            hits[p] += roster.assignment[p] == "c1"
    se = (draws * (1 / 3) * (2 / 3)) ** 0.5
    for p in range(6):
        assert abs(hits[p] - draws / 3) < 4 * se, (p, hits[p])
