"""Tests for scheme tables, the constraint network, and roster lotteries."""

import copy
import random
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

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
from reserve2d.roster import (
    FlowStep,
    prefix_vertex,
    row_vertex,
    sink_vertex,
    source_vertex,
)

from conftest import FIVE, MIXED, PAPER_STYLE_CYCLE, SCHEMES, THIRD, CountedU64s, CountingStream, ForcedRng, key_with_u64
from conftest import per_step, recorded_batches, rerun, row_by_row_block_check, stepwise_draw

F = Fraction


def _flow(network, tail, head):
    return next(e.flow for e in network.edges if e.tail == tail and e.head == head)


# ---------------------------------------------------------------- scheme tables


def test_minimal_height(third_scheme, half_scheme, quarters_scheme):
    assert minimal_height(third_scheme) == 3
    assert minimal_height(half_scheme) == 2
    assert minimal_height(quarters_scheme) == 4


def test_minimal_height_with_many_denominators():
    assert minimal_height(FIVE) == 200


def test_scheme_table_shape(third_scheme):
    table = build_scheme_table(third_scheme)
    assert table.height == 3
    assert table.rows == (third_scheme.fractions,) * 3
    assert table.column_totals == (1, 2)
    taller = build_scheme_table(third_scheme, 6)
    assert taller.column_totals == (2, 4)
    assert build_scheme_table(FIVE, 10_000).height == 10_000  # 50,000 cells, the most a table may have


# ---------------------------------------------------------------- the network


def test_network_structure(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    assert len(net.edges) == 13
    assert _flow(net, source_vertex(), prefix_vertex(3, 0)) == 1
    assert _flow(net, source_vertex(), prefix_vertex(3, 1)) == 2
    assert _flow(net, prefix_vertex(3, 1), prefix_vertex(2, 1)) == F(4, 3)
    assert _flow(net, prefix_vertex(2, 0), row_vertex(0)) == F(1, 3)  # cell (0, 0)
    assert _flow(net, prefix_vertex(3, 1), row_vertex(2)) == F(2, 3)  # cell (2, 1)
    assert _flow(net, row_vertex(0), sink_vertex()) == 1
    for e in net.edges:
        assert e.upper - e.lower in (0, 1)
        assert e.lower <= e.flow <= e.upper
        if e.flow.denominator == 1:
            assert e.lower == e.upper == e.flow


def _tuple_sorted_network(table):
    """The reference construction: tuple vertices in canonical order, edges
    sorted by that order, and ``Fraction`` flows at each constraint's sum.
    Returns the vertex count, the numbered edges, the scale, the scaled flows,
    each cell's edge row by row, the tuple edges and the ``Fraction`` flows."""
    k, alphas = table.height, table.scheme.fractions
    n = len(alphas)
    seq = [source_vertex()]
    for j in range(n):
        for depth in range(k, 1, -1):
            seq.append(prefix_vertex(depth, j))
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
            pairs.append((prefix_vertex(depth, j), row_vertex(depth - 1)))  # cell (depth - 1, j)
        pairs.append((prefix_vertex(2, j), row_vertex(0)))  # cell (0, j)
    for i in range(k):
        pairs.append((row_vertex(i), sink_vertex()))
    pairs.sort(key=lambda e: (order[e[0]], order[e[1]]))

    def initial(tail, head):
        if head[0] == "prefix":  # the first l cells of column j carry l*a_j
            return head[1] * alphas[head[2]]
        if head[0] == "row":  # a cell
            return alphas[tail[2]]
        return F(1)  # row -> sink

    fractions = [initial(t, h) for t, h in pairs]
    scale, flows = scaled(fractions)
    numbered = [(order[t], order[h]) for t, h in pairs]
    index = {pair: e for e, pair in enumerate(pairs)}
    cells = [index[prefix_vertex(max(i, 1) + 1, j), row_vertex(i)] for i in range(k) for j in range(n)]
    return len(seq), numbered, scale, flows, cells, pairs, fractions


def test_numbered_network_equals_the_tuple_sorted_one(third_scheme, quarters_scheme):
    """The integer edges, scaled flows and cell edges equal the tuple-sorted network's
    index for index: the edge order fixes the cycle rule, hence every draw."""
    for scheme, heights in (
        (third_scheme, (3, 6, 30, 99)), (quarters_scheme, (4, 8, 40)), (FIVE, (200, 400))
    ):
        for k in heights:
            table = build_scheme_table(scheme, k)
            vertices, edges, scale, flows, cells, pairs, fractions = _tuple_sorted_network(table)
            assert roster._scheme_network(table) == (vertices, edges, scale, flows, cells), k
            network = build_flow_network(table)
            assert [(e.tail, e.head, e.flow) for e in network.edges] == [
                (t, h, f) for (t, h), f in zip(pairs, fractions)
            ], k


# ---------------------------------------------------------------- cycles


def test_deterministic_cycle_is_stable(third_scheme):
    net = build_flow_network(build_scheme_table(third_scheme))
    cycle = find_flow_cycle(net)
    assert cycle == ((2, 1), (4, 1), (8, -1), (6, -1), (7, 1), (3, -1))
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


def test_a_network_with_its_edges_in_another_order_is_walked_on_its_own_edges(third_scheme):
    """The walk joins the edges of the network it is given, not the canonical
    network's edges at the same indices."""
    table = build_scheme_table(third_scheme)
    rev = FlowNetwork(table, tuple(reversed(build_flow_network(table).edges)))
    for seed in range(5):
        net, rng = rev, SplitStream(seed)
        while not net.is_integral:
            cycle = find_flow_cycle(net)
            for (e, d), (e2, d2) in zip(cycle, cycle[1:] + cycle[:1]):
                this, following = net.edges[e], net.edges[e2]
                assert (this.head if d > 0 else this.tail) == (following.tail if d2 > 0 else following.head)
            net = decompose_flow_once(net, rng, cycle=cycle)
        positions = IntegralBlock.from_network(net).positions
        for depth in range(1, len(positions) + 1):
            for cat, f in zip(third_scheme.categories, third_scheme.fractions):
                assert abs(positions[:depth].count(cat) - depth * f) < 1


def test_a_block_reads_alike_off_a_network_with_its_edges_reversed(third_scheme, quarters_scheme):
    """``IntegralBlock.from_network`` finds each cell by its prefix and row
    vertices, so an integral network listed backwards gives the same block."""
    for scheme, height in ((third_scheme, 3), (third_scheme, 12), (quarters_scheme, 8)):
        table = build_scheme_table(scheme, height)
        for seed in range(3):
            block, steps = stepwise_draw(table, SplitStream(seed))
            reversed_network = FlowNetwork(table, steps[-1].result.edges[::-1])
            assert IntegralBlock.from_network(reversed_network) == block, (height, seed)


def test_named_cycle_step_is_an_even_split(third_scheme):
    """A known 6-edge cycle has headroom 1/3 both ways, so the step is a
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
    assert _flow(fwd, prefix_vertex(2, 1), row_vertex(1)) == 1  # cell (1, 1)
    assert _flow(fwd, prefix_vertex(3, 1), prefix_vertex(2, 1)) == F(5, 3)
    assert _flow(fwd, prefix_vertex(3, 0), row_vertex(2)) == F(2, 3)  # cell (2, 0)
    assert _flow(fwd, prefix_vertex(2, 0), row_vertex(1)) == 0  # cell (1, 0)
    assert _flow(bwd, prefix_vertex(2, 0), row_vertex(1)) == F(2, 3)
    assert _flow(bwd, prefix_vertex(3, 1), prefix_vertex(2, 1)) == 1
    # untouched edges keep their flow in both branches
    assert _flow(fwd, source_vertex(), prefix_vertex(3, 1)) == 2
    assert _flow(bwd, source_vertex(), prefix_vertex(3, 1)) == 2
    # exact mixture identity
    for e, f, b in zip(net.edges, fwd.edges, bwd.edges):
        assert F(1, 2) * f.flow + F(1, 2) * b.flow == e.flow


def _assert_branches_share_off_the_cycle(step: FlowStep) -> None:
    """Edges off the cycle are the pre-step ``FlowEdge`` objects; an edge on it
    moves by d+ one way and d- the other, as a ``Fraction``."""
    sign = dict(step.cycle)
    for e, (pre, fwd, bwd) in enumerate(
        zip(step.network.edges, step.raise_forward.edges, step.raise_backward.edges)
    ):
        if e in sign:
            assert (fwd.tail, fwd.head, fwd.lower, fwd.upper) == (pre.tail, pre.head, pre.lower, pre.upper)
            assert fwd.flow == pre.flow + sign[e] * step.d_plus, e
            assert bwd.flow == pre.flow - sign[e] * step.d_minus, e
            assert type(fwd.flow) is type(bwd.flow) is F
        else:
            assert fwd is pre and bwd is pre, e


def test_observed_flow_branches_share_every_edge_off_the_cycle(third_scheme):
    """In observed draws and single steps alike, both branches replace only
    the cycle's edges of the pre-step network."""
    for scheme, height in ((third_scheme, 30), (MIXED, 12)):
        for seed in range(3):
            steps = []
            draw_block(scheme, height, SplitStream(seed), on_step=steps.append)
            _, single = stepwise_draw(build_scheme_table(scheme, height), SplitStream(seed))
            assert steps and len(single) == len(steps)
            for step in steps + single:
                _assert_branches_share_off_the_cycle(step)


def test_sampler_walks_the_networks_own_edges_in_order():
    """The sampler walks ``build_flow_network``'s edges, index for index, from
    their flows, one vertex number per tuple vertex; at five-category height
    200, 2,195 edges of which 1,957 start fractional."""
    for scheme, height in ((FIVE, 200), (FIVE, 400), (THIRD, 6)):
        table = build_scheme_table(scheme, height)
        network, start = build_flow_network(table), roster._BlockSampler(table).start
        heads = {e: head for inc in start.graph.incidence for e, d, head in inc if d > 0}
        names = {}  # vertex number -> tuple vertex
        for e, edge in enumerate(network.edges):
            assert names.setdefault(start.graph.tails[e], edge.tail) == edge.tail, (height, e)
            assert names.setdefault(heads[e], edge.head) == edge.head, (height, e)
        assert len(set(names.values())) == len(names) and len(heads) == len(network.edges), height
        assert [F(f, start.scale) for f in start.flows] == [edge.flow for edge in network.edges], height
    start = roster._BlockSampler(build_scheme_table(FIVE, 200)).start
    assert len(start.flows) == 2195
    assert sum(1 for f in start.flows if f % start.scale) == 1957


def _leaf_depths(node, depth=0):
    """(leaf, depth) of every leaf under ``node``; inner nodes must hold a probability and two children."""
    if not isinstance(node, list):
        return [(node, depth)]
    num, den, taken, not_taken = node
    assert 0 < num < den
    return _leaf_depths(taken, depth + 1) + _leaf_depths(not_taken, depth + 1)


def test_descent_draws_the_block_loop_across_chunk_boundaries(monkeypatch, third_scheme, quarters_scheme):
    """Rosters of 100, 150, 67, 64, 65 and 33 blocks, from an odd draw index,
    descend in chunks of at most 64 blocks.  A chunk of c blocks reads c
    times the deepest leaf's depth ahead (2 on 1/3; 4 on quarters, whose
    depth-3 leaves leave some of it unread) from where the blocks before it
    left the stream, in batches of at most 64, and the descent returns the
    blocks, and leaves the stream at the draw index, of per-block walks."""
    for scheme, depth in ((third_scheme, 2), (quarters_scheme, 4)):
        sampler, unread = roster._BlockSampler(build_scheme_table(scheme)), False
        for seed, count in ((0, 100), (1, 150), (2, 67), (3, 64), (4, 65), (5, 33)):
            a, b = SplitStream(seed), SplitStream(seed)
            a.next_u64(), b.next_u64()
            starts, want = [], []
            for _ in range(count):
                starts.append(b._n)
                want.append(sampler.walk(b))
            batches = recorded_batches(monkeypatch)
            assert sampler.blocks(a, count) == want and a._n == b._n, (scheme, seed)
            ahead = [min(count - first, 64) * depth for first in range(0, count, 64)]
            assert batches == [(starts[64 * c] + m, min(64, span - m)) for c, span in enumerate(ahead)
                               for m in range(0, span, 64)], (scheme, seed)
            unread = unread or b._n < starts[0] + count * depth
            monkeypatch.undo()
        assert unread == (depth == 4), scheme


def _per_step_blocks(sampler, key: int, count: int) -> tuple:
    """``count`` blocks descended from stream ``key`` one ``randrange`` at a time, the stream's
    ``_n`` after them, and the bounds of each block's draws."""
    stream, blocks, bounds = CountingStream(key), [], []
    for _ in range(count):
        before = len(stream.bounds)
        blocks.append(sampler.blocks(per_step(stream), 1)[0])
        bounds.append(stream.bounds[before:])
    return blocks, stream._n, bounds


def test_descent_draws_a_chunk_holding_a_rejectable_u64_by_randrange(third_scheme, quarters_scheme):
    """Streams whose u64 number j is 2**64 - 1, which ``randrange(3)`` rejects.  100 blocks of 1/3
    read u64s 1 .. 128 for their first chunk and 129 .. 200 for their second; at the first or the last
    u64 of either, that chunk's every decision goes to ``randrange`` and the other chunk reads ahead.
    On quarters, one just past the u64s the first chunk used is read ahead by both chunks.  Either way
    the descent draws the blocks and ``_n`` of per-step draws."""
    top, quarters = (1 << 64) - 1, roster._BlockSampler(build_scheme_table(quarters_scheme))
    cases = [(third_scheme, j, chunks) for j, chunks in ((1, [0]), (128, [0]), (129, [1]), (200, [1]))]
    j = next(j for j in range(129, 257) if _per_step_blocks(quarters, key_with_u64(top, j), 64)[1] == j - 1)
    cases.append((quarters_scheme, j, [0, 1]))
    for scheme, j, chunks in cases:
        sampler, key = roster._BlockSampler(build_scheme_table(scheme)), key_with_u64(top, j)
        blocks, n, bounds = _per_step_blocks(sampler, key, 100)
        stream = CountingStream(key)
        assert sampler.blocks(stream, 100) == blocks and stream._n == n, j
        assert stream.bounds == [den for c in chunks for block in bounds[64 * c:64 * c + 64] for den in block], j


def test_draws_change_no_node_of_the_tree(quarters_scheme):
    """Blocks, walks and reads leave every node of the tree as it was built."""
    sampler = roster._BlockSampler(build_scheme_table(quarters_scheme, 8))
    built = copy.deepcopy(sampler.root)
    for seed in range(30):
        stream = SplitStream(seed)
        sampler.blocks(stream, 2)
        sampler.walk(stream)
        sampler.read([3], [[0, 2]])([seed + 100])
        assert sampler.root == built, seed
    assert len(_leaf_depths(sampler.root)) == 196


def test_a_sampler_never_changes_once_built(third_scheme, quarters_scheme):
    """``blocks``, ``read``, ``walk`` and streams that are not read from batches
    leave a sampler's ``root`` and ``fixed`` the very objects it was built with,
    with or without a tree."""
    for scheme, height in ((third_scheme, 3), (quarters_scheme, 8), (MIXED, 12)):
        sampler = roster._BlockSampler(build_scheme_table(scheme, height))
        root, fixed = sampler.root, sampler.fixed
        for seed in range(3):
            sampler.blocks(SplitStream(seed), 5)
            sampler.read([5], [[1, 3]])([seed])
            sampler.walk(SplitStream(seed))
            sampler.blocks(CountedU64s(seed), 3)
            sampler.blocks(random.Random(seed), 3)
            assert sampler.root is root and sampler.fixed is fixed, (height, seed)


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


def test_an_observed_draw_leaves_the_cached_sampler_alone(third_scheme, quarters_scheme):
    """An observed draw walks the table's own network: on the cached sampler's
    scheme and on others, it neither looks up, builds nor evicts a sampler,
    and it returns the block an unobserved draw returns."""
    table = build_scheme_table(third_scheme, 6)
    cached = roster._sampler(table)
    info = roster._sampler.cache_info()
    for scheme, height in ((third_scheme, 6), (quarters_scheme, None), (third_scheme, None)):
        for seed in range(3):
            steps = []
            block = draw_block(scheme, height, SplitStream(seed), on_step=steps.append)
            assert steps and block == roster._BlockSampler(build_scheme_table(scheme, height)).walk(SplitStream(seed))
    assert roster._sampler.cache_info() == info
    assert roster._sampler(table) is cached


def test_a_valid_block_reads_its_positions(third_scheme):
    assert IntegralBlock(third_scheme, 3, ((0, 1), (1, 0), (0, 1))).positions == ("c2", "c1", "c2")


def _refusal(build) -> object:
    """The class and message ``build()`` raises, or None."""
    try:
        build()
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        return type(error), str(error)
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_check_refuses_what_the_row_by_row_check_refuses(data):
    """A table of a golden scheme (or half/half) at a valid height, a drawn block or one-hot rows of random
    columns, with up to three edits at random rows, columns and depths (an entry set to -1 .. 2, 0.0, 1.0,
    True or the unhashable [1], a row's 1 moved, two rows swapped, a row widened or cut, a row replaced by
    an int, which has no length, the last row dropped): ``IntegralBlock`` accepts it exactly when
    ``conftest.row_by_row_block_check`` does, and otherwise raises the same class and message."""
    scheme = SCHEMES[data.draw(st.sampled_from(sorted(SCHEMES)))][0]
    n, height = scheme.size, minimal_height(scheme) * data.draw(st.integers(1, 1 if scheme.size > 3 else 4))
    if data.draw(st.booleans()):
        rows = [list(row) for row in draw_block(scheme, height, SplitStream(data.draw(st.integers(0, 99)))).entries]
    else:
        rows = [[int(j == c) for j in range(n)] for c in data.draw(st.lists(
            st.integers(0, n - 1), min_size=height, max_size=height))]
    edit = st.tuples(st.sampled_from(["set", "move", "swap", "widen", "cut", "int", "drop"]), st.integers(0, height - 1),
                     st.integers(0, n - 1), st.sampled_from([-1, 0, 1, 2, 0.0, 1.0, True, [1]]))
    edits = data.draw(st.lists(edit, max_size=3))
    last = {"cut": 1, "int": 2, "drop": 3}  # entries first, then shapes
    for kind, i, j, v in sorted(edits, key=lambda e: last.get(e[0], 0)):
        if kind == "set":
            rows[i][j] = v
        elif kind == "move":
            rows[i] = [int(c == j) for c in range(n)]
        elif kind == "swap":
            other = (i + j + 1) % height
            rows[i], rows[other] = rows[other], rows[i]
        elif kind == "widen":
            rows[i].append(v)
        elif kind == "cut":
            del rows[i][-1:]
        elif kind == "int":
            rows[i] = j
        elif rows:
            rows.pop()
    entries = tuple(row if type(row) is int else tuple(row) for row in rows)
    want = _refusal(lambda: row_by_row_block_check(scheme, height, entries))
    assert _refusal(lambda: IntegralBlock(scheme, height, entries)) == want
    event("refused" if want else "accepted")


def test_draw_block_of_twice_the_minimal_height(third_scheme):
    block = draw_block(third_scheme, 6, SplitStream(0))
    assert len(block.positions) == 6
    assert block.positions.count("c1") == 2


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


def test_a_roster_of_length_zero_is_empty(third_scheme):
    assert len(draw_roster(third_scheme, 0, SplitStream(0))) == 0


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


# ---------------------------------------------------------------- refusals

# These tests checked refusals that are rows of conftest.REFUSALS now (tests/test_refusals.py runs
# each row); each name runs its rows again.
test_scheme_table_rejects_bad_height = rerun(["height-4-on-thirds", "height-100-on-five"])
test_scheme_table_rejects_more_than_the_cell_limit = rerun(
    ["five-past-the-cell-limit", "thirds-past-the-cell-limit", "roster-past-the-cell-limit"])
test_network_validates_conservation = rerun(["network-not-conserved"])
test_network_validates_bounds = rerun(["network-bound-of-width-2"])
test_network_messages_print_the_flows_as_fractions = rerun(
    ["network-flow-below-its-bound", "network-imbalance-of-a-half", "network-imbalance-of-one"])
test_network_validates_degrees = rerun(["network-prefix-with-two-edges-in", "network-row-with-two-edges-out"])
test_flow_step_refuses_branches_on_another_scheme_table = rerun(
    ["flow-branches-on-another-table", "flow-lowered-branch-on-another-table"])
test_flow_step_names_the_edge_that_does_not_mix_back = rerun(["flow-step-that-does-not-mix-back"])
test_flow_step_refuses_branches_with_an_edge_the_network_lacks = rerun(["flow-branches-with-an-extra-edge"])
test_flow_step_refuses_branches_that_list_the_edges_in_another_order = rerun(
    ["flow-branches-with-two-edges-swapped"])
test_supplied_cycle_is_validated = rerun(["vertex-path-without-an-edge", "vertex-path-through-an-integral-edge"])
test_supplied_cycle_must_stay_in_the_network = rerun({
    "cycle0": ["edge-cycle-with-negative-indices"], "cycle1": ["edge-cycle-past-the-edges"],
    "cycle2": ["edge-cycle-at-the-edge-count"]})
test_block_validation = rerun(["block-row-with-two-ones", "block-a-full-seat-off"])
test_draw_block_respects_height = rerun(["block-of-height-5-on-thirds"])
test_empty_and_invalid_rosters = rerun(
    ["roster-of-negative-length", "roster-draw-under-an-unknown-policy", "roster-under-an-unknown-policy"])
