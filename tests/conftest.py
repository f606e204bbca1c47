"""Shared fixtures and helpers: small and golden schemes and problems, scripted and counting streams, the
block walk of a scheme table's network in the paper's form (a vertex per cell), ``expand`` (the observed-step
oracle of both walks' exact laws) and ``REFUSALS``, the table of every refusal of the roster and rounding objects.

Test modules import helpers from here, never from one another."""

import random
import signal
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from reserve2d import (
    ExtendedTable, FairShareTable, FlowNetwork, FractionCycle, IntegralBlock, ReservationProblem,
    ReservationScheme, Roster, SplitStream, build_fair_share_table, build_flow_network, build_scheme_table,
    controlled_round, decompose_flow_once, decompose_once, draw_block, draw_roster, extend_table, find_flow_cycle,
    minimal_height,
)
from reserve2d import roster, rounding
from reserve2d.roster import FlowEdge, prefix_vertex, row_vertex, sink_vertex, source_vertex
from reserve2d._walk import Graph, Walk
from reserve2d.fileio import parse_scheme_file
from reserve2d.rng import _GAMMA, _MASK64, _index_of, _u64s, _unmix64


# The realistic five-category scheme (15 / 7.5 / 27 / 10 / 40.5 %); its minimal block height is 200.
FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"),
    (Fraction(3, 20), Fraction(3, 40), Fraction(27, 100), Fraction(1, 10), Fraction(81, 200)),
)
THIRD = ReservationScheme(("c1", "c2"), (Fraction(1, 3), Fraction(2, 3)))
QUARTERS = ReservationScheme(("c1", "c2", "c3"), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
TENTH = ReservationScheme(("c1", "c2"), (Fraction(1, 10), Fraction(9, 10)))
MIXED = ReservationScheme(("a", "b", "c"), (Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)))  # no tree at height 12
# Each golden scheme, and half/half (one-u64 blocks: one-lane reads), with its leaves' depths at its minimal height.
SCHEMES = {name: (parse_scheme_file(str(Path(__file__).parent / "golden" / f"scheme_{name}.csv")), depths)
           for name, depths in (("third", (2,)), ("quarters", (3, 4)), ("tenth", (9,)), ("five", None))}
SCHEMES["half"] = (ReservationScheme(("c1", "c2"), (Fraction(1, 2), Fraction(1, 2))), (1,))


class ForcedRng:
    """Stand-in RNG whose branch draws follow a fixed script.

    Used to steer a decomposition step onto a chosen branch so both
    branches of a step can be inspected exactly.
    """

    def __init__(self, *outcomes: bool):
        self.outcomes = list(outcomes)

    def bernoulli(self, p) -> bool:
        return self.outcomes.pop(0)

    def randrange(self, n: int) -> int:
        """The walks draw ``randrange(den) < num`` with 0 < num < den, so
        0 scripts the raising branch and n - 1 the lowering one."""
        return 0 if self.outcomes.pop(0) else n - 1


def random_problem(parts, vacancies) -> ReservationProblem:
    """One period of ``vacancies`` under the scheme of fractions proportional to ``parts``."""
    scheme = ReservationScheme(tuple(f"c{j}" for j in range(len(parts))), tuple(Fraction(p, sum(parts)) for p in parts))
    return ReservationProblem(tuple(f"d{i}" for i in range(len(vacancies))), scheme, (tuple(vacancies),))


def tree_law(root, key=lambda leaf: leaf) -> dict:
    """The probability of each ``key(leaf)`` under a ``_walk.tree`` root, equal keys merged; every
    inner node must hold a probability num/den strictly between 0 and 1."""
    law, pending = {}, [(root, 1, 1)]  # a node and its mass p/q
    while pending:
        node, p, q = pending.pop()
        if isinstance(node, list):
            num, den, taken, not_taken = node
            assert 0 < num < den, node[:2]
            pending += [(taken, p * num, q * den), (not_taken, p * (den - num), q * den)]
        else:  # masses summed in integers over each denominator q
            over = law.setdefault(key(node), {})
            over[q] = over.get(q, 0) + p
    return {leaf: sum(Fraction(p, q) for q, p in over.items()) for leaf, over in law.items()}


def expand(start, step, key=lambda leaf: leaf) -> dict:
    """The exact law of ``key`` of the integral networks or tables reached from ``start``, equal keys merged,
    from both branches (named by ``BRANCHES``) of every observed ``step``: ``decompose_flow_once``, or
    ``decompose_once`` with its cycle left to the walk.  A branch must have fewer fractional entries than its
    pre-step object and every entry within floor/ceil of its start.  Equal objects are expanded once, their
    masses summed, after every object with more fractional entries (all the runs into them)."""
    fractional = lambda walked: sum(1 for f in walked._scaled[1] if f % walked._scaled[0])  # how many entries
    scale, flows = start._scaled
    bounds = [(f // scale, -(-f // scale)) for f in flows]
    # fractional entries -> scaled entries -> (the object, its mass)
    law, levels = {}, {fractional(start): {(scale, tuple(flows)): (start, Fraction(1))}}
    while levels:
        count = max(levels)
        for walked, mass in levels.pop(count).values():
            if not count:
                law[key(walked)] = law.get(key(walked), 0) + mass
                continue
            seen = []
            step(walked, rng=ForcedRng(True), on_step=seen.append)
            (record,) = seen
            for name, p in zip(record.BRANCHES, (record.probability, 1 - record.probability)):
                branch = getattr(record, name.replace("-", "_"))
                (s, fs), fewer = branch._scaled, fractional(branch)
                assert fewer < count and all(low * s <= f <= high * s for (low, high), f in zip(bounds, fs)), name
                level, state = levels.setdefault(fewer, {}), (s, tuple(fs))
                level[state] = branch, level.get(state, (None, 0))[1] + mass * p
    return law


class CountingStream(SplitStream):
    """A stream that records the bound of every ``randrange`` call."""

    __slots__ = ("bounds",)

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return super().randrange(n)


class CountedU64s(SplitStream):
    """A stream that counts its ``next_u64`` calls: a subclass that overrides it."""

    __slots__ = ("calls",)

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def next_u64(self):
        self.calls += 1
        return super().next_u64()


class ZeroU64s(SplitStream):
    """A stream whose every u64 is 0."""

    def next_u64(self):
        self._n += 1
        return 0


class CountingRandom(random.Random):
    """A stdlib generator keyed by its seed that counts its draws: an rng other than a SplitStream."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.key, self._n = seed, 0

    def randrange(self, n: int) -> int:
        self._n += 1
        return super().randrange(n)


def per_step(stream) -> SimpleNamespace:
    """``stream`` seen through its ``randrange`` alone, so no walk or descent reads it in batches."""
    return SimpleNamespace(key=stream.key, randrange=stream.randrange)


def recorded_batches(monkeypatch) -> list:
    """The (draw index, lane count) of every batch ``rng._u64s`` mixes from now on."""
    calls = []
    monkeypatch.setattr("reserve2d.rng._u64s", lambda key, n, count: calls.append((n, count)) or _u64s(key, n, count))
    return calls


def key_with_u64(u: int, j: int) -> int:
    """The key of the stream whose u64 number ``j`` (from 1; 0 is read by no draw) is ``u``."""
    key = (_unmix64(u) - j * _GAMMA) & _MASK64
    assert _index_of(key, u) == j
    return key


def paper_network(table) -> tuple:
    """The paper's network of ``table``, a vertex per cell: its vertex count, edges, scale L, initial flows
    times L and each cell's edge, row by row, the cell -> row one.  Vertices are numbered source 0, prefix
    (j, depth) for each column j with depth falling from k to 2, cell (i, j) row-major, row i, sink, and the
    edges are listed by (tail, head) number.  Each cell's two edges carry the same flow, so ``roster``'s
    network is this one with each cell's pair as one prefix -> row edge at the prefix -> cell edge's place."""
    k, n = table.height, table.scheme.size
    scale = minimal_height(table.scheme)
    shares = [int(scale * a) for a in table.scheme.fractions]
    cell = 1 + n * (k - 1)
    row = cell + k * n
    edges = [(0, 1 + j * (k - 1)) for j in range(n)]
    flows = [k * s for s in shares]  # the first l cells of column j carry l*a_j
    for j, s in enumerate(shares):
        for depth in range(k, 1, -1):
            prefix = 1 + j * (k - 1) + k - depth
            inner = prefix + 1 if depth > 2 else cell + j  # the next prefix, or cell (0, j)
            edges += [(prefix, inner), (prefix, cell + (depth - 1) * n + j)]
            flows += [(depth - 1) * s, s]
    cells = range(len(edges), len(edges) + k * n)
    edges += [(cell + c, row + c // n) for c in range(k * n)]
    flows += shares * k
    edges += [(row + i, row + k) for i in range(k)]
    flows += [scale] * k
    return row + k + 1, edges, scale, flows, cells


def network_walk(table, rng) -> tuple:
    """A block and its ``(num, den, take)`` draws walked on the paper's network, cell vertices kept."""
    vertices, edges, scale, flows, cells = paper_network(table)
    walk, draws = Walk(Graph(vertices, edges), scale, flows), []
    walk.run(rng, lambda *draw: draws.append(draw))
    return roster._block_of(table, cells, walk), draws


def row_by_row_block_check(scheme: ReservationScheme, height: int, entries) -> None:
    """The check ``IntegralBlock`` made row by row before its whole-list passes: raise the first refusal
    met at depths 1, 2, ... (row shape, then row sum, then each column's prefix count in column order)."""
    n = scheme.size
    if len(entries) != height:
        raise ValueError(f"expected {height} rows, got {len(entries)}")
    counts = [0] * n
    shares = [(f.numerator, f.denominator) for f in scheme.fractions]
    for depth, row in enumerate(entries, start=1):
        if not hasattr(row, "__len__") or len(row) != n or any(type(v) is not int or v not in (0, 1) for v in row):
            raise ValueError(f"row {depth} is not a 0/1 row of width {n}")
        if sum(row) != 1:
            raise ValueError(f"row {depth} must contain exactly one 1")
        for j, (v, (num, den)) in enumerate(zip(row, shares)):
            counts[j] += v
            if abs(counts[j] * den - depth * num) >= den:  # |count - depth*a_j| >= 1
                raise ValueError(
                    f"column {scheme.categories[j]!r} has {counts[j]} of the "
                    f"first {depth} positions; fair share is {depth * scheme.fractions[j]}"
                )


def stepwise_draw(table, rng) -> tuple:
    """A block and its observed steps from :func:`decompose_flow_once`, which
    searches every cycle afresh on a network of its own."""
    network, steps = roster.build_flow_network(table), []
    while not network.is_integral:
        network = roster.decompose_flow_once(network, rng, on_step=steps.append)
    return IntegralBlock.from_network(network), steps


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def mod3_roster(length: int) -> Roster:
    """Roster assigning category c1 to every third position, c2 otherwise."""
    return Roster(
        categories=("c1", "c2"),
        assignment=tuple("c1" if p % 3 == 0 else "c2" for p in range(1, length + 1)),
    )


@pytest.fixture
def tenth_scheme() -> ReservationScheme:
    return TENTH


@pytest.fixture
def third_scheme() -> ReservationScheme:
    return THIRD


@pytest.fixture
def half_scheme() -> ReservationScheme:
    return ReservationScheme(("c1", "c2"), (Fraction(1, 2), Fraction(1, 2)))


@pytest.fixture
def quarters_scheme() -> ReservationScheme:
    return QUARTERS


@pytest.fixture
def two_dept_problem(tenth_scheme) -> ReservationProblem:
    """Two departments, two periods, fractional fair shares everywhere."""
    return ReservationProblem(("d1", "d2"), tenth_scheme, ((9, 8), (17, 7)))


@pytest.fixture
def four_dept_problem(third_scheme) -> ReservationProblem:
    """Four departments hiring (2,1,2,1) in each of three periods."""
    return ReservationProblem(
        ("d1", "d2", "d3", "d4"), third_scheme, ((2, 1, 2, 1),) * 3
    )


@pytest.fixture
def three_dept_problem(quarters_scheme) -> ReservationProblem:
    """Three departments, one period, vacancies (2, 1, 3)."""
    return ReservationProblem(("d1", "d2", "d3"), quarters_scheme, ((2, 1, 3),))


# ---------------------------------------------------------------- refusals

F = Fraction
_H = F(1, 2)
# A 6-edge cycle of the 1/3 scheme table's network, as a closed vertex path; it has headroom 1/3 both ways.
PAPER_STYLE_CYCLE = [("prefix", 3, 0), ("row", 2), ("prefix", 3, 1), ("prefix", 2, 1), ("row", 1), ("prefix", 2, 0)]
# An 8-cell cycle of the extended quarters table of vacancies (2, 1, 3); it splits 2:1.
APPENDIX_CYCLE = FractionCycle(((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (3, 1), (3, 0)))
GOOD_FAIR = dict(departments=("a", "b"), categories=("x", "y"), entries=((_H, F(3, 2)), (F(3, 2), _H)),
                 row_totals=(2, 2), column_totals=(2, 2), grand_total=4)


@cache
def observed() -> SimpleNamespace:
    """What REFUSALS rows take apart, built once: the 1/3 scheme table's network and a walk of it to
    integrality, the extended quarters table of vacancies (2, 1, 3), each one's raising step along its
    cycle above with that step's raised branch moved by one scaled unit (a valid network or table that
    no longer mixes back), and the tables some rows build branches or extensions from."""
    network = build_flow_network(build_scheme_table(THIRD))
    integral, rng = network, SplitStream(11)
    while not integral.is_integral:
        integral = decompose_flow_once(integral, rng)
    table = extend_table(build_fair_share_table(ReservationProblem(("d1", "d2", "d3"), QUARTERS, ((2, 1, 3),)), 1))
    steps = []
    decompose_flow_once(network, ForcedRng(True), cycle=PAPER_STYLE_CYCLE, on_step=steps.append)
    decompose_once(table, APPENDIX_CYCLE, ForcedRng(True), on_step=steps.append)
    forward = list(steps[0].raise_forward.edges)  # pushed 1/3 around the forward branch's own first cycle
    for e, d in find_flow_cycle(steps[0].raise_forward):
        forward[e] = replace(forward[e], flow=forward[e].flow + d * F(1, 3))
    odd = [list(row) for row in steps[1].raise_odd.entries]  # a quarter moved around cells (1, 0) to (2, 1)
    for (i, j), d in (((1, 0), 1), ((1, 1), -1), ((2, 0), -1), ((2, 1), 1)):
        odd[i][j] += d * F(1, 4)
    return SimpleNamespace(
        network=network, integral=integral, table=table, flow_step=steps[0], rounding_step=steps[1],
        moved_forward=FlowNetwork(network.table, tuple(forward)),
        moved_odd=ExtendedTable(table.source, tuple(map(tuple, odd))),
        renamed=build_scheme_table(ReservationScheme(("x", "y"), THIRD.fractions)),
        wider=build_fair_share_table(ReservationProblem(("d1", "d2", "d3", "d4"), QUARTERS, ((2, 1, 3, 4),)), 1),
        tenths=build_fair_share_table(ReservationProblem(("d1", "d2"), TENTH, ((9, 8),)), 1),
    )


def _edge(e: int, **changes):
    """The 1/3 network with edge ``e`` changed (edge 0 runs source -> prefix (3, 0), edge 4 prefix (2, 0) -> row 0,
    cell (0, 0))."""
    return lambda s: FlowNetwork(s.network.table, tuple(
        replace(edge, **changes) if i == e else edge for i, edge in enumerate(s.network.edges)))


def _network_cycle(cycle):
    return lambda s: decompose_flow_once(s.network, s.rng, cycle=cycle)


def _table_cycle(*cells):
    return lambda s: decompose_once(s.table, FractionCycle(cells), s.rng)


def _block(*rows):
    return lambda s: IntegralBlock(THIRD, 3, rows)


def _extended(n: int, *rows):
    """``rows`` over the zero fair table of two departments and ``n`` categories."""
    fair = FairShareTable(("d1", "d2"), tuple(f"c{j}" for j in range(n)), ((0,) * n,) * 2, (0, 0), (0,) * n, 0)
    return lambda s: ExtendedTable(fair, tuple(tuple(F(v) for v in row) for row in rows))


def _fair_but(**changes):
    return lambda s: FairShareTable(**{**GOOD_FAIR, **changes})


def _negative() -> FairShareTable:
    """The fair table of rows (1, 1) and (-1, 2): its margins hold, and its synthetic row would be (0, 0)."""
    return FairShareTable(("d1", "d2"), ("c0", "c1"), ((F(1), F(1)), (F(-1), F(2))), (2, 1), (F(0), F(3)), 3)


def _path(*vertices, flow=F(1)):
    """A network of the 1/3 scheme table with one edge, carrying ``flow`` within [0, 1], between consecutive
    ``vertices``."""
    return lambda s: FlowNetwork(s.network.table, tuple(FlowEdge(a, b, flow, 0, 1) for a, b in zip(vertices, vertices[1:])))


def _step(walk: str, build=None, **changes):
    """The observed step of ``walk`` ("flow" or "rounding") with ``changes``, or with ``build(s, b)``
    in place of each branch b, the raised one its result."""
    def call(s):
        step = getattr(s, f"{walk}_step")
        if build is None:
            return replace(step, **changes)
        raised, lowered = (name.replace("-", "_") for name in step.BRANCHES)  # the branch fields
        branch = build(s, getattr(step, raised))
        return replace(step, **{raised: branch, lowered: build(s, getattr(step, lowered))}, result=branch)
    return call


_ORDER = "branches must list the pre-step network's edges in order, differing only in flow"
_POLICY = "unknown extension policy 'tile'; expected 'independent-blocks' or 'repeat-block'"
_SHAPE = "extended table must be 3 x 2 (source rows plus one synthetic row)"
_NEGATIVE = "fair share table entries must be nonnegative, got -1"
_ZERO = FairShareTable(("d1", "d2"), (), ((), ()), (0, 0), (), 0)  # no categories

# Every refusal of the roster and rounding objects: an id, a call on ``observed()`` and ``rng`` (a fresh
# ``SplitStream(1)``), the exception class and the full message.  A change to a refusal edits its row.
REFUSALS = [
    # scheme tables
    ("height-1-on-thirds", lambda s: build_scheme_table(THIRD, 1), ValueError,
     "scheme table height must be at least 2, got 1"),
    ("height-4-on-thirds", lambda s: build_scheme_table(THIRD, 4), ValueError, "height 4 leaves column 'c1' with "
     "the non-integral total 4/3; the smallest valid height is 3 (any multiple of it works)"),
    ("height-100-on-five", lambda s: build_scheme_table(FIVE, 100), ValueError, "height 100 leaves column 'st' with "
     "the non-integral total 15/2; the smallest valid height is 200 (any multiple of it works)"),
    ("block-of-height-5-on-thirds", lambda s: draw_block(THIRD, 5, s.rng), ValueError, "height 5 leaves column 'c1' "
     "with the non-integral total 5/3; the smallest valid height is 3 (any multiple of it works)"),
    ("five-past-the-cell-limit", lambda s: build_scheme_table(FIVE, 10_200), ValueError,
     "a scheme table of height 10200 over 5 categories has more than 50,000 cells"),
    ("thirds-past-the-cell-limit", lambda s: build_scheme_table(THIRD, 3_000_000), ValueError,
     "a scheme table of height 3000000 over 2 categories has more than 50,000 cells"),
    ("roster-past-the-cell-limit", lambda s: draw_roster(
        ReservationScheme(("c1", "c2"), (F(1, 999983), F(999982, 999983))), 5, s.rng), ValueError,
     "a scheme table of height 999983 over 2 categories has more than 50,000 cells"),
    ("roster-of-height-6.0-on-thirds", lambda s: (build_scheme_table(THIRD, 6), draw_roster(THIRD, 3, s.rng, height=6.0)),
     TypeError, "scheme table height must be an integer, got 6.0"),  # refused though height 6's table is cached
    # flow networks: checked in scaled integers, each message prints Fractions (an imbalance of one unit as 1)
    ("network-not-conserved", _edge(4, flow=F(2, 3)), ValueError,
     "flow is not conserved at ('prefix', 2, 0): imbalance -1/3"),
    ("network-bound-of-width-2", _edge(0, upper=3), ValueError,
     "edge ('source',)->('prefix', 3, 0): bound width 2 exceeds 1"),
    ("network-flow-below-its-bound", _edge(4, flow=F(-1, 3)), ValueError,
     "edge ('prefix', 2, 0)->('row', 0): flow -1/3 outside [0, 1]"),
    ("network-imbalance-of-a-half", _edge(0, flow=F(3, 2), upper=2), ValueError,
     "flow is not conserved at ('prefix', 3, 0): imbalance 1/2"),
    ("network-imbalance-of-one", _edge(0, flow=F(2), upper=2), ValueError,
     "flow is not conserved at ('prefix', 3, 0): imbalance 1"),
    ("network-prefix-with-two-edges-in", lambda s: FlowNetwork(s.network.table, s.network.edges + (
        FlowEdge(prefix_vertex(3, 0), prefix_vertex(2, 0), F(0), 0, 0),)), ValueError,
     "('prefix', 2, 0) must have exactly one incoming edge"),
    ("network-row-with-two-edges-out", lambda s: FlowNetwork(s.network.table, s.network.edges + (
        FlowEdge(row_vertex(0), sink_vertex(), F(0), 0, 0),)), ValueError, "('row', 0) must have exactly one outgoing edge"),
    # networks the decoder (a vertex off the table) or the walk (a source total that is not whole) cannot take
    ("network-through-a-row-off-its-table", _path(source_vertex(), prefix_vertex(2, 0), row_vertex(7), sink_vertex()),
     ValueError, "('row', 7) is not a vertex of the height-3 scheme table's network"),
    ("network-through-a-prefix-off-its-table", _path(source_vertex(), prefix_vertex(2, 5), row_vertex(0), sink_vertex()),
     ValueError, "('prefix', 2, 5) is not a vertex of the height-3 scheme table's network"),
    ("network-through-a-float-row", _path(source_vertex(), prefix_vertex(2, 0), ("row", 1.0), sink_vertex()),
     ValueError, "('row', 1.0) is not a vertex of the height-3 scheme table's network"),  # == ("row", 1)
    ("network-through-an-empty-vertex", _path(source_vertex(), prefix_vertex(2, 0), (), sink_vertex()),
     ValueError, "() is not a vertex of the height-3 scheme table's network"),
    ("network-through-an-int-vertex", _path(source_vertex(), prefix_vertex(2, 0), 7, sink_vertex()),
     ValueError, "7 is not a vertex of the height-3 scheme table's network"),
    ("network-sending-half-a-unit", _path(source_vertex(), prefix_vertex(2, 0), row_vertex(0), sink_vertex(), flow=_H),
     ValueError, "the source sends 1/2, not a whole number"),
    ("block-of-a-fractional-network", lambda s: IntegralBlock.from_network(s.network), ValueError,
     "network still has fractional flows"),
    # cycles supplied to decompose_flow_once
    ("vertex-path-without-an-edge", _network_cycle([source_vertex(), row_vertex(0)]), ValueError,
     "no edge joins ('source',) and ('row', 0)"),
    ("vertex-path-through-an-integral-edge", _network_cycle([
        source_vertex(), prefix_vertex(3, 0), prefix_vertex(2, 0), row_vertex(0), prefix_vertex(2, 1),
        prefix_vertex(3, 1)]), ValueError,
     "edge ('source',)->('prefix', 3, 0) is integral; cycles must be fractional"),
    ("edge-cycle-with-negative-indices", _network_cycle([(3, 1), (12, 1), (-1, -1), (-10, -1)]), ValueError,
     "cycle ((3, 1), (12, 1), (-1, -1), (-10, -1)) leaves the network's edges 0..12"),  # -1, -10 alias 12, 3
    ("edge-cycle-past-the-edges", _network_cycle([(999, 1), (3, 1)]), ValueError,
     "cycle ((999, 1), (3, 1)) leaves the network's edges 0..12"),
    ("edge-cycle-at-the-edge-count", _network_cycle([(3, 1), (13, 1)]), ValueError,
     "cycle ((3, 1), (13, 1)) leaves the network's edges 0..12"),
    ("edge-cycle-of-one-edge", _network_cycle([(3, 1)]), ValueError, "a cycle must list at least two distinct edges"),
    ("edge-cycle-of-one-edge-twice", _network_cycle([(3, 1), (3, 1)]), ValueError,
     "a cycle must list at least two distinct edges"),
    ("edge-cycle-in-direction-2", _network_cycle([(3, 2), (12, 1)]), ValueError, "direction must be +1 or -1, got 2"),
    ("edge-cycle-that-breaks", _network_cycle([(2, 1), (7, 1)]), ValueError,
     "cycle breaks between edges (('prefix', 3, 0), ('prefix', 2, 0)) and (('prefix', 3, 1), ('row', 2))"),
    ("integral-network", lambda s: decompose_flow_once(s.integral, s.rng), ValueError,
     "network is already integral; nothing to decompose"),
    # flow steps: branches on another scheme table or with other edges are refused before the mixture check
    ("flow-branches-on-another-table", _step("flow", lambda s, b: FlowNetwork(s.renamed, b.edges)), ValueError,
     "branches must share the scheme table of the pre-step network"),
    ("flow-lowered-branch-on-another-table", lambda s: replace(
        s.flow_step, raise_backward=FlowNetwork(s.renamed, s.flow_step.raise_backward.edges)), ValueError,
     "branches must share the scheme table of the pre-step network"),
    ("flow-branches-with-an-extra-edge", _step("flow", lambda s, b: FlowNetwork(
        b.table, b.edges + (FlowEdge(source_vertex(), sink_vertex(), F(5), 5, 5),))), ValueError, _ORDER),
    ("flow-branches-with-two-edges-swapped", _step("flow", lambda s, b: FlowNetwork(  # two row -> sink edges
        b.table, b.edges[:-2] + b.edges[:-3:-1])), ValueError, _ORDER),
    ("flow-step-that-does-not-mix-back", lambda s: replace(
        s.flow_step, raise_forward=s.moved_forward, result=s.moved_forward), ValueError,
     "branches do not mix back to the pre-step value at (('prefix', 3, 0), ('prefix', 2, 0))"),
    ("flow-step-of-zero-d-plus", _step("flow", d_plus=F(0)), ValueError, "both adjustments must be positive"),
    ("flow-step-on-an-unknown-branch", _step("flow", branch="sideways"), ValueError, "unknown branch 'sideways'"),
    ("flow-step-with-the-other-result", lambda s: replace(s.flow_step, result=s.flow_step.raise_backward),
     ValueError, "result must be the branch named by 'branch'"),
    # blocks and rosters
    ("block-row-with-two-ones", _block((1, 1), (0, 1), (0, 1)), ValueError, "row 1 must contain exactly one 1"),
    ("block-a-full-seat-off", _block((1, 0), (1, 0), (0, 1)), ValueError,
     "column 'c1' has 2 of the first 2 positions; fair share is 2/3"),
    ("block-short-of-rows", _block((1, 0), (0, 1)), ValueError, "expected 3 rows, got 2"),
    ("block-row-of-width-3", _block((1, 0, 0), (0, 1), (0, 1)), ValueError, "row 1 is not a 0/1 row of width 2"),
    ("block-of-height-2-on-thirds", lambda s: IntegralBlock(THIRD, 2, ((1, 0), (0, 1))), ValueError, "height 2 leaves "
     "column 'c1' with the non-integral total 2/3; the smallest valid height is 3 (any multiple of it works)"),
    ("block-row-holding-a-2", _block((0, 2), (0, 1), (1, 0)), ValueError, "row 1 is not a 0/1 row of width 2"),
    ("block-row-with-no-length", _block((1, 0), 1, (0, 1)), ValueError, "row 2 is not a 0/1 row of width 2"),
    ("block-holding-a-float-one", lambda s: IntegralBlock(SCHEMES["half"][0], 2, ((1.0, 0), (0, 1))), ValueError,
     "row 1 is not a 0/1 row of width 2"),
    ("block-holding-a-float-zero", lambda s: IntegralBlock(SCHEMES["half"][0], 2, ((0.0, 1), (0, 1))), ValueError,
     "row 1 is not a 0/1 row of width 2"),
    ("roster-of-negative-length", lambda s: draw_roster(THIRD, -1, s.rng), ValueError,
     "roster length must be nonnegative, got -1"),
    ("roster-draw-under-an-unknown-policy", lambda s: draw_roster(THIRD, 3, s.rng, "tile"), ValueError, _POLICY),
    ("roster-under-an-unknown-policy", lambda s: Roster(THIRD.categories, (), extension_policy="tile"), ValueError,
     _POLICY),
    # extended tables: one rule broken, then two (the first check in order wins)
    ("extended-without-its-synthetic-row", lambda s: ExtendedTable(s.tenths, s.tenths.entries), ValueError, _SHAPE),
    ("extended-with-a-fractional-synthetic-row", lambda s: ExtendedTable(
        s.tenths, s.tenths.entries + ((F(1, 10), F(1, 10)),)), ValueError, "row 2 does not sum to an integer"),
    ("extended-of-width-0-without-its-synthetic-row", lambda s: ExtendedTable(_ZERO, ((), ())), ValueError,
     "extended table must be 3 x 0 (source rows plus one synthetic row)"),
    ("extended-of-two-rows", _extended(2, (1, 1), (1, 1)), ValueError, _SHAPE),
    ("extended-with-a-short-row", _extended(2, (1, 1), (1, 1), (0,)), ValueError, _SHAPE),
    ("extended-with-a-negative-entry", _extended(2, (1, 1), (-1, 2), (0, 0)), ValueError, "row 1 has a negative entry"),
    ("extended-with-a-fractional-row", _extended(2, (1, 1), (_H, 1), (_H, 0)), ValueError,
     "row 1 does not sum to an integer"),
    ("extended-with-a-fractional-column", _extended(3, (1, 0, 0), (0, _H, _H), (0, 0, 1)), ValueError,
     "column 1 does not sum to an integer"),
    ("extended-with-long-rows-one-fractional", _extended(2, (1, 1, 0), (_H, 0, 0), (0, 0, 0)), ValueError, _SHAPE),
    ("extended-with-a-negative-fractional-row", _extended(2, (1, 1), (-_H, 1), (_H, 0)), ValueError,
     "row 1 has a negative entry"),
    ("extended-with-a-fractional-then-a-negative-row", _extended(2, (_H, 1), (-1, 2), (_H, 0)), ValueError,
     "row 0 does not sum to an integer"),
    ("extended-with-a-fractional-row-and-column", _extended(2, (_H, _H), (_H, 1), (0, 0)), ValueError,
     "row 1 does not sum to an integer"),
    # a negative fair share: the fair table refuses it, so an extension or a rounding of a fair table checks nothing
    ("extend-table-to-a-negative-entry", lambda s: extend_table(_negative()), ValueError, _NEGATIVE),
    ("integer-extension-to-a-negative-entry", lambda s: rounding._extension(_negative()), ValueError, _NEGATIVE),
    ("controlled-round-to-a-negative-entry", lambda s: controlled_round(_negative(), s.rng), ValueError, _NEGATIVE),
    # fair tables: the totals must be integers; the margins are checked in scaled integers, and each message
    # prints its sum as a Fraction
    ("fair-with-a-fractional-row-total", _fair_but(row_totals=(2, F(3, 2)), grand_total=F(7, 2)), ValueError,
     "fair share table totals must be integers, got Fraction(3, 2)"),
    ("fair-with-a-whole-fraction-grand-total", _fair_but(grand_total=F(4)), ValueError,
     "fair share table totals must be integers, got Fraction(4, 1)"),
    ("fair-row-a-short", _fair_but(entries=((_H, _H), (F(3, 2), _H))), ValueError, "row 'a' sums to 1, stored total is 2"),
    ("fair-row-b-off-by-a-third", _fair_but(entries=((_H, F(3, 2)), (F(3, 2), F(1, 3)))), ValueError,
     "row 'b' sums to 11/6, stored total is 2"),
    ("fair-row-total-too-large", _fair_but(row_totals=(2, 3), grand_total=5), ValueError,
     "row 'b' sums to 2, stored total is 3"),
    ("fair-column-total-of-halves", _fair_but(column_totals=(F(5, 2), F(3, 2))), ValueError,
     "column 'x' sums to 2, stored total is 5/2"),
    ("fair-column-total-of-thirds", _fair_but(column_totals=(F(7, 3), F(5, 3))), ValueError,
     "column 'x' sums to 2, stored total is 7/3"),
    ("fair-grand-total-too-large", _fair_but(grand_total=5), ValueError, "row totals do not sum to the grand total"),
    ("fair-without-categories", _fair_but(categories=(), entries=((), ()), row_totals=(0, 1), column_totals=(),
                                          grand_total=1), ValueError, "row 'b' sums to 0, stored total is 1"),
    ("fair-without-departments", _fair_but(departments=(), entries=(), row_totals=(), column_totals=(_H, _H),
                                           grand_total=0), ValueError, "column 'x' sums to 0, stored total is 1/2"),
    ("fair-without-departments-with-a-grand-total", _fair_but(
        departments=(), entries=(), row_totals=(), column_totals=(0, 0), grand_total=1), ValueError,
     "row totals do not sum to the grand total"),
    # fraction cycles, alone and supplied to decompose_once
    ("cell-cycle-of-two-cells", lambda s: FractionCycle(((0, 0), (0, 1))), ValueError,
     "a cycle needs an even number (>= 4) of cells, got 2"),
    ("cell-cycle-of-three-cells", lambda s: FractionCycle(((0, 0), (0, 1), (1, 1))), ValueError,
     "a cycle needs an even number (>= 4) of cells, got 3"),
    ("cell-cycle-repeating-a-cell", lambda s: FractionCycle(((0, 0), (1, 1), (1, 0), (0, 0))), ValueError,
     "cycle cells must be distinct"),
    ("cell-cycle-starting-on-a-column-step", lambda s: FractionCycle(((0, 0), (1, 0), (1, 1), (0, 1))), ValueError,
     "cells (0, 0) and (1, 0) must share a row (step 0 is a row step)"),
    ("cell-cycle-past-the-columns", _table_cycle((0, 0), (0, 5), (1, 5), (1, 0)), ValueError,  # 5 would be edge 5
     "cycle ((0, 0), (0, 5), (1, 5), (1, 0)) leaves the 4 x 3 extended table"),
    ("cell-cycle-at-a-negative-column", _table_cycle((0, 0), (0, -2), (1, -2), (1, 0)), ValueError,  # -2 would alias 1
     "cycle ((0, 0), (0, -2), (1, -2), (1, 0)) leaves the 4 x 3 extended table"),
    ("cell-cycle-past-the-synthetic-row", _table_cycle((0, 0), (0, 1), (4, 1), (4, 0)), ValueError,
     "cycle ((0, 0), (0, 1), (4, 1), (4, 0)) leaves the 4 x 3 extended table"),
    ("cell-cycle-at-a-negative-row", _table_cycle((-1, 0), (-1, 1), (0, 1), (0, 0)), ValueError,
     "cycle ((-1, 0), (-1, 1), (0, 1), (0, 0)) leaves the 4 x 3 extended table"),
    ("cell-cycle-from-an-integral-cell-outside", _table_cycle((0, 2), (0, 3), (1, 3), (1, 2)), ValueError,
     "cycle ((0, 2), (0, 3), (1, 3), (1, 2)) leaves the 4 x 3 extended table"),  # (0, 2) is integral, but (0, 3) is outside
    ("cell-cycle-through-an-integral-cell", _table_cycle((0, 0), (0, 2), (1, 2), (1, 0)), ValueError,
     "cell (0, 2) is integral; cycles must be fractional"),
    ("integral-table", lambda s: decompose_once(extend_table(build_fair_share_table(
        ReservationProblem(("d1", "d2"), THIRD, ((3, 6),)), 1)), None, s.rng), ValueError,
     "table is already integral; nothing to decompose"),
    ("table-of-width-0", lambda s: decompose_once(extend_table(_ZERO), None, s.rng), ValueError,
     "table is already integral; nothing to decompose"),
    # rounding steps: branches extending another table are refused before the mixture check
    ("rounding-step-of-another-probability", _step("rounding", probability=_H), ValueError,
     "branch probability must equal d-/(d- + d+)"),
    ("rounding-branches-of-another-table", _step("rounding", lambda s, b: ExtendedTable(  # four departments
        s.wider, b.entries + ((F(0),) * 3,))), ValueError,
     "branches must extend the departments and categories of the pre-step table"),
    ("rounding-step-that-does-not-mix-back", lambda s: replace(s.rounding_step, raise_odd=s.moved_odd, result=s.moved_odd),
     ValueError, "branches do not mix back to the pre-step value at (1, 0)"),
    ("rounding-step-of-zero-d-minus", _step("rounding", d_minus=F(0)), ValueError, "both adjustments must be positive"),
    ("rounding-step-on-an-unknown-branch", _step("rounding", branch="sideways"), ValueError, "unknown branch 'sideways'"),
    ("rounding-step-with-the-other-result", lambda s: replace(s.rounding_step, result=s.rounding_step.raise_even),
     ValueError, "result must be the branch named by 'branch'"),
]
_ROWS = {row_id: row for row_id, *row in REFUSALS}


def refuse(*row_ids: str) -> None:
    """Run REFUSALS rows: within 5 s each call raises exactly its class with exactly its
    message, and draws nothing from the stream it is handed."""
    for row_id in row_ids:
        call, error, message = _ROWS[row_id]
        s = SimpleNamespace(**vars(observed()), rng=SplitStream(1))
        with time_limit(5), pytest.raises(error) as refused:
            call(s)
        assert type(refused.value) is error and str(refused.value) == message
        assert s.rng._n == 0


def rerun(rows):
    """A test that runs REFUSALS rows again under a name that checked them before the table
    held them: ``rows`` lists row ids, or maps each id of a parametrized test to its list."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row_ids", list(rows.values()), ids=list(rows))
        def test(row_ids):
            refuse(*row_ids)
    else:
        def test():
            refuse(*rows)
    return test
