"""Roster lotteries: unbiased integer rosters drawn from a scheme table.

A *scheme table* of height k repeats the scheme fractions in every one of
its k rows, so that column j sums to k*a_j, an integer when k is a multiple
of every fraction's denominator.  An *integral block* is a 0/1 table of the
same shape with one 1 per row whose column prefix counts never stray from
the fair prefix l*a_j by one or more; reading row l's 1 as "position l is
reserved for category j" makes a block a roster segment that satisfies every
category's quota at every prefix length.

Blocks are drawn from a flow network whose vertices are the constraints of
the scheme table:

* one *cell* vertex per table cell (value in [0, 1]),
* one *row* vertex per row (row sums are 1),
* one *prefix* vertex per column j and depth l in 2..k (the sum of the
  first l cells of column j lies within floor/ceil of l*a_j).

Column j's flow enters at its deepest prefix vertex carrying k*a_j, peels
off one cell's worth (a_j) at each depth, and every row forwards exactly 1
to the sink.  The dependent-rounding walk of :mod:`reserve2d._walk` turns
these flows into an integral flow, i.e. a block, keeping every edge's
expectation.

Rosters longer than one block either concatenate independent block draws
(the default) or tile a single draw (``repeat-block``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional, Sequence, Union

from ._walk import Graph, Push, Walk, check_step, observed, scaled
from .core import ReservationScheme, Roster

__all__ = [
    "SchemeTable",
    "FlowEdge",
    "FlowNetwork",
    "FlowStep",
    "IntegralBlock",
    "minimal_height",
    "build_scheme_table",
    "build_flow_network",
    "find_flow_cycle",
    "decompose_flow_once",
    "draw_block",
    "draw_roster",
    "source_vertex",
    "prefix_vertex",
    "cell_vertex",
    "row_vertex",
    "sink_vertex",
]

# Vertices are plain tuples so cycles can be written down literally in tests
# and error messages.
Vertex = tuple


def source_vertex() -> Vertex:
    return ("source",)


def prefix_vertex(depth: int, column: int) -> Vertex:
    """Constraint vertex for the first ``depth`` cells of ``column`` (depth >= 2)."""
    return ("prefix", depth, column)


def cell_vertex(row: int, column: int) -> Vertex:
    return ("cell", row, column)


def row_vertex(row: int) -> Vertex:
    return ("row", row)


def sink_vertex() -> Vertex:
    return ("sink",)


def minimal_height(scheme: ReservationScheme) -> int:
    """Smallest block height that makes every column total integral."""
    return lcm(*(f.denominator for f in scheme.fractions))


# Most cells (height x categories) a scheme table may have.  The flow network
# and the sampler grow with the cell count; the limit allows height 10,000 on
# a five-category scheme.
_CELL_LIMIT = 50_000


@dataclass(frozen=True)
class SchemeTable:
    """Height-k table repeating the scheme fractions in every row."""

    scheme: ReservationScheme
    height: int

    def __post_init__(self):
        if self.height < 2:
            raise ValueError(f"scheme table height must be at least 2, got {self.height}")
        for cat, f in zip(self.scheme.categories, self.scheme.fractions):
            if (self.height * f).denominator != 1:
                raise ValueError(
                    f"height {self.height} leaves column {cat!r} with the "
                    f"non-integral total {self.height * f}; the smallest valid "
                    f"height is {minimal_height(self.scheme)} (any multiple of it works)"
                )
        if self.height * self.scheme.size > _CELL_LIMIT:
            raise ValueError(
                f"a scheme table of height {self.height} over {self.scheme.size} categories "
                f"has more than {_CELL_LIMIT:,} cells"
            )

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return (self.scheme.fractions,) * self.height

    @property
    def column_totals(self) -> tuple[int, ...]:
        return tuple(int(self.height * f) for f in self.scheme.fractions)


@lru_cache(maxsize=64)
def build_scheme_table(
    scheme: ReservationScheme, height: Optional[int] = None
) -> SchemeTable:
    """Scheme table of the given height (default: the minimal valid height)."""
    if height is None:
        height = minimal_height(scheme)
    return SchemeTable(scheme, height)


@dataclass(frozen=True)
class FlowEdge:
    """One edge with its current flow and its fixed floor/ceil bounds."""

    tail: Vertex
    head: Vertex
    flow: Fraction
    lower: int
    upper: int


@lru_cache(maxsize=64)
def _vertex_orders(height: int, n: int) -> dict:
    """Canonical vertex enumeration used for deterministic tie-breaking."""
    seq: list[Vertex] = [source_vertex()]
    for j in range(n):
        for depth in range(height, 1, -1):
            seq.append(prefix_vertex(depth, j))
    for i in range(height):
        for j in range(n):
            seq.append(cell_vertex(i, j))
    for i in range(height):
        seq.append(row_vertex(i))
    seq.append(sink_vertex())
    return {v: pos for pos, v in enumerate(seq)}


@lru_cache(maxsize=64)
def _edge_skeleton(height: int, n: int) -> tuple[tuple[Vertex, Vertex], ...]:
    """Edge list for a height x n network, sorted by vertex order."""
    order = _vertex_orders(height, n)
    pairs: list[tuple[Vertex, Vertex]] = []
    for j in range(n):
        pairs.append((source_vertex(), prefix_vertex(height, j)))
        for depth in range(height, 2, -1):
            pairs.append((prefix_vertex(depth, j), prefix_vertex(depth - 1, j)))
        for depth in range(height, 1, -1):
            pairs.append((prefix_vertex(depth, j), cell_vertex(depth - 1, j)))
        pairs.append((prefix_vertex(2, j), cell_vertex(0, j)))
    for i in range(height):
        for j in range(n):
            pairs.append((cell_vertex(i, j), row_vertex(i)))
    for i in range(height):
        pairs.append((row_vertex(i), sink_vertex()))
    pairs.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return tuple(pairs)


@lru_cache(maxsize=64)
def _graph(height: int, n: int) -> Graph:
    """The network as an integer graph, vertices numbered in canonical order."""
    order = _vertex_orders(height, n)
    return Graph(len(order), [(order[t], order[h]) for t, h in _edge_skeleton(height, n)])


def _initial_flow(table: SchemeTable, tail: Vertex, head: Vertex) -> Fraction:
    alphas = table.scheme.fractions
    if head[0] == "prefix":  # the first l cells of column j carry l*a_j
        return head[1] * alphas[head[2]]
    if head[0] == "cell":
        return alphas[head[2]]
    if tail[0] == "cell":
        return alphas[tail[2]]
    return Fraction(1)  # row -> sink


@dataclass(frozen=True)
class FlowNetwork:
    """The constraint network of a scheme table, with current edge flows."""

    table: SchemeTable
    edges: tuple[FlowEdge, ...]

    def __post_init__(self):
        balance: dict[Vertex, Fraction] = {}
        indeg: dict[Vertex, int] = {}
        outdeg: dict[Vertex, int] = {}
        for e in self.edges:
            if not e.lower <= e.flow <= e.upper:
                raise ValueError(
                    f"edge {e.tail}->{e.head}: flow {e.flow} outside [{e.lower}, {e.upper}]"
                )
            if e.upper - e.lower > 1:
                raise ValueError(
                    f"edge {e.tail}->{e.head}: bound width {e.upper - e.lower} exceeds 1"
                )
            balance[e.tail] = balance.get(e.tail, Fraction(0)) - e.flow
            balance[e.head] = balance.get(e.head, Fraction(0)) + e.flow
            outdeg[e.tail] = outdeg.get(e.tail, 0) + 1
            indeg[e.head] = indeg.get(e.head, 0) + 1
        for v, b in balance.items():
            if v[0] in ("source", "sink"):
                continue
            if b != 0:
                raise ValueError(f"flow is not conserved at {v}: imbalance {b}")
            if v[0] in ("prefix", "cell") and indeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one incoming edge")
            if v[0] in ("cell", "row") and outdeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one outgoing edge")

    @property
    def is_integral(self) -> bool:
        return all(e.flow.denominator == 1 for e in self.edges)


def build_flow_network(table: SchemeTable) -> FlowNetwork:
    """Flow network of ``table`` with every edge at its constraint's sum."""
    edges = []
    for tail, head in _edge_skeleton(table.height, table.scheme.size):
        flow = _initial_flow(table, tail, head)
        lower = flow.numerator // flow.denominator
        upper = lower if flow.denominator == 1 else lower + 1
        edges.append(FlowEdge(tail, head, flow, lower, upper))
    return FlowNetwork(table, tuple(edges))


def _walk(network: FlowNetwork) -> Walk:
    graph = _graph(network.table.height, network.table.scheme.size)
    return Walk(graph, *scaled(e.flow for e in network.edges))


def _network_at(network: FlowNetwork, scale: int, flows) -> FlowNetwork:
    """``network`` with its edges carrying the scaled ``flows``."""
    return FlowNetwork(
        network.table,
        tuple(
            FlowEdge(e.tail, e.head, Fraction(f, scale), e.lower, e.upper)
            for e, f in zip(network.edges, flows)
        ),
    )


def find_flow_cycle(network: FlowNetwork) -> Optional[tuple[tuple[int, int], ...]]:
    """Deterministic cycle of fractional edges, or None if already integral.

    The cycle is a tuple of (edge index, direction) pairs chosen by the
    walk's cycle rule (see :mod:`reserve2d._walk`): it starts at its
    smallest edge index, traversed forward.
    """
    cycle = _walk(network).cycle()
    return None if cycle is None else tuple(cycle)


def _coerce_cycle(
    network: FlowNetwork, cycle: Sequence
) -> tuple[tuple[int, int], ...]:
    """Validate a caller-supplied cycle; accept vertex paths or (edge, dir) pairs."""
    skeleton = _edge_skeleton(network.table.height, network.table.scheme.size)
    if cycle and isinstance(cycle[0], tuple) and isinstance(cycle[0][0], str):
        # A closed vertex path; translate consecutive vertex pairs to edges.
        index = {(t, h): i for i, (t, h) in enumerate(skeleton)}
        vertices = list(cycle)
        out = []
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            if (a, b) in index:
                out.append((index[(a, b)], +1))
            elif (b, a) in index:
                out.append((index[(b, a)], -1))
            else:
                raise ValueError(f"no edge joins {a} and {b}")
        cycle = out
    cycle = tuple((int(e), int(d)) for e, d in cycle)
    if len(cycle) < 2 or len(set(e for e, _ in cycle)) != len(cycle):
        raise ValueError("a cycle must list at least two distinct edges")
    for (e, d), (e2, d2) in zip(cycle, cycle[1:] + cycle[:1]):
        if d not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {d}")
        tail, head = skeleton[e]
        reached = head if d == +1 else tail
        t2, h2 = skeleton[e2]
        departed = t2 if d2 == +1 else h2
        if reached != departed:
            raise ValueError(
                f"cycle breaks between edges {skeleton[e]} and {skeleton[e2]}"
            )
        if network.edges[e].flow.denominator == 1:
            raise ValueError(f"edge {tail}->{head} is integral; cycles must be fractional")
    return cycle


@dataclass(frozen=True)
class FlowStep:
    """One randomized decomposition step with both branches materialized.

    The pre-step network is the exact mixture of the branches:
    probability * raise_forward + (1 - probability) * raise_backward equals
    ``network`` edge by edge, which is validated on construction.
    """

    network: FlowNetwork
    cycle: tuple[tuple[int, int], ...]
    d_plus: Fraction
    d_minus: Fraction
    probability: Fraction
    raise_forward: FlowNetwork
    raise_backward: FlowNetwork
    branch: str
    result: FlowNetwork

    BRANCHES = ("raise-forward", "raise-backward")

    def __post_init__(self):
        edges = zip(self.network.edges, self.raise_forward.edges, self.raise_backward.edges)
        check_step(self, self.raise_forward, self.raise_backward, (
            ((e.tail, e.head), e.flow, fwd.flow, bwd.flow) for e, fwd, bwd in edges
        ))


def _observe(network: FlowNetwork, walk: Walk, push: Push, on_step) -> FlowNetwork:
    """Show ``on_step`` the step from ``network``; returns the step's result."""
    step = observed(FlowStep, network, tuple(push.cycle),
                    lambda flows: _network_at(network, walk.scale, flows), walk, push)
    on_step(step)
    return step.result


def decompose_flow_once(
    network: FlowNetwork,
    rng,
    *,
    cycle: Optional[Sequence] = None,
    on_step: Optional[Callable[[FlowStep], None]] = None,
) -> FlowNetwork:
    """One randomized step: push a fractional cycle to a bound.

    The number of fractional edges strictly decreases, flows stay within
    their bounds, and the expectation of the result is the input network.
    ``cycle`` overrides the deterministic cycle choice (as (edge, direction)
    pairs or a closed vertex path); ``on_step`` observes the realized step.
    """
    walk = _walk(network)
    push = walk.step(rng, None if cycle is None else _coerce_cycle(network, cycle))
    if push is None:
        raise ValueError("network is already integral; nothing to decompose")
    if on_step is None:
        return _network_at(network, walk.scale, walk.flows)
    return _observe(network, walk, push, on_step)


@dataclass(frozen=True)
class IntegralBlock:
    """A 0/1 scheme-table rounding: one category per roster position.

    Column prefix counts stay within floor/ceil of the fair prefix at every
    depth and are exact at the block boundary.
    """

    scheme: ReservationScheme
    height: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.scheme.size
        if len(self.entries) != self.height:
            raise ValueError(f"expected {self.height} rows, got {len(self.entries)}")
        counts = [0] * n
        shares = [(f.numerator, f.denominator) for f in self.scheme.fractions]
        for depth, row in enumerate(self.entries, start=1):
            if len(row) != n or any(v not in (0, 1) for v in row):
                raise ValueError(f"row {depth} is not a 0/1 row of width {n}")
            if sum(row) != 1:
                raise ValueError(f"row {depth} must contain exactly one 1")
            for j, (v, (num, den)) in enumerate(zip(row, shares)):
                counts[j] += v
                if abs(counts[j] * den - depth * num) >= den:  # |count - depth*a_j| >= 1
                    raise ValueError(
                        f"column {self.scheme.categories[j]!r} has {counts[j]} of the "
                        f"first {depth} positions; fair share is {depth * self.scheme.fractions[j]}"
                    )

    @cached_property
    def positions(self) -> tuple[str, ...]:
        """Category per 1-based block position."""
        return tuple(
            self.scheme.categories[row.index(1)] for row in self.entries
        )

    @classmethod
    def from_network(cls, network: FlowNetwork) -> "IntegralBlock":
        if not network.is_integral:
            raise ValueError("network still has fractional flows")
        table = network.table
        grid = [[0] * table.scheme.size for _ in range(table.height)]
        for e in network.edges:
            if e.tail[0] == "cell":
                grid[e.tail[1]][e.tail[2]] = int(e.flow)
        return cls(table.scheme, table.height, tuple(tuple(r) for r in grid))


class _BlockSampler:
    """Block draws for one scheme table, memoized as a tree of decisions.

    An inner node is a list [numerator, denominator, forward child,
    backward child] holding a step's reduced branch probability; a leaf is
    the drawn block.  A draw descends the tree consuming exactly the draws
    the walk would.  Only when it reaches a missing child does it rebuild
    the walk state, by replaying the choices made so far, and walk on,
    adding nodes while the tree holds fewer than ``_NODE_CAP``.
    """

    _NODE_CAP = 1 << 17

    def __init__(self, table: SchemeTable):
        self.table = table
        self.network = build_flow_network(table)
        self.start = _walk(self.network)
        # Cell edges, in edge order, run over the cells row by row.
        self.cells = [e for e, edge in enumerate(self.network.edges) if edge.tail[0] == "cell"]
        self.root: list = [None]  # the tree hangs from slot 0
        self.nodes = 0

    def _attach(self, holder: Optional[list], slot: int, node) -> Optional[list]:
        """Hang ``node`` in ``holder[slot]``; None once the tree is full."""
        if holder is None or self.nodes >= self._NODE_CAP:
            return None
        holder[slot] = node
        self.nodes += 1
        return node

    def draw(self, rng, on_step: Optional[Callable[[FlowStep], None]] = None) -> IntegralBlock:
        """One block; an observed draw walks afresh and records nothing."""
        holder, slot, takes = None if on_step is not None else self.root, 0, []
        while holder is not None and type(holder[slot]) is list:
            node = holder[slot]
            takes.append(rng.randrange(node[1]) < node[0])
            holder, slot = node, 2 if takes[-1] else 3
        if holder is not None and holder[slot] is not None:
            return holder[slot]
        walk = Walk(self.start.graph, self.start.scale, self.start.flows)
        for take in takes:
            walk.step(None, take=take)
        network = self.network  # observed draws start at the root
        while (push := walk.step(rng)) is not None:
            if on_step is not None:
                network = _observe(network, walk, push, on_step)
            node = [push.num, push.den, None, None]
            holder, slot = self._attach(holder, slot, node), 2 if push.take else 3
        cells, n = [walk.flows[e] // walk.scale for e in self.cells], self.table.scheme.size
        rows = tuple(tuple(cells[i:i + n]) for i in range(0, len(cells), n))
        block = IntegralBlock(self.table.scheme, self.table.height, rows)
        self._attach(holder, slot, block)
        return block


_SAMPLERS: dict[tuple[ReservationScheme, int], _BlockSampler] = {}


def _sampler(scheme: ReservationScheme, height: int) -> _BlockSampler:
    key = (scheme, height)
    sampler = _SAMPLERS.get(key)
    if sampler is None:
        sampler = _SAMPLERS[key] = _BlockSampler(build_scheme_table(scheme, height))
    return sampler


def draw_block(
    scheme: ReservationScheme,
    height: Optional[int],
    rng,
    *,
    on_step: Optional[Callable[[FlowStep], None]] = None,
) -> IntegralBlock:
    """Draw one integral block; every cell's expectation is its fraction."""
    return _sampler(scheme, build_scheme_table(scheme, height).height).draw(rng, on_step)


def _draw_positions(
    scheme: ReservationScheme,
    length: int,
    rng,
    extension_policy: str,
    height: Optional[int],
) -> tuple[tuple[str, ...], int]:
    k = build_scheme_table(scheme, height).height
    if length < 0:
        raise ValueError(f"roster length must be nonnegative, got {length}")
    if extension_policy not in ("independent-blocks", "repeat-block"):
        raise ValueError(
            f"unknown extension policy {extension_policy!r}; expected "
            "'independent-blocks' or 'repeat-block'"
        )
    blocks_needed = -(-length // k)
    sampler = _sampler(scheme, k)
    if extension_policy == "repeat-block":
        return (sampler.draw(rng).positions * blocks_needed)[:length] if length else (), k
    drawn: list[str] = []
    for _ in range(blocks_needed):
        drawn.extend(sampler.draw(rng).positions)
    return tuple(drawn[:length]), k


def draw_roster(
    scheme: ReservationScheme,
    length: int,
    rng,
    extension_policy: str = "independent-blocks",
    *,
    height: Optional[int] = None,
) -> Roster:
    """Draw a random roster of the given length.

    Positions come from consecutive block draws (independent by default, a
    single tiled draw under ``repeat-block``), so every prefix of length q
    holds within one of q*a_j positions of each category, exactly at block
    boundaries, and position marginals equal the scheme fractions.
    """
    positions, k = _draw_positions(scheme, length, rng, extension_policy, height)
    return Roster(
        categories=scheme.categories,
        assignment=positions,
        block_length=k,
        extension_policy=extension_policy,
    )
