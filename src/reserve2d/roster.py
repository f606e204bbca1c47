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

The sampler numbers the vertices arithmetically and builds the edges and
their flows, scaled to integers, directly.  Tuple vertices and ``Fraction``
flows exist only at the API edge: :class:`FlowNetwork`, the functions that
take one, and the steps an observer is shown.

Rosters longer than one block either concatenate independent block draws
(the default) or tile a single draw (``repeat-block``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import lcm
from typing import Callable, Optional, Sequence, Union

from ._walk import Graph, Walk, check_step, observed, scaled
from .core import ReservationScheme, Roster
from .rng import _GAMMA, _MASK64, _MIX1, _MIX2, SplitStream

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


def _scheme_network(table: SchemeTable) -> tuple[int, list[tuple[int, int]], int, list[int]]:
    """Vertex count, edges, scale L and initial flows times L of ``table``'s network.

    Vertices are numbered source 0, prefix (j, depth) for each column j with
    depth falling from k to 2, cell (i, j) row-major, row i, sink, and the
    edges are listed by (tail, head) number.  That order fixes the walk's
    cycle rule, hence every draw.  L is the lcm of the scheme denominators.
    """
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
    edges += [(cell + c, row + c // n) for c in range(k * n)]
    flows += shares * k
    edges += [(row + i, row + k) for i in range(k)]
    flows += [scale] * k
    return row + k + 1, edges, scale, flows


@dataclass(frozen=True)
class FlowNetwork:
    """The constraint network of a scheme table, with current edge flows."""

    table: SchemeTable
    edges: tuple[FlowEdge, ...]

    def __post_init__(self):
        balance, indeg, outdeg = Counter(), Counter(), Counter()
        for e in self.edges:
            if not e.lower <= e.flow <= e.upper:
                raise ValueError(
                    f"edge {e.tail}->{e.head}: flow {e.flow} outside [{e.lower}, {e.upper}]"
                )
            if e.upper - e.lower > 1:
                raise ValueError(
                    f"edge {e.tail}->{e.head}: bound width {e.upper - e.lower} exceeds 1"
                )
            balance[e.tail] -= e.flow
            balance[e.head] += e.flow
            outdeg[e.tail] += 1
            indeg[e.head] += 1
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
    k, n = table.height, table.scheme.size
    names = [  # the tuple of each vertex number
        source_vertex(),
        *(prefix_vertex(depth, j) for j in range(n) for depth in range(k, 1, -1)),
        *(cell_vertex(i, j) for i in range(k) for j in range(n)),
        *(row_vertex(i) for i in range(k)),
        sink_vertex(),
    ]
    _, edges, scale, flows = _scheme_network(table)
    return FlowNetwork(table, tuple(
        FlowEdge(names[tail], names[head], Fraction(f, scale), f // scale, -(-f // scale))
        for (tail, head), f in zip(edges, flows)
    ))


def _walk(network: FlowNetwork) -> Walk:
    vertices, edges, _, _ = _scheme_network(network.table)
    return Walk(Graph(vertices, edges), *scaled(e.flow for e in network.edges))


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
    edges = network.edges
    if cycle and isinstance(cycle[0], tuple) and isinstance(cycle[0][0], str):
        # A closed vertex path; translate consecutive vertex pairs to edges.
        index = {(e.tail, e.head): i for i, e in enumerate(edges)}
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
    if not all(0 <= e < len(edges) for e, _ in cycle):
        raise ValueError(f"cycle {cycle} leaves the network's edges 0..{len(edges) - 1}")
    if len(cycle) < 2 or len(set(e for e, _ in cycle)) != len(cycle):
        raise ValueError("a cycle must list at least two distinct edges")
    for (e, d), (e2, d2) in zip(cycle, cycle[1:] + cycle[:1]):
        if d not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {d}")
        this, following = edges[e], edges[e2]
        if (this.head if d == +1 else this.tail) != (following.tail if d2 == +1 else following.head):
            raise ValueError(
                f"cycle breaks between edges {(this.tail, this.head)} and "
                f"{(following.tail, following.head)}"
            )
        if this.flow.denominator == 1:
            raise ValueError(f"edge {this.tail}->{this.head} is integral; cycles must be fractional")
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
    build = partial(_network_at, network, walk.scale)
    if on_step is None:
        return build(walk.flows)
    return observed(FlowStep, network, tuple(push.cycle), build, walk, push, on_step)


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
    the drawn block.  :meth:`blocks` descends the tree consuming exactly the
    draws the walk would, and hands a block that reaches a missing child to
    :meth:`walk`, which walks it from the start and hangs the steps the tree
    lacks while it holds fewer than ``_NODE_CAP`` nodes.
    """

    _NODE_CAP = 1 << 17

    def __init__(self, table: SchemeTable):
        self.table = table
        vertices, edges, scale, flows = _scheme_network(table)
        self.start = Walk(Graph(vertices, edges), scale, flows)
        # The cell edges run over the cells row by row, just before the row edges.
        k = table.height
        self.cells = slice(len(edges) - k - k * table.scheme.size, len(edges) - k)
        self.root: list = [None]  # the tree hangs from slot 0
        self.nodes = 0

    def _child(self, holder: Optional[list], slot: int, node):
        """``holder[slot]``, set to ``node`` if empty while the tree has room."""
        if holder is not None and holder[slot] is None and self.nodes < self._NODE_CAP:
            holder[slot] = node
            self.nodes += 1
        return holder and holder[slot]

    def walk(self, rng, on_step: Optional[Callable[[FlowStep], None]] = None) -> IntegralBlock:
        """One block walked from the start with ``rng``'s draws, each step shown to ``on_step``."""
        walk = Walk(self.start.graph, self.start.scale, self.start.flows)
        if on_step is not None:
            network = build_flow_network(self.table)
            build = partial(_network_at, network, walk.scale)
        holder, slot = self.root, 0
        while (push := walk.step(rng)) is not None:
            if on_step is not None:
                network = observed(FlowStep, network, tuple(push.cycle), build, walk, push, on_step)
            node = [push.num, push.den, None, None]
            holder, slot = self._child(holder, slot, node), 2 if push.take else 3
        cells, n = [f // walk.scale for f in walk.flows[self.cells]], self.table.scheme.size
        rows = tuple(tuple(cells[i:i + n]) for i in range(0, len(cells), n))
        block = IntegralBlock(self.table.scheme, self.table.height, rows)
        self._child(holder, slot, block)
        return block

    def blocks(self, rng, count: int) -> list[IntegralBlock]:
        """``count`` blocks, drawing exactly what ``count`` calls of
        :meth:`walk` would.

        The descent computes each u64 in place from the stream's key and
        draw index (splitmix64 is counter-based) and stores the index once.
        A u64 that ``randrange`` might reject is drawn again by ``randrange``
        itself, and a block that reaches a missing child is handed, from its
        first draw, to :meth:`walk`.  Any other ``rng`` than a
        :class:`SplitStream` is walked one block at a time.
        """
        if not isinstance(rng, SplitStream):
            return [self.walk(rng) for _ in range(count)]
        key, n, top = rng.key, rng._n, 1 << 64
        drawn: list[IntegralBlock] = []
        for _ in range(count):
            start, node = n, self.root[0]
            while type(node) is list:
                n += 1
                z = (key + n * _GAMMA) & _MASK64
                z = (z ^ (z >> 30)) * _MIX1 & _MASK64
                z = (z ^ (z >> 27)) * _MIX2 & _MASK64
                u, den = z ^ (z >> 31), node[1]
                if u + den > top:  # randrange could reject u
                    rng._n = n - 1
                    u = rng.randrange(den)
                    n = rng._n
                node = node[2] if u % den < node[0] else node[3]
            if node is None:
                rng._n = start
                node = self.walk(rng)
                n = rng._n
            drawn.append(node)
        rng._n = n
        return drawn


@lru_cache(maxsize=1)
def _sampler(table: SchemeTable) -> _BlockSampler:
    """The block sampler of a scheme table; only the last is kept (one can hold 50 MB)."""
    return _BlockSampler(table)


def draw_block(
    scheme: ReservationScheme,
    height: Optional[int],
    rng,
    *,
    on_step: Optional[Callable[[FlowStep], None]] = None,
) -> IntegralBlock:
    """Draw one integral block; every cell's expectation is its fraction.

    An observed draw walks the cached sampler, so it draws what an unobserved
    one does; nearly all its cost is the validated ``Fraction`` networks of
    both branches of every step, so observe small tables.
    """
    sampler = _sampler(build_scheme_table(scheme, height))
    return sampler.blocks(rng, 1)[0] if on_step is None else sampler.walk(rng, on_step)


def _draw_positions(
    scheme: ReservationScheme,
    length: int,
    rng,
    extension_policy: str,
    height: Optional[int],
) -> tuple[tuple[str, ...], int]:
    table = build_scheme_table(scheme, height)
    if length < 0:
        raise ValueError(f"roster length must be nonnegative, got {length}")
    if extension_policy not in ("independent-blocks", "repeat-block"):
        raise ValueError(
            f"unknown extension policy {extension_policy!r}; expected "
            "'independent-blocks' or 'repeat-block'"
        )
    k, sampler = table.height, _sampler(table)
    blocks_needed = -(-length // k)
    if extension_policy == "repeat-block":
        return (sampler.blocks(rng, 1)[0].positions * blocks_needed)[:length] if length else (), k
    drawn: list[str] = []
    for block in sampler.blocks(rng, blocks_needed):
        drawn += block.positions
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
