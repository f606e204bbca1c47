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
their flows, scaled to integers, directly, then folds every cell vertex
away: a cell's one edge in and one edge out always carry the same flow, so
the pair becomes one prefix -> row edge at the prefix -> cell edge's place.
Every vertex keeps its edges' relative order, so the walk finds the same
cycles (each cell pair as one edge) and the same draws.  A sampler whose
walks are all short lists them once as a tree and descends it.  Tuple vertices
and ``Fraction`` flows exist only at the API edge: :class:`FlowNetwork`, the
functions that take one, and observed draws, which walk a network, not a sampler.

Rosters longer than one block either concatenate independent block draws
(the default) or tile a single draw (``repeat-block``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, compress
from math import lcm
from operator import add, and_, not_
from typing import Callable, Optional, Sequence

from ._walk import Graph, Walk, check_step, observer, scaled, tree
from .core import ReservationScheme, Roster, _check_policy
from .rng import _GAMMA, _GAMMA_INV, SplitStream, _batched, _index_of, _lanes, _mix_lanes, _pack, _u64s

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
        # Scaled flows, derived once and checked in integers; not a field, so ==, hash and repr ignore it.
        scale, flows = scaled(e.flow for e in self.edges)
        object.__setattr__(self, "_scaled", (scale, tuple(flows)))
        balance, indeg, outdeg = defaultdict(int), defaultdict(int), defaultdict(int)
        for e, f in zip(self.edges, flows):
            if not e.lower * scale <= f <= e.upper * scale:
                raise ValueError(
                    f"edge {e.tail}->{e.head}: flow {e.flow} outside [{e.lower}, {e.upper}]"
                )
            if e.upper - e.lower > 1:
                raise ValueError(f"edge {e.tail}->{e.head}: bound width {e.upper - e.lower} exceeds 1")
            balance[e.tail] -= f
            balance[e.head] += f
            outdeg[e.tail] += 1
            indeg[e.head] += 1
        for v, b in balance.items():
            if v[0] in ("source", "sink"):
                continue
            if b:
                raise ValueError(f"flow is not conserved at {v}: imbalance {Fraction(b, scale)}")
            if v[0] in ("prefix", "cell") and indeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one incoming edge")
            if v[0] in ("cell", "row") and outdeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one outgoing edge")

    @property
    def is_integral(self) -> bool:
        return self._scaled[0] == 1


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
    """A walk over ``network``'s own edges; vertices are numbered as they first appear."""
    number: dict[Vertex, int] = {}
    edges = [(number.setdefault(e.tail, len(number)), number.setdefault(e.head, len(number))) for e in network.edges]
    return Walk(Graph(len(number), edges), *network._scaled)


def _network_at(network: FlowNetwork, scale: int, changes: dict[int, int]) -> FlowNetwork:
    """``network`` with edge e carrying ``changes[e] / scale``, sharing every other edge."""
    edges = list(network.edges)
    for e, f in changes.items():
        edge = edges[e]
        edges[e] = FlowEdge(edge.tail, edge.head, Fraction(f, scale), edge.lower, edge.upper)
    return FlowNetwork(network.table, tuple(edges))


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
    ``network`` edge by edge, which is validated on construction.  Both
    branches must list ``network``'s edges in its order, differing only in
    flow.
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
        if not self.network.table == self.raise_forward.table == self.raise_backward.table:
            raise ValueError("branches must share the scheme table of the pre-step network")
        edges = self.network.edges
        for branch in (self.raise_forward, self.raise_backward):  # the mixture pairs edges by index
            if len(branch.edges) != len(edges) or any(
                b is not a and (b.tail, b.head, b.lower, b.upper) != (a.tail, a.head, a.lower, a.upper)
                for a, b in zip(edges, branch.edges)
            ):
                raise ValueError("branches must list the pre-step network's edges in order, differing only in flow")
        check_step(self, self.network, self.raise_forward, self.raise_backward,
                   lambda e: (edges[e].tail, edges[e].head))


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
    edges = walk.cycle() if cycle is None else _coerce_cycle(network, cycle)
    if edges is None:
        raise ValueError("network is already integral; nothing to decompose")
    draw = walk.step(rng, edges)
    if on_step is None:
        return _network_at(network, walk.scale, {e: walk.flows[e] for e, _ in edges})
    return observer(FlowStep, network, tuple, _network_at, None, on_step)(*draw, edges)


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

    @cached_property
    def _prefix(self) -> tuple[tuple[int, ...], ...]:
        """Each category's count in the first l positions, for l = 0 .. height."""
        start = (0,) * self.scheme.size
        return tuple(accumulate(self.entries, lambda c, row: tuple(map(add, c, row)), initial=start))

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


def _block_of(table: SchemeTable, cells: Sequence[int]) -> IntegralBlock:
    """The block of ``table`` whose cells, row by row, are ``cells``."""
    n = table.scheme.size
    return IntegralBlock(table.scheme, table.height, tuple(tuple(cells[i:i + n]) for i in range(0, len(cells), n)))


def _depths(node, depth: int = 0) -> set[int]:
    """The depths of the leaves under ``node``, itself at ``depth``."""
    return _depths(node[2], depth + 1) | _depths(node[3], depth + 1) if type(node) is list else {depth}


class _BlockSampler:
    """Unobserved block draws for one scheme table; a sampler never changes once built.

    ``root`` is every walk of the folded network as a :func:`reserve2d._walk.tree` over blocks, or
    None if a walk takes more than ``_TREE_DEPTH`` steps.  :meth:`blocks` descends it (drawing what
    :meth:`walk` would) or walks; :meth:`read` takes keys of fresh streams and decodes only the
    blocks asked for if leaves share a depth."""

    # Most steps of a walk a sampler lists as a tree: deeper trees barely pay for their descent
    # or lose to walks, and a five-category block (about 740 steps) gives up in 13 nodes.
    _TREE_DEPTH = 12

    def __init__(self, table: SchemeTable):
        self.table = table
        vertices, edges, scale, flows = _scheme_network(table)
        k, n = table.height, table.scheme.size
        cell, row = 1 + n * (k - 1), vertices - k - 1  # the first cell and the first row vertex
        del edges[-k - k * n:-k], flows[-k - k * n:-k]  # the cell -> row edges, row by row
        self.cells = [0] * (k * n)  # the folded edge of each cell, row by row
        for e, (tail, head) in enumerate(edges):
            if cell <= head < row:  # prefix -> cell (i, j) becomes prefix -> row i
                self.cells[head - cell] = e
                edges[e] = tail, row + (head - cell) // n
        self.start = Walk(Graph(vertices, edges), scale, flows)
        self.root = tree(Walk(self.start.graph, scale, flows), self._TREE_DEPTH, self._block)
        depths, self.fixed = set() if self.root is None else _depths(self.root), None
        if len(depths) == 1:  # see read; no denominator exceeds the scale L
            self.fixed = depths.pop(), [_index_of(0, u) for u in range((1 << 64) - scale + 1, 1 << 64)]

    def _block(self, walk: Walk) -> IntegralBlock:
        """The block of an integral walk of the folded network."""
        return _block_of(self.table, [walk.flows[e] // walk.scale for e in self.cells])

    def walk(self, rng) -> IntegralBlock:
        """One block walked from the start with ``rng``'s draws."""
        walk = Walk(self.start.graph, self.start.scale, self.start.flows)
        walk.run(rng)
        return self._block(walk)

    def blocks(self, rng, count: int) -> list[IntegralBlock]:
        """``count`` blocks, drawing exactly what ``count`` calls of :meth:`walk` would.

        Without a tree each block is walked; a stream that is not ``_batched`` descends
        it by ``randrange``.  Otherwise the descent reads its u64s from batches of
        ``rng._u64s``, as many as the blocks left read at the call's u64s per block so
        far (one each before a block ends; at most 64), and stores the draw index once;
        a u64 that ``randrange`` might reject is drawn by ``randrange``, dropping the batch."""
        if self.root is None:
            return [self.walk(rng) for _ in range(count)]
        drawn: list[IntegralBlock] = []
        if not _batched(rng):
            for _ in range(count):
                node = self.root
                while type(node) is list:
                    node = node[2] if rng.randrange(node[1]) < node[0] else node[3]
                drawn.append(node)
            return drawn
        key, n, top = rng.key, rng._n, 1 << 64
        batch, first, end, origin = (), n, n, n  # the batch holds u64s first+1 .. end
        for left in range(count, 0, -1):
            node = self.root
            while type(node) is list:
                if n == end:
                    lanes = -((origin - n) * left // len(drawn)) if drawn else left
                    batch, first = _u64s(key, n, min(lanes, 64)), n
                    end = n + len(batch)
                u, den = batch[n - first], node[1]
                n += 1
                if u + den > top:  # randrange could reject u
                    rng._n = n - 1
                    u = rng.randrange(den)
                    n = end = rng._n
                node = node[2] if u % den < node[0] else node[3]
            drawn.append(node)
        rng._n = n
        return drawn

    def read(self, counts: Sequence[int], wanted: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], list[IntegralBlock]]:
        """Blocks ``wanted[s]`` (from 0) of the ``counts[s]`` :meth:`blocks` would draw from a fresh stream of key s, as a
        function of a list of keys.  With all leaves at depth d, ``fixed`` holds d and where stream 0 outputs each u64
        ``randrange`` might reject; if none is in 1 .. d*count (then byte s of ``ok`` is 1), block b is u64s d*b+1 ..
        d*b+d, mixed with all the others in one :func:`_mix_lanes` pass and decoded a tree level at a time.  Other keys,
        and every key while ``SplitStream.next_u64`` is rebound (a tracer), draw through :meth:`blocks`."""
        d, rejects = self.fixed or (0, ())
        spans, (ones, low) = [d * c for c in counts], _lanes(len(counts))
        high, room, size = ones << 64, (ones << 64) - _pack(spans), 16 * len(spans)  # lane s of room: 2**64 - span s
        at, marks = [*accumulate(map(len, wanted), initial=0)], [i * ones for i in rejects]
        owner = [s for s, own in enumerate(wanted) for _ in range(d * len(own))]  # each lane's key
        steps = _pack([d * b + l + 1 for own in wanted for b in own for l in range(d)]) * _GAMMA  # each lane's u64

        def read(keys: Sequence[int]) -> list[IntegralBlock]:
            back = high - (_pack(keys) * _GAMMA_INV + ones & low)  # 2**64 - where stream 0 outputs u64 1 of key s
            gate = high if d and _batched(SplitStream(0)) else 0
            ok = reduce(and_, [(m + back & low) + room for m in marks], gate).to_bytes(size, "little")[8::16]
            us = owner and _mix_lanes(_pack([*map(keys.__getitem__, owner)]) + steps, len(owner))
            nodes = [self.root] * at[-1]
            for l in range(d):  # level l of every block
                nodes = [node[2] if u % node[1] < node[0] else node[3] for node, u in zip(nodes, us[l::d])]
            for s in compress(range(len(ok)), map(not_, ok)):  # the keys that did not pass
                nodes[at[s]:at[s + 1]] = map(self.blocks(SplitStream(keys[s]), counts[s]).__getitem__, wanted[s])
            return nodes

        return read


@lru_cache(maxsize=1)
def _sampler(table: SchemeTable) -> _BlockSampler:
    """The block sampler of a scheme table; only the last is kept (one can hold 34 MB)."""
    return _BlockSampler(table)


def draw_block(
    scheme: ReservationScheme,
    height: Optional[int],
    rng,
    *,
    on_step: Optional[Callable[[FlowStep], None]] = None,
) -> IntegralBlock:
    """Draw one integral block; every cell's expectation is its fraction.

    An unobserved draw descends or walks the cached sampler.  An observed one
    walks the table's own network, which draws what the sampler does, and
    leaves the cached sampler alone; both branches of every step validate
    all their edges, so observe small tables.
    """
    table = build_scheme_table(scheme, height)
    if on_step is None:
        return _sampler(table).blocks(rng, 1)[0]
    walk = _walk(network := build_flow_network(table))
    walk.run(rng, observer(FlowStep, network, tuple, _network_at, walk._found, on_step))
    k, n = table.height, table.scheme.size  # the cell -> row edges come last but for the row -> sink ones
    return _block_of(table, [f // walk.scale for f in walk.flows[-k - k * n:-k]])


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
    table = build_scheme_table(scheme, height)
    if length < 0:
        raise ValueError(f"roster length must be nonnegative, got {length}")
    _check_policy(extension_policy)
    k, repeat = table.height, extension_policy == "repeat-block"
    blocks = _sampler(table).blocks(rng, min(length, 1) if repeat else -(-length // k))
    positions = tuple(p for block in blocks for p in block.positions)
    positions = (positions * -(-length // k) if repeat else positions)[:length]
    return Roster(scheme.categories, positions, block_length=k, extension_policy=extension_policy)
