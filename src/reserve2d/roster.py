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

* one *row* vertex per row (row sums are 1),
* one *prefix* vertex per column j and depth l in 2..k (the sum of the
  first l cells of column j lies within floor/ceil of l*a_j).

Cell (i, j) (value in [0, 1]) is the edge to row i from column j's prefix
vertex at depth max(i, 1) + 1.  Column j's flow enters at its deepest prefix
vertex carrying k*a_j, peels off one cell's worth (a_j) at each depth, and
every row forwards exactly 1 to the sink.  The dependent-rounding walk of
:mod:`reserve2d._walk` turns these flows into an integral flow, i.e. a block,
keeping every edge's expectation.

The sampler numbers the vertices arithmetically and builds the edges and
their flows, scaled to integers, directly.  A sampler whose walks are all
short lists them once as a tree and descends it.  Tuple vertices and
``Fraction`` flows exist only at the API edge: :class:`FlowNetwork`, the
functions that take one, and observed draws, which walk a network.

Rosters longer than one block either concatenate independent block draws
(the default) or tile a single draw (``repeat-block``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, compress
from numbers import Integral
from operator import add, not_
from typing import Callable, Optional, Sequence

from ._walk import Graph, Walk, check_step, observer, scaled, tree
from .core import ReservationScheme, Roster, _check_policy
from .rng import SplitStream, _ahead, _plan

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


def row_vertex(row: int) -> Vertex:
    return ("row", row)


def sink_vertex() -> Vertex:
    return ("sink",)


def minimal_height(scheme: ReservationScheme) -> int:
    """Smallest block height that makes every column total integral: L, the lcm of the denominators."""
    return scheme._lattice[0]


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
        if not isinstance(self.height, Integral):
            raise TypeError(f"scheme table height must be an integer, got {self.height!r}")
        if self.height < 2:
            raise ValueError(f"scheme table height must be at least 2, got {self.height}")
        scale, shares = self.scheme._lattice
        for cat, f, s in zip(self.scheme.categories, self.scheme.fractions, shares):
            if self.height * s % scale:  # height*a_j is not an integer
                raise ValueError(
                    f"height {self.height} leaves column {cat!r} with the "
                    f"non-integral total {self.height * f}; the smallest valid "
                    f"height is {scale} (any multiple of it works)"
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
        return tuple(self.height * s // self.scheme._lattice[0] for s in self.scheme._lattice[1])


@lru_cache(maxsize=64, typed=True)  # typed: a float height is refused, not served an int height's table
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


def _scheme_network(table: SchemeTable) -> tuple[int, list[tuple[int, int]], int, list[int], list[int]]:
    """Vertex count, edges, scale L, initial flows times L and each cell's edge (row by row) of ``table``'s network.

    Vertices are numbered as :func:`_vertices` lists them, and the edges are listed by (tail, head)
    number.  That order fixes the walk's cycle rule, hence every draw.  L is the lcm of the scheme
    denominators.
    """
    k, n, (scale, shares) = table.height, table.scheme.size, table.scheme._lattice
    row, cells = 1 + n * (k - 1), [0] * (k * n)
    edges = [(0, 1 + j * (k - 1)) for j in range(n)]
    flows = [k * s for s in shares]  # the first l cells of column j carry l*a_j
    for j, s in enumerate(shares):
        for depth in range(k, 1, -1):
            prefix = 1 + j * (k - 1) + k - depth
            inner = prefix + 1 if depth > 2 else row  # the next prefix, or row 0 through cell (0, j)
            cells[(depth - 1) * n + j] = len(edges) + 1
            edges += [(prefix, inner), (prefix, row + depth - 1)]
            flows += [(depth - 1) * s, s]
        cells[j] = len(edges) - 2
    edges += [(row + i, row + k) for i in range(k)]
    flows += [scale] * k
    return row + k + 1, edges, scale, flows, cells


@lru_cache(maxsize=1)  # every FlowNetwork checks its vertices against it; read, never changed
def _vertices(table: SchemeTable) -> dict[Vertex, None]:
    """The network's vertices by number: source, prefix (j, depth) for each column j with depth k to 2, row i, sink."""
    k, n = table.height, table.scheme.size
    return dict.fromkeys([source_vertex(), *(prefix_vertex(depth, j) for j in range(n) for depth in range(k, 1, -1)),
                          *(row_vertex(i) for i in range(k)), sink_vertex()])


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
        # Each vertex must be the table's, with int indices: the decoder indexes with them, and ("row", 1.0) ==
        # ("row", 1).  Two whole-set screens pass a well-formed network; the loop names the first vertex that fails.
        known = _vertices(self.table)
        if not known.keys() >= balance.keys() or {*map(type, chain.from_iterable(balance))} - {str, int}:
            for v in (v for v in balance if v not in known or not all(type(i) is int for i in v[1:])):
                raise ValueError(f"{v} is not a vertex of the height-{self.table.height} scheme table's network")
        for v, b in balance.items():
            if v[0] in ("source", "sink"):
                continue
            if b:
                raise ValueError(f"flow is not conserved at {v}: imbalance {Fraction(b, scale)}")
            if v[0] == "prefix" and indeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one incoming edge")
            if v[0] == "row" and outdeg.get(v, 0) != 1:
                raise ValueError(f"{v} must have exactly one outgoing edge")
        # A walk stalls if the source's (so the sink's) total is not whole.
        sent = -balance.get(source_vertex(), 0)
        if sent % scale:
            raise ValueError(f"the source sends {Fraction(sent, scale)}, not a whole number")

    @property
    def is_integral(self) -> bool:
        return self._scaled[0] == 1


def build_flow_network(table: SchemeTable) -> FlowNetwork:
    """Flow network of ``table`` with every edge at its constraint's sum."""
    names, (_, edges, scale, flows, _) = [*_vertices(table)], _scheme_network(table)
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
    if not all(isinstance(p, (tuple, list)) and len(p) == 2 and all(isinstance(v, int) for v in p) for p in cycle):
        raise ValueError(f"a cycle lists (edge, direction) pairs of ints or a closed vertex path, got {cycle!r}")
    cycle = tuple(map(tuple, cycle))
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
        rows, n, (scale, lattice) = self.entries, self.scheme.size, self.scheme._lattice
        if len(rows) != self.height:
            raise ValueError(f"expected {self.height} rows, got {len(rows)}")
        build_scheme_table(self.scheme, self.height)  # refuses a height no scheme table has
        # Whole-list passes find the first bad depth: its row is no 0/1 row of width n (an entry is the int 0 or 1,
        # not a float, bool or Fraction equal to one), or does not sum to 1, or a column's count c of the first l
        # positions is 1 or more from l*a_j (checked as c*L - l*L*a_j).
        try:
            binary = ({*map(len, rows)} == {n} and {*chain.from_iterable(rows)} <= {0, 1}
                      and {*map(type, chain.from_iterable(rows))} <= {int})
        except TypeError:  # a row with no length or an unhashable entry, which the search below finds
            binary = False
        cut = len(rows) if binary else next((l for l, row in enumerate(rows) if not hasattr(row, "__len__") or len(row) != n
                                             or not all(type(v) is int and v in (0, 1) for v in row)),
                                            len(rows))  # the rows checked on
        error = f"row {cut + 1} is not a 0/1 row of width {n}"
        if (sums := [*map(sum, rows[:cut])]).count(1) < cut:
            cut, error = next((l, f"row {l + 1} must contain exactly one 1") for l, s in enumerate(sums) if s != 1)
        for j, (column, s) in enumerate(zip(zip(*rows[:cut]), lattice)):
            gaps = [*accumulate(map({0: -s, 1: scale - s}.__getitem__, column[:cut]))]  # above the bad depths found
            if min(gaps) <= -scale or max(gaps) >= scale:
                l = next(l for l, gap in enumerate(gaps) if not -scale < gap < scale)
                cut, error = l, (f"column {self.scheme.categories[j]!r} has {(gaps[l] + (l + 1) * s) // scale} of the "
                                 f"first {l + 1} positions; fair share is {(l + 1) * self.scheme.fractions[j]}")
        if cut < len(rows):
            raise ValueError(error)

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
        for e in network.edges:  # cell (i, j) is the edge from a prefix of column j to row i
            if e.tail[0] == "prefix" and e.head[0] == "row":
                grid[e.head[1]][e.tail[2]] = int(e.flow)
        return cls(table.scheme, table.height, tuple(tuple(r) for r in grid))


def _block_of(table: SchemeTable, cells: Sequence[int], walk: Walk) -> IntegralBlock:
    """The block of an integral walk of ``table``'s network, whose cells, row by row, are edges ``cells``."""
    n, entries = table.scheme.size, [walk.flows[e] // walk.scale for e in cells]
    return IntegralBlock(table.scheme, table.height, tuple(tuple(entries[i:i + n]) for i in range(0, len(entries), n)))


def _depths(node, depth: int = 0) -> set[int]:
    """The depths of the leaves under ``node``, itself at ``depth``."""
    return _depths(node[2], depth + 1) | _depths(node[3], depth + 1) if type(node) is list else {depth}


class _BlockSampler:
    """Unobserved block draws for one scheme table; a sampler never changes once built.

    ``root`` is every walk of the table's network as a :func:`reserve2d._walk.tree` over blocks, or
    None if a walk takes more than ``_TREE_DEPTH`` steps.  :meth:`blocks` descends it (drawing what
    :meth:`walk` would) or walks; :meth:`read` takes keys of fresh streams and decodes only the
    blocks asked for if leaves share a depth."""

    # Most steps of a walk a sampler lists as a tree: deeper trees barely pay for their descent
    # or lose to walks, and a five-category block (about 740 steps) gives up in 13 nodes.
    _TREE_DEPTH = 12

    def __init__(self, table: SchemeTable):
        self.table = table
        vertices, edges, scale, flows, self.cells = _scheme_network(table)
        self.start = Walk(Graph(vertices, edges), scale, flows)
        self.root = tree(Walk(self.start.graph, scale, flows), self._TREE_DEPTH, partial(_block_of, table, self.cells))
        depths = set() if self.root is None else _depths(self.root)
        self.depth = max(depths, default=0)  # the deepest leaf's
        self.fixed = self.depth if len(depths) == 1 else None  # see read

    def walk(self, rng) -> IntegralBlock:
        """One block walked from the start with ``rng``'s draws."""
        walk = Walk(self.start.graph, self.start.scale, self.start.flows)
        walk.run(rng)
        return _block_of(self.table, self.cells, walk)

    def blocks(self, rng, count: int) -> list[IntegralBlock]:
        """``count`` blocks, drawing exactly what ``count`` calls of :meth:`walk` would.

        Without a tree each block is walked.  Otherwise the descent takes chunks of at most 64
        blocks; a chunk of c blocks reads ahead c times the deepest leaf's depth with
        :func:`rng._ahead` (no denominator exceeds the scale L) and moves ``rng._n`` past the
        u64s it used, or, where that returns None, descends by ``randrange``."""
        if self.root is None:
            return [self.walk(rng) for _ in range(count)]
        drawn: list[IntegralBlock] = []
        for left in range(count, 0, -64):
            us, i = _ahead(rng, min(left, 64) * self.depth, self.start.scale), 0  # i: u64s used
            for _ in range(min(left, 64)):
                node = self.root
                while type(node) is list:
                    u, i = rng.randrange(node[1]) if us is None else us[i], i + 1
                    node = node[2] if u % node[1] < node[0] else node[3]
                drawn.append(node)
            if us is not None:
                rng._n += i
        return drawn

    def read(self, counts: Sequence[int],
             wanted: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], list[list[IntegralBlock]]]:
        """Blocks ``wanted[s]`` (from 0) of the ``counts[s]`` :meth:`blocks` would draw from a fresh stream of key s, as a
        function of a list of keys, c copies of the streams' keys, in one list per copy.  With all leaves at depth d
        (``fixed``), block b is u64s d*b+1 .. d*b+d: one :func:`rng._plan` (``rng`` alone knows the stream layout; no
        denominator exceeds the scale L) mixes them for every copy, decoded a tree level at a time (level 0 off the root
        alone), and screens out keys whose d*count u64s hold one ``randrange`` might reject (all keys while
        ``SplitStream.next_u64`` is rebound).  Those, and every key of other samplers, draw through :meth:`blocks`."""
        d, at = self.fixed or 0, [*accumulate(map(len, wanted), initial=0)]
        plan = _plan([[d * b + l + 1 for b in own for l in range(d)] for own in wanted], [d * c for c in counts],
                     self.start.scale) if d else lambda keys: (bytes(len(keys)), ())
        num, den, take, leave = self.root if d else [None] * 4

        def read(keys: Sequence[int]) -> list[list[IntegralBlock]]:
            (ok, us), w, c = plan(keys), at[-1], len(keys) // len(counts)
            nodes = [take if u % den < num else leave for u in us[::d]] if d else [None] * (w * c)
            for l in range(1, d):  # level l of every block
                nodes = [node[2] if u % node[1] < node[0] else node[3] for node, u in zip(nodes, us[l::d])]
            copies = [nodes[q * w:q * w + w] for q in range(c)]
            for i in compress(range(len(ok)), map(not_, ok)):  # the keys that did not pass: stream s of copy q
                q, s = divmod(i, len(counts))
                drawn = self.blocks(SplitStream(keys[i]), counts[s])
                copies[q][at[s]:at[s + 1]] = map(drawn.__getitem__, wanted[s])
            return copies

        return read


@lru_cache(maxsize=1)
def _sampler(table: SchemeTable) -> _BlockSampler:
    """The block sampler of a scheme table; only the last is kept, since every subcommand draws from one table: a
    five-category one at the 50,000-cell limit holds about 34 MB, and peaks near 50 MB while built (tracemalloc)."""
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
    walks the table's network, whose edges are the sampler's, so it draws what
    the sampler does and leaves the cached sampler alone; both branches of
    every step validate all their edges, so observe small tables.
    """
    table = build_scheme_table(scheme, height)
    if on_step is None:
        return _sampler(table).blocks(rng, 1)[0]
    walk = _walk(network := build_flow_network(table))
    walk.run(rng, observer(FlowStep, network, tuple, _network_at, walk._found, on_step))
    return _block_of(table, _scheme_network(table)[-1], walk)


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
