"""The dependent-rounding walk shared by controlled rounding and rosters.

Both randomized roundings in this package are one algorithm (Cox 1987,
JASA 82:520, in the dependent-rounding form of Gandhi, Khuller,
Parthasarathy and Srinivasan 2006, JACM 53(3)) on two graphs: the cells of
an extended table as row-major edges from column to row, and the
constraint network of a scheme table in its canonical edge order.

Every vertex balance is integral, so a vertex touching a fractional edge
touches at least two and a walk along fractional edges closes a cycle.  The
cycle rule: start at the tail of the smallest fractional edge; leave each
vertex by its smallest fractional edge other than the one it arrived by;
close at the first revisited vertex; rotate so the smallest edge comes
first, traversed forward.  Forward edges then move by +d and backward ones
by -d, keeping every balance.  d+ is the largest raise that keeps each edge
within floor/ceil of itself and d- the largest lowering; raising with
probability d-/(d- + d+) makes the pre-step flows the exact mixture of the
two branches.  Each step makes an edge integral and integral edges are
never touched again, so the walk takes at most one step per fractional
edge.  Flows are integers scaled by their common denominator S, so an edge
is fractional exactly when its scaled flow is not a multiple of S.

:meth:`Walk.run` is the loop of every rounding and block draw and holds the only cycle
search.  Its searches resume: edges only turn integral, so a vertex's choice changes
only when its chosen edge does, and a push touches only its cycle, so a search keeps the
last path up to the first edge the push made integral and walks on (afresh once the
smallest fractional edge is gone).  A per-vertex list marks the path's vertices; the
start vertex needs no unmarking of its own, as a search starts afresh only when its
cycle began there, so it heads the old path's last entry.  A step reads d+ and d- off
the path found; ``hook(num, den, take)`` sees each draw before the push.  Each vertex keeps a
forward-only pointer to its first fractional incidence entry.  A step tests
``u % den < num`` on the u64 ``randrange(den)`` would read, from chunks of up to 64
that ``rng._ahead`` reads as steps use them (so at most 63 go unused); from a chunk
that is None on, every step calls ``randrange``.  :meth:`Walk.cycle` is a run stopped
at its first draw, so it searches afresh; :meth:`Walk.step` pushes a given cycle and
returns the ``(num, den, take)`` a hook sees; :func:`tree` pushes every cycle both ways
and lists a walk's runs up to a depth.  An :func:`observer`'s branches replace only the
cycle's entries of the pre-step object; :func:`check_step` checks the mixture identity
on every entry in scaled integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

from .rng import _ahead

# A cycle lists (edge index, direction) pairs: +1 runs tail to head.
Cycle = Sequence[tuple[int, int]]


class Graph:
    """A fixed edge list with each vertex's incidence sorted by edge index."""

    __slots__ = ("tails", "incidence")

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        incidence: list[list[tuple[int, int, int]]] = [[] for _ in range(vertices)]
        for e, (tail, head) in enumerate(edges):
            incidence[tail].append((e, +1, head))
            incidence[head].append((e, -1, tail))
        self.tails = tuple(tail for tail, _ in edges)
        self.incidence = tuple(map(tuple, incidence))


def scaled(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The common denominator S of ``values`` and the values times S."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def headroom(scale: int, flows: Sequence[int], cycle: Cycle) -> tuple[int, int]:
    """Scaled (d+, d-) of a cycle of fractional edges."""
    back = [d * flows[e] % scale for e, d in cycle]  # room against each direction
    return scale - max(back), min(back)


class _Stop(Exception):
    """Raised at a run's first draw by this class's ``randrange``: the class is :meth:`Walk.cycle`'s stand-in rng."""

    @staticmethod
    def randrange(den: int) -> int:
        raise _Stop


class Walk:
    """Mutable scaled flows on a graph, rounded one cycle push at a time."""

    __slots__ = ("graph", "scale", "flows", "_first", "_next", "_path", "_start")

    def __init__(self, graph: Graph, scale: int, flows: Sequence[int]):
        self.graph = graph
        self.scale = scale
        self.flows = list(flows)
        self._first = 0  # no edge below this one is fractional
        self._next = [0] * len(graph.incidence)  # likewise in each vertex's incidence
        self._path, self._start = [], 0  # the last search's path of incidence entries, and where its cycle starts

    def cycle(self) -> Optional[Cycle]:
        """The next cycle of fractional edges, or None once all are integral: :meth:`run`'s
        search, stopped before its first push by an rng whose ``randrange`` raises."""
        try:
            return self.run(_Stop)  # None: it ran without a draw, so every flow is integral
        except _Stop:
            return self._found()

    def _found(self) -> Cycle:
        """The cycle the last search found, in the cycle rule's rotation."""
        found = self._path[self._start:]
        low = found.index(min(found))  # edges are distinct, so the smallest edge
        if found[low][1] > 0:
            return [(e, d) for e, d, _ in found[low:] + found[:low]]
        return [(e, -d) for e, d, _ in found[low::-1] + found[:low:-1]]

    def run(self, rng, hook: Optional[Callable[[int, int, bool], None]] = None) -> None:
        """Step until every flow is integral, drawing what :meth:`step` on
        each :meth:`cycle` would; ``hook(num, den, take)`` sees each draw
        before its push, with the pre-step flows and ``rng._n`` where
        per-step draws leave it.  A step makes an edge integral, and no den
        exceeds the scale, which bounds what each :func:`rng._ahead` reads.

        ``seen`` marks each vertex on the path with the index of the entry leaving it (-1 off
        it).  A resumed search unmarks the heads of the entries it drops; a fresh one those of
        the whole old path, which covers the old start vertex: k is 0 only when the cycle
        begins at ``path[0]``, so that vertex is the head of the path's last entry."""
        flows, scale, path, tails = self.flows, self.scale, self._path, self.graph.tails
        incidence, first, end = self.graph.incidence, self._next, len(flows)
        left, k = end - self._first, 0  # steps the walk may still take; the path entry a search resumes at
        us, i, stop = [], 0, 0  # the read-ahead chunk, its u64s used, and its length (-1 once it is None)
        seen = [-1] * len(incidence)  # vertex -> index of the path entry leaving it; -1 off the path
        while True:
            if k:  # resume where the last cycle first lost an edge
                arrived, _, vertex = path[k - 1]
                for entry in path[k:-1]:
                    seen[entry[2]] = -1
            else:
                self._first = e = next((e for e in range(self._first, end) if flows[e] % scale), end)
                if e == end:
                    break
                for entry in path:
                    seen[entry[2]] = -1
                vertex, arrived = tails[e], -1
                seen[vertex] = 0
            del path[k:]
            while True:
                edges, j = incidence[vertex], first[vertex]
                try:
                    while not flows[edges[j][0]] % scale:
                        j += 1
                    first[vertex] = j
                    if edges[j][0] == arrived:
                        j += 1
                        while not flows[edges[j][0]] % scale:
                            j += 1
                except IndexError:
                    raise RuntimeError(f"internal error: the walk stalled at vertex {vertex}") from None
                entry = edges[j]
                path.append(entry)
                k += 1
                arrived, _, vertex = entry
                if seen[vertex] >= 0:
                    break
                seen[vertex] = k
            self._start = start = seen[vertex]
            found = path[start:]
            back = [d * flows[e] % scale for e, d, _ in found]  # room against the path
            top, low = max(back), min(back)
            forward = min(found)[1] > 0  # the cycle runs its smallest edge forward
            d_plus, d_minus = (scale - top, low) if forward else (low, scale - top)
            g = gcd(d_plus, d_minus)
            num, den = d_minus // g, (d_minus + d_plus) // g
            if i == stop:  # the chunk is used up: read the next, or call randrange from a None one on
                us, i, left = _ahead(rng, min(left, 64), scale), 0, left - 64
                stop = -1 if us is None else len(us)
            take, i = (rng.randrange(den) if us is None else us[i]) % den < num, i + 1
            if us is not None:  # where a per-step draw leaves it
                rng._n += 1
            if hook is not None:
                hook(num, den, take)
            rise = take == forward  # the path's edges rise
            amount = scale - top if rise else -low
            for e, d, _ in found:
                flows[e] += d * amount
            k = start + back.index(top if rise else low)  # the first edge made integral

    def step(self, rng, cycle: Cycle) -> tuple[int, int, bool]:
        """Push ``cycle``, a cycle of fractional edges, on a drawn branch and
        return the ``(num, den, take)`` a :meth:`run` hook would see.

        ``rng.randrange(den) < num`` draws what ``rng.bernoulli`` would.
        """
        d_plus, d_minus = headroom(self.scale, self.flows, cycle)
        g = gcd(d_plus, d_minus)
        num, den = d_minus // g, (d_minus + d_plus) // g
        take = rng.randrange(den) < num
        amount = d_plus if take else -d_minus
        for e, d in cycle:
            self.flows[e] += d * amount
        return num, den, take


def tree(walk: Walk, depth: int, leaf: Callable[[Walk], object]):
    """Every run of ``walk`` as nested ``[num, den, taken, not taken]`` nodes (``(num, den)`` as a
    :meth:`Walk.run` hook sees it) over ``leaf`` of each integral walk, or None if a run takes more
    than ``depth`` steps.  :meth:`Walk.step` pushes each cycle both ways; ``walk`` keeps only its flows."""
    cycle = walk.cycle()
    if cycle is None:
        return leaf(walk)
    if not depth:
        return None
    before, node = [walk.flows[e] for e, _ in cycle], []
    for pick in (lambda den: 0, lambda den: den - 1):  # 0 < num < den: the step's branch, then the other
        branch = Walk(walk.graph, walk.scale, walk.flows) if node else walk
        num, den, _ = branch.step(SimpleNamespace(randrange=pick), cycle)
        node.append(tree(branch, depth - 1, leaf))
        for (e, _), f in zip(cycle, before):  # walk's pre-step flows (not its search), for the other branch
            walk.flows[e] = f
        if node[-1] is None:
            return None
    return [num, den, *node]


def observer(record, pre, view, build, found: Callable[[], Cycle], on_step):
    """A :meth:`Walk.run` hook that shows ``on_step`` each step from ``pre`` on as a
    ``record`` and returns its result.  The step's cycle is ``found()``, or the one
    passed to the hook; ``view`` gives the record's form of it, and
    ``build(pre, scale, changes)`` is ``pre`` with the entries ``changes`` names
    (edge -> value times ``scale``) replaced and every other entry object shared."""
    def hook(num: int, den: int, take: bool, cycle: Optional[Cycle] = None):
        nonlocal pre
        cycle = cycle or found()
        scale, flows = pre._scaled
        d_plus, d_minus = headroom(scale, flows, cycle)
        raised, lowered = (
            build(pre, scale, {e: flows[e] + d * amount for e, d in cycle}) for amount in (d_plus, -d_minus)
        )
        step = record(
            pre, view(cycle), Fraction(d_plus, scale), Fraction(d_minus, scale),
            Fraction(num, den), raised, lowered, record.BRANCHES[not take], raised if take else lowered,
        )
        on_step(step)
        pre = step.result
        return pre

    return hook


def check_step(step, pre, raised, lowered, where: Callable[[int], tuple]) -> None:
    """Checks shared by the observed steps of both walks, in integers.

    ``step.BRANCHES`` names the raising and the lowering branch.  With probability
    num/den and scaled forms (s, x), (s+, u), (s-, d) of ``pre``, ``raised`` and
    ``lowered``, every entry must keep den*s+*s-*x == num*s*s-*u + (den - num)*s*s+*d:
    the mixture identity times den*s*s+*s-.  ``where(e)`` names entry e.
    """
    names = step.BRANCHES
    if step.d_plus <= 0 or step.d_minus <= 0:
        raise ValueError("both adjustments must be positive")
    ratios = (v.as_integer_ratio() for v in (step.d_minus, step.d_plus, step.probability))
    (mn, md), (pn, pd), (num, den) = ratios
    if num * (mn * pd + pn * md) != den * mn * pd:  # probability == d-/(d- + d+)
        raise ValueError("branch probability must equal d-/(d- + d+)")
    if step.branch not in names:
        raise ValueError(f"unknown branch {step.branch!r}")
    if step.result is not (raised if step.branch == names[0] else lowered):
        raise ValueError("result must be the branch named by 'branch'")
    (s, xs), (s_up, ups), (s_down, downs) = pre._scaled, raised._scaled, lowered._scaled
    x_by, u_by, d_by = den * s_up * s_down, num * s * s_down, (den - num) * s * s_up
    for e, (x, u, d) in enumerate(zip(xs, ups, downs)):
        if x_by * x != u_by * u + d_by * d:
            raise ValueError(f"branches do not mix back to the pre-step value at {where(e)}")
