"""The resumed cycle search of the dependent-rounding walk.

``Walk.cycle`` picks up its last search where the last push broke it.  The
oracle here is the from-scratch search it replaced: start at the tail of
the smallest fractional edge, leave each vertex by its smallest fractional
edge other than the arrival edge, close at the first revisited vertex.
Every step of a seeded walk must choose the oracle's cycle and consume the
same draws, on both graphs and across pushes of caller-supplied cycles
(what ``decompose_once`` and ``decompose_flow_once`` do with ``cycle=``).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reserve2d import ReservationProblem, ReservationScheme, build_fair_share_table, roster, rounding
from reserve2d._walk import Graph, Walk
from reserve2d.rng import SplitStream


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


def assert_walks_agree(start: Walk, seed: int, foreign=()) -> None:
    """Walk ``start`` to integral flows resumed and from scratch, in lockstep.

    At each step listed in ``foreign`` both walks first push the same
    caller-supplied cycle, found by searching from a later fractional edge.
    """
    walk = Walk(start.graph, start.scale, start.flows)
    oracle = OracleWalk(start.graph, start.scale, start.flows)
    rng, oracle_rng = SplitStream(seed), SplitStream(seed)
    steps = 0
    while True:
        if steps in foreign:
            fractional = [e for e, f in enumerate(walk.flows) if f % walk.scale]
            if fractional:
                cycle = oracle_cycle(walk, fractional[len(fractional) // 2])
                assert walk.step(rng, list(cycle)) == oracle.step(oracle_rng, list(cycle))
        push = walk.step(rng)
        assert push == oracle.step(oracle_rng), f"step {steps}"
        assert rng._n == oracle_rng._n and walk.flows == oracle.flows
        if push is None:
            return
        steps += 1


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


FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"),
    (Fraction(3, 20), Fraction(3, 40), Fraction(27, 100), Fraction(1, 10), Fraction(81, 200)),
)


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
    reads = {}
    for kind in (Walk, OracleWalk):
        walk = kind(counting, start.scale, start.flows)
        CountingIncidence.reads = 0
        rng = SplitStream(7)
        while walk.step(rng) is not None:
            pass
        reads[kind] = CountingIncidence.reads
    assert reads[Walk] <= reads[OracleWalk] / 2, reads
