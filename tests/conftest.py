"""Shared fixtures and helpers: small schemes and problems, scripted and
counting streams, and the block walk of a scheme table's full network.

Test modules import helpers from here, never from one another."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

from reserve2d import IntegralBlock, ReservationProblem, ReservationScheme, Roster, SplitStream
from reserve2d import roster
from reserve2d._walk import Graph, Walk
from reserve2d.rng import _GAMMA, _MASK64, _index_of, _u64s, _unmix64


# The realistic five-category scheme (15 / 7.5 / 27 / 10 / 40.5 %); its minimal block height is 200.
FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"),
    (Fraction(3, 20), Fraction(3, 40), Fraction(27, 100), Fraction(1, 10), Fraction(81, 200)),
)


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


def tree_law(root, key=lambda leaf: leaf) -> dict:
    """The probability of each ``key(leaf)`` under a ``_walk.tree`` root, equal keys merged."""
    law, pending = {}, [(root, Fraction(1))]
    while pending:
        node, mass = pending.pop()
        if isinstance(node, list):
            num, den, taken, not_taken = node
            pending += [(taken, mass * Fraction(num, den)), (not_taken, mass * Fraction(den - num, den))]
        else:
            law[key(node)] = law.get(key(node), 0) + mass
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


def network_walk(table, rng) -> tuple:
    """A block and its ``(num, den, take)`` draws walked on the full network, cell vertices kept."""
    vertices, edges, scale, flows = roster._scheme_network(table)
    walk, draws = Walk(Graph(vertices, edges), scale, flows), []
    walk.run(rng, lambda *draw: draws.append(draw))
    k, n = table.height, table.scheme.size  # the cell -> row edges come last but for the row -> sink ones
    return roster._block_of(table, [f // walk.scale for f in walk.flows[-k - k * n:-k]]), draws


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
    return ReservationScheme(("c1", "c2"), (Fraction(1, 10), Fraction(9, 10)))


@pytest.fixture
def third_scheme() -> ReservationScheme:
    return ReservationScheme(("c1", "c2"), (Fraction(1, 3), Fraction(2, 3)))


@pytest.fixture
def half_scheme() -> ReservationScheme:
    return ReservationScheme(("c1", "c2"), (Fraction(1, 2), Fraction(1, 2)))


@pytest.fixture
def quarters_scheme() -> ReservationScheme:
    return ReservationScheme(
        ("c1", "c2", "c3"), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    )


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
