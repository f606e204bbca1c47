"""Shared fixtures: small schemes and problems used across the suite."""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from reserve2d import ReservationProblem, ReservationScheme, Roster


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
