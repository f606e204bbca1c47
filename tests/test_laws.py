"""``LAWS``: one table of exact laws that checks every sure guarantee of both dependent-rounding walks.

A row's law is ``conftest.tree_law`` of ``_walk.tree`` over the walk users run unobserved, an outcome being
row-major integer entries: the block sampler's walk from ``start`` (a block's 0/1 cells, the edges of its
``cells`` map), or the integer walk ``controlled_round`` starts from ``rounding._extension`` (an extended
table, synthetic row included).  The law has mass 1, each entry's mean is its start exactly, every outcome
is valid, seeded unobserved draws land in its support, and on oracle-sized rows it is ``conftest.expand``'s
law of the public observed steps.  A block row's sampler tree has the law and leaves at the recorded depths;
past the depth limit the sampler keeps none, and the row computes no law.  A change to either walk edits
rows here, not tests.
"""

import random
from fractions import Fraction
from functools import partial
from math import ceil, floor, lcm
from operator import mul
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from reserve2d import (
    IntegralBlock, ReservationProblem, ReservationScheme, ReservationTable, SplitStream, build_fair_share_table,
    build_flow_network, build_scheme_table, controlled_round, decompose_flow_once, decompose_once, draw_block,
    extend_table, minimal_height, roster, rounding, within_department_quota, within_university_quota,
)
from reserve2d._walk import Walk, tree

from conftest import MIXED, QUARTERS, SCHEMES, TENTH, THIRD, expand, random_problem, tree_law

F = Fraction


class Law(NamedTuple):
    law: Callable  # () -> the law, its outcomes checked, or None where the sampler keeps no tree
    starts: tuple  # each entry's start: a_j at every block position, each extended entry's fair share
    oracle: Callable  # () -> the law ``expand`` finds from the observed steps
    draw: Callable  # rng -> a seeded unobserved draw's entries (a rounded table's without the synthetic row)
    outcomes: Optional[int] = None  # a law-only row's outcome count; None: small enough to expand observed


def _law(walk: Walk, leaf) -> dict:
    return tree_law(tree(walk, len(walk.flows), leaf))  # a run takes at most one step per edge: no give-up


def _blocks(scheme: ReservationScheme, height: int, depths: Optional[tuple], outcomes=None) -> Law:
    """Blocks of ``scheme`` at ``height``, whose sampler's tree has leaves at ``depths`` (None: it keeps none)."""
    table = build_scheme_table(scheme, height)

    def exact():
        sampler = roster._sampler(table)
        if depths is None:
            assert sampler.root is None and sampler.fixed is None
            return None
        start, cells = sampler.start, sampler.cells
        walk = Walk(start.graph, start.scale, start.flows)
        law = _law(walk, lambda done: tuple(done.flows[e] // done.scale for e in cells))  # the cells _block reads
        assert tree_law(sampler.root, lambda block: sum(block.entries, ())) == law  # each leaf built a block
        assert roster._depths(sampler.root) == set(depths) and sampler.fixed == (depths[0] if len(depths) == 1 else None)
        return law

    oracle = lambda: expand(build_flow_network(table), decompose_flow_once,  # built only for oracle-sized rows
                            lambda done: sum(IntegralBlock.from_network(done).entries, ()))
    draw = lambda rng: sum(draw_block(scheme, height, rng).entries, ())  # a block checks its prefix quotas
    return Law(exact, scheme.fractions * height, oracle, draw, outcomes)


def _rounding(fair, outcomes=None) -> Law:
    """Controlled roundings of ``fair``; an outcome keeps each entry at floor/ceil, each row total and both quotas."""
    m, n = len(fair.departments), len(fair.categories)
    starts = sum(extend_table(fair).entries, ())

    def exact():
        walk = Walk(rounding._graph(m + 1, n), *rounding._extension(fair))
        law = _law(walk, lambda done: tuple(f // done.scale for f in done.flows))
        limits, totals = [(floor(v), ceil(v)) for v in starts], [sum(starts[r:r + n]) for r in range(0, len(starts), n)]
        for outcome in law:
            assert all(low <= x <= high for x, (low, high) in zip(outcome, limits))
            assert [sum(outcome[r:r + n]) for r in range(0, len(outcome), n)] == totals
            rounded = ReservationTable.from_entries(fair.departments, fair.categories,
                                                    [outcome[r:r + n] for r in range(0, m * n, n)])
            assert within_department_quota(rounded, fair) == within_university_quota(rounded, fair) == []
        return law

    oracle = partial(expand, extend_table(fair), partial(decompose_once, cycle=None), lambda done: tuple(done._scaled[1]))
    return Law(exact, starts, oracle, lambda rng: sum(controlled_round(fair, rng).entries, ()), outcomes)


def _seeded() -> list:
    pick, fairs = random.Random(21), []
    for _ in range(40):
        m, n = pick.randint(2, 5), pick.randint(2, 4)
        parts, vacancies = [pick.randint(1, 9) for _ in range(n)], [pick.randint(0, 30) for _ in range(m)]
        fairs.append(build_fair_share_table(random_problem(parts, vacancies), 1))
    return fairs


_SEEDED, _HALF, _TENTHS = _seeded(), SCHEMES["half"][0], ReservationProblem(("d1", "d2"), TENTH, ((9, 8), (17, 7)))
_TWICE = {"third": (4,), "quarters": (6, 7, 8), "tenth": None, "five": None, "half": (2,)}  # leaf depths at 2x height
_LARGE = {3: 56, 9: 67, 11: 142, 29: 80, 34: 66, 37: 111, 38: 341, 39: 58}  # seeded tables of over 50 outcomes
# Every golden scheme (and half/half) at its minimal height and twice it; fifths; the tallest height at which
# 1/3, half/half and quarters keep a tree (README) and the next one; schemes that give up; both periods of
# the two-department 1/10 problem, the three-department quarters problem and 40 seeded tables up to 5 x 4.
# Law-only rows record their outcome count: the trees at the depth limit and the large seeded tables (each takes
# 0.03-3.7 s to expand observed; the smaller rows, old enumerator inputs among them, stay oracle-sized).
LAWS = {
    **{f"{name}-{k * f}": _blocks(scheme, k * f, depths if f == 1 else _TWICE[name])
       for name, (scheme, depths) in SCHEMES.items() for k in [minimal_height(scheme)] for f in (1, 2)},
    "fifths-5": _blocks(ReservationScheme(("a", "b", "c", "d"), (F(1, 5), F(1, 5), F(1, 5), F(2, 5))), 5, (7, 8, 9, 10)),
    "third-18": _blocks(THIRD, 18, (12,), 729), "third-21": _blocks(THIRD, 21, None),
    "half-24": _blocks(_HALF, 24, (12,), 4096), "half-26": _blocks(_HALF, 26, None),
    "quarters-12": _blocks(QUARTERS, 12, (9, 10, 11, 12), 512), "quarters-16": _blocks(QUARTERS, 16, None),
    "mixed-12": _blocks(MIXED, 12, None), "third-30": _blocks(THIRD, 30, None),
    "odd-20": _blocks(ReservationScheme(("a", "b", "c"), (F(3, 20), F(1, 4), F(3, 5))), 20, None),
    "tenths-period-1": _rounding(build_fair_share_table(_TENTHS, 1)),
    "tenths-period-2": _rounding(build_fair_share_table(_TENTHS, 2)),
    "quarters-2-1-3": _rounding(build_fair_share_table(ReservationProblem(("d1", "d2", "d3"), QUARTERS, ((2, 1, 3),)), 1)),
    **{f"seeded-{number}": _rounding(fair, _LARGE.get(number)) for number, fair in enumerate(_SEEDED)},
}


@pytest.mark.parametrize("row_id", list(LAWS))
def test_law_is_sure_and_exactly_unbiased(row_id):
    """The law's outcomes are valid, its mass is 1 and each entry's mean is its start; it is the observed
    oracle's law, or has the row's outcome count; and three seeded unobserved draws land in its support."""
    row = LAWS[row_id]
    law = row.law()
    if law is not None:
        d = lcm(*(mass.denominator for mass in law.values()))
        weights = [int(mass * d) for mass in law.values()]
        assert sum(weights) == d
        assert [F(sum(map(mul, weights, entry)), d) for entry in zip(*law)] == list(row.starts)
        assert law == row.oracle() if row.outcomes is None else len(law) == row.outcomes
    for seed in range(3):
        drawn = row.draw(SplitStream(seed))
        assert law is None or drawn in {outcome[:len(drawn)] for outcome in law}, seed


def test_every_golden_scheme_and_a_5_by_4_table_have_rows():
    """Every golden scheme is a ``SCHEMES`` entry, with rows at its minimal height and twice it; seeded tables reach 5x4."""
    golden = {path.stem[len("scheme_"):] for path in (Path(__file__).parent / "golden").glob("scheme_*.csv")}
    assert golden and golden <= set(SCHEMES)
    assert all(f"{name}-{minimal_height(SCHEMES[name][0]) * f}" in LAWS for name in golden for f in (1, 2))
    assert (5, 4) in {(len(fair.departments), len(fair.categories)) for fair in _SEEDED}
