"""Tests for table extension, cycle finding, and controlled rounding."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve2d import (
    DecompositionStep,
    ExtendedTable,
    FairShareTable,
    FractionCycle,
    ReservationProblem,
    ReservationScheme,
    ReservationTable,
    SplitStream,
    build_fair_share_table,
    controlled_round,
    decompose_once,
    extend_table,
    find_fraction_cycle,
    rounding,
    within_department_quota,
    within_university_quota,
)
from reserve2d._walk import scaled

from conftest import ForcedRng, time_limit

F = Fraction


def _random_problem(draw_parts, draw_qs):
    total = sum(draw_parts)
    scheme = ReservationScheme(
        tuple(f"c{j}" for j in range(len(draw_parts))),
        tuple(F(p, total) for p in draw_parts),
    )
    return ReservationProblem(
        tuple(f"d{i}" for i in range(len(draw_qs))), scheme, (tuple(draw_qs),)
    )


# ---------------------------------------------------------------- extension


def test_synthetic_row_values(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    ext = extend_table(x1)
    assert ext.entries[-1] == (F(3, 10), F(7, 10))
    assert [sum(row[j] for row in ext.entries) for j in range(2)] == [2, 16]
    assert ext.source is x1
    assert not ext.is_integral


def test_synthetic_row_of_integral_table_is_zero(third_scheme):
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 6),))
    ext = extend_table(build_fair_share_table(problem, 1))
    assert ext.entries[-1] == (0, 0)
    assert ext.is_integral
    assert ext.fraction_cells() == ()


@given(
    parts=st.lists(st.integers(1, 7), min_size=2, max_size=4),
    qs=st.lists(st.integers(0, 25), min_size=2, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_extension_makes_all_lines_integral(parts, qs):
    problem = _random_problem(parts, qs)
    ext = extend_table(build_fair_share_table(problem, 1))
    n = problem.scheme.size
    for row in ext.entries:
        assert sum(row).denominator == 1
    for j in range(n):
        assert sum(row[j] for row in ext.entries).denominator == 1
    assert all(0 <= v < 1 for v in ext.entries[-1])


def test_extended_table_shape_is_validated(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    with pytest.raises(ValueError):
        ExtendedTable(x1, x1.entries)  # synthetic row missing
    with pytest.raises(ValueError):
        ExtendedTable(x1, x1.entries + ((F(1, 10), F(1, 10)),))  # columns not integral


_H = F(1, 2)
_SHAPE = "extended table must be 3 x 2 (source rows plus one synthetic row)"


@pytest.mark.parametrize("n, rows, message", [
    # one rule broken
    (2, ((1, 1), (1, 1)), _SHAPE),
    (2, ((1, 1), (1, 1), (0,)), _SHAPE),
    (2, ((1, 1), (-1, 2), (0, 0)), "row 1 has a negative entry"),
    (2, ((1, 1), (_H, 1), (_H, 0)), "row 1 does not sum to an integer"),
    (3, ((1, 0, 0), (0, _H, _H), (0, 0, 1)), "column 1 does not sum to an integer"),
    # two rules broken: the first check in order wins
    (2, ((1, 1, 0), (_H, 0, 0), (0, 0, 0)), _SHAPE),  # row 1 sums to 1/2 too
    (2, ((1, 1), (-_H, 1), (_H, 0)), "row 1 has a negative entry"),  # and sums to 1/2
    (2, ((_H, 1), (-1, 2), (_H, 0)), "row 0 does not sum to an integer"),  # row 1 negative
    (2, ((_H, _H), (_H, 1), (0, 0)), "row 1 does not sum to an integer"),  # column 1 sums to 3/2
])
def test_extended_table_checks_in_order(n, rows, message):
    categories = tuple(f"c{j}" for j in range(n))
    fair = FairShareTable(("d1", "d2"), categories, ((0,) * n,) * 2, (0, 0), (0,) * n, 0)
    with pytest.raises(ValueError) as err:
        ExtendedTable(fair, tuple(tuple(F(v) for v in row) for row in rows))
    assert str(err.value) == message


def test_extended_table_of_width_zero():
    """A table with no categories extends, has no fractional cell and no
    cycle, and rounds to the reservation table with no categories."""
    fair = FairShareTable(("d1", "d2"), (), ((), ()), (0, 0), (), 0)
    assert controlled_round(fair, SplitStream(1)) == ReservationTable(
        ("d1", "d2"), (), ((), ()), (0, 0), (), 0
    )
    ext = extend_table(fair)
    assert ext.entries == ((), (), ())
    assert ext.is_integral and ext.fraction_cells() == ()
    assert find_fraction_cycle(ext) is None
    with pytest.raises(ValueError, match="already integral"):
        decompose_once(ext, None, SplitStream(1))
    with pytest.raises(ValueError) as err:
        ExtendedTable(fair, ((), ()))
    assert str(err.value) == "extended table must be 3 x 0 (source rows plus one synthetic row)"


def _fair_tables(scheme, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        m = rng.randint(2, 12)
        periods = rng.randint(1, 3)
        vacancies = [[rng.randint(0, 30) for _ in range(m)] for _ in range(periods)]
        problem = ReservationProblem([f"d{i}" for i in range(m)], scheme, vacancies)
        yield build_fair_share_table(problem, rng.randint(1, periods))


QUARTERS = ReservationScheme(("c1", "c2", "c3"), (F(1, 4), F(1, 4), F(1, 2)))
FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"), (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200))
)


@pytest.mark.parametrize("scheme", [QUARTERS, FIVE], ids=["quarters", "five"])
def test_walk_starts_from_the_tables_scaled_entries(scheme):
    """The walk starts from scaled(entries); the integral cells agree with
    the entries' denominators; equal tables stay equal, hash alike and
    print alike, and replace() checks the new entries."""
    for fair in _fair_tables(scheme, range(12)):
        ext = extend_table(fair)
        states = [ext]
        rng = SplitStream(len(fair.departments))
        while not states[-1].is_integral and len(states) < 4:
            states.append(decompose_once(states[-1], None, rng))
        for table in states:
            walk = rounding._walk(table)
            scale, flows = scaled(v for row in table.entries for v in row)
            assert (walk.scale, walk.flows) == (scale, flows)
            cells = tuple(
                (i, j) for i, row in enumerate(table.entries)
                for j, v in enumerate(row) if v.denominator != 1
            )
            assert table.fraction_cells() == cells
            assert table.is_integral == (cells == ())
        twin = extend_table(build_fair_share_table(
            ReservationProblem(fair.departments, scheme, (fair.row_totals,)), 1
        ))
        assert twin is not ext and twin.source is not ext.source
        assert twin == ext and hash(twin) == hash(ext) and repr(twin) == repr(ext)
        rounded = replace(ext, entries=states[-1].entries)
        assert rounded == states[-1]
        assert rounding._walk(rounded).flows == rounding._walk(states[-1]).flows
        broken = [list(row) for row in ext.entries]
        broken[0][0] += F(1, 7)
        with pytest.raises(ValueError, match="row 0 does not sum to an integer"):
            replace(ext, entries=tuple(map(tuple, broken)))


# ---------------------------------------------------------------- cycles


def test_cycle_validation():
    with pytest.raises(ValueError):
        FractionCycle(((0, 0), (0, 1)))  # too short
    with pytest.raises(ValueError):
        FractionCycle(((0, 0), (0, 1), (1, 1)))  # odd length
    with pytest.raises(ValueError):
        FractionCycle(((0, 0), (1, 1), (1, 0), (0, 0)))  # duplicate / misaligned
    with pytest.raises(ValueError):
        FractionCycle(((0, 0), (1, 0), (1, 1), (0, 1)))  # starts on a column step
    c = FractionCycle(((0, 0), (0, 1), (1, 1), (1, 0)))
    assert c.odd_cells == ((0, 0), (1, 1))
    assert c.even_cells == ((0, 1), (1, 0))


def test_deterministic_cycle_on_two_dept_table(two_dept_problem):
    ext = extend_table(build_fair_share_table(two_dept_problem, 1))
    cycle = find_fraction_cycle(ext)
    assert cycle.cells == ((0, 0), (0, 1), (1, 1), (1, 0))
    # deterministic: same table, same cycle
    assert find_fraction_cycle(ext).cells == cycle.cells


def test_cycle_walk_discards_dead_end_prefix():
    """The walk must close on a revisited line, not on a revisited cell.

    In this table the greedy walk starts at (0,0), which lies on no cycle
    through smallest-cell moves; the prefix has to be dropped and the cycle
    closed among the remaining cells.
    """
    source = FairShareTable(
        departments=("d1", "d2"),
        categories=("c1", "c2", "c3"),
        entries=((F(2, 5), F(3, 10), F(3, 10)), (F(0), F(7, 10), F(3, 10))),
        row_totals=(1, 1),
        column_totals=(F(2, 5), F(1), F(3, 5)),
        grand_total=2,
    )
    ext = ExtendedTable(source, source.entries + ((F(3, 5), F(0), F(2, 5)),))
    cycle = find_fraction_cycle(ext)
    assert cycle.cells == ((0, 1), (0, 2), (1, 2), (1, 1))


def test_find_cycle_returns_none_when_integral(third_scheme):
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 6),))
    ext = extend_table(build_fair_share_table(problem, 1))
    assert find_fraction_cycle(ext) is None


# ---------------------------------------------------------------- single steps


APPENDIX_CYCLE = FractionCycle(
    ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (3, 1), (3, 0))
)


def test_eight_cycle_step_exact_branches(three_dept_problem):
    """A known 8-cycle splits 2:1 and both branches are reproduced exactly."""
    ext = extend_table(build_fair_share_table(three_dept_problem, 1))
    assert ext.entries[-1] == (F(1, 2), F(1, 2), F(0))
    captured = []
    decompose_once(ext, APPENDIX_CYCLE, ForcedRng(True), on_step=captured.append)
    (step,) = captured
    assert step.d_plus == F(1, 2)
    assert step.d_minus == F(1, 4)
    assert step.probability == F(1, 3)
    assert step.branch == "raise-odd"
    assert step.raise_odd.entries == (
        (1, 0, 1),
        (F(1, 4), F(3, 4), 0),
        (F(3, 4), F(1, 4), 2),
        (0, 1, 0),
    )
    assert step.raise_even.entries == (
        (F(1, 4), F(3, 4), 1),
        (F(1, 4), 0, F(3, 4)),
        (F(3, 4), 1, F(5, 4)),
        (F(3, 4), F(1, 4), 0),
    )
    # the pre-step table is the exact 1/3 : 2/3 mixture of the branches
    for v_row, odd_row, even_row in zip(
        ext.entries, step.raise_odd.entries, step.raise_even.entries
    ):
        for v, o, e in zip(v_row, odd_row, even_row):
            assert F(1, 3) * o + F(2, 3) * e == v


def test_forced_even_branch_is_the_other_table(three_dept_problem):
    ext = extend_table(build_fair_share_table(three_dept_problem, 1))
    captured = []
    result = decompose_once(ext, APPENDIX_CYCLE, ForcedRng(False), on_step=captured.append)
    assert captured[0].branch == "raise-even"
    assert result is captured[0].raise_even


def test_step_rejects_inconsistent_probability(three_dept_problem):
    ext = extend_table(build_fair_share_table(three_dept_problem, 1))
    captured = []
    decompose_once(ext, APPENDIX_CYCLE, ForcedRng(True), on_step=captured.append)
    step = captured[0]
    with pytest.raises(ValueError):
        DecompositionStep(
            table=step.table,
            cycle=step.cycle,
            d_plus=step.d_plus,
            d_minus=step.d_minus,
            probability=F(1, 2),  # inconsistent with d-/(d- + d+) = 1/3
            raise_odd=step.raise_odd,
            raise_even=step.raise_even,
            branch=step.branch,
            result=step.result,
        )


def test_decompose_rejects_integral_table(third_scheme):
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 6),))
    ext = extend_table(build_fair_share_table(problem, 1))
    with pytest.raises(ValueError):
        decompose_once(ext, None, ForcedRng(True))


def test_degenerate_cycle_is_an_internal_error(three_dept_problem):
    ext = extend_table(build_fair_share_table(three_dept_problem, 1))
    through_integral = FractionCycle(((0, 0), (0, 2), (1, 2), (1, 0)))  # (0,2) = 1
    with pytest.raises(RuntimeError):
        decompose_once(ext, through_integral, ForcedRng(True))


@pytest.mark.parametrize("cells", [
    ((0, 0), (0, 5), (1, 5), (1, 0)),  # column 5 would be edge 5, cell (1, 2)
    ((0, 0), (0, -2), (1, -2), (1, 0)),  # column -2 would alias column 1
    ((0, 0), (0, 1), (4, 1), (4, 0)),  # row 4 is past the synthetic row
    ((-1, 0), (-1, 1), (0, 1), (0, 0)),
    ((0, 2), (0, 3), (1, 3), (1, 2)),  # (0, 2) is integral, but (0, 3) is outside
])
def test_cycle_outside_the_table_is_refused_before_any_draw(three_dept_problem, cells):
    ext = extend_table(build_fair_share_table(three_dept_problem, 1))
    rng = SplitStream(1)
    with pytest.raises(ValueError) as exc:
        decompose_once(ext, FractionCycle(cells), rng)
    assert str(exc.value) == f"cycle {cells} leaves the 4 x 3 extended table"
    assert rng._n == 0


# ---------------------------------------------------------------- full rounding


def _enumerate_outcomes(ext):
    """Exact outcome distribution of the rounding walk, by expanding both
    branches of every step instead of sampling one."""
    outcomes = {}

    def expand(table, mass):
        if table.is_integral:
            key = table.entries
            outcomes[key] = outcomes.get(key, F(0)) + mass
            return
        captured = []
        decompose_once(table, None, ForcedRng(True), on_step=captured.append)
        step = captured[0]
        expand(step.raise_odd, mass * step.probability)
        expand(step.raise_even, mass * (1 - step.probability))

    expand(ext, F(1))
    return outcomes


def test_rounding_distribution_is_exactly_unbiased(two_dept_problem):
    """Total mass 1, entrywise expectation equal to the fair share, and
    every reachable outcome within both quotas."""
    x1 = build_fair_share_table(two_dept_problem, 1)
    ext = extend_table(x1)
    outcomes = _enumerate_outcomes(ext)
    assert sum(outcomes.values()) == 1
    rows, cols = len(ext.entries), len(ext.entries[0])
    for i in range(rows):
        for j in range(cols):
            mean = sum(mass * entries[i][j] for entries, mass in outcomes.items())
            assert mean == ext.entries[i][j], (i, j)
    from reserve2d import ReservationTable

    for entries in outcomes:
        z = ReservationTable.from_entries(
            x1.departments, x1.categories, tuple(tuple(int(v) for v in r) for r in entries[:-1])
        )
        assert within_department_quota(z, x1) == []
        assert within_university_quota(z, x1) == []


def test_rounding_frequencies_match_exact_distribution(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    outcomes = _enumerate_outcomes(extend_table(x1))
    by_internal = {}
    for entries, mass in outcomes.items():
        key = tuple(tuple(int(v) for v in row) for row in entries[:-1])
        by_internal[key] = by_internal.get(key, F(0)) + mass
    draws = 4000
    rng = SplitStream(2024)
    counts = {}
    for _ in range(draws):
        z = controlled_round(x1, rng)
        counts[z.entries] = counts.get(z.entries, 0) + 1
    assert set(counts) <= set(by_internal)
    for key, p in by_internal.items():
        se = (float(p) * (1 - float(p)) / draws) ** 0.5
        assert abs(counts.get(key, 0) / draws - float(p)) < 4 * se + 1e-9, key


def test_rounding_is_deterministic_per_seed(two_dept_problem):
    x2 = build_fair_share_table(two_dept_problem, 2)
    a = [controlled_round(x2, SplitStream(99)) for _ in range(3)]
    b = [controlled_round(x2, SplitStream(99)) for _ in range(3)]
    assert a == b


def test_rounding_integral_table_draws_nothing(third_scheme):
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 6),))
    x = build_fair_share_table(problem, 1)
    z = controlled_round(x, ForcedRng())  # empty script: any draw would fail
    assert z.entries == ((1, 2), (2, 4))


def test_steps_shrink_fractions_and_stay_within_original_bounds(two_dept_problem):
    x2 = build_fair_share_table(two_dept_problem, 2)
    original = extend_table(x2)
    seen = []
    controlled_round(x2, SplitStream(5), on_step=seen.append)
    assert seen, "fractional table must take at least one step"
    counts = [len(s.table.fraction_cells()) for s in seen]
    assert counts == sorted(counts, reverse=True)
    assert all(a > b for a, b in zip(counts, counts[1:]))
    for step in seen:
        for orig_row, new_row in zip(original.entries, step.result.entries):
            for orig, new in zip(orig_row, new_row):
                low = orig.numerator // orig.denominator
                assert low <= new <= low + (0 if orig.denominator == 1 else 1)


@given(
    parts=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    qs=st.lists(st.integers(0, 15), min_size=2, max_size=4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_rounding_always_meets_both_quotas(parts, qs, seed):
    problem = _random_problem(parts, qs)
    x = build_fair_share_table(problem, 1)
    z = controlled_round(x, SplitStream(seed))
    assert z.row_totals == x.row_totals
    assert within_department_quota(z, x) == []
    assert within_university_quota(z, x) == []


def test_rounding_with_denominators_beyond_64_bits():
    """Branch probabilities with denominators near 2**70 need multi-word draws."""
    big = 2**70
    scheme = ReservationScheme(("c1", "c2"), (F(1, big + 1), F(big, big + 1)))
    x = build_fair_share_table(ReservationProblem(("d1", "d2"), scheme, ((1, 2),)), 1)
    with time_limit(10):
        z = controlled_round(x, SplitStream(3))
    assert z.row_totals == x.row_totals
    assert within_department_quota(z, x) == []
    assert within_university_quota(z, x) == []
