"""Tests for the problem model, fair shares, quotas, and bias tables."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve2d import (
    FairShareTable,
    PeriodRangeError,
    ReservationProblem,
    ReservationScheme,
    ReservationTable,
    Roster,
    SolutionTrace,
    bias_of,
    build_fair_share_table,
    is_monotone,
    run_court,
    run_government,
    run_proposed,
    within_department_quota,
    within_university_quota,
)

from conftest import mod3_roster

F = Fraction


# ---------------------------------------------------------------- schemes


def test_scheme_accepts_strings_and_fractions():
    s = ReservationScheme(("a", "b", "c"), ("3/20", "0.15", F(7, 10)))
    assert s.fractions == (F(3, 20), F(3, 20), F(7, 10))
    assert s.size == 3
    assert s.fraction_of("b") == F(3, 20)


def test_scheme_rejects_floats():
    with pytest.raises(TypeError):
        ReservationScheme(("a", "b"), (0.1, 0.9))


@pytest.mark.parametrize(
    "categories,fractions",
    [
        (("a",), (F(1),)),  # too few categories
        (("a", "a"), (F(1, 2), F(1, 2))),  # duplicate names
        (("a", "b"), (F(1, 2),)),  # count mismatch
        (("a", "b"), (F(0), F(1))),  # fraction at the boundary
        (("a", "b"), (F(1, 2), F(1, 3))),  # does not sum to 1
        (("a", "b", "c"), (F(1, 2), F(1, 2), F(1, 2))),  # sums above 1
    ],
)
def test_scheme_validation(categories, fractions):
    with pytest.raises(ValueError):
        ReservationScheme(categories, fractions)


def test_equal_schemes_hash_alike(third_scheme):
    again = ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3)))
    assert again == third_scheme
    assert hash(again) == hash(third_scheme)


# ---------------------------------------------------------------- problems


def test_problem_validation(third_scheme):
    with pytest.raises(ValueError):
        ReservationProblem(("only",), third_scheme, ((1,),))
    with pytest.raises(ValueError):
        ReservationProblem(("d", "d"), third_scheme, ((1, 1),))
    with pytest.raises(ValueError):
        ReservationProblem(("d1", "d2"), third_scheme, ())
    with pytest.raises(ValueError):
        ReservationProblem(("d1", "d2"), third_scheme, ((1,),))
    with pytest.raises(ValueError):
        ReservationProblem(("d1", "d2"), third_scheme, ((1, -1),))


def test_cumulative_vacancies(four_dept_problem):
    assert four_dept_problem.cumulative_vacancies(1) == (2, 1, 2, 1)
    assert four_dept_problem.cumulative_vacancies(3) == (6, 3, 6, 3)
    with pytest.raises(PeriodRangeError):
        four_dept_problem.cumulative_vacancies(0)
    with pytest.raises(PeriodRangeError):
        four_dept_problem.cumulative_vacancies(4)


# ---------------------------------------------------------------- fair shares


def test_fair_share_two_departments_first_period(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    assert x1.entries == ((F(9, 10), F(81, 10)), (F(4, 5), F(36, 5)))
    assert x1.row_totals == (9, 8)
    assert x1.column_totals == (F(17, 10), F(153, 10))
    assert x1.grand_total == 17


def test_fair_share_two_departments_second_period(two_dept_problem):
    x2 = build_fair_share_table(two_dept_problem, 2)
    assert x2.entries == ((F(13, 5), F(117, 5)), (F(3, 2), F(27, 2)))
    assert x2.column_totals == (F(41, 10), F(369, 10))
    assert x2.grand_total == 41


def test_fair_share_period_range(two_dept_problem):
    with pytest.raises(PeriodRangeError):
        build_fair_share_table(two_dept_problem, 3)


def test_fair_share_monotone_in_period(four_dept_problem):
    tables = [build_fair_share_table(four_dept_problem, t) for t in (1, 2, 3)]
    for prev, cur in zip(tables, tables[1:]):
        for rp, rc in zip(prev.entries, cur.entries):
            assert all(a <= b for a, b in zip(rp, rc))


fractions_strategy = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.integers(4, 40),
        st.lists(st.integers(1, 10), min_size=n, max_size=n),
    )
)


@given(
    weights=fractions_strategy,
    vacancies=st.lists(
        st.lists(st.integers(0, 20), min_size=2, max_size=4),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_fair_share_additivity_property(weights, vacancies):
    """Margins are exact identities for arbitrary rational schemes; the
    cumulative rows are the vacancy prefix sums and each table is built once."""
    _, parts = weights
    total = sum(parts)
    scheme = ReservationScheme(
        tuple(f"c{j}" for j in range(len(parts))),
        tuple(F(p, total) for p in parts),
    )
    m = len(vacancies[0])
    problem = ReservationProblem(
        tuple(f"d{i}" for i in range(m)),
        scheme,
        tuple(tuple(row[:m]) for row in [v + [0] * m for v in vacancies]),
    )
    for t in range(1, problem.periods + 1):
        x = build_fair_share_table(problem, t)
        assert build_fair_share_table(problem, t) is x
        assert all(sum(row) == q for row, q in zip(x.entries, x.row_totals))
        assert sum(x.column_totals) == x.grand_total
        q = problem.cumulative_vacancies(t)
        assert q == tuple(map(sum, zip(*problem.vacancies[:t])))
        for i, row in enumerate(x.entries):
            for j, a in enumerate(scheme.fractions):
                assert row[j] == a * q[i]


# ---------------------------------------------------------------- quotas


def _table(problem, entries):
    return ReservationTable.from_entries(
        problem.departments, problem.scheme.categories, entries
    )


def test_department_quota_floor_and_ceil(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    # fair shares: (0.9, 8.1) / (0.8, 7.2); floors and ceilings both admissible
    assert within_department_quota(_table(two_dept_problem, ((0, 9), (1, 7))), x1) == []
    assert within_department_quota(_table(two_dept_problem, ((1, 8), (0, 8))), x1) == []
    bad = within_department_quota(_table(two_dept_problem, ((2, 7), (0, 8))), x1)
    assert [(v.department, v.category) for v in bad] == [("d1", "c1"), ("d1", "c2")]
    assert bad[0].reserved == 2 and bad[0].fair == F(9, 10)
    assert bad[0].magnitude == F(11, 10)


def test_integral_fair_share_admits_only_itself(third_scheme):
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 3),))
    x = build_fair_share_table(problem, 1)
    assert x.entries == ((1, 2), (1, 2))
    assert within_department_quota(_table(problem, ((1, 2), (1, 2))), x) == []
    off = within_department_quota(_table(problem, ((2, 1), (1, 2))), x)
    assert len(off) == 2, "an integral fair share admits no rounding slack"


def test_university_quota_checks_column_totals(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    # fair column totals are 1.7 and 15.3
    bad = within_university_quota(_table(two_dept_problem, ((0, 9), (0, 8))), x1)
    assert [(v.department, v.category, v.reserved) for v in bad] == [
        (None, "c1", 0),
        (None, "c2", 17),
    ]
    assert bad[0].magnitude == F(17, 10)
    assert within_university_quota(_table(two_dept_problem, ((0, 9), (1, 7))), x1) == []
    assert within_university_quota(_table(two_dept_problem, ((1, 8), (1, 7))), x1) == []


def test_quota_rejects_mismatched_grid(two_dept_problem, four_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    other = _table(four_dept_problem, ((0, 2), (0, 1), (0, 2), (0, 1)))
    with pytest.raises(ValueError):
        within_department_quota(other, x1)


@pytest.mark.parametrize("rows, columns", [((2, 2, 5), (2, 2)), ((2,), (2, 2)), ((2, 2), (2, 2, 0)), ((2, 2), (4,))])
def test_tables_reject_margins_of_the_wrong_length(rows, columns):
    """A margin with more or fewer totals than labels raises ValueError."""
    labels = dict(departments=("a", "b"), categories=("x", "y"))
    with pytest.raises(ValueError, match="totals, got"):
        ReservationTable(
            **labels, entries=((1, 1), (1, 1)), row_totals=rows, column_totals=columns,
            grand_total=sum(rows),
        )
    with pytest.raises(ValueError, match="totals, got"):
        FairShareTable(
            **labels, entries=((F(1, 2), F(3, 2)), (F(3, 2), F(1, 2))), row_totals=rows,
            column_totals=tuple(map(F, columns)), grand_total=sum(rows),
        )


def test_from_entries_rejects_a_ragged_row_with_the_grid_message():
    """A short or long row is refused by the grid check, before any margin
    is compared (column sums used to index past the short row)."""
    for entries in (((1, 2), (3,)), ((1,), (2, 3)), ((1, 2, 3), (4, 5))):
        with pytest.raises(ValueError, match="^reservation table: expected 2 columns, got [13]$"):
            ReservationTable.from_entries(("a", "b"), ("x", "y"), entries)
    empty = ReservationTable.from_entries((), ("x", "y"), ())
    assert empty.column_totals == (0, 0) and empty.grand_total == 0


def test_a_fair_table_missing_a_row_is_refused_by_the_grid_check():
    with pytest.raises(ValueError) as refused:
        FairShareTable(("a", "b"), ("x", "y"), ((F(1, 2), F(3, 2)),), (2, 2), (F(2), F(2)), 4)
    assert str(refused.value) == "fair share table: expected 2 rows, got 1"


def test_from_entries_sums_the_margins_and_checks_every_entry():
    """The margins are the entries' sums, as a direct construction with them
    would take; a negative or non-integer entry is refused with its message."""
    entries = ((1, 0, 2), (3, 4, 0))
    table = ReservationTable.from_entries(["a", "b"], ["x", "y", "z"], [list(row) for row in entries])
    assert table == ReservationTable(("a", "b"), ("x", "y", "z"), entries, (3, 7), (4, 4, 2), 10)
    for bad in (-1, 1.0, F(1)):
        with pytest.raises(ValueError) as exc:
            ReservationTable.from_entries(("a", "b"), ("x", "y"), ((1, bad), (0, 2)))
        assert str(exc.value) == f"reservation entries must be nonnegative integers, got {bad!r}"


# ---------------------------------------------------------------- bias tables


def test_bias_table_values_and_margins(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    b = bias_of(_table(two_dept_problem, ((1, 8), (1, 7))), x1)
    assert b.entries == (
        (F(1, 10), -F(1, 10), F(0)),
        (F(1, 5), -F(1, 5), F(0)),
        (F(3, 10), -F(3, 10), F(0)),
    )
    assert b.internal == ((F(1, 10), -F(1, 10)), (F(1, 5), -F(1, 5)))
    assert b.column_total_biases == (F(3, 10), -F(3, 10))
    assert b.max_magnitude == F(3, 10)


@given(
    parts=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    qs=st.lists(st.integers(0, 12), min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_no_violations_iff_all_biases_below_one(parts, qs, data):
    """Both quota sets are empty exactly when every bias magnitude is < 1."""
    total = sum(parts)
    scheme = ReservationScheme(
        tuple(f"c{j}" for j in range(len(parts))),
        tuple(F(p, total) for p in parts),
    )
    problem = ReservationProblem(
        tuple(f"d{i}" for i in range(len(qs))), scheme, (tuple(qs),)
    )
    x = build_fair_share_table(problem, 1)
    # random reservation with the required row totals
    entries = []
    for q in qs:
        row = [0] * scheme.size
        for _ in range(q):
            row[data.draw(st.integers(0, scheme.size - 1))] += 1
        entries.append(tuple(row))
    z = _table(problem, tuple(entries))
    clean = not within_department_quota(z, x) and not within_university_quota(z, x)
    assert clean == (bias_of(z, x).max_magnitude < 1)


# ---------------------------------------------------------------- traces


def _trace_periods(problem, reservations):
    return tuple(
        (build_fair_share_table(problem, t), table)
        for t, table in enumerate(reservations, start=1)
    )


def test_trace_validates_row_totals(four_dept_problem):
    good = [
        _table(four_dept_problem, ((0, 2), (0, 1), (0, 2), (1, 0))),
        _table(four_dept_problem, ((1, 3), (0, 2), (1, 3), (2, 0))),
        _table(four_dept_problem, ((2, 4), (1, 2), (2, 4), (3, 0))),
    ]
    trace = SolutionTrace(four_dept_problem, "manual", _trace_periods(four_dept_problem, good))
    assert trace.reservation(2) is good[1]
    assert trace.fair(3) == build_fair_share_table(four_dept_problem, 3)
    assert trace.seed is None

    bad_totals = list(good)
    bad_totals[1] = _table(four_dept_problem, ((1, 3), (0, 2), (1, 3), (1, 0)))
    with pytest.raises(ValueError):
        SolutionTrace(
            four_dept_problem, "manual", _trace_periods(four_dept_problem, bad_totals)
        )


def test_trace_checks_fair_tables_that_are_not_the_cached_ones(four_dept_problem):
    tables = [
        _table(four_dept_problem, ((0, 2), (0, 1), (0, 2), (1, 0))),
        _table(four_dept_problem, ((1, 3), (0, 2), (1, 3), (2, 0))),
    ]
    problem = ReservationProblem(
        four_dept_problem.departments, four_dept_problem.scheme, ((2, 1, 2, 1),) * 2
    )
    cached = _trace_periods(problem, tables)
    copies = tuple((dataclasses.replace(fair), reserved) for fair, reserved in cached)
    assert copies[0][0] is not cached[0][0]
    assert SolutionTrace(problem, "manual", copies).fair(2) == cached[1][0]

    other = ReservationProblem(problem.departments, problem.scheme, ((2, 1, 2, 1), (1, 2, 2, 1)))
    swapped = ((cached[0][0], tables[0]), (build_fair_share_table(other, 2), tables[1]))
    with pytest.raises(ValueError, match="period 2: fair share table mismatch"):
        SolutionTrace(problem, "manual", swapped)


def test_trace_requires_monotone_reservations(four_dept_problem):
    tables = [
        _table(four_dept_problem, ((2, 0), (0, 1), (0, 2), (1, 0))),
        _table(four_dept_problem, ((1, 3), (0, 2), (1, 3), (2, 0))),  # d1 c1 shrinks
        _table(four_dept_problem, ((2, 4), (1, 2), (2, 4), (3, 0))),
    ]
    assert not is_monotone(tables)
    with pytest.raises(ValueError):
        SolutionTrace(
            four_dept_problem, "manual", _trace_periods(four_dept_problem, tables)
        )


def test_is_monotone_holds_for_every_solution_and_growing_tables(four_dept_problem):
    """A trace of each ``run_*`` is monotone, and so is a list of tables that never shrink."""
    traces = (run_government(four_dept_problem, mod3_roster(18)), run_court(four_dept_problem, mod3_roster(6)),
              run_proposed(four_dept_problem, 7))
    assert all(is_monotone(trace) for trace in traces)
    tables = [reserved for _, reserved in traces[2].periods]
    assert is_monotone(tables) and is_monotone(iter(tables)) and is_monotone(tables[:1])


def test_is_monotone_rejects_tables_on_different_grids(four_dept_problem):
    table = _table(four_dept_problem, ((0, 2), (0, 1), (0, 2), (1, 0)))
    renamed = ReservationTable.from_entries(("d1", "d2", "d3", "d5"), table.categories, table.entries)
    with pytest.raises(ValueError, match="same grid"):
        is_monotone([table, renamed])


def test_trace_requires_all_periods(four_dept_problem):
    one = [_table(four_dept_problem, ((0, 2), (0, 1), (0, 2), (1, 0)))]
    with pytest.raises(ValueError):
        SolutionTrace(four_dept_problem, "manual", _trace_periods(four_dept_problem, one))


# ---------------------------------------------------------------- rosters


def test_roster_category_lookup():
    r = Roster(categories=("c1", "c2"), assignment=("c2", "c2", "c1"))
    assert len(r) == 3
    assert [r.category_at(p) for p in (1, 2, 3)] == ["c2", "c2", "c1"]
    with pytest.raises(ValueError):
        r.category_at(0)
    with pytest.raises(IndexError):
        r.category_at(4)


def test_roster_rejects_unknown_category():
    with pytest.raises(ValueError):
        Roster(categories=("c1",), assignment=("c1", "zz"))
    with pytest.raises(ValueError, match="^position 3: unknown category 'zz'$"):
        Roster(categories=("c1", "c2"), assignment=("c2", "c1", "zz", "c1", "yy"))
