"""Tests for table extension, cycle finding, and controlled rounding."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve2d import (
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

from conftest import APPENDIX_CYCLE, GOOD_FAIR, ForcedRng, expand, random_problem, rerun, time_limit

F = Fraction


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
    problem = random_problem(parts, qs)
    ext = extend_table(build_fair_share_table(problem, 1))
    n = problem.scheme.size
    for row in ext.entries:
        assert sum(row).denominator == 1
    for j in range(n):
        assert sum(row[j] for row in ext.entries).denominator == 1
    assert all(0 <= v < 1 for v in ext.entries[-1])


def test_a_table_of_width_zero_extends_and_rounds():
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


def test_integer_extension_is_the_extended_tables_scaled_entries():
    """``controlled_round`` extends in integers from the fair table's own
    scaled entries; that equals scaling ``extend_table``'s ``Fraction`` entries,
    also for tables with no categories and for all-integral tables."""
    third = ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3)))
    fairs = [*_fair_tables(QUARTERS, range(10)), *_fair_tables(FIVE, range(10)),
             FairShareTable(("d1", "d2"), (), ((), ()), (0, 0), (), 0),
             build_fair_share_table(ReservationProblem(("d1", "d2"), third, ((3, 6),)), 1)]
    for fair in fairs:
        scale, flows = scaled(v for row in fair.entries for v in row)
        assert fair._scaled == (scale, tuple(flows))
        assert rounding._extension(fair) == extend_table(fair)._scaled
    assert rounding._extension(fairs[-1]) == (1, [1, 2, 2, 4, 0, 0])
    assert FairShareTable(**GOOD_FAIR)._scaled == (2, (1, 3, 3, 1))  # the table the fair-table REFUSALS rows break


# ---------------------------------------------------------------- cycles


def test_a_cycles_odd_cells_are_its_even_positions():
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


def test_observed_branches_share_every_entry_off_the_cycle(three_dept_problem):
    """In observed roundings and single steps alike, both branches replace
    only the cycle's cells of the pre-step table: every other entry is the
    pre-step ``Fraction`` itself, and a cycle cell moves by d+ one way and
    d- the other."""
    five = ReservationScheme(
        ("sc", "st", "obc", "ews", "open"), (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200))
    )
    problem = ReservationProblem([f"d{i}" for i in range(7)], five, [[3, 9, 14, 1, 22, 5, 8]])
    steps = []
    controlled_round(build_fair_share_table(problem, 1), SplitStream(4), on_step=steps.append)
    decompose_once(extend_table(build_fair_share_table(three_dept_problem, 1)), APPENDIX_CYCLE,
                   ForcedRng(False), on_step=steps.append)
    assert len(steps) > 10
    for step in steps:
        odd, even = set(step.cycle.odd_cells), set(step.cycle.even_cells)
        for i, row in enumerate(step.table.entries):
            for j, v in enumerate(row):
                up, down = step.raise_odd.entries[i][j], step.raise_even.entries[i][j]
                if (i, j) in odd:
                    assert (up, down) == (v + step.d_plus, v - step.d_minus), (i, j)
                elif (i, j) in even:
                    assert (up, down) == (v - step.d_plus, v + step.d_minus), (i, j)
                else:
                    assert up is v and down is v, (i, j)
                assert type(up) is type(down) is F


# ---------------------------------------------------------------- full rounding


def test_rounding_frequencies_match_exact_distribution(two_dept_problem):
    x1 = build_fair_share_table(two_dept_problem, 1)
    by_internal = expand(extend_table(x1), partial(decompose_once, cycle=None), lambda table: table.entries[:-1])
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


@given(
    parts=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    qs=st.lists(st.integers(0, 15), min_size=2, max_size=4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_rounding_always_meets_both_quotas(parts, qs, seed):
    problem = random_problem(parts, qs)
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


def test_observed_and_unobserved_rounding_agree_on_five_category_tables():
    """Both paths run one loop and split only at its hook: on seeded
    five-category tables of 5 to 40 departments they return equal tables and
    leave the stream at the same draw, and the observed steps chain from the
    extended table to the result."""
    five = ReservationScheme(
        ("sc", "st", "obc", "ews", "open"), (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200))
    )
    vacancies = random.Random(12)
    for m in (5, 7, 12, 20, 40):
        row = [vacancies.randint(1, 30) for _ in range(m)]
        fair = build_fair_share_table(ReservationProblem([f"d{i}" for i in range(m)], five, [row]), 1)
        for seed in range(3):
            plain, watched, steps = SplitStream(seed), SplitStream(seed), []
            rounded = controlled_round(fair, plain)
            assert controlled_round(fair, watched, on_step=steps.append) == rounded, (m, seed)
            assert plain._n == watched._n >= len(steps) > 0, (m, seed)
            assert steps[0].table == extend_table(fair)
            assert all(step.table is before.result for before, step in zip(steps, steps[1:]))
            assert steps[-1].result.entries[:-1] == rounded.entries


# ---------------------------------------------------------------- refusals

# These tests checked refusals that are rows of conftest.REFUSALS now (tests/test_refusals.py runs
# each row); each name runs its rows again, a parametrized one under its old ids.
test_extended_table_shape_is_validated = rerun(
    ["extended-without-its-synthetic-row", "extended-with-a-fractional-synthetic-row"])
test_extended_table_checks_in_order = rerun({
    "2-rows0-extended table must be 3 x 2 (source rows plus one synthetic row)": ["extended-of-two-rows"],
    "2-rows1-extended table must be 3 x 2 (source rows plus one synthetic row)": ["extended-with-a-short-row"],
    "2-rows2-row 1 has a negative entry": ["extended-with-a-negative-entry"],
    "2-rows3-row 1 does not sum to an integer": ["extended-with-a-fractional-row"],
    "3-rows4-column 1 does not sum to an integer": ["extended-with-a-fractional-column"],
    "2-rows5-extended table must be 3 x 2 (source rows plus one synthetic row)":
        ["extended-with-long-rows-one-fractional"],
    "2-rows6-row 1 has a negative entry": ["extended-with-a-negative-fractional-row"],
    "2-rows7-row 0 does not sum to an integer": ["extended-with-a-fractional-then-a-negative-row"],
    "2-rows8-row 1 does not sum to an integer": ["extended-with-a-fractional-row-and-column"]})
test_extended_table_of_width_zero = rerun(["extended-of-width-0-without-its-synthetic-row", "table-of-width-0"])
test_integer_extension_runs_the_extended_tables_checks = rerun({
    "2-rows0-totals0-row 1 has a negative entry": [f"{call}-to-a-negative-entry" for call in (
        "extend-table", "integer-extension", "controlled-round")],
    "2-rows1-totals1-row 1 does not sum to an integer": [
        "fair-with-a-fractional-row-total", "extended-with-a-fractional-row"]})
test_malformed_fair_tables_keep_their_messages = rerun({
    "changes0-row 'a' sums to 1, stored total is 2": ["fair-row-a-short"],
    "changes1-row 'b' sums to 11/6, stored total is 2": ["fair-row-b-off-by-a-third"],
    "changes2-row 'b' sums to 2, stored total is 3": ["fair-row-total-too-large"],
    "changes3-column 'x' sums to 2, stored total is 5/2": ["fair-column-total-of-halves"],
    "changes4-column 'x' sums to 2, stored total is 7/3": ["fair-column-total-of-thirds"],
    "changes5-row totals do not sum to the grand total": ["fair-grand-total-too-large"],
    "changes6-row 'b' sums to 0, stored total is 1": ["fair-without-categories"],
    "changes7-column 'x' sums to 0, stored total is 1/2": ["fair-without-departments"],
    "changes8-row totals do not sum to the grand total": ["fair-without-departments-with-a-grand-total"]})
test_cycle_validation = rerun(["cell-cycle-of-two-cells", "cell-cycle-of-three-cells",
                               "cell-cycle-repeating-a-cell", "cell-cycle-starting-on-a-column-step"])
test_step_rejects_inconsistent_probability = rerun(["rounding-step-of-another-probability"])
test_step_refuses_branches_that_extend_another_table = rerun(["rounding-branches-of-another-table"])
test_step_names_the_cell_that_does_not_mix_back = rerun(["rounding-step-that-does-not-mix-back"])
test_decompose_rejects_integral_table = rerun(["integral-table"])
test_a_cycle_through_an_integral_cell_is_refused = rerun(["cell-cycle-through-an-integral-cell"])
test_cycle_outside_the_table_is_refused_before_any_draw = rerun({
    "cells0": ["cell-cycle-past-the-columns"], "cells1": ["cell-cycle-at-a-negative-column"],
    "cells2": ["cell-cycle-past-the-synthetic-row"], "cells3": ["cell-cycle-at-a-negative-row"],
    "cells4": ["cell-cycle-from-an-integral-cell-outside"]})
