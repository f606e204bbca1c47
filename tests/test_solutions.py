"""Tests for the government, court, and per-department lottery solutions."""

from dataclasses import replace
from fractions import Fraction
from itertools import cycle, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reserve2d import (
    ReservationProblem,
    ReservationScheme,
    Roster,
    RosterLengthError,
    SolutionConfig,
    SplitStream,
    build_fair_share_table,
    estimate_expected_table,
    run_court,
    run_government,
    run_proposed,
    run_solution,
    within_department_quota,
    within_university_quota,
)
from reserve2d.core import _check_counts
from reserve2d.roster import _sampler, build_scheme_table, draw_roster
from reserve2d.solutions import _replicate, _runner, _trace

from conftest import FIVE, mod3_roster

F = Fraction


# The running example: four departments hiring (2,1,2,1) per period under a
# one-third reservation, consuming the roster c2 c2 c1 c2 c2 c1 ...

GOVERNMENT_TABLES = (
    ((0, 2), (1, 0), (0, 2), (1, 0)),
    ((0, 4), (2, 0), (0, 4), (2, 0)),
    ((0, 6), (3, 0), (0, 6), (3, 0)),
)
COURT_TABLES = (
    ((0, 2), (0, 1), (0, 2), (0, 1)),
    ((1, 3), (0, 2), (1, 3), (0, 2)),
    ((2, 4), (1, 2), (2, 4), (1, 2)),
)


def test_government_run_reproduces_known_tables(four_dept_problem):
    trace = run_government(four_dept_problem, mod3_roster(18))
    assert trace.label == "government"
    assert trace.seed is None
    for t in (1, 2, 3):
        assert trace.reservation(t).entries == GOVERNMENT_TABLES[t - 1], t


def test_court_run_reproduces_known_tables(four_dept_problem):
    trace = run_court(four_dept_problem, mod3_roster(6))
    for t in (1, 2, 3):
        assert trace.reservation(t).entries == COURT_TABLES[t - 1], t
    # the court tables at the final period equal the fair shares here
    assert trace.reservation(3).entries == tuple(
        tuple(int(v) for v in row)
        for row in build_fair_share_table(four_dept_problem, 3).entries
    )


def test_government_concentrates_department_bias(four_dept_problem):
    """The pooled run satisfies the university quota but piles a growing
    bias onto departments; the court run never leaves a department quota."""
    gov = run_government(four_dept_problem, mod3_roster(18))
    court = run_court(four_dept_problem, mod3_roster(6))
    for t, expected in ((1, 0), (2, 8), (3, 8)):
        fair = build_fair_share_table(four_dept_problem, t)
        assert within_university_quota(gov.reservation(t), fair) == []
        violations = within_department_quota(gov.reservation(t), fair)
        assert len(violations) == expected, t
        assert all(v.magnitude == F(2 * t, 3) for v in violations)
        assert within_department_quota(court.reservation(t), fair) == []
    fair3 = build_fair_share_table(four_dept_problem, 3)
    assert within_university_quota(court.reservation(3), fair3) == []


def test_government_order_changes_the_split(four_dept_problem):
    default = run_government(four_dept_problem, mod3_roster(18))
    shuffled = run_government(
        four_dept_problem, mod3_roster(18), order=("d2", "d1", "d4", "d3")
    )
    assert shuffled.reservation(1).entries != default.reservation(1).entries
    explicit = run_government(
        four_dept_problem, mod3_roster(18), order=("d1", "d2", "d3", "d4")
    )
    assert explicit.reservation(3).entries == default.reservation(3).entries


def test_government_order_must_be_a_permutation(four_dept_problem):
    with pytest.raises(ValueError, match="permutation"):
        run_government(four_dept_problem, mod3_roster(18), order=("d1", "d2"))
    with pytest.raises(ValueError, match="permutation"):
        run_government(
            four_dept_problem, mod3_roster(18), order=("d1", "d1", "d3", "d4")
        )


def test_roster_exhaustion_is_reported(four_dept_problem):
    with pytest.raises(RosterLengthError, match="18"):
        run_government(four_dept_problem, mod3_roster(17))
    with pytest.raises(RosterLengthError, match="6"):
        run_court(four_dept_problem, mod3_roster(5))


def test_roster_categories_must_match_scheme(four_dept_problem):
    from reserve2d import Roster

    wrong = Roster(categories=("x", "y"), assignment=("x",) * 18)
    with pytest.raises(ValueError, match="categories"):
        run_government(four_dept_problem, wrong)


def test_court_equals_government_when_pooling_is_vacuous(third_scheme):
    """With a single hiring department the two baselines coincide."""
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((5, 0), (4, 0)))
    roster = mod3_roster(9)
    gov = run_government(problem, roster)
    court = run_court(problem, roster)
    assert [gov.reservation(t).entries for t in (1, 2)] == [
        court.reservation(t).entries for t in (1, 2)
    ]


def test_all_solutions_coincide_on_block_aligned_history(third_scheme):
    """When every cumulative count is a multiple of the block length and the
    common roster is block-periodic, all three solutions hit the fair share
    exactly."""
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((3, 6), (3, 3)))
    roster = mod3_roster(sum(map(sum, problem.vacancies)))
    gov = run_government(problem, roster)
    court = run_court(problem, roster)
    for t in (1, 2):
        fair = build_fair_share_table(problem, t)
        exact = tuple(tuple(int(v) for v in row) for row in fair.entries)
        assert gov.reservation(t).entries == exact
        assert court.reservation(t).entries == exact
        for seed in range(10):
            proposed = run_proposed(problem, seed)
            assert proposed.reservation(t).entries == exact


def test_proposed_is_deterministic_per_seed(four_dept_problem):
    a = run_proposed(four_dept_problem, 314)
    b = run_proposed(four_dept_problem, 314)
    assert a == b
    assert a.seed == 314
    assert a.label == "proposed"
    assert run_proposed(four_dept_problem, 315) != a


def test_proposed_never_violates_department_quota(four_dept_problem):
    for seed in range(200):
        trace = run_proposed(four_dept_problem, seed)
        for t in (1, 2, 3):
            fair = build_fair_share_table(four_dept_problem, t)
            assert within_department_quota(trace.reservation(t), fair) == []


def test_proposed_skips_departments_without_vacancies(third_scheme):
    problem = ReservationProblem(("d1", "d2", "d3"), third_scheme, ((4, 0, 2),))
    trace = run_proposed(problem, 9)
    assert trace.reservation(1).entries[1] == (0, 0)
    assert sum(trace.reservation(1).entries[0]) == 4


def test_run_solution_dispatch(four_dept_problem):
    roster = mod3_roster(18)
    gov = run_solution(four_dept_problem, SolutionConfig("government", roster=roster))
    assert gov.reservation(3).entries == GOVERNMENT_TABLES[2]
    court = run_solution(four_dept_problem, SolutionConfig("court", roster=roster))
    assert court.reservation(3).entries == COURT_TABLES[2]
    proposed = run_solution(four_dept_problem, SolutionConfig("proposed"), seed=314)
    assert proposed == run_proposed(four_dept_problem, 314)


def test_run_solution_requirements(four_dept_problem):
    with pytest.raises(ValueError, match="seed"):
        run_solution(four_dept_problem, SolutionConfig("proposed"))
    with pytest.raises(ValueError, match="roster or a seed"):
        run_solution(four_dept_problem, SolutionConfig("government"))
    # with a seed, government and court draw a roster of their own
    drawn = run_solution(four_dept_problem, SolutionConfig("government"), seed=27)
    again = run_solution(four_dept_problem, SolutionConfig("government"), seed=27)
    assert drawn == again
    with pytest.raises(ValueError, match="unknown solution kind"):
        SolutionConfig("lottery")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
@pytest.mark.parametrize("kind", ["proposed", "court", "government"])
def test_drawn_runs_refuse_seeds_outside_64_bits(four_dept_problem, kind, seed):
    """A run that draws refuses a seed outside 0 .. 2**64 - 1, as ``SplitStream`` does."""
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        run_solution(four_dept_problem, SolutionConfig(kind), seed)


def test_estimated_table_is_deterministic_for_fixed_roster(four_dept_problem):
    config = SolutionConfig("government", roster=mod3_roster(18))
    est = estimate_expected_table(four_dept_problem, 3, config, 500, seed=0)
    assert est.replications == 1, "a fixed-roster baseline is not replicated"
    assert est.kind == "government"
    assert est.mean_entries == GOVERNMENT_TABLES[2]
    assert all(se == 0.0 for row in est.se_entries for se in row)
    assert all(se == 0.0 for se in est.se_column_totals)


def test_estimated_proposed_mean_tracks_fair_share(four_dept_problem):
    # period 2 has fractional fair shares, so the estimates really vary
    est = estimate_expected_table(
        four_dept_problem, 2, SolutionConfig("proposed"), 2000, seed=5
    )
    assert est.replications == 2000
    fair = build_fair_share_table(four_dept_problem, 2)
    for i in range(4):
        for j in range(2):
            mean, se = est.mean_entries[i][j], est.se_entries[i][j]
            assert se > 0.0, (i, j)
            assert abs(float(mean) - float(fair.entries[i][j])) < 3 * se, (i, j)
    for j in range(2):
        mean, se = est.mean_column_totals[j], est.se_column_totals[j]
        assert abs(float(mean) - float(fair.column_totals[j])) < 3 * se


def test_estimated_table_is_exact_on_block_aligned_periods(four_dept_problem):
    # period 3 counts are all multiples of the block length: surely exact
    est = estimate_expected_table(
        four_dept_problem, 3, SolutionConfig("proposed"), 50, seed=5
    )
    fair = build_fair_share_table(four_dept_problem, 3)
    assert est.mean_entries == fair.entries
    assert all(se == 0.0 for row in est.se_entries for se in row)


def test_estimate_validates_input(four_dept_problem):
    with pytest.raises(ValueError, match="replication"):
        estimate_expected_table(
            four_dept_problem, 1, SolutionConfig("proposed"), 0, seed=1
        )


def _pooled_government(problem, roster, order):
    """Reference pooled loop: each period, departments in ``order`` take
    consecutive positions of the one roster, and the position carries over."""
    cats = problem.scheme.categories
    counts = [[0] * len(cats) for _ in problem.departments]
    tables, position = [], 0
    for row in problem.vacancies:
        for dept in order:
            i = problem.departments.index(dept)
            segment = roster.assignment[position:position + row[i]]
            position += row[i]
            for j, c in enumerate(cats):
                counts[i][j] += segment.count(c)
        tables.append(tuple(tuple(r) for r in counts))
    return tables


def _sliced(problem, own):
    """Reference counting: department i reads ``own[i]``, a materialized
    sequence of categories, and each period slices its new positions off it."""
    cats = problem.scheme.categories
    counts = [[0] * len(cats) for _ in own]
    tables, previous = [], [0] * len(own)
    for t in range(1, problem.periods + 1):
        current = problem.cumulative_vacancies(t)
        for row, seq, start, stop in zip(counts, own, previous, current):
            segment = seq[start:stop]
            for j, c in enumerate(cats):
                row[j] += segment.count(c)
        previous = current
        tables.append(tuple(tuple(r) for r in counts))
    return tables


def _oracle(problem, config, seed):
    """Count tables of one run of ``config`` from materialized rosters: every
    position drawn, dealt and sliced."""
    final = problem.cumulative_vacancies(problem.periods)
    if config.kind == "proposed":
        sampler = _sampler(build_scheme_table(problem.scheme, config.height))
        stream, k = SplitStream(seed), sampler.table.height
        own = [
            sum((block.positions for block in sampler.blocks(stream.child(i), -(-q // k))), ())
            for i, q in enumerate(final)
        ]
        return _sliced(problem, own)
    roster = config.roster
    if roster is None:
        length = sum(final) if config.kind == "government" else max(final)
        roster = draw_roster(problem.scheme, length, SplitStream(seed), height=config.height)
    if config.kind == "court":
        return _sliced(problem, [roster.assignment] * len(problem.departments))
    return _pooled_government(problem, roster, config.order or problem.departments)


def _tables(counts, problem=None):
    """Per-period entries of a trace, or of a run's count vector on ``problem``, as tuples."""
    if hasattr(counts, "periods"):
        return [reserved.entries for _, reserved in counts.periods]
    m, n = len(problem.departments), problem.scheme.size
    rows = [tuple(counts[a:a + n]) for a in range(0, len(counts), n)]
    return [tuple(rows[a:a + m]) for a in range(0, len(rows), m)]


_QUARTERS = ReservationScheme(("c1", "c2", "c3"), (F(1, 4), F(1, 4), F(1, 2)))
_THIRD = ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3)))

# Problems and block heights for the kernel's oracle tests.  Each has a
# department or a period without vacancies, and reads boundaries at exact
# multiples of the block height and at the last position drawn.
_KERNEL_CASES = {
    # k = 3: final counts (3, 0, 6, 6), government's 15 positions are 5 whole
    # blocks and court's 6 are 2.
    "third": (ReservationProblem(("d1", "d2", "d3", "d4"), _THIRD, ((2, 0, 3, 0), (0, 0, 0, 0), (1, 0, 3, 6))), None),
    # k = 8: a first period without vacancies, final counts (8, 16, 5).
    "quarters-8": (ReservationProblem(("a", "b", "c"), _QUARTERS, ((0, 0, 0), (3, 9, 5), (5, 7, 0))), 8),
    # k = 200, walked blocks: departments end at 200, 200 and 201.
    "five": (ReservationProblem(("p", "q", "r"), FIVE, ((150, 0, 37), (50, 200, 163), (0, 0, 1))), None),
}


def _orders(problem):
    departments = problem.departments
    return (None, departments[::-1], departments[1:] + departments[:1])


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_counts_what_the_sliced_rosters_hold(case):
    """Drawn rosters: the replication loop's grids and the public traces
    equal the materialize-and-slice counts, run by run, for all three
    solutions and several pooling orders."""
    problem, height = _KERNEL_CASES[case]
    configs = [SolutionConfig("proposed", height=height), SolutionConfig("court", height=height)]
    configs += [SolutionConfig("government", order=o, height=height) for o in _orders(problem)]
    for config in configs:
        for r, grid in enumerate(_replicate(problem, config, 3, SplitStream(41))):
            seed = SplitStream(41).child(r).key
            expected = _oracle(problem, config, seed)
            assert _tables(grid, problem) == expected, (config, r)
            assert _tables(run_solution(problem, config, seed)) == expected, (config, r)


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_counts_fixed_rosters_like_the_sliced_ones(case):
    """Fixed rosters, one of them tiled the way ``--cycle-roster`` tiles a
    short roster file: the grid of the one deterministic run and the public
    traces equal the sliced counts."""
    problem, height = _KERNEL_CASES[case]
    needed = sum(problem.cumulative_vacancies(problem.periods))
    drawn = draw_roster(problem.scheme, needed + 2, SplitStream(5), height=height)
    short = draw_roster(problem.scheme, 7, SplitStream(6), height=height)
    tiled = replace(short, assignment=tuple(islice(cycle(short.assignment), needed)))
    assert len(tiled) == needed
    for roster in (drawn, tiled, replace(drawn, assignment=drawn.assignment[::-1])):
        court = SolutionConfig("court", roster=roster)
        configs = [court] + [SolutionConfig("government", roster=roster, order=o) for o in _orders(problem)]
        for config in configs:
            expected = _oracle(problem, config, None)
            (grid,) = _replicate(problem, config, 4, SplitStream(1))
            assert _tables(grid, problem) == expected, config
            assert _tables(run_solution(problem, config)) == expected, config
        assert _tables(run_court(problem, roster)) == _oracle(problem, court, None)
        order = _orders(problem)[1]
        assert _tables(run_government(problem, roster, order)) == _pooled_government(problem, roster, order)


def _refusals(problem, grid):
    """The messages with which the grid check and a trace of ``grid`` refuse it."""
    with pytest.raises(ValueError) as checked:
        _check_counts(problem, grid)
    with pytest.raises(ValueError) as traced:
        _trace(problem, "court", grid)
    return str(checked.value), str(traced.value)


def _court_grid(changes):
    """The court counts of the running example with ``changes[(t, i)]`` as row i of period t."""
    grid = [[list(row) for row in table] for table in COURT_TABLES]
    for (t, i), row in changes.items():
        grid[t - 1][i] = list(row)
    return [z for table in grid for row in table for z in row]


def test_grid_check_accepts_what_a_trace_accepts(four_dept_problem):
    grid = _court_grid({})
    _check_counts(four_dept_problem, grid)
    assert _tables(_trace(four_dept_problem, "court", grid)) == list(COURT_TABLES)


def test_grid_check_refuses_a_row_total_off_the_cumulative_vacancies(four_dept_problem):
    message = "period 2: reservation row totals (4, 2, 5, 2) differ from cumulative vacancies (4, 2, 4, 2)"
    assert _refusals(four_dept_problem, _court_grid({(2, 2): (2, 3)})) == (message, message)


def test_grid_check_refuses_a_negative_entry(four_dept_problem):
    message = "reservation entries must be nonnegative integers, got -1"
    assert _refusals(four_dept_problem, _court_grid({(1, 0): (-1, 3)})) == (message, message)


def test_grid_check_refuses_a_period_that_shrinks(four_dept_problem):
    message = "reservation tables must be entrywise nondecreasing"
    assert _refusals(four_dept_problem, _court_grid({(3, 0): (0, 6)})) == (message, message)


_SCHEMES = (
    ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3))),
    ReservationScheme(("c1", "c2", "c3"), (F(1, 4), F(1, 4), F(1, 2))),
)


def _nested_refusal(problem, counts):
    """The message with which the period-by-period check of nested tables
    refuses ``counts``, or None if it accepts them."""
    m, n = len(problem.departments), problem.scheme.size
    grid = [[counts[a:a + n] for a in range(t, t + m * n, n)] for t in range(0, len(counts), m * n)]
    for t, (rows, q) in enumerate(zip(grid, problem._cumulative), start=1):
        negative = [z for row in rows for z in row if z < 0]
        if negative:
            return f"reservation entries must be nonnegative integers, got {negative[0]!r}"
        if tuple(map(sum, rows)) != q:
            return f"period {t}: reservation row totals {tuple(map(sum, rows))} differ from cumulative vacancies {q}"
    for before, after in zip(grid, grid[1:]):
        if any(b > a for row_b, row_a in zip(before, after) for b, a in zip(row_b, row_a)):
            return "reservation tables must be entrywise nondecreasing"
    return None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_flat_check_refuses_mutated_runs_as_a_trace_does(data):
    """Drawn court, government and proposed runs pass the flat check and make
    a trace of the same tables.  One entry moved by one, one entry made
    negative, or a row that shrinks below its row of the period before is
    refused by the check and by a trace with the same one-line message, the
    one the period-by-period check of nested tables words."""
    scheme = data.draw(st.sampled_from(_SCHEMES))
    m, n = data.draw(st.integers(2, 4)), scheme.size
    vacancies = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m), min_size=1, max_size=4))
    problem = ReservationProblem([f"d{i}" for i in range(m)], scheme, vacancies)
    kind = data.draw(st.sampled_from(["court", "government", "proposed"]))
    counts = _runner(problem, SolutionConfig(kind))(data.draw(st.integers(0, 2**64 - 1)))
    _check_counts(problem, counts)
    assert _tables(_trace(problem, kind, counts)) == _tables(counts, problem)
    mutated, mutation = list(counts), data.draw(st.sampled_from(["step", "negative", "shrink"]))
    if mutation == "shrink":  # row a's seats all go to category j + 1, emptying j, which its previous row held
        width = m * n
        rows = [a for a in range(width, len(counts), n) if sum(counts[a - width:a - width + n])]
        assume(rows)
        a = data.draw(st.sampled_from(rows))
        j = next(j for j in range(n) if counts[a - width + j])
        mutated[a:a + n] = [sum(counts[a:a + n]) if c == (j + 1) % n else 0 for c in range(n)]
    elif mutation == "step":
        mutated[data.draw(st.integers(0, len(counts) - 1))] += data.draw(st.sampled_from([-1, 1]))
    else:
        mutated[data.draw(st.integers(0, len(counts) - 1))] = -data.draw(st.integers(1, 5))
    message = _nested_refusal(problem, mutated)
    assert message is not None and "\n" not in message
    if mutation == "shrink":
        assert message == "reservation tables must be entrywise nondecreasing"
    assert _refusals(problem, mutated) == (message, message)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_government_matches_the_pooled_loop(data):
    """The government run equals the pooled loop, and the court run the sliced
    copies, on random fixed rosters and problems, zero-vacancy periods
    included, and random pooling orders."""
    scheme = data.draw(st.sampled_from(_SCHEMES))
    m = data.draw(st.integers(2, 5))
    departments = tuple(f"d{i}" for i in range(m))
    vacancies = data.draw(st.lists(
        st.one_of(st.just([0] * m), st.lists(st.integers(0, 4), min_size=m, max_size=m)),
        min_size=1, max_size=4,
    ))
    problem = ReservationProblem(departments, scheme, vacancies)
    total = sum(map(sum, problem.vacancies))
    length = total + data.draw(st.integers(0, 3))
    assignment = data.draw(st.lists(st.sampled_from(scheme.categories),
                                    min_size=length, max_size=length))
    roster = Roster(categories=scheme.categories, assignment=tuple(assignment))
    order = tuple(data.draw(st.permutations(departments)))
    trace = run_government(problem, roster, order)
    expected = _pooled_government(problem, roster, order)
    assert [trace.reservation(t).entries for t in range(1, problem.periods + 1)] == expected
    court = _sliced(problem, [roster.assignment] * m)
    assert _tables(run_court(problem, roster)) == court


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_court_draws_only_the_positions_it_reads(quarters_scheme, seed):
    """A court run that draws its roster reads the same positions as one run
    on the total-vacancies roster the same seed draws."""
    problem = ReservationProblem(("d1", "d2", "d3"), quarters_scheme, ((3, 1, 5), (2, 6, 0)))
    total = sum(map(sum, problem.vacancies))
    roster = draw_roster(quarters_scheme, total, SplitStream(seed))
    drawn = run_solution(problem, SolutionConfig("court"), seed)
    assert drawn.periods == run_court(problem, roster).periods

