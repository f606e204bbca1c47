"""Tests for violation statistics, bias summaries, tail diagnostics, and the
adversarial vacancy sequence."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, exp, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reserve2d import (
    PeriodRangeError,
    ReservationProblem,
    ReservationScheme,
    ReservationTable,
    Roster,
    SolutionConfig,
    SplitStream,
    adversarial_sequence,
    bias_of,
    bias_trace,
    build_fair_share_table,
    prefer_first_category,
    run_court,
    run_government,
    run_proposed,
    tail_diagnostic,
    violation_stats,
    within_university_quota,
)
from reserve2d import analysis, cli
from reserve2d.analysis import (
    _bias_series,
    _lattice_counts,
    _lattice_series,
    _lattice_summary,
    summarize_biases,
)
from reserve2d.fileio import rational
from reserve2d.roster import _sampler, build_scheme_table, minimal_height
from reserve2d.solutions import _replicate

from conftest import mod3_roster

F = Fraction


# ---------------------------------------------------------------- violations


def test_violation_stats_for_the_pooled_baseline(four_dept_problem):
    trace = run_government(four_dept_problem, mod3_roster(18))
    final = violation_stats(trace, "department")
    assert final.period == 3
    assert final.count == 8
    assert final.max_possible == 8
    assert final.percentage == 100
    assert final.average_magnitude == 2
    assert final.min_magnitude == final.max_magnitude == 2
    first = violation_stats(trace, "department", t=1)
    assert first.count == 0
    assert first.percentage == 0
    assert first.average_magnitude is None
    assert first.min_magnitude is None
    university = violation_stats(trace, "university")
    assert university.count == 0
    assert university.max_possible == 2


def test_violation_stats_for_court_and_lottery(four_dept_problem):
    court = run_court(four_dept_problem, mod3_roster(6))
    for t in (1, 2, 3):
        assert violation_stats(court, "department", t).count == 0
    for seed in range(20):
        trace = run_proposed(four_dept_problem, seed)
        assert violation_stats(trace, "department").count == 0


def test_violation_stats_validates_scope_and_period(four_dept_problem):
    trace = run_court(four_dept_problem, mod3_roster(6))
    with pytest.raises(ValueError, match="scope"):
        violation_stats(trace, "campus")
    with pytest.raises(PeriodRangeError):
        violation_stats(trace, "department", t=4)


# ---------------------------------------------------------------- summaries


def test_five_number_summary_even_sample():
    s = summarize_biases([F(4), F(1), F(3), F(2)], period=1, scope="department")
    assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (1, F(3, 2), F(5, 2), F(7, 2), 4)
    assert (s.lower_adjacent, s.upper_adjacent) == (1, 4)
    assert s.count == 4


def test_five_number_summary_flags_outliers():
    s = summarize_biases([F(0), F(1), F(2), F(3), F(10)], period=2, scope="university")
    assert (s.q1, s.median, s.q3) == (1, 2, 3)
    assert s.maximum == 10
    assert s.upper_adjacent == 3, "10 lies beyond the 1.5*IQR fence"
    assert s.lower_adjacent == 0


def test_summary_rejects_empty_sample():
    with pytest.raises(ValueError):
        summarize_biases([], period=1, scope="department")


def test_summary_rejects_floats():
    with pytest.raises(TypeError, match="floats"):
        summarize_biases([0.1, 0.2], period=1, scope="department")


def _oracle_summary(values):
    """Sorted-Fraction Tukey summary: the reference the lattice summary must match."""

    def median(sorted_values):
        k = len(sorted_values)
        mid = k // 2
        if k % 2:
            return sorted_values[mid]
        return Fraction(sorted_values[mid - 1] + sorted_values[mid], 2)

    data = sorted(Fraction(v) for v in values)
    k = len(data)
    half = (k + 1) // 2
    q1, q3 = median(data[:half]), median(data[-half:])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - F(3, 2) * iqr, q3 + F(3, 2) * iqr
    return (
        k, data[0], q1, median(data), q3, data[-1],
        min(v for v in data if v >= lo_fence), max(v for v in data if v <= hi_fence),
    )


def _stats(counts):
    """The integer statistics of one sample: its only period under a span past every key."""
    ((_, stats),) = _lattice_series(counts, 2 * max(map(abs, counts)) + 1)
    return stats


def _fields(s):
    return (s.count, s.minimum, s.q1, s.median, s.q3, s.maximum,
            s.lower_adjacent, s.upper_adjacent)


# Lattice points with mixed denominators (the lcm reaches 600), plus draws
# from a five-value pool so that ties are common.
_values = st.builds(F, st.integers(-400, 400), st.sampled_from((1, 2, 3, 4, 8, 40, 200)))
_samples = st.lists(_values, min_size=1, max_size=40) | st.lists(
    st.sampled_from((F(-3, 2), F(-1, 3), F(0), F(1, 4), F(7))), min_size=1, max_size=40
)


@given(_samples)
@example([F(5, 3)])
@example([F(-2, 5)] * 6)
@example([F(-2, 5)] * 7)
@example([F(1), F(2)])
@example([F(-5, 2), F(-3, 2), F(-1, 4), F(9, 4), F(8)])  # 8 lies just above the 63/8 fence
@example([F(-8), F(-3), F(0), F(0), F(3)])  # -8 lies just below the -15/2 fence
def test_lattice_summary_matches_the_sorted_fraction_oracle(values):
    assert _fields(summarize_biases(values, 1, "department")) == _oracle_summary(values)


@given(_samples)
@example([F(5, 3)])
@example([F(-2, 5)] * 6)
@example([F(-2, 5)] * 7)
@example([F(1), F(2)])
@example([F(-5, 2), F(-3, 2), F(-1, 4), F(9, 4), F(8)])
@example([F(-8), F(-3), F(0), F(0), F(3)])
@example([F(-2), F(-1)])  # negative hinges and a negative half-integral median
@example([F(-1), F(0), F(1)])  # a zero median between half-integral hinges
@example([F(0), F(0), F(1)])  # a zero lower hinge
@example([F(-7), F(-5), F(-3), F(0), F(2), F(4), F(6)])  # negative and positive integral hinges
def test_integer_statistics_render_as_the_summary_fractions(values):
    """``compare`` renders the integer statistics over 2L as ``rational`` and
    ``float`` render ``summarize_biases``'s fields."""
    scale = lcm(*(v.denominator for v in values))
    count, *stats = _stats(Counter(v.numerator * (scale // v.denominator) for v in values))
    summary = summarize_biases(values, 1, "department")
    fields = [getattr(summary, stat) for stat in cli._STATISTICS]
    assert count == summary.count
    assert [cli._ratio(v, 2 * scale) for v in stats] == [rational(f) for f in fields]
    assert [v / (2 * scale) for v in stats] == [float(f) for f in fields]


@given(_samples, _samples)
def test_merged_lattice_counts_summarize_the_concatenated_sample(a, b):
    scale = lcm(*(v.denominator for v in a + b))

    def counts(values):
        return Counter(v.numerator * (scale // v.denominator) for v in values)

    merged = _lattice_summary(_stats(counts(a) + counts(b)), scale, 2, "university")
    assert merged == summarize_biases(a + b, 2, "university")
    assert _fields(merged) == _oracle_summary(a + b)


def _biases(traces):
    """The biases of ``traces``' tables per (period, scope), pooled over the traces."""
    biases = {}
    for trace in traces:
        for t, (fair, reserved) in enumerate(trace.periods, start=1):
            bias = bias_of(reserved, fair)
            biases.setdefault((t, "department"), []).extend(v for row in bias.internal for v in row)
            biases.setdefault((t, "university"), []).extend(bias.column_total_biases)
    return biases


def _scaled_bias_counts(traces, scale, span):
    """The department and university Counters of scale * bias + (t-1) * span over the bias tables of ``traces``."""
    expected = {"department": Counter(), "university": Counter()}
    for (t, scope), values in _biases(traces).items():
        expected[scope].update(scale * v + (t - 1) * span for v in values)
    return expected["department"], expected["university"]


def test_lattice_counts_are_the_scaled_bias_tables(four_dept_problem):
    """The counts of compare's grids are 3 times the biases of the tables of
    the same runs, each period's keys offset by a span over twice 3 times the
    total vacancies."""
    government = SolutionConfig("government", roster=mod3_roster(18))
    grids = [*_replicate(four_dept_problem, government, 1, SplitStream(0))]
    grids += _replicate(four_dept_problem, SolutionConfig("proposed"), 5, SplitStream(8))
    traces = [run_government(four_dept_problem, mod3_roster(18))]
    traces += [run_proposed(four_dept_problem, SplitStream(8).child(r).key) for r in range(5)]
    scale, span, department, university = _lattice_counts(four_dept_problem, grids)
    assert (scale, span) == (3, 2 * 3 * 18 + 1)
    assert (department, university) == _scaled_bias_counts(traces, 3, span)


def test_lattice_counts_build_one_counter_per_scope(four_dept_problem, monkeypatch):
    """Counting builds one Counter per scope, which it returns, and
    summarizing every period of them builds no other."""
    built = []

    class Counting(Counter):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "Counter", Counting)
    grids = _replicate(four_dept_problem, SolutionConfig("proposed"), 4, SplitStream(2))
    _, span, *scopes = _lattice_counts(four_dept_problem, grids)
    periods = [[t for t, _ in _lattice_series(counter, span)] for counter in scopes]
    assert periods == [list(range(1, four_dept_problem.periods + 1))] * 2
    assert len(built) == 2 and all(c is b for c, b in zip(scopes, built))


_FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"), (F(3, 20), F(3, 40), F(27, 100), F(1, 10), F(81, 200))
)


@pytest.mark.parametrize("scheme, vacancies", [
    (ReservationScheme(("c1", "c2"), (F(1, 3), F(2, 3))), ((0, 0, 0), (3, 9, 5), (0, 0, 0), (5, 7, 0))),
    (ReservationScheme(("c1", "c2"), (F(1, 10), F(9, 10))), ((4, 0), (0, 0), (7, 0))),
    (ReservationScheme(("c1", "c2"), (F(1, 10), F(9, 10))), ((5, 0), (0, 0), (1, 0))),
    (_FIVE, ((0, 0, 0), (150, 0, 37), (0, 0, 0), (50, 200, 163))),
])
def test_lattice_counts_keep_periods_apart_at_the_bound(scheme, vacancies):
    """Rosters that put every seat in one category drive that category's
    column-total bias to (1 - a_j) times the total vacancies, near the bound
    the period keys are spaced by; with periods that open no vacancy and a
    five-category scheme (L = 200), the counts of government and court runs
    still equal the scaled bias tables, and each period's statistics, read
    from its run of the sorted keys, still summarize that period's biases,
    also where a period opens most of the vacancies and its upper fence
    reaches past the next period's smallest key."""
    problem = ReservationProblem([f"d{i}" for i in range(len(vacancies[0]))], scheme, vacancies)
    total = sum(problem.cumulative_vacancies(problem.periods))
    runs, traces = [], []
    for category in scheme.categories:
        roster = Roster(scheme.categories, (category,) * total)
        for kind, run in (("government", run_government), ("court", run_court)):
            runs += _replicate(problem, SolutionConfig(kind, roster=roster), 1, SplitStream(0))
            traces.append(run(problem, roster))
    scale, span, department, university = _lattice_counts(problem, runs)
    assert scale == minimal_height(scheme)
    assert (department, university) == _scaled_bias_counts(traces, scale, span)
    biases = _biases(traces)
    series = [(t, scope, (count, *(F(v, 2 * scale) for v in stats)))
              for t, scope, (count, *stats) in _bias_series(problem, runs)]
    assert series == [(t, scope, _oracle_summary(biases[t, scope])) for t, scope in biases]
    final = series[-1][2]
    assert final[5] == max((1 - a) * total for a in scheme.fractions)


def test_bias_trace_of_the_pooled_baseline_grows_linearly(four_dept_problem):
    trace = run_government(four_dept_problem, mod3_roster(18))
    summaries = bias_trace(trace)
    assert [s.scope for s in summaries] == ["department", "university"] * 3
    for t in (1, 2, 3):
        dept = summaries[2 * (t - 1)]
        assert dept.period == t
        assert dept.count == 8
        assert dept.maximum == F(2 * t, 3)
        assert dept.minimum == -F(2 * t, 3)
        university = summaries[2 * t - 1]
        assert university.count == 2
        assert university.minimum == university.maximum == 0


def test_bias_trace_of_the_lottery_stays_below_one(four_dept_problem):
    for seed in range(20):
        trace = run_proposed(four_dept_problem, seed)
        for s in bias_trace(trace):
            if s.scope == "department":
                assert s.maximum < 1 and s.minimum > -1, seed


# ---------------------------------------------------------------- tail diagnostics


def test_tail_diagnostic_replays_the_lottery_exactly(four_dept_problem):
    """The diagnostic's deviations must be exactly the ones run_proposed
    produces for replication seeds child(0), child(1), ..."""
    reps, seed = 40, 1234
    grid = (F(1, 3), F(2, 3), F(4, 3))
    diag = tail_diagnostic(four_dept_problem, "c1", 2, reps, grid, seed)
    fair = build_fair_share_table(four_dept_problem, 2)
    x = fair.column_totals[0]
    master = SplitStream(seed)
    deviations = []
    for r in range(reps):
        trace = run_proposed(four_dept_problem, master.child(r).key)
        deviations.append(trace.reservation(2).column_totals[0] - x)
    for b, up, lo in zip(grid, diag.upper_frequency, diag.lower_frequency):
        assert up == F(sum(1 for d in deviations if d >= b), reps)
        assert lo == F(sum(1 for d in deviations if d <= -b), reps)
    assert diag.category == "c1"
    assert diag.fair_total == x
    assert diag.replications == reps


@pytest.mark.parametrize("seed", [3, 77, 2024])
def test_tail_diagnostic_counts_what_the_sliced_lottery_holds(quarters_scheme, seed):
    """At quarters height 8, with a department and a period without
    vacancies and boundaries at multiples of 8, the frequencies equal those
    of the materialized department rosters cut to Q_i^t."""
    problem = ReservationProblem(("d1", "d2", "d3"), quarters_scheme, ((3, 0, 8), (5, 0, 1), (0, 0, 0)))
    reps, grid = 30, (F(1, 2), F(1), F(2))
    diag = tail_diagnostic(problem, "c1", 3, reps, grid, seed, height=8)
    sampler = _sampler(build_scheme_table(quarters_scheme, 8))
    master, x = SplitStream(seed), diag.fair_total

    def positions(q, stream):
        return sum((block.positions for block in sampler.blocks(stream, -(-q // 8))), ())[:q]

    deviations = [
        sum(positions(q, master.child(r).child(i)).count("c1")
            for i, q in enumerate(problem.cumulative_vacancies(3))) - x
        for r in range(reps)
    ]
    assert len(set(deviations)) > 1
    for b, up, lo in zip(grid, diag.upper_frequency, diag.lower_frequency):
        assert up == F(sum(1 for d in deviations if d >= b), reps)
        assert lo == F(sum(1 for d in deviations if d <= -b), reps)


def test_tail_diagnostic_bounds_formula(four_dept_problem):
    grid = (1, 2)
    diag = tail_diagnostic(four_dept_problem, 1, 3, 10, grid, seed=5)
    x = float(build_fair_share_table(four_dept_problem, 3).column_totals[1])
    assert diag.category == "c2", "an integer category is an index into the scheme"
    assert diag.period == 3
    assert diag.upper_bound == tuple(exp(-(b * b) / (3 * x)) for b in (1, 2))
    assert diag.lower_bound == tuple(exp(-(b * b) / (2 * x)) for b in (1, 2))


def test_tail_diagnostic_refuses_float_thresholds(four_dept_problem):
    """Thresholds are exact, as scheme fractions are: a float is refused, a string is read exactly."""
    with pytest.raises(TypeError, match="floats are not accepted"):
        tail_diagnostic(four_dept_problem, 1, 3, 10, (0.1, 1), seed=5)
    assert tail_diagnostic(four_dept_problem, 1, 3, 10, ("0.1", 1), seed=5).b_grid == (F(1, 10), 1)


def test_tail_frequencies_match_exact_binomial(half_scheme):
    """Three one-vacancy departments under a half/half scheme: the column
    count is Binomial(3, 1/2) exactly, so both tails have closed forms."""
    problem = ReservationProblem(("d1", "d2", "d3"), half_scheme, ((1, 1, 1),))
    reps = 4000
    diag = tail_diagnostic(problem, "c1", 1, reps, (F(1, 2), F(3, 2)), seed=99)
    exact_upper = [
        sum(F(comb(3, z), 8) for z in range(4) if z - F(3, 2) >= b)
        for b in (F(1, 2), F(3, 2))
    ]
    assert exact_upper == [F(1, 2), F(1, 8)]
    for freq, p in zip(diag.upper_frequency, exact_upper):
        se = (float(p) * (1 - float(p)) / reps) ** 0.5
        assert abs(float(freq) - float(p)) < 4 * se
    for freq, p in zip(diag.lower_frequency, exact_upper):  # symmetric
        se = (float(p) * (1 - float(p)) / reps) ** 0.5
        assert abs(float(freq) - float(p)) < 4 * se


def test_tail_diagnostic_resolution_flag(half_scheme):
    problem = ReservationProblem(
        tuple(f"d{i}" for i in range(8)), half_scheme, ((1,) * 8,)
    )
    grid = (2,)
    coarse = tail_diagnostic(problem, "c1", 1, 10, grid, seed=1)
    fine = tail_diagnostic(problem, "c1", 1, 4000, grid, seed=1)
    assert not coarse.adequate_resolution
    assert fine.adequate_resolution


def test_tail_diagnostic_validation(four_dept_problem):
    with pytest.raises(ValueError):
        tail_diagnostic(four_dept_problem, "c1", 1, 0, (1,), seed=0)
    with pytest.raises(ValueError, match="positive"):
        tail_diagnostic(four_dept_problem, "c1", 1, 10, (), seed=0)
    with pytest.raises(ValueError, match="positive"):
        tail_diagnostic(four_dept_problem, "c1", 1, 10, (0, 1), seed=0)
    with pytest.raises(ValueError):
        tail_diagnostic(four_dept_problem, "c9", 1, 10, (1,), seed=0)
    with pytest.raises(PeriodRangeError):
        tail_diagnostic(four_dept_problem, "c1", 9, 10, (1,), seed=0)


@pytest.mark.parametrize("category", ["c9", "C1", "", True, False])
def test_tail_diagnostic_rejects_unknown_categories(four_dept_problem, category):
    """A name the scheme lacks, or a bool (not an index, though ``True == 1``),
    is refused with a message naming it and the scheme's categories."""
    with pytest.raises(ValueError) as exc:
        tail_diagnostic(four_dept_problem, category, 1, 10, (1,), seed=0)
    assert str(exc.value) == f"unknown category {category!r}; the scheme has 'c1', 'c2'"


def test_tail_diagnostic_rejects_a_zero_fair_total(third_scheme):
    """No department hires at period 1, so the bounds would divide by 0."""
    problem = ReservationProblem(("d1", "d2"), third_scheme, ((0, 0), (1, 2)))
    with pytest.raises(ValueError, match=r"'c1'.*period 1"):
        tail_diagnostic(problem, "c1", 1, 10, (1,), seed=0)
    assert tail_diagnostic(problem, "c1", 2, 10, (1,), seed=0).fair_total == 1


# ---------------------------------------------------------------- adversary


def test_adversarial_sequence_against_greedy_first_fit():
    run = adversarial_sequence(8, prefer_first_category)
    # d3 hires on odd periods and always gets away with the first category,
    # which routes every even-period vacancy to d1
    assert run.decisions == tuple(
        (s, "d3", "c1") if s % 2 else (s, "d1", "c2") for s in range(1, 9)
    )
    assert run.trace.label == "adversarial"
    assert run.problem.vacancies == (
        (0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 0, 0),
        (0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 0, 0),
    )
    maxima = []
    for t in range(1, 9):
        bias = bias_of(run.trace.reservation(t), run.trace.fair(t))
        maxima.append(max(abs(v) for row in bias.internal for v in row))
    assert maxima == [F(1, 2), F(1, 2), 1, 1, F(3, 2), F(3, 2), 2, 2]
    assert run.trace.reservation(3).entries == ((0, 1), (0, 0), (2, 0))
    assert bias_of(
        run.trace.reservation(2), run.trace.fair(2)
    ).internal[0][0] == -F(1, 2)


def test_adversarial_sequence_validates_choices():
    with pytest.raises(ValueError):
        adversarial_sequence(0, prefer_first_category)
    with pytest.raises(ValueError, match="unknown category"):
        adversarial_sequence(2, lambda s, d, fair, res: "c9")
    with pytest.raises(ValueError, match="period 2"):
        # always picking the first category breaks the quota at period 2
        adversarial_sequence(2, lambda s, d, fair, res: "c1")


def test_prefer_first_category_refuses_when_every_category_breaks_the_university_quota(half_scheme):
    """Both columns already hold their one fair seat, so d3's seat breaks the quota in either."""
    fair = build_fair_share_table(ReservationProblem(("d1", "d2", "d3"), half_scheme, ((1, 1, 0),)), 1)
    reserved = ReservationTable.from_entries(fair.departments, fair.categories, ((1, 0), (0, 1), (0, 0)))
    with pytest.raises(ValueError) as refused:
        prefer_first_category(1, "d3", fair, reserved)
    assert str(refused.value) == "no category keeps the university quota at period 1"


def _scripted_play(script):
    """Follow the script's category preference wherever it is compliant."""

    def decide(period, dept, fair, reserved):
        i = fair.departments.index(dept)
        prefer = fair.categories[script[period - 1]]
        for cat in (prefer,) + tuple(c for c in fair.categories if c != prefer):
            j = fair.categories.index(cat)
            entries = [list(row) for row in reserved.entries]
            entries[i][j] += 1
            trial = ReservationTable.from_entries(
                reserved.departments, reserved.categories, entries
            )
            if not within_university_quota(trial, fair):
                return cat
        raise AssertionError("no compliant category at all")

    return adversarial_sequence(len(script), decide)


def _running_max_bias(run):
    worst = F(0)
    for t in range(1, run.problem.periods + 1):
        bias = bias_of(run.trace.reservation(t), run.trace.fair(t))
        worst = max(worst, max(abs(v) for row in bias.internal for v in row))
    return worst


@pytest.mark.parametrize(
    "k,expected", [(1, F(1, 2)), (2, F(1, 2)), (3, F(1)), (4, F(1))]
)
def test_no_compliant_strategy_escapes_growing_bias(k, expected):
    """Brute force over every compliant play of 2k periods: the best
    achievable running maximum bias is ceil(k/2)/2, growing without bound."""
    best = min(
        _running_max_bias(_scripted_play(s)) for s in product((0, 1), repeat=2 * k)
    )
    assert best == expected
