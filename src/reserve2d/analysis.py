"""Quota-violation statistics, bias summaries, and stress diagnostics.

Tools for judging how a solution's reservation tables track fair shares:

* :func:`violation_stats` counts and sizes the quota violations in a
  trace's final tables, per scope (department entries or university column
  totals);
* :func:`bias_trace` summarizes the distribution of biases per period and
  scope with exact five-number summaries and Tukey adjacent values;
* :func:`tail_diagnostic` Monte-Carlo estimates the tails of a category's
  column-total deviation under the per-department lottery and reports them
  alongside the exponential tail bounds exp(-b^2/(3x)) (upper) and
  exp(-b^2/(2x)) (lower), where x is the fair column total;
* :func:`adversarial_sequence` builds the three-department vacancy sequence
  that forces any sequential seat-by-seat assignment respecting the
  university quota into department-level biases that grow linearly in time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import exp, sqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import (
    FairShareTable,
    ReservationProblem,
    ReservationScheme,
    ReservationTable,
    SolutionTrace,
    QuotaViolation,
    _as_fraction,
    build_fair_share_table,
    within_department_quota,
    within_university_quota,
)
from ._walk import scaled
from .rng import ALGORITHM, SplitStream
from .solutions import SolutionConfig, _replicate

__all__ = [
    "ViolationStats",
    "BiasSummary",
    "TailDiagnostic",
    "AdversarialRun",
    "violation_stats",
    "bias_trace",
    "tail_diagnostic",
    "adversarial_sequence",
    "prefer_first_category",
]


@dataclass(frozen=True)
class ViolationStats:
    """Quota violations of a trace's final reservation table, one scope."""

    scope: str  # "department" | "university"
    period: int
    violations: tuple[QuotaViolation, ...]
    max_possible: int

    @property
    def count(self) -> int:
        return len(self.violations)

    @property
    def percentage(self) -> Fraction:
        return Fraction(100 * self.count, self.max_possible)

    @property
    def magnitudes(self) -> tuple[Fraction, ...]:
        return tuple(v.magnitude for v in self.violations)

    @property
    def average_magnitude(self) -> Optional[Fraction]:
        return sum(self.magnitudes) / self.count if self.violations else None

    @property
    def min_magnitude(self) -> Optional[Fraction]:
        return min(self.magnitudes) if self.violations else None

    @property
    def max_magnitude(self) -> Optional[Fraction]:
        return max(self.magnitudes) if self.violations else None


def violation_stats(
    trace: SolutionTrace, scope: str, t: Optional[int] = None
) -> ViolationStats:
    """Violation count/percentage/magnitudes at period ``t`` (default: final).

    ``max_possible`` is the number of checked positions: m*n department
    entries, or n column totals.
    """
    if t is None:
        t = trace.problem.periods
    trace.problem.check_period(t)
    return _violations(*trace.periods[t - 1], scope, t)


def _violations(
    fair: FairShareTable, reserved: ReservationTable, scope: str, t: int
) -> ViolationStats:
    m, n = len(fair.departments), len(fair.categories)
    if scope == "department":
        return ViolationStats(scope, t, tuple(within_department_quota(reserved, fair)), m * n)
    if scope == "university":
        return ViolationStats(scope, t, tuple(within_university_quota(reserved, fair)), n)
    raise ValueError(f"unknown scope {scope!r}; expected 'department' or 'university'")


@dataclass(frozen=True)
class BiasSummary:
    """Exact five-number summary (Tukey hinges) of one period's biases."""

    period: int
    scope: str
    count: int
    minimum: Fraction
    q1: Fraction
    median: Fraction
    q3: Fraction
    maximum: Fraction
    lower_adjacent: Fraction
    upper_adjacent: Fraction


def _lattice_series(counts: Counter, span: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each period t's statistics from ``counts`` of keys k + (t-1)*span, |k| < span/2, in period order:
    the size of its sample, then its minimum, Tukey hinges and median, maximum and adjacent values,
    each doubled: all in integers.

    The keys are sorted once; each period's keys are a contiguous run of them, and every bisect stays
    inside the run.  Cost follows the number of distinct keys, not the sample size.  Hinges are kept
    doubled and fences quadrupled.
    """
    keys = sorted(counts)
    cumulative = list(accumulate(map(counts.__getitem__, keys)))
    start, half = 0, span // 2
    while start < len(keys):
        t = (keys[start] + half) // span
        end = bisect_left(keys, (t + 1) * span - half, start)
        before = cumulative[start - 1] if start else 0
        k = cumulative[end - 1] - before

        def twice_median(first: int, size: int) -> int:  # of the run's values first, ..., first + size - 1
            i, j = before + first + (size - 1) // 2, before + first + size // 2
            return keys[bisect_right(cumulative, i, start, end)] + keys[bisect_right(cumulative, j, start, end)]

        m = (k + 1) // 2
        q1, q3 = twice_median(0, m), twice_median(k - m, m)
        lower = keys[bisect_left(keys, -(-(2 * q1 - 3 * (q3 - q1)) // 4), start, end)]
        upper = keys[bisect_right(keys, (2 * q3 + 3 * (q3 - q1)) // 4, start, end) - 1]
        doubled = (2 * keys[start], q1, twice_median(0, k), q3, 2 * keys[end - 1], 2 * lower, 2 * upper)
        yield t + 1, (k, *(v - 2 * t * span for v in doubled))
        start = end


def _lattice_summary(stats: Sequence[int], scale: int, period: int, scope: str) -> BiasSummary:
    """The exact Tukey summary of a sample of values k/scale whose statistics are ``stats``."""
    count, *values = stats
    return BiasSummary(period, scope, count, *(Fraction(s, 2 * scale) for s in values))


def summarize_biases(values: Sequence[Fraction], period: int, scope: str) -> BiasSummary:
    """Five-number summary with Tukey hinges and 1.5*IQR adjacent values.

    Raises TypeError for floats: their binary expansion is not the bias.
    """
    data = [_as_fraction(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty bias sample")
    scale, keys = scaled(data)
    counts = Counter(keys)
    ((_, stats),) = _lattice_series(counts, 2 * max(map(abs, counts)) + 1)  # a span that puts every key in period 1
    return _lattice_summary(stats, scale, period, scope)


def _lattice_counts(problem: ReservationProblem, runs: Iterable[Sequence[int]]) -> tuple[int, int, Counter, Counter]:
    """L, the period span B, and the department and university counts of L*bias + (t-1)*B over
    the count vectors ``runs``.

    ``run[(t-1)*m*n + i*n + j]`` is department i's count of category j through
    period t.  L is the lcm of the scheme denominators, so L*bias = z*L - (a_j*L)*Q
    is an integer.  A run updates one Counter per scope: B exceeds 2*L*(total
    vacancies), so periods never share a key, and :func:`_lattice_series` reads
    them apart.  Counters merge by addition; their size follows the spread of the biases.
    """
    scale, shares = problem.scheme._lattice
    m, n, span = len(problem.departments), len(shares), 2 * scale * sum(problem._cumulative[-1]) + 1
    cells = [t * span - a * q for t, cumulative in enumerate(problem._cumulative) for q in cumulative for a in shares]
    columns = [t * span - a * sum(cumulative) for t, cumulative in enumerate(problem._cumulative) for a in shares]
    strides = [slice(a + j, a + m * n, n) for a in range(0, len(cells), m * n) for j in range(n)]
    department, university = Counter(), Counter()
    for counts in runs:
        department.update([scale * z + key for z, key in zip(counts, cells)])
        university.update([scale * sum(counts[s]) + key for s, key in zip(strides, columns)])
    return scale, span, department, university


def _bias_series(problem: ReservationProblem, runs: Iterable[Sequence[int]]) -> Iterator[tuple[int, str, tuple]]:
    """(t, scope, statistics of L*bias) per period, department then university, over the count vectors ``runs``."""
    _, span, department, university = _lattice_counts(problem, runs)
    for (t, a), (_, b) in zip(_lattice_series(department, span), _lattice_series(university, span)):
        yield t, "department", a
        yield t, "university", b


def bias_trace(trace: SolutionTrace) -> tuple[BiasSummary, ...]:
    """Per-period bias distributions, department scope then university scope.

    Department-scope samples are the m*n internal bias entries; university
    scope the n column-total biases.
    """
    counts = [z for _, reserved in trace.periods for row in reserved.entries for z in row]
    scale = trace.problem.scheme._lattice[0]
    return tuple(_lattice_summary(stats, scale, t, scope) for t, scope, stats in _bias_series(trace.problem, [counts]))


@dataclass(frozen=True)
class TailDiagnostic:
    """Empirical tail frequencies of one category's column-total deviation.

    For each b in the grid, ``upper_frequency`` estimates
    P(deviation >= b) and ``lower_frequency`` P(deviation <= -b) under the
    per-department lottery; ``upper_bound``/``lower_bound`` are the
    corresponding exponential bounds.  ``adequate_resolution`` flags whether
    the replication count can resolve the smallest reported bound (its
    binomial standard error stays below a quarter of the bound); it is
    reported, not enforced.
    """

    category: str
    period: int
    fair_total: Fraction
    b_grid: tuple[Fraction, ...]
    upper_frequency: tuple[Fraction, ...]
    lower_frequency: tuple[Fraction, ...]
    upper_bound: tuple[float, ...]
    lower_bound: tuple[float, ...]
    replications: int
    seed: int
    generator: str
    adequate_resolution: bool


def tail_diagnostic(
    problem: ReservationProblem,
    category: Union[str, int],
    t: int,
    replications: int,
    b_grid: Sequence,
    seed: int,
    *,
    height: Optional[int] = None,
) -> TailDiagnostic:
    """Estimate both tails of a column-total deviation under the lottery.

    Replication r draws the lottery of ``run_proposed`` with seed child(r),
    cut to the positions read through period ``t`` (rosters are prefix-stable).
    The deviation is the category's reserved column total at period ``t``
    minus its fair share x; bounds are exp(-b^2/(3x)) and exp(-b^2/(2x)).
    """
    problem.check_period(t)
    cats = problem.scheme.categories
    j = cats.index(category) if category in cats else category
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < len(cats):
        raise ValueError(f"unknown category {category!r}; the scheme has {', '.join(map(repr, cats))}")
    cat = cats[j]
    grid = tuple(sorted(map(_as_fraction, b_grid)))
    if not grid or grid[0] <= 0:
        raise ValueError("the b grid must contain positive thresholds")

    x = problem.scheme.fractions[j] * sum(problem.cumulative_vacancies(t))  # the fair column total
    if x == 0:
        raise ValueError(f"category {cat!r} has a fair column total of 0 at period {t}; "
                         "the tail bounds need a positive total")
    cut = ReservationProblem(problem.departments, problem.scheme, problem.vacancies[:t])
    runs = _replicate(cut, SolutionConfig("proposed", height=height), replications, SplitStream(seed))
    last = j - len(problem.departments) * len(cats)  # category j's entries of period t
    totals = Counter(sum(counts[last::len(cats)]) for counts in runs)
    upper = tuple(
        Fraction(sum(c for total, c in totals.items() if total - x >= b), replications)
        for b in grid
    )
    lower = tuple(
        Fraction(sum(c for total, c in totals.items() if total - x <= -b), replications)
        for b in grid
    )
    # Capped: float() overflows on a huge exponent, and exp() of any exponent below -745 is 0.0 already.
    upper_bound, lower_bound = (tuple(exp(-float(min(b * b / (c * x), 1000))) for b in grid) for c in (3, 2))
    smallest = min(upper_bound[-1], lower_bound[-1])
    adequate = sqrt(smallest / replications) < smallest / 4
    return TailDiagnostic(
        category=cat,
        period=t,
        fair_total=x,
        b_grid=grid,
        upper_frequency=upper,
        lower_frequency=lower,
        upper_bound=upper_bound,
        lower_bound=lower_bound,
        replications=replications,
        seed=seed,
        generator=ALGORITHM,
        adequate_resolution=adequate,
    )


# --- adversarial vacancy sequences ---------------------------------------

_ADVERSARIAL_DEPARTMENTS = ("d1", "d2", "d3")
_ADVERSARIAL_CATEGORIES = ("c1", "c2")

DecideCallback = Callable[[int, str, FairShareTable, ReservationTable], str]


def _with_seat(reserved: ReservationTable, i: int, j: int) -> ReservationTable:
    """``reserved`` with one more seat at department ``i``, category ``j``."""
    entries = [list(row) for row in reserved.entries]
    entries[i][j] += 1
    return ReservationTable.from_entries(reserved.departments, reserved.categories, entries)


def prefer_first_category(
    period: int, department: str, fair: FairShareTable, reserved: ReservationTable
) -> str:
    """Pick the first category (in scheme order) the university quota allows.

    Brute-forces the candidate categories one by one; suits
    :func:`adversarial_sequence`, whose periods place exactly one seat.
    """
    i = fair.departments.index(department)
    for j, cat in enumerate(fair.categories):
        if not within_university_quota(_with_seat(reserved, i, j), fair):
            return cat
    raise ValueError(
        f"no category keeps the university quota at period {period}"
    )


@dataclass(frozen=True)
class AdversarialRun:
    """The realized adversarial problem, its trace, and the seat decisions."""

    problem: ReservationProblem
    trace: SolutionTrace
    decisions: tuple[tuple[int, str, str], ...]  # (period, department, category)


def adversarial_sequence(periods: int, decide: DecideCallback) -> AdversarialRun:
    """Adaptive vacancy sequence that defeats seat-by-seat assignment.

    Three departments share a two-category half/half scheme.  Odd periods
    hand one vacancy to d3; the following even period hands one vacancy to
    d1 if d3's seat went to the first category, else to d2.  ``decide`` is
    called once per period with the period, the department holding the
    vacancy, the fair share table including that vacancy, and the
    reservations so far; it must return the category for the new seat.  Any
    callback that keeps the university quota ends up pushing some
    department's bias to grow linearly along the odd periods.

    Raises ValueError if the callback's choice violates the university
    quota.
    """
    if periods < 1:
        raise ValueError(f"need at least one period, got {periods}")
    scheme = ReservationScheme(_ADVERSARIAL_CATEGORIES, (Fraction(1, 2), Fraction(1, 2)))
    depts = _ADVERSARIAL_DEPARTMENTS
    reserved = ReservationTable.from_entries(depts, scheme.categories, [(0, 0)] * len(depts))
    vacancy_rows, decisions, pairs = [], [], []
    for s in range(1, periods + 1):
        i = 2 if s % 2 else (0 if decisions[-1][2] == _ADVERSARIAL_CATEGORIES[0] else 1)
        vacancy_rows.append(tuple(1 if k == i else 0 for k in range(3)))
        problem = ReservationProblem(depts, scheme, vacancy_rows)  # the last is the run's problem
        fair = build_fair_share_table(problem, s)
        choice = decide(s, depts[i], fair, reserved)
        if choice not in scheme.categories:
            raise ValueError(f"callback returned unknown category {choice!r}")
        reserved = _with_seat(reserved, i, scheme.categories.index(choice))
        if within_university_quota(reserved, fair):
            raise ValueError(
                f"callback violated the university quota at period {s}: "
                f"placing the {depts[i]!r} seat in {choice!r} leaves column "
                "totals outside floor/ceil of the fair shares"
            )
        decisions.append((s, depts[i], choice))
        pairs.append((fair, reserved))
    trace = SolutionTrace(problem, "adversarial", tuple(pairs))
    return AdversarialRun(problem, trace, tuple(decisions))
