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
from math import exp, lcm, sqrt
from typing import Callable, Iterable, Optional, Sequence, Union

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
from .rng import ALGORITHM, SplitStream
from .roster import minimal_height
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


def _lattice_stats(counts: Counter) -> tuple[int, ...]:
    """The size of a sample holding ``counts[k]`` copies of k, then its minimum, Tukey
    hinges and median, maximum and adjacent values, each doubled: all in integers.

    Cost follows the number of distinct keys, not the sample size.  Hinges are
    kept doubled and fences quadrupled.
    """
    if not counts:
        raise ValueError("cannot summarize an empty bias sample")
    keys = sorted(counts)
    cumulative = list(accumulate(map(counts.__getitem__, keys)))
    k = cumulative[-1]

    def twice_median(start: int, size: int) -> int:
        lo, hi = start + (size - 1) // 2, start + size // 2
        return keys[bisect_right(cumulative, lo)] + keys[bisect_right(cumulative, hi)]

    half = (k + 1) // 2
    q1, q3 = twice_median(0, half), twice_median(k - half, half)
    lo_fence, hi_fence = 2 * q1 - 3 * (q3 - q1), 2 * q3 + 3 * (q3 - q1)
    lower, upper = keys[bisect_left(keys, -(-lo_fence // 4))], keys[bisect_right(keys, hi_fence // 4) - 1]
    return k, 2 * keys[0], q1, twice_median(0, k), q3, 2 * keys[-1], 2 * lower, 2 * upper


def _lattice_summary(counts: Counter, scale: int, period: int, scope: str) -> BiasSummary:
    """Exact Tukey summary of a sample holding ``counts[k]`` copies of k/scale."""
    count, *stats = _lattice_stats(counts)
    return BiasSummary(period, scope, count, *(Fraction(s, 2 * scale) for s in stats))


def summarize_biases(values: Sequence[Fraction], period: int, scope: str) -> BiasSummary:
    """Five-number summary with Tukey hinges and 1.5*IQR adjacent values.

    Raises TypeError for floats: their binary expansion is not the bias.
    """
    data = [_as_fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in data))
    counts = Counter(v.numerator * (scale // v.denominator) for v in data)
    return _lattice_summary(counts, scale, period, scope)


def _lattice_counts(problem: ReservationProblem, runs: Iterable[Sequence[int]]) -> tuple:
    """L and the counts of L*bias per (period, scope) over the count vectors ``runs``.

    ``run[(t-1)*m*n + i*n + j]`` is department i's count of category j through
    period t.  L is the lcm of the scheme denominators, so L*bias = z*L - (a_j*L)*Q
    is an integer.  A run updates one Counter per scope, keyed L*bias + (t-1)*B: B
    exceeds 2*L*(total vacancies), so periods never share a key, and each is split
    into one Counter per period at the end.  Counters merge by addition; their size
    follows the spread of the biases.
    """
    scale = minimal_height(problem.scheme)
    scaled = [a.numerator * (scale // a.denominator) for a in problem.scheme.fractions]
    m, n, span = len(problem.departments), len(scaled), 2 * scale * sum(problem._cumulative[-1]) + 1
    cells = [t * span - a * q for t, cumulative in enumerate(problem._cumulative) for q in cumulative for a in scaled]
    columns = [t * span - a * sum(cumulative) for t, cumulative in enumerate(problem._cumulative) for a in scaled]
    strides = [slice(a + j, a + m * n, n) for a in range(0, len(cells), m * n) for j in range(n)]
    department, university = Counter(), Counter()
    for counts in runs:
        department.update([scale * z + key for z, key in zip(counts, cells)])
        university.update([scale * sum(counts[s]) + key for s, key in zip(strides, columns)])
    split: dict[tuple[int, str], Counter] = {}
    for scope, counter in (("department", department), ("university", university)):
        periods, half = [Counter() for _ in problem._cumulative], span // 2
        for key, count in counter.items():
            t, bias = divmod(key + half, span)
            periods[t][bias - half] = count
        split.update(((t, scope), c) for t, c in enumerate(periods, start=1) if c)
    return scale, split


def bias_trace(trace: SolutionTrace) -> tuple[BiasSummary, ...]:
    """Per-period bias distributions, department scope then university scope.

    Department-scope samples are the m*n internal bias entries; university
    scope the n column-total biases.
    """
    counts = [z for _, reserved in trace.periods for row in reserved.entries for z in row]
    scale, split = _lattice_counts(trace.problem, [counts])
    return tuple(_lattice_summary(split[key], scale, *key) for key in sorted(split))


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
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    cats = problem.scheme.categories
    j = cats.index(category) if category in cats else category
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < len(cats):
        raise ValueError(f"unknown category {category!r}; the scheme has {', '.join(map(repr, cats))}")
    cat = cats[j]
    grid = tuple(sorted(Fraction(b) for b in b_grid))
    if not grid or grid[0] <= 0:
        raise ValueError("the b grid must contain positive thresholds")

    fair = build_fair_share_table(problem, t)
    x = fair.column_totals[j]
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
    upper_bound = tuple(exp(-float(b * b / (3 * x))) for b in grid)
    lower_bound = tuple(exp(-float(b * b / (2 * x))) for b in grid)
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


def prefer_first_category(
    period: int, department: str, fair: FairShareTable, reserved: ReservationTable
) -> str:
    """Pick the first category (in scheme order) the university quota allows.

    Brute-forces the candidate categories one by one; suits
    :func:`adversarial_sequence`, whose periods place exactly one seat.
    """
    i = fair.departments.index(department)
    for j, cat in enumerate(fair.categories):
        entries = [list(row) for row in reserved.entries]
        entries[i][j] += 1
        trial = ReservationTable.from_entries(
            reserved.departments, reserved.categories, entries
        )
        if not within_university_quota(trial, fair):
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
    scheme = ReservationScheme(
        _ADVERSARIAL_CATEGORIES, (Fraction(1, 2), Fraction(1, 2))
    )
    depts = _ADVERSARIAL_DEPARTMENTS
    counts = [[0, 0] for _ in depts]
    vacancy_rows: list[tuple[int, int, int]] = []
    decisions = []
    pairs = []
    d3_last_choice = None
    for s in range(1, periods + 1):
        if s % 2:
            i = 2
        else:
            i = 0 if d3_last_choice == _ADVERSARIAL_CATEGORIES[0] else 1
        vacancy_rows.append(tuple(1 if k == i else 0 for k in range(3)))
        problem_so_far = ReservationProblem(depts, scheme, vacancy_rows)
        fair = build_fair_share_table(problem_so_far, s)
        before = ReservationTable.from_entries(
            depts, scheme.categories, [row[:] for row in counts]
        )
        choice = decide(s, depts[i], fair, before)
        if choice not in scheme.categories:
            raise ValueError(f"callback returned unknown category {choice!r}")
        counts[i][scheme.categories.index(choice)] += 1
        reserved = ReservationTable.from_entries(
            depts, scheme.categories, [row[:] for row in counts]
        )
        if within_university_quota(reserved, fair):
            raise ValueError(
                f"callback violated the university quota at period {s}: "
                f"placing the {depts[i]!r} seat in {choice!r} leaves column "
                "totals outside floor/ceil of the fair shares"
            )
        decisions.append((s, depts[i], choice))
        pairs.append((fair, reserved))
        if s % 2:
            d3_last_choice = choice
    problem = ReservationProblem(depts, scheme, vacancy_rows)
    trace = SolutionTrace(problem, "adversarial", tuple(pairs))
    return AdversarialRun(problem, trace, tuple(decisions))
