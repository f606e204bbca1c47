"""Roster-based reservation solutions and their Monte-Carlo estimates.

Three ways of turning a roster into reservation tables:

* ``run_government``: one global roster for the whole institution.  Each
  period, departments consume consecutive roster positions in a fixed
  pooling order, and the global position index carries over across periods.
* ``run_court``: every department consumes its *own copy* of one common
  roster, at positions cumulative-vacancies+1 .. cumulative-vacancies'.
* ``run_proposed``: like court, but each department follows an independent
  random roster drawn from the scheme, so every department's reservations
  stay within its own quota surely while every entry remains unbiased.

``estimate_expected_table`` replicates a solution and reports per-entry
means with standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterator, Optional, Sequence

from .core import (
    ReservationProblem,
    ReservationScheme,
    ReservationTable,
    Roster,
    SolutionTrace,
    build_fair_share_table,
)
from .rng import SplitStream
from .roster import _positions, _sampler, build_scheme_table, draw_roster

__all__ = [
    "RosterLengthError",
    "SolutionConfig",
    "EstimatedTable",
    "run_government",
    "run_court",
    "run_proposed",
    "estimate_expected_table",
]


class RosterLengthError(ValueError):
    """The supplied roster is shorter than the positions the run consumes."""


def _positions_needed(problem: ReservationProblem, kind: str) -> int:
    """Roster positions a government or court run reads."""
    final = problem.cumulative_vacancies(problem.periods)
    return sum(final) if kind == "government" else max(final)


def _check_roster(problem: ReservationProblem, roster: Roster, kind: str) -> None:
    if set(roster.categories) != set(problem.scheme.categories):
        raise ValueError(
            "roster categories do not match the scheme: "
            f"{sorted(roster.categories)} vs {sorted(problem.scheme.categories)}"
        )
    needed = _positions_needed(problem, kind)
    if len(roster) < needed:
        raise RosterLengthError(
            f"{kind} run needs {needed} roster positions, roster has {len(roster)}"
        )


def _trace(
    problem: ReservationProblem,
    label: str,
    cumulative: Sequence[Sequence[Sequence[int]]],
    seed: Optional[int] = None,
) -> SolutionTrace:
    periods = []
    for t in range(1, problem.periods + 1):
        fair = build_fair_share_table(problem, t)
        reserved = ReservationTable.from_entries(
            problem.departments, problem.scheme.categories, cumulative[t - 1]
        )
        periods.append((fair, reserved))
    return SolutionTrace(problem, label, tuple(periods), seed)


def _consume(problem: ReservationProblem, own: Sequence[Sequence[str]]) -> list:
    """Cumulative counts per period when department i reads ``own[i]``, a
    sequence of categories, from its start, one period's new vacancies at a time."""
    cats = problem.scheme.categories
    counts = [[0] * len(cats) for _ in own]
    cumulative, previous = [], [0] * len(own)
    for t in range(1, problem.periods + 1):
        current = problem.cumulative_vacancies(t)
        for row, seq, start, stop in zip(counts, own, previous, current):
            segment = seq[start:stop]
            for j, c in enumerate(cats):
                row[j] += segment.count(c)
        previous = current
        cumulative.append([row[:] for row in counts])
    return cumulative


def _lottery(
    scheme: ReservationScheme, lengths: Sequence[int], stream: SplitStream, height: Optional[int]
) -> list[tuple[str, ...]]:
    """Department i's ``lengths[i]`` positions, independent blocks drawn from ``stream.child(i)``."""
    sampler = _sampler(build_scheme_table(scheme, height))
    return [_positions(sampler, q, stream.child(i)) for i, q in enumerate(lengths)]


def run_government(
    problem: ReservationProblem,
    roster: Roster,
    order: Optional[Sequence[str]] = None,
) -> SolutionTrace:
    """Pooled solution: one roster consumed institution-wide.

    ``order`` fixes which department takes which consecutive positions
    within a period (default: the problem's department order); the global
    roster index continues across periods.  Raises
    :class:`RosterLengthError` if the roster runs out.
    """
    _check_roster(problem, roster, "government")
    if order is None:
        order = problem.departments
    else:
        order = tuple(order)
        if sorted(order) != sorted(problem.departments):
            raise ValueError(
                f"order must be a permutation of the departments, got {order}"
            )
    # Deal the pooled roster into each department's own sequence, period by period.
    index = {d: i for i, d in enumerate(problem.departments)}
    own: list[list[str]] = [[] for _ in index]
    position = 0
    for row in problem.vacancies:
        for dept in order:
            q = row[index[dept]]
            own[index[dept]].extend(roster.assignment[position:position + q])
            position += q
    return _trace(problem, "government", _consume(problem, own))


def run_court(problem: ReservationProblem, roster: Roster) -> SolutionTrace:
    """Per-department solution: every department reads its own copy of ``roster``."""
    _check_roster(problem, roster, "court")
    own = [roster.assignment] * len(problem.departments)
    return _trace(problem, "court", _consume(problem, own))


def run_proposed(
    problem: ReservationProblem, seed: int, *, height: Optional[int] = None
) -> SolutionTrace:
    """Independent random roster per department, consumed court-style.

    Department i follows a roster drawn from child stream i of the master
    seed, with length equal to its final cumulative vacancies; each
    department therefore satisfies its own quota in every period surely,
    and every table entry is an unbiased draw around its fair share.
    """
    final = problem.cumulative_vacancies(problem.periods)
    own = _lottery(problem.scheme, final, SplitStream(seed), height)
    return _trace(problem, "proposed", _consume(problem, own), seed)


@dataclass(frozen=True)
class SolutionConfig:
    """Which solution to run and with what inputs.

    ``roster`` is required by government and court runs unless replications
    are meant to draw a fresh roster each time (roster=None); ``order`` only
    applies to government; ``height`` overrides the block height used for
    drawn rosters.
    """

    kind: str
    roster: Optional[Roster] = None
    order: Optional[tuple[str, ...]] = None
    height: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("government", "court", "proposed"):
            raise ValueError(
                f"unknown solution kind {self.kind!r}; expected "
                "'government', 'court', or 'proposed'"
            )


def run_solution(
    problem: ReservationProblem, config: SolutionConfig, seed: Optional[int] = None
) -> SolutionTrace:
    """Run one solution described by ``config`` (seed used where random)."""
    if config.kind == "proposed":
        if seed is None:
            raise ValueError("the proposed solution needs a seed")
        return run_proposed(problem, seed, height=config.height)
    roster = config.roster
    if roster is None:
        if seed is None:
            raise ValueError(
                f"the {config.kind} solution needs a roster or a seed to draw one"
            )
        # Independent-block rosters are prefix-stable, so drawing only the
        # positions the run reads leaves the trace unchanged.
        roster = draw_roster(
            problem.scheme,
            _positions_needed(problem, config.kind),
            SplitStream(seed),
            height=config.height,
        )
    if config.kind == "government":
        return run_government(problem, roster, config.order)
    return run_court(problem, roster)


def _replicate(
    problem: ReservationProblem, config: SolutionConfig, replications: int, stream: SplitStream
) -> Iterator[SolutionTrace]:
    """Traces of ``replications`` runs of ``config``, run r seeded by ``stream.child(r)``.

    A government or court run with a fixed roster is deterministic, so it
    runs once.
    """
    deterministic = config.kind != "proposed" and config.roster is not None
    for r in range(1 if deterministic else replications):
        yield run_solution(problem, config, stream.child(r).key)


@dataclass(frozen=True)
class EstimatedTable:
    """Monte-Carlo means and standard errors of a reservation table."""

    departments: tuple[str, ...]
    categories: tuple[str, ...]
    period: int
    kind: str
    replications: int
    seed: int
    mean_entries: tuple[tuple[Fraction, ...], ...]
    se_entries: tuple[tuple[float, ...], ...]
    mean_column_totals: tuple[Fraction, ...]
    se_column_totals: tuple[float, ...]


def _mean_se(total: int, total_sq: int, count: int) -> tuple[Fraction, float]:
    mean = Fraction(total, count)
    if count < 2:
        return mean, 0.0
    var = (Fraction(total_sq) - count * mean * mean) / (count - 1)
    return mean, sqrt(max(0.0, float(var) / count))


def estimate_expected_table(
    problem: ReservationProblem,
    t: int,
    config: SolutionConfig,
    replications: int,
    seed: int,
) -> EstimatedTable:
    """Mean and standard error of each entry of the period-t table.

    Replication r runs the solution with seed child(r) of the master seed;
    a government/court run with a fixed roster is deterministic, so it is
    computed once and reported with zero standard errors.
    """
    problem.check_period(t)
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    m, n = len(problem.departments), len(problem.scheme.categories)
    # Row m accumulates the column totals.
    sums = [[0] * n for _ in range(m + 1)]
    squares = [[0] * n for _ in range(m + 1)]
    for runs, trace in enumerate(_replicate(problem, config, replications, SplitStream(seed)), 1):
        reserved = trace.reservation(t)
        for i, row in enumerate((*reserved.entries, reserved.column_totals)):
            for j, z in enumerate(row):
                sums[i][j] += z
                squares[i][j] += z * z
    stats = [
        [_mean_se(total, sq, runs) for total, sq in zip(*rows)] for rows in zip(sums, squares)
    ]
    means = tuple(tuple(mean for mean, _ in row) for row in stats)
    ses = tuple(tuple(se for _, se in row) for row in stats)
    return EstimatedTable(
        departments=problem.departments,
        categories=problem.scheme.categories,
        period=t,
        kind=config.kind,
        replications=runs,
        seed=seed,
        mean_entries=means[:m],
        se_entries=ses[:m],
        mean_column_totals=means[m],
        se_column_totals=ses[m],
    )
