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

All three count categories at the positions they read: proposed and court
at every Q_i^t, government at its running pooled positions, taking
differences.  A whole block of height k holds exactly k*a_j of category j,
so the count at q is (q // k)*k*a_j plus a prefix count of block q // k, and
a drawn roster decodes only the blocks that hold such a q inside them
(:func:`_reader`), a chunk of runs in one lane pass with one run's lane
constants and lists repeated per run.  A run is one flat list of integer counts,
``counts[(t-1)*m*n + i*n + j]``: period-major, then department, then category.
The ``run_*`` functions return it as a validated :class:`SolutionTrace`; the
replication loop behind ``compare`` checks it in integers and builds no tables.
``estimate_expected_table`` replicates a solution and reports per-entry
means with standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import sqrt
from operator import add, attrgetter, getitem, mul, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    ReservationProblem,
    ReservationTable,
    Roster,
    SolutionTrace,
    _check_counts,
    build_fair_share_table,
)
from .rng import SplitStream, _children
from .roster import _BlockSampler, _sampler, build_scheme_table

__all__ = [
    "RosterLengthError",
    "SolutionConfig",
    "EstimatedTable",
    "run_government",
    "run_court",
    "run_proposed",
    "run_solution",
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


def _tally(source: Sequence[str], ends: Sequence[int], categories: Sequence[str]) -> list[int]:
    """Each category's count in the first q positions of the fixed roster
    assignment ``source``, for each q in ``ends``, end after end."""
    counts, at, out = [0] * len(categories), 0, [None] * len(ends)
    for e in sorted(range(len(ends)), key=ends.__getitem__):  # one pass in position order
        segment, at = source[at:ends[e]], ends[e]
        out[e] = counts = [c + segment.count(cat) for c, cat in zip(counts, categories)]
    return list(chain.from_iterable(out))


_LANES = 4096  # most u64 lanes, and ends, a chunk of runs reads (a larger run alone), however many runs there are


def _reader(sampler: _BlockSampler, ends: Sequence[Sequence[int]]) -> Callable[[Iterable[Sequence[int]]], Iterator[list]]:
    """What :func:`_tally` counts in the independent blocks ``sampler`` draws from a fresh stream
    of key s at each q in ``ends[s]``, as a function of the runs' keys (a list each), run by run:
    every stream's first end, then every stream's second, and so on.  It draws no block past a
    stream's last end and reads only those an end falls in, a chunk of runs (as many as ``_LANES``
    holds, or one) in one ``sampler.read``, and counts each run with one run's lists."""
    k, whole = sampler.table.height, sampler.table.column_totals
    wanted = [sorted({q // k for q in own if q % k}) for own in ends]
    place = {sb: i for i, sb in enumerate((s, b) for s, own in enumerate(wanted) for b in own)}
    # End q = b*k + r of stream s: b whole blocks, then r positions of the idx-th block read (-1: ``none``, no block).
    spots = [(s, *divmod(q, k)) for qs in zip(*ends) for s, q in enumerate(qs)]
    base = [b * w for _, b, _ in spots for w in whole]
    idx = [place[s, b] if r else -1 for s, b, r in spots]
    rs = [r for _, _, r in spots]
    none = ((0,) * len(whole),)
    blocks = sampler.read([-(-max(own) // k) for own in ends], wanted)  # each stream draws its blocks to its last end
    per = max(1, _LANES // max(1, len(spots), (sampler.fixed or 0) * len(place)))  # runs a chunk holds

    def read(runs: Iterable[Sequence[int]]) -> Iterator[list]:
        runs = iter(runs)
        while keys := [*chain.from_iterable(islice(runs, per))]:
            for run in blocks(keys):  # run by run
                prefixes = [*map(attrgetter("_prefix"), run), none]
                yield list(map(add, base, chain.from_iterable(map(getitem, map(prefixes.__getitem__, idx), rs))))

    return read


def _government(problem: ReservationProblem, order: Optional[Sequence[str]]) -> tuple[list[int], Callable]:
    """The positions read when, period after period, departments take consecutive
    positions in ``order`` (default: the problem's), and the run's counts from the counts there."""
    order = problem.departments if order is None else tuple(order)
    if sorted(order) != sorted(problem.departments):
        raise ValueError(f"order must be a permutation of the departments, got {order}")
    seats = list(map({dept: i for i, dept in enumerate(problem.departments)}.__getitem__, order))
    m, n, dealt = len(seats), problem.scheme.size, sorted(range(len(seats)), key=seats.__getitem__)
    # Where department i's seat of period t sits in dealing order (dealt[i]), category by category.
    gather = [(t * m + p) * n + j for t in range(problem.periods) for p in dealt for j in range(n)]

    def arrange(counts: list) -> list:
        taken = list(map(sub, counts[n:], counts))  # each seat's counts: after it minus before it
        out = list(map(taken.__getitem__, gather))
        for a in range(m * n, len(out), m * n):  # period t adds to period t-1
            out[a:a + m * n] = map(add, out[a - m * n:a], out[a:a + m * n])
        return out

    return list(accumulate((row[i] for row in problem.vacancies for i in seats), initial=0)), arrange


def _trace(problem: ReservationProblem, label: str, counts: Sequence[int], seed: Optional[int] = None) -> SolutionTrace:
    categories, m, n = problem.scheme.categories, len(problem.departments), problem.scheme.size
    rows = [counts[a:a + n] for a in range(0, len(counts), n)]
    periods = tuple(
        (build_fair_share_table(problem, t),
         ReservationTable.from_entries(problem.departments, categories, rows[(t - 1) * m:t * m]))
        for t in range(1, problem.periods + 1)
    )
    return SolutionTrace(problem, label, periods, seed)


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
    return run_solution(problem, SolutionConfig("government", roster=roster, order=order))


def run_court(problem: ReservationProblem, roster: Roster) -> SolutionTrace:
    """Per-department solution: every department reads its own copy of ``roster``."""
    return run_solution(problem, SolutionConfig("court", roster=roster))


def run_proposed(
    problem: ReservationProblem, seed: int, *, height: Optional[int] = None
) -> SolutionTrace:
    """Independent random roster per department, consumed court-style.

    Department i follows a roster drawn from child stream i of the master
    seed, with length equal to its final cumulative vacancies; each
    department therefore satisfies its own quota in every period surely,
    and every table entry is an unbiased draw around its fair share.
    """
    return run_solution(problem, SolutionConfig("proposed", height=height), seed)


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


def _runner(problem: ReservationProblem, config: SolutionConfig) -> Callable[[Iterable[int]], Iterator[list]]:
    """The counts of the runs of ``config``, one per seed (a fixed roster's one run, whatever the seeds), as a function
    of the seeds, with what no seed changes worked out once; :func:`_reader` reads the runs' blocks a chunk at a time."""
    if config.kind == "proposed":  # department i reads blocks drawn from child stream i
        read = _reader(_sampler(build_scheme_table(problem.scheme, config.height)), list(zip(*problem._cumulative)))
        children = _children(len(problem.departments))
        return lambda seeds: read(children(SplitStream(seed).key) for seed in seeds)
    if config.roster is not None:
        _check_roster(problem, config.roster, config.kind)
    if config.kind == "government":
        ends, arrange = _government(problem, config.order)
    else:  # every department reads its own copy of the roster, and the ends come in order
        ends, arrange = list(problem._row_totals), lambda counts: counts
    if config.roster is not None:
        fixed = arrange(_tally(config.roster.assignment, ends, problem.scheme.categories))
        return lambda seeds: [fixed]
    read = _reader(_sampler(build_scheme_table(problem.scheme, config.height)), [ends])
    return lambda seeds: map(arrange, read([SplitStream(seed).key] for seed in seeds))


def run_solution(
    problem: ReservationProblem, config: SolutionConfig, seed: Optional[int] = None
) -> SolutionTrace:
    """Run one solution described by ``config`` (seed used where random)."""
    if seed is None and config.kind == "proposed":
        raise ValueError("the proposed solution needs a seed")
    if seed is None and config.roster is None:
        raise ValueError(f"the {config.kind} solution needs a roster or a seed to draw one")
    (counts,) = _runner(problem, config)([seed])
    return _trace(problem, config.kind, counts, seed if config.kind == "proposed" else None)


def _replicate(
    problem: ReservationProblem, config: SolutionConfig, replications: int, stream: SplitStream
) -> Iterator[list]:
    """The counts of ``replications`` runs of ``config``, run r seeded by
    ``stream.child(r)``, each checked as a trace of it would be.

    Fewer than one replication is refused, and the runner built (a roster too short
    refused), at the call; the runs are made a chunk at a time as they are read
    (:func:`_reader`).  A fixed-roster run is deterministic: its runner runs it once.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    run = _runner(problem, config)
    return (_check_counts(problem, counts) for counts in run(stream.child(r).key for r in range(replications)))


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
    m, n = len(problem.departments), len(problem.scheme.categories)
    sums = squares = [0] * (m * n + n)  # over period t's entries, then over its column totals
    for runs, counts in enumerate(_replicate(problem, config, replications, SplitStream(seed)), 1):
        cells = counts[(t - 1) * m * n:t * m * n]
        cells += [sum(cells[j::n]) for j in range(n)]
        sums, squares = list(map(add, sums, cells)), list(map(add, squares, map(mul, cells, cells)))
    stats = [_mean_se(total, sq, runs) for total, sq in zip(sums, squares)]
    means = [tuple(mean for mean, _ in stats[a:a + n]) for a in range(0, len(stats), n)]
    ses = [tuple(se for _, se in stats[a:a + n]) for a in range(0, len(stats), n)]
    return EstimatedTable(
        departments=problem.departments,
        categories=problem.scheme.categories,
        period=t,
        kind=config.kind,
        replications=runs,
        seed=seed,
        mean_entries=tuple(means[:m]),
        se_entries=tuple(ses[:m]),
        mean_column_totals=means[m],
        se_column_totals=ses[m],
    )
