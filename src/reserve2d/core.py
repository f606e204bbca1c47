"""Problem model and exact fair-share accounting.

A reservation problem assigns, per hiring period, a number of vacancies to
each department of an institution; a reservation scheme fixes the fraction of
positions owed to each beneficiary category.  With ``Q_i^t`` the cumulative
vacancies of department ``i`` through period ``t`` and ``a_j`` the fraction
of category ``j``, the *fair share table* at period ``t`` has entries

    x_ij = a_j * Q_i^t

with row totals ``Q_i^t`` (integers), column totals ``a_j * sum_i Q_i^t``,
and grand total ``sum_i Q_i^t``.  All arithmetic is exact: fractions are
:class:`fractions.Fraction` throughout, and additivity is validated as an
identity, not up to tolerance.

A *reservation table* is a nonnegative integer table with the same row
totals.  It satisfies the

* department quota if every internal entry lies within {floor, ceil} of the
  corresponding fair share (an integral fair share admits only itself);
* university quota if every column total does likewise.

The *bias table* of a reservation table is the entrywise difference from the
fair share table, including the margins; both quota sets are empty exactly
when every bias entry has magnitude strictly below one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, islice
from operator import gt
from typing import Iterable, Optional, Sequence, Union

from ._walk import scaled

__all__ = [
    "PeriodRangeError",
    "ReservationScheme",
    "ReservationProblem",
    "FairShareTable",
    "ReservationTable",
    "BiasTable",
    "Roster",
    "QuotaViolation",
    "SolutionTrace",
    "build_fair_share_table",
    "within_department_quota",
    "within_university_quota",
    "bias_of",
    "is_monotone",
]


class PeriodRangeError(ValueError):
    """Requested period lies outside the problem's horizon."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"floats are not accepted for exact quantities (got {value!r}); "
            "pass a Fraction, an int, or a string like '3/20' or '0.15'"
        )
    return Fraction(value)


@dataclass(frozen=True)
class ReservationScheme:
    """Beneficiary categories and the fraction of positions owed to each.

    The General (unreserved) category is an ordinary category here; the
    fractions must be rationals in (0, 1) summing to exactly 1.
    """

    categories: tuple[str, ...]
    fractions: tuple[Fraction, ...]

    def __init__(self, categories: Sequence[str], fractions: Sequence) -> None:
        categories = tuple(categories)
        fracs = tuple(_as_fraction(f) for f in fractions)
        if len(categories) < 2:
            raise ValueError(f"need at least 2 categories, got {len(categories)}")
        if len(set(categories)) != len(categories):
            raise ValueError("category identifiers must be distinct")
        if len(fracs) != len(categories):
            raise ValueError(f"{len(categories)} categories but {len(fracs)} fractions")
        for name, f in zip(categories, fracs):
            if not 0 < f < 1:
                raise ValueError(f"fraction for {name!r} must lie in (0,1), got {f}")
        if sum(fracs) != 1:
            raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "fractions", fracs)
        # Schemes key several caches and Fraction hashing is not cheap, so
        # the hash is computed once up front.
        object.__setattr__(self, "_hash", hash((categories, fracs)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.categories)

    def fraction_of(self, category: str) -> Fraction:
        return self.fractions[self.categories.index(category)]


@dataclass(frozen=True)
class ReservationProblem:
    """Departments, a reservation scheme, and per-period vacancy counts.

    ``vacancies[t][i]`` is the number of vacancies department ``i`` opens in
    period ``t+1``; periods are 1-based in the API.
    """

    departments: tuple[str, ...]
    scheme: ReservationScheme
    vacancies: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        departments: Sequence[str],
        scheme: ReservationScheme,
        vacancies: Sequence[Sequence[int]],
    ) -> None:
        departments = tuple(departments)
        if len(departments) < 2:
            raise ValueError(f"need at least 2 departments, got {len(departments)}")
        if len(set(departments)) != len(departments):
            raise ValueError("department identifiers must be distinct")
        rows = tuple(tuple(q) for q in vacancies)
        if not rows:
            raise ValueError("need at least one period of vacancies")
        cumulative = [(0,) * len(departments)]  # Q^0, then Q^t after each period t
        for t, row in enumerate(rows, start=1):
            if len(row) != len(departments):
                raise ValueError(
                    f"period {t}: expected {len(departments)} vacancy counts, "
                    f"got {len(row)}"
                )
            for dept, q in zip(departments, row):
                if not isinstance(q, int) or q < 0:
                    raise ValueError(
                        f"period {t}, department {dept!r}: vacancies must be "
                        f"nonnegative integers, got {q!r}"
                    )
            cumulative.append(tuple(s + q for s, q in zip(cumulative[-1], row)))
        object.__setattr__(self, "departments", departments)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "vacancies", rows)
        # Derived once; not fields, so equality, hashing and repr ignore them.
        object.__setattr__(self, "_cumulative", tuple(cumulative[1:]))
        object.__setattr__(self, "_row_totals", tuple(chain.from_iterable(cumulative[1:])))  # Q_i^t, period-major
        object.__setattr__(self, "_fair", {})  # period -> its FairShareTable

    @property
    def periods(self) -> int:
        return len(self.vacancies)

    def check_period(self, t: int) -> None:
        if not 1 <= t <= self.periods:
            raise PeriodRangeError(f"period {t} out of range: problem has periods 1..{self.periods}")

    def cumulative_vacancies(self, t: int) -> tuple[int, ...]:
        """Q_i^t for every department, through period ``t``."""
        self.check_period(t)
        return self._cumulative[t - 1]


def _grid(table) -> tuple[tuple, ...]:
    """Entry rows with their totals, then column totals and grand total: BiasTable's layout."""
    rows = tuple((*row, q) for row, q in zip(table.entries, table.row_totals))
    return rows + ((*table.column_totals, table.grand_total),)


def _check_grid(entries, m, n, what):
    if len(entries) != m:
        raise ValueError(f"{what}: expected {m} rows, got {len(entries)}")
    for row in entries:
        if len(row) != n:
            raise ValueError(f"{what}: expected {n} columns, got {len(row)}")


def _check_margins(table, scale: int, rows) -> None:
    """Row sums, column sums and the grand total of a labelled table whose entries
    are the integer ``rows`` over ``scale``; a message builds its ``Fraction``."""
    for totals, labels, what in (
        (table.row_totals, table.departments, "row"), (table.column_totals, table.categories, "column")
    ):
        if len(totals) != len(labels):
            raise ValueError(f"expected {len(labels)} {what} totals, got {len(totals)}")
    for dept, row, total in zip(table.departments, rows, table.row_totals):
        if sum(row) != total * scale:
            raise ValueError(f"row {dept!r} sums to {Fraction(sum(row), scale)}, stored total is {total}")
    columns = tuple(map(sum, zip(*rows))) or (0,) * len(table.categories)
    for cat, col, total in zip(table.categories, columns, table.column_totals):
        if col * total.denominator != total.numerator * scale:
            raise ValueError(f"column {cat!r} sums to {Fraction(col, scale)}, stored total is {total}")
    if sum(table.row_totals) != table.grand_total:  # the columns then sum to it too
        raise ValueError("row totals do not sum to the grand total")


@dataclass(frozen=True)
class FairShareTable:
    """Exact fair shares x_ij = a_j * Q_i^t with validated margins."""

    departments: tuple[str, ...]
    categories: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    row_totals: tuple[int, ...]
    column_totals: tuple[Fraction, ...]
    grand_total: int

    def __post_init__(self):
        m, n = len(self.departments), len(self.categories)
        _check_grid(self.entries, m, n, "fair share table")
        for total in (*self.row_totals, self.grand_total):
            if not isinstance(total, int):
                raise ValueError(f"fair share table totals must be integers, got {total!r}")
        # Row-major entries times their lcm S, derived once; not a field, so ==, hash and repr ignore it.
        scale, flows = scaled(v for row in self.entries for v in row)
        object.__setattr__(self, "_scaled", (scale, tuple(flows)))
        _check_margins(self, scale, [flows[i * n:(i + 1) * n] for i in range(m)])


@dataclass(frozen=True)
class ReservationTable:
    """Nonnegative integer reservations with validated margins."""

    departments: tuple[str, ...]
    categories: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    row_totals: tuple[int, ...]
    column_totals: tuple[int, ...]
    grand_total: int

    def __post_init__(self):
        self._check_entries()
        _check_margins(self, 1, self.entries)  # its own scaled form

    def _check_entries(self) -> None:
        _check_grid(self.entries, len(self.departments), len(self.categories), "reservation table")
        for row in self.entries:
            for z in row:
                if not isinstance(z, int) or z < 0:
                    raise ValueError(f"reservation entries must be nonnegative integers, got {z!r}")

    @classmethod
    def from_entries(
        cls,
        departments: Sequence[str],
        categories: Sequence[str],
        entries: Sequence[Sequence[int]],
    ) -> "ReservationTable":
        """The table of ``entries`` and their sums, each line summed once; the
        margins hold by construction, so only the entries are checked."""
        entries = tuple(tuple(row) for row in entries)
        rows = tuple(map(sum, entries))
        columns = tuple(map(sum, zip(*entries))) or (0,) * len(categories)
        table = object.__new__(cls)
        values = (tuple(departments), tuple(categories), entries, rows, columns, sum(rows))
        for field, value in zip(fields(cls), values):
            object.__setattr__(table, field.name, value)
        table._check_entries()
        return table


@dataclass(frozen=True)
class BiasTable:
    """Entrywise reservation minus fair share, margins included.

    ``entries`` is (m+1) x (n+1): internal cells, then the row-total column,
    the column-total row, and the grand-total corner.
    """

    departments: tuple[str, ...]
    categories: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_grid(
            self.entries, len(self.departments) + 1, len(self.categories) + 1, "bias table"
        )

    @property
    def internal(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(row[:-1] for row in self.entries[:-1])

    @property
    def column_total_biases(self) -> tuple[Fraction, ...]:
        return self.entries[-1][:-1]

    @property
    def max_magnitude(self) -> Fraction:
        return max(abs(v) for row in self.entries for v in row)


# How a roster goes on past its drawn positions; the first is the default.
_POLICIES = ("independent-blocks", "repeat-block")


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"unknown extension policy {policy!r}; expected {' or '.join(map(repr, _POLICIES))}")


@dataclass(frozen=True)
class Roster:
    """A category assignment for roster positions 1, 2, 3, ...

    ``assignment[p-1]`` is the category at position ``p``.  ``block_length``
    records the block size the roster was generated from (0 when unknown),
    and ``extension_policy`` how positions beyond ``len(assignment)`` would
    be generated ("independent-blocks" or "repeat-block").
    """

    categories: tuple[str, ...]
    assignment: tuple[str, ...]
    block_length: int = 0
    extension_policy: str = _POLICIES[0]

    def __post_init__(self):
        _check_policy(self.extension_policy)
        known = set(self.categories)
        if not known.issuperset(self.assignment):
            p, c = next((p, c) for p, c in enumerate(self.assignment, start=1) if c not in known)
            raise ValueError(f"position {p}: unknown category {c!r}")

    def __len__(self) -> int:
        return len(self.assignment)

    def category_at(self, position: int) -> str:
        """Category at 1-based ``position``."""
        if position < 1:
            raise ValueError(f"roster positions are 1-based, got {position}")
        if position > len(self.assignment):
            raise IndexError(f"roster has {len(self.assignment)} positions, asked for {position}")
        return self.assignment[position - 1]


@dataclass(frozen=True)
class QuotaViolation:
    """One entry (or column total) outside its admissible rounding range."""

    department: Optional[str]  # None for university-level (column total) checks
    category: str
    row: Optional[int]
    column: int
    reserved: int
    fair: Fraction

    @property
    def magnitude(self) -> Fraction:
        return abs(self.reserved - self.fair)


def build_fair_share_table(problem: ReservationProblem, t: int) -> FairShareTable:
    """Fair share table of ``problem`` at period ``t`` (1-based), built once per problem."""
    if t not in problem._fair:
        q = problem.cumulative_vacancies(t)
        alphas = problem.scheme.fractions
        total = sum(q)
        problem._fair[t] = FairShareTable(
            departments=problem.departments,
            categories=problem.scheme.categories,
            entries=tuple(tuple(a * qi for a in alphas) for qi in q),
            row_totals=q,
            column_totals=tuple(a * total for a in alphas),
            grand_total=total,
        )
    return problem._fair[t]


def _admissible(reserved: int, fair: Fraction) -> bool:
    return fair - 1 < reserved < fair + 1  # floor or ceil of fair; fair itself when that is an integer


def _check_alignment(reserved: ReservationTable, fair: FairShareTable) -> None:
    if reserved.departments != fair.departments or reserved.categories != fair.categories:
        raise ValueError("reservation and fair share tables label different grids")


def within_department_quota(
    reserved: ReservationTable, fair: FairShareTable
) -> list[QuotaViolation]:
    """Internal entries outside {floor, ceil} of their fair share (empty = ok)."""
    _check_alignment(reserved, fair)
    out = []
    for i, dept in enumerate(fair.departments):
        for j, cat in enumerate(fair.categories):
            z, x = reserved.entries[i][j], fair.entries[i][j]
            if not _admissible(z, x):
                out.append(QuotaViolation(dept, cat, i, j, z, x))
    return out


def within_university_quota(
    reserved: ReservationTable, fair: FairShareTable
) -> list[QuotaViolation]:
    """Column totals outside {floor, ceil} of their fair share (empty = ok)."""
    _check_alignment(reserved, fair)
    out = []
    for j, cat in enumerate(fair.categories):
        z, x = reserved.column_totals[j], fair.column_totals[j]
        if not _admissible(z, x):
            out.append(QuotaViolation(None, cat, None, j, z, x))
    return out


def bias_of(reserved: ReservationTable, fair: FairShareTable) -> BiasTable:
    """Reservation minus fair share, entrywise with margins."""
    _check_alignment(reserved, fair)
    rows = tuple(
        tuple(Fraction(z) - x for z, x in zip(z_row, x_row))
        for z_row, x_row in zip(_grid(reserved), _grid(fair))
    )
    return BiasTable(fair.departments, fair.categories, rows)


def _check_counts(problem: ReservationProblem, counts: Sequence[int]) -> Sequence[int]:
    """``counts``, once checked for what a trace guarantees of its counts ``counts[(t-1)*m*n + i*n + j]``,
    in integers over the whole vector: no negative entry, row totals equal to the cumulative vacancies,
    and no entry that shrinks from one period to the next.  Only a failure is worded, period by period."""
    n, width = problem.scheme.size, len(problem.departments) * problem.scheme.size
    if (min(counts) >= 0 and tuple(map(sum, zip(*[iter(counts)] * n))) == problem._row_totals
            and not any(map(gt, counts, islice(counts, width, None)))):
        return counts
    for t, q in enumerate(problem._cumulative, start=1):
        period = counts[(t - 1) * width:t * width]
        for z in filter((0).__gt__, period):  # the first negative entry
            raise ValueError(f"reservation entries must be nonnegative integers, got {z!r}")
        totals = tuple(map(sum, zip(*[iter(period)] * n)))
        if totals != q:
            raise ValueError(f"period {t}: reservation row totals {totals} differ from cumulative vacancies {q}")
    raise ValueError("reservation tables must be entrywise nondecreasing")


@dataclass(frozen=True)
class SolutionTrace:
    """Per-period (fair share, reservation) pairs produced by one solution run.

    Construction validates that every reservation table is additive with row
    totals equal to the cumulative vacancies and that the sequence is
    monotone (reservations only ever grow as periods accumulate).
    """

    problem: ReservationProblem
    label: str
    periods: tuple[tuple[FairShareTable, ReservationTable], ...]
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.periods) != self.problem.periods:
            raise ValueError(
                f"trace covers {len(self.periods)} periods, problem has "
                f"{self.problem.periods}"
            )
        for t, (fair, reserved) in enumerate(self.periods, start=1):
            expected = build_fair_share_table(self.problem, t)
            if fair is not expected and fair != expected:
                raise ValueError(f"period {t}: fair share table mismatch")
            _check_alignment(reserved, fair)
        _check_counts(self.problem, [z for _, reserved in self.periods for row in reserved.entries for z in row])

    def reservation(self, t: int) -> ReservationTable:
        self.problem.check_period(t)
        return self.periods[t - 1][1]

    def fair(self, t: int) -> FairShareTable:
        self.problem.check_period(t)
        return self.periods[t - 1][0]


def is_monotone(
    trace: Union[SolutionTrace, Iterable[ReservationTable]],
) -> bool:
    """True iff each reservation table is entrywise <= the next one."""
    if isinstance(trace, SolutionTrace):
        tables = [reserved for _, reserved in trace.periods]
    else:
        tables = list(trace)
    for prev, cur in zip(tables, tables[1:]):
        if prev.departments != cur.departments or prev.categories != cur.categories:
            raise ValueError("tables in a trace must label the same grid")
        if any(map(gt, chain.from_iterable(prev.entries), chain.from_iterable(cur.entries))):
            return False
    return True
