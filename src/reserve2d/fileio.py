"""File formats: problem, scheme, and roster CSVs; CSV reports and exact rationals.

Input formats (all CSV with a mandatory header):

* problem file, header ``department,period,vacancies``: one row per
  department/period pair with vacancies to fill; missing pairs default to
  zero, and the periods present must be contiguous starting at 1.
  Department order in the file is the problem's department order.
* scheme file, header ``category,numerator,denominator``: one row per
  category with its fraction as an integer ratio; the denominator may be
  left empty to give the fraction in the numerator column as an exact
  decimal or ``p/q`` string.
* roster file, header ``index,category``: positions 1..L in order.

Beside the three readers, the module holds the CSV report writer, which
renders rows in chunks as they come, and the exact rendering of rationals
that the JSON reports use: ``"p/q"`` strings, integers staying integers, so
reports round-trip losslessly and a rerun reproduces them byte for byte.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import count, islice
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import ReservationProblem, ReservationScheme, Roster

__all__ = [
    "ParseError",
    "parse_problem_file",
    "parse_scheme_file",
    "parse_roster_file",
    "roster_lines",
    "rational",
    "parse_rational",
]


class ParseError(ValueError):
    """An input file does not follow its format; carries path and line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _read_rows(path: str, expected_header: Sequence[str]) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(path, 0, f"cannot read file: {getattr(err, 'strerror', None) or err}") from err
    stripped = [
        (lineno, [field.strip() for field in row])
        for lineno, row in enumerate(rows, start=1)
        if any(field.strip() for field in row)
    ]
    if not stripped:
        raise ParseError(path, 1, "file is empty")
    header_line, header = stripped[0]
    if [h.lower() for h in header] != list(expected_header):
        raise ParseError(
            path,
            header_line,
            f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
        )
    return stripped[1:]


def _parse_int(path: str, line: int, text: str, what: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, line, f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ParseError(path, line, f"{what} must be >= {minimum}, got {value}")
    return value


# Most vacancies one department may have over all periods: the proposed
# solution draws that many roster positions for it.
_VACANCY_LIMIT = 100_000
# Most positions a roster may need: a problem's total vacancies (government), ``roster --length``.
_POSITION_LIMIT = 1_000_000


def parse_problem_file(path: str, scheme: ReservationScheme) -> ReservationProblem:
    """Read a vacancies CSV into a problem over the given scheme."""
    rows = _read_rows(path, ("department", "period", "vacancies"))
    totals: dict[str, int] = {}  # each department's vacancies so far, in file order
    cells: dict[tuple[str, int], int] = {}
    max_period = total = 0
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(path, lineno, f"expected 3 fields, got {len(row)}")
        dept, period_text, vac_text = row
        if not dept:
            raise ParseError(path, lineno, "department identifier is empty")
        period = _parse_int(path, lineno, period_text, "period", 1)
        vacancies = _parse_int(path, lineno, vac_text, "vacancies", 0)
        if (dept, period) in cells:
            raise ParseError(path, lineno, f"duplicate row for department {dept!r}, period {period}")
        cells[(dept, period)] = vacancies
        totals[dept] = totals.get(dept, 0) + vacancies
        if totals[dept] > _VACANCY_LIMIT:
            raise ParseError(path, lineno, f"department {dept!r} has over {_VACANCY_LIMIT:,} vacancies")
        total += vacancies
        if total > _POSITION_LIMIT:
            raise ParseError(path, lineno, f"the problem has over {_POSITION_LIMIT:,} vacancies")
        max_period = max(max_period, period)
    if max_period == 0:
        raise ParseError(path, rows[-1][0] if rows else 1, "no vacancy rows found")
    present = {p for _, p in cells}
    if len(present) != max_period:  # by count: max_period may be huge
        missing = list(islice((t for t in count(1) if t not in present), 5))
        more = max_period - len(present) - len(missing)
        raise ParseError(
            path,
            rows[-1][0],
            f"periods must be contiguous 1..{max_period}; missing {missing}"
            + (f" and {more} more" if more else ""),
        )
    vacancies = tuple(
        tuple(cells.get((d, t), 0) for d in totals)
        for t in range(1, max_period + 1)
    )
    try:
        return ReservationProblem(tuple(totals), scheme, vacancies)
    except ValueError as err:
        raise ParseError(path, rows[-1][0], str(err)) from err


# Most digits, and largest exponent size, of a literal parse_rational reads:
# it builds the exact value, so '1e-99999999' would build 10**99999999.
_DIGIT_LIMIT = 100


def parse_rational(text: str) -> Fraction:
    """Exact rational from a 'p/q' string or a decimal literal as printed.

    A literal over 100 digits or with an exponent over 100 in size raises
    ValueError.
    """
    mantissa, _, exponent = text.lower().partition("e")
    if sum(map(str.isdecimal, mantissa)) > _DIGIT_LIMIT or abs(int(exponent or 0)) > _DIGIT_LIMIT:
        raise ValueError(f"more than {_DIGIT_LIMIT} digits or an exponent over {_DIGIT_LIMIT} in size")
    return Fraction(text)


def parse_scheme_file(path: str) -> ReservationScheme:
    """Read a scheme CSV into a reservation scheme."""
    rows = _read_rows(path, ("category", "numerator", "denominator"))
    categories: list[str] = []
    fractions: list[Fraction] = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(path, lineno, f"expected 3 fields, got {len(row)}")
        cat, num_text, den_text = row
        if not cat:
            raise ParseError(path, lineno, "category identifier is empty")
        if cat in categories:
            raise ParseError(path, lineno, f"duplicate category {cat!r}")
        if den_text:
            numerator = _parse_int(path, lineno, num_text, "numerator", 1)
            denominator = _parse_int(path, lineno, den_text, "denominator", 1)
            fraction = Fraction(numerator, denominator)
        else:
            try:
                fraction = parse_rational(num_text)
            except (ValueError, ZeroDivisionError) as err:
                raise ParseError(path, lineno, f"cannot parse fraction {num_text!r}: {err}") from None
        categories.append(cat)
        fractions.append(fraction)
    try:
        return ReservationScheme(categories, fractions)
    except ValueError as err:
        raise ParseError(path, rows[-1][0] if rows else 1, str(err)) from err


def parse_roster_file(
    path: str, categories: Optional[Sequence[str]] = None
) -> Roster:
    """Read a roster CSV (positions 1..L in order).

    When ``categories`` is given (normally the scheme's), every position
    must use one of them and the roster carries that full category list;
    otherwise the categories are the distinct ones appearing.
    """
    rows = _read_rows(path, ("index", "category"))
    known = set(categories) if categories is not None else None
    assignment: list[str] = []
    for lineno, row in rows:
        if len(row) != 2:
            raise ParseError(path, lineno, f"expected 2 fields, got {len(row)}")
        index = _parse_int(path, lineno, row[0], "index", 1)
        if index != len(assignment) + 1:
            raise ParseError(path, lineno, f"expected index {len(assignment) + 1}, got {index}")
        if not row[1]:
            raise ParseError(path, lineno, "category identifier is empty")
        if known is not None and row[1] not in known:
            raise ParseError(
                path, lineno,
                f"unknown category {row[1]!r}; scheme has {sorted(known)}",
            )
        assignment.append(row[1])
    if not assignment:
        raise ParseError(path, 1, "roster has no positions")
    cats = tuple(categories) if categories is not None else tuple(dict.fromkeys(assignment))
    return Roster(categories=cats, assignment=tuple(assignment))


def _csv_chunks(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """A CSV report in chunks of 512 rows, made as they are read: the header, then each row, one line each."""
    out, rows = io.StringIO(), iter(rows)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    while text := (writer.writerows(islice(rows, 512)) or out.getvalue()):  # writerows returns None
        yield text
        out.seek(0)
        out.truncate()


def roster_lines(roster: Roster) -> str:
    """Render a roster in its file format (one line per position)."""
    return "".join(_csv_chunks(("index", "category"), enumerate(roster.assignment, start=1)))


def _ratio(p: int, q: int) -> Union[int, str]:
    """p/q for q > 0 as an int if whole, else as the reduced 'p/q' string; no Fraction is built."""
    g = gcd(p, q)
    return p // g if g == q else f"{p // g}/{q // g}"


def rational(value: Union[int, Fraction]) -> Union[int, str]:
    """JSON-friendly exact rendering: ints stay ints, else 'p/q'."""
    return _ratio(value.numerator, value.denominator)
