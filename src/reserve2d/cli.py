"""Command-line interface.

Four subcommands, all deterministic given their inputs and ``--seed``:

* ``round``: one controlled rounding of a period's fair share table;
* ``roster``: draw a roster from a scheme (output is itself a roster file);
* ``run``: run one solution over a problem and report per-period tables,
  biases, and quota-violation statistics;
* ``compare``: replicate all three solutions and report per-period bias
  distribution summaries, plot-ready.

Exit codes: 0 success, 2 malformed input (bad flags or unparseable files,
reported with file and line), 3 out-of-range request (e.g. a period beyond
the horizon), 4 missing flag dependencies (e.g. government without a
roster).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import lru_cache
from itertools import cycle, islice
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Optional, Sequence, Union

from . import __version__
from .analysis import BiasSummary, ViolationStats, _lattice_counts, _lattice_stats, _violations
from .core import (
    BiasTable,
    FairShareTable,
    PeriodRangeError,
    ReservationProblem,
    ReservationTable,
    Roster,
    _POLICIES,
    _grid,
    bias_of,
    build_fair_share_table,
)
from .fileio import (
    _POSITION_LIMIT,
    _VACANCY_LIMIT,
    ParseError,
    parse_problem_file,
    parse_roster_file,
    parse_scheme_file,
    rational,
    roster_lines,
)
from .rng import ALGORITHM, SplitStream
from .rounding import controlled_round
from .solutions import RosterLengthError, SolutionConfig, _positions_needed, _replicate, run_solution
from .roster import build_scheme_table, draw_roster

__all__ = ["main"]

# Child-stream indices of the master seed, one per random consumer, so that
# e.g. adding replications never shifts another consumer's draws.
_SUB_PROPOSED, _SUB_GOVERNMENT, _SUB_COURT, _SUB_SYNTHESIZE = 0, 1, 2, 3

_TOTAL = "total"
# The CSV header of the round and run reports.
_TABLE_HEADER = ("period", "table", "department", "category", "value")
# Summary statistics in report order: the BiasSummary fields after period, scope, count.
_STATISTICS = tuple(f.name for f in fields(BiasSummary))[3:]


class UsageError(Exception):
    """A flag combination the command cannot work with (exit code 4)."""


class FlagError(Exception):
    """A flag value the inputs rule out (exit code 2, like any malformed flag)."""


def _check_height(scheme, height: Optional[int]) -> None:
    """Reject an explicit ``--height``, or the scheme's own (lcm) height, that
    no roster lottery can use."""
    try:
        build_scheme_table(scheme, height)
    except ValueError as err:
        raise FlagError(err if height is None else f"--height {height}: {err}") from None


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _json_report(command: str, seed: Optional[int], **body) -> str:
    """A JSON report: the command, its metadata, then ``body``."""
    meta = {"package": f"reserve2d {__version__}", "generator": ALGORITHM}
    if seed is not None:
        meta["seed"] = seed
    report = {"command": command, "metadata": meta, **body}
    return _json(report) + "\n"


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``pad``, built directly for
    strings, ints and non-empty lists and str-keyed dicts (``indent`` would make ``json.dumps``
    use its pure-Python encoder throughout); anything else goes to ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is list and value:
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _ratio(p: int, q: int) -> Union[int, str]:
    """``rational(Fraction(p, q))`` for q > 0, built without the Fraction."""
    g = gcd(p, q)
    return p // g if g == q else f"{p // g}/{q // g}"


def _table_dict(table: Union[FairShareTable, ReservationTable]) -> dict:
    return {
        "departments": list(table.departments),
        "categories": list(table.categories),
        "entries": [[rational(v) for v in row] for row in table.entries],
        "row_totals": list(table.row_totals),
        "column_totals": [rational(v) for v in table.column_totals],
        "grand_total": table.grand_total,
    }


def _bias_dict(bias: BiasTable) -> dict:
    return {
        "departments": list(bias.departments),
        "categories": list(bias.categories),
        "entries": [[rational(v) for v in row] for row in bias.entries],
    }


def _violation_fields(stats: ViolationStats) -> dict:
    def exact(value):
        return None if value is None else rational(value)

    return {
        "count": stats.count,
        "max_possible": stats.max_possible,
        "percentage": rational(stats.percentage),
        "cells": [
            {
                "department": v.department,
                "category": v.category,
                "reserved": v.reserved,
                "fair": rational(v.fair),
            }
            for v in stats.violations
        ],
        "magnitudes": [rational(mag) for mag in stats.magnitudes],
        "average_magnitude": exact(stats.average_magnitude),
        "min_magnitude": exact(stats.min_magnitude),
        "max_magnitude": exact(stats.max_magnitude),
    }


def _period_dict(t: int, fair: FairShareTable, reserved: ReservationTable) -> dict:
    """One period's tables, biases and quota violations, as reported by round and run."""
    return {
        "period": t,
        "fair_share": _table_dict(fair),
        "reservation": _table_dict(reserved),
        "bias": _bias_dict(bias_of(reserved, fair)),
        "violations": {
            scope: _violation_fields(_violations(fair, reserved, scope, t))
            for scope in ("department", "university")
        },
    }


def _table_rows(period, fair, res, bias) -> list[list]:
    """Long-format CSV rows for one period's tables, margins included."""
    rows = []
    depts, cats = (*fair.departments, _TOTAL), (*fair.categories, _TOTAL)
    for d, fair_row, res_row, bias_row in zip(depts, _grid(fair), _grid(res), bias.entries):
        for c, x, z, b in zip(cats, fair_row, res_row, bias_row):
            rows.append([period, "fair", d, c, float(x)])
            rows.append([period, "reservation", d, c, z])
            rows.append([period, "bias", d, c, float(b)])
    return rows


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise FlagError(f"cannot write {output}: {err.strerror or err}") from None


def _load_problem(args) -> ReservationProblem:
    return parse_problem_file(args.problem, parse_scheme_file(args.scheme))


def _cycled_roster(roster: Roster, needed: int) -> Roster:
    if len(roster) >= needed:
        return roster
    return replace(roster, assignment=tuple(islice(cycle(roster.assignment), needed)))


def _order_of(problem: ReservationProblem, name: str) -> tuple[str, ...]:
    return tuple(sorted(problem.departments)) if name == "alpha" else problem.departments


# --- round ----------------------------------------------------------------


def _cmd_round(args) -> str:
    problem = _load_problem(args)
    fair = build_fair_share_table(problem, args.period)
    rounded = controlled_round(fair, SplitStream(args.seed))
    if args.format == "json":
        return _json_report("round", args.seed, **_period_dict(args.period, fair, rounded))
    return _csv_text(_TABLE_HEADER, _table_rows(args.period, fair, rounded, bias_of(rounded, fair)))


# --- roster ---------------------------------------------------------------


# Most cells (periods x departments) ``compare --synthesize`` may build.
_CELL_LIMIT = 100_000
# Most replications ``compare`` may run; each costs milliseconds to seconds.
_REPLICATION_LIMIT = 1_000_000


def _cmd_roster(args) -> str:
    if args.length > _POSITION_LIMIT:
        raise FlagError(f"--length {args.length}: a roster may have at most {_POSITION_LIMIT:,} positions")
    scheme = parse_scheme_file(args.scheme)
    _check_height(scheme, args.height)
    roster = draw_roster(
        scheme,
        args.length,
        SplitStream(args.seed),
        args.policy,
        height=args.height,
    )
    if args.format == "json":
        return _json_report(
            "roster",
            args.seed,
            block_length=roster.block_length,
            extension_policy=roster.extension_policy,
            categories=list(roster.categories),
            assignment=list(roster.assignment),
        )
    return roster_lines(roster)


# --- run ------------------------------------------------------------------


def _solution_config(args, problem: ReservationProblem) -> tuple[SolutionConfig, Optional[int]]:
    order = _order_of(problem, args.order)
    if args.solution == "proposed":
        if args.seed is None:
            raise UsageError("the proposed solution requires --seed")
        _check_height(problem.scheme, args.height)
        return SolutionConfig("proposed", height=args.height), args.seed
    if args.roster is None:
        raise UsageError(f"the {args.solution} solution requires --roster")
    roster = parse_roster_file(args.roster, problem.scheme.categories)
    if args.cycle_roster:
        roster = _cycled_roster(roster, _positions_needed(problem, args.solution))
    return SolutionConfig(args.solution, roster=roster, order=order), args.seed


def _cmd_run(args) -> str:
    problem = _load_problem(args)
    config, seed = _solution_config(args, problem)
    trace = run_solution(problem, config, seed)
    if args.format == "json":
        return _json_report(
            "run",
            seed,
            solution=args.solution,
            order=list(_order_of(problem, args.order)),
            periods=[_period_dict(t, *tables) for t, tables in enumerate(trace.periods, 1)],
        )
    csv_rows = []
    for t, (fair, reserved) in enumerate(trace.periods, 1):
        csv_rows.extend(_table_rows(t, fair, reserved, bias_of(reserved, fair)))
        for scope in ("department", "university"):
            stats = _violations(fair, reserved, scope, t)
            for key, value in (("count", stats.count), ("max_possible", stats.max_possible),
                               ("percentage", float(stats.percentage))):
                csv_rows.append([t, "violations", scope, key, value])
    return _csv_text(_TABLE_HEADER, csv_rows)


# --- compare ----------------------------------------------------------------


def _synthesize_problem(args, scheme) -> ReservationProblem:
    stream = SplitStream(args.seed).child(_SUB_SYNTHESIZE)
    lo_m, hi_m = args.departments_range
    lo_q, hi_q = args.vacancies_range
    if lo_m < 2 or hi_m < lo_m:
        raise FlagError("--departments-range needs 2 <= LO <= HI")
    if lo_q < 0 or hi_q < lo_q:
        raise FlagError("--vacancies-range needs 0 <= LO <= HI")
    if args.periods * hi_q > _VACANCY_LIMIT:  # the limit a problem file is held to
        raise FlagError(
            f"--periods {args.periods} x --vacancies-range HI {hi_q}: "
            f"a department may have at most {_VACANCY_LIMIT:,} vacancies"
        )
    if args.periods * hi_m > _CELL_LIMIT:
        raise FlagError(
            f"--periods {args.periods} x --departments-range HI {hi_m}: "
            f"a synthesized problem may have at most {_CELL_LIMIT:,} cells"
        )
    if args.periods * hi_m * hi_q > _POSITION_LIMIT:
        raise FlagError(
            f"--periods {args.periods} x --departments-range HI {hi_m} x --vacancies-range HI {hi_q}: "
            f"a problem may have at most {_POSITION_LIMIT:,} vacancies"
        )
    m = lo_m + stream.randrange(hi_m - lo_m + 1)
    departments = tuple(f"d{i}" for i in range(1, m + 1))
    vacancies = tuple(
        tuple(lo_q + stream.randrange(hi_q - lo_q + 1) for _ in range(m))
        for _ in range(args.periods)
    )
    return ReservationProblem(departments, scheme, vacancies)


def _cmd_compare(args) -> str:
    if args.replications > _REPLICATION_LIMIT:
        raise FlagError(f"--replications {args.replications}: at most {_REPLICATION_LIMIT:,} allowed")
    scheme = parse_scheme_file(args.scheme)
    _check_height(scheme, args.height)
    if args.synthesize:
        if args.problem is not None:
            raise UsageError("--synthesize replaces the problem file; drop the positional argument")
        problem = _synthesize_problem(args, scheme)
    else:
        if args.problem is None:
            raise UsageError("compare needs a problem file (or --synthesize)")
        problem = parse_problem_file(args.problem, scheme)

    roster = None
    if args.roster is not None:
        roster = parse_roster_file(args.roster, scheme.categories)
        if args.cycle_roster:
            roster = _cycled_roster(roster, _positions_needed(problem, "government"))
    order = _order_of(problem, args.order)

    master = SplitStream(args.seed)
    series = []
    for kind, sub in (
        ("proposed", _SUB_PROPOSED),
        ("government", _SUB_GOVERNMENT),
        ("court", _SUB_COURT),
    ):
        config = SolutionConfig(
            kind,
            roster=roster if kind != "proposed" else None,
            order=order if kind == "government" else None,
            height=args.height,
        )
        grids = _replicate(problem, config, args.replications, master.child(sub))
        scale, counts = _lattice_counts(problem, grids)
        series.extend((kind, *key, _lattice_stats(counts[key])) for key in counts)
    series.sort()  # by solution, period and scope, each triple once
    den = 2 * scale  # the statistics' common denominator

    if args.format == "json":
        return _json_report(
            "compare",
            args.seed,
            replications=args.replications,
            synthesized=bool(args.synthesize),
            problem={
                "departments": list(problem.departments),
                "categories": list(scheme.categories),
                "periods": problem.periods,
                "vacancies": [list(row) for row in problem.vacancies],
            },
            series=[
                {
                    "solution": kind,
                    "period": t,
                    "scope": scope,
                    "count": count,
                    **{stat: _ratio(v, den) for stat, v in zip(_STATISTICS, values)},
                }
                for kind, t, scope, (count, *values) in series
            ],
        )
    rows = [
        [kind, t, scope, stat, v / den]  # int true division rounds as float(Fraction(v, den)) does
        for kind, t, scope, (_, *values) in series
        for stat, v in zip(_STATISTICS, values)
    ]
    return _csv_text(("solution", "period", "scope", "statistic", "value"), rows)


# --- parser -----------------------------------------------------------------


@lru_cache(maxsize=1)  # parsing leaves the parser as it was, and its prog is fixed
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reserve2d",
        description="Two-dimensional reservation tables: rounding, rosters, solutions, comparisons.",
    )
    parser.add_argument("--version", action="version", version=f"reserve2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--scheme": dict(required=True, help="scheme CSV (category,numerator,denominator)")}

    p_round = sub.add_parser("round", help="one controlled rounding of a fair share table")
    p_round.add_argument("problem", help="problem CSV (department,period,vacancies)")
    p_round.add_argument("--scheme", **common["--scheme"])
    p_round.add_argument("-t", "--period", type=_positive_int, required=True)
    p_round.add_argument("--seed", type=_seed_type, required=True)
    p_round.add_argument("--format", choices=("json", "csv"), default="json")
    p_round.add_argument("-o", "--output")
    p_round.set_defaults(func=_cmd_round)

    p_roster = sub.add_parser("roster", help="draw a roster from a scheme")
    p_roster.add_argument("scheme", help="scheme CSV (category,numerator,denominator)")
    p_roster.add_argument("--length", type=_positive_int, required=True)
    p_roster.add_argument("--seed", type=_seed_type, required=True)
    p_roster.add_argument("--policy", choices=_POLICIES, default=_POLICIES[0])
    p_roster.add_argument("--height", type=_positive_int, default=None)
    p_roster.add_argument("--format", choices=("csv", "json"), default="csv")
    p_roster.add_argument("-o", "--output")
    p_roster.set_defaults(func=_cmd_roster)

    p_run = sub.add_parser("run", help="run one solution over a problem")
    p_run.add_argument("problem")
    p_run.add_argument("--scheme", **common["--scheme"])
    p_run.add_argument(
        "--solution", choices=("government", "court", "proposed"), required=True
    )
    p_run.add_argument("--roster", help="roster CSV (required for government/court)")
    p_run.add_argument("--cycle-roster", action="store_true",
                       help="tile the roster if it is shorter than the run needs")
    p_run.add_argument("--seed", type=_seed_type, default=None)
    p_run.add_argument("--order", choices=("input", "alpha"), default="input")
    p_run.add_argument("--height", type=_positive_int, default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("-o", "--output")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare bias distributions of all three solutions")
    p_cmp.add_argument("problem", nargs="?", default=None)
    p_cmp.add_argument("--scheme", **common["--scheme"])
    p_cmp.add_argument("--roster", help="fixed roster for government/court (else drawn per replication)")
    p_cmp.add_argument("--cycle-roster", action="store_true")
    p_cmp.add_argument("--replications", type=_positive_int, default=1000)
    p_cmp.add_argument("--seed", type=_seed_type, required=True)
    p_cmp.add_argument("--order", choices=("input", "alpha"), default="input")
    p_cmp.add_argument("--height", type=_positive_int, default=None)
    p_cmp.add_argument("--synthesize", action="store_true",
                       help="generate a random problem instead of reading one")
    p_cmp.add_argument("--periods", type=_positive_int, default=9)
    p_cmp.add_argument("--departments-range", type=int, nargs=2, default=(8, 50),
                       metavar=("LO", "HI"))
    p_cmp.add_argument("--vacancies-range", type=int, nargs=2, default=(1, 30),
                       metavar=("LO", "HI"))
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.add_argument("-o", "--output")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.output)
        return 0
    except (ParseError, FlagError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PeriodRangeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except RosterLengthError as err:
        print(f"error: {err} (--cycle-roster tiles a shorter roster)", file=sys.stderr)
        return 4
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
