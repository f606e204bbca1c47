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
roster).  ``_EXIT_CODES`` maps each failure class to its code; ``main``
reports every failure as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from functools import cache, lru_cache
from itertools import chain, cycle, islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import __version__
from .analysis import BiasSummary, ViolationStats, _bias_series, _violations
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
    _csv_chunks,
    _ratio,
    parse_problem_file,
    parse_roster_file,
    parse_scheme_file,
    rational,
)
from .rng import ALGORITHM, SplitStream
from .rounding import controlled_round
from .solutions import RosterLengthError, SolutionConfig, _positions_needed, _replicate, run_solution
from .roster import build_scheme_table, draw_roster, minimal_height

__all__ = ["main"]

# Child-stream indices of the master seed, one per random consumer, so that
# e.g. adding replications never shifts another consumer's draws.
_SUB_PROPOSED, _SUB_GOVERNMENT, _SUB_COURT, _SUB_SYNTHESIZE = 0, 1, 2, 3

_TOTAL = "total"
# The CSV header of the round and run reports.
_TABLE_HEADER = ("period", "table", "department", "category", "value")
# Summary statistics in report order: the BiasSummary fields after period, scope, count.
_STATISTICS = tuple(f.name for f in fields(BiasSummary))[3:]
# The fields of a compare series row, in the order its values are given.
_SERIES = ("solution", "period", "scope", "count", *_STATISTICS)


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


def _json_report(command: str, seed: Optional[int], **body) -> Iterator[str]:
    """A JSON report in chunks: the command, its metadata, then ``body``."""
    meta = {"package": f"reserve2d {__version__}", "generator": ALGORITHM}
    if seed is not None:
        meta["seed"] = seed
    return chain(_json_chunks({"command": command, "metadata": meta, **body}), "\n")


def _json_chunks(value, pad: str = "\n") -> Iterator[str]:
    """``_json(value, pad)``, a dict entry at a time; a callable is a list, given its items' pad, of their texts."""
    inner = pad + "  "
    if callable(value):
        sep = "["
        for text in value(inner):
            yield sep + inner + text
            sep = ","
        yield "[]" if sep == "[" else pad + "]"
    elif type(value) is dict and value:
        sep = "{"
        for key, item in sorted(value.items()):
            yield sep + inner + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(item, inner)
            sep = ","
        yield pad + "}"
    else:
        yield _json(value, pad)


def _row_format(names: Sequence[str], pad: str) -> str:
    """A format string writing ``_json`` of the dict of ``names`` at ``pad``, given its values' JSON texts in order."""
    inner = pad + "  "
    items = [f"{encode_basestring_ascii(name)}: {{{names.index(name)}}}" for name in sorted(names)]
    return "{{" + inner + ("," + inner).join(items) + pad + "}}"


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``pad``, built directly for strings,
    ints, bools, None, lists and str-keyed dicts (``indent`` would make ``json.dumps`` use its
    pure-Python encoder throughout); anything else (floats, tuples) goes to ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "true" if value else "null" if value is None else "false"
    inner = pad + "  "
    if kind is list:
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]" if value else "[]"
    if kind is dict and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if value else "{}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _table_dict(table: Union[FairShareTable, ReservationTable, BiasTable]) -> dict:
    """A table's departments, categories and exact entries, then its margins unless it is a bias table."""
    entries = {"departments": list(table.departments), "categories": list(table.categories),
               "entries": [[rational(v) for v in row] for row in table.entries]}
    if isinstance(table, BiasTable):
        return entries
    return {**entries, "row_totals": list(table.row_totals),
            "column_totals": [rational(v) for v in table.column_totals], "grand_total": table.grand_total}


def _violation_fields(stats: ViolationStats) -> dict:
    def exact(value):
        return None if value is None else rational(value)

    return {
        "count": stats.count,
        "max_possible": stats.max_possible,
        "percentage": rational(stats.percentage),
        "cells": [{"department": v.department, "category": v.category, "reserved": v.reserved, "fair": rational(v.fair)}
                  for v in stats.violations],
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
        "bias": _table_dict(bias_of(reserved, fair)),
        "violations": {scope: _violation_fields(_violations(fair, reserved, scope, t))
                       for scope in ("department", "university")},
    }


def _table_rows(period, fair, res, bias) -> Iterator[tuple]:
    """Long-format CSV rows for one period's tables, margins included, made as they are written."""
    depts, cats = (*fair.departments, _TOTAL), (*fair.categories, _TOTAL)
    for d, fair_row, res_row, bias_row in zip(depts, _grid(fair), _grid(res), bias.entries):
        for c, x, z, b in zip(cats, fair_row, res_row, bias_row):
            yield period, "fair", d, c, float(x)
            yield period, "reservation", d, c, z
            yield period, "bias", d, c, float(b)


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write each chunk as it comes, to stdout or to ``output``.  A file is written under a temporary name beside it
    and moved into place at the end, so a failed or interrupted report leaves none; a pipe or device is written to."""
    if output is None:
        return sys.stdout.writelines(chunks)
    special = os.path.exists(output) and not (os.path.isfile(output) or os.path.isdir(output))
    target = os.path.realpath(output) if os.path.islink(output) else output  # a link is written through
    temp = output if special else f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        if temp != output:
            os.replace(temp, target)
    except BaseException as err:
        if temp != output and os.path.exists(temp):
            os.remove(temp)
        if isinstance(err, OSError):
            raise FlagError(f"cannot write {output}: {err.strerror or err}") from None
        raise


def _load_problem(args) -> ReservationProblem:
    return parse_problem_file(args.problem, parse_scheme_file(args.scheme))


def _roster(args, problem: ReservationProblem, kind: str) -> Optional[Roster]:
    """The ``--roster`` file, or None without one; ``--cycle-roster`` tiles it to the positions a ``kind`` run reads."""
    if args.roster is None:
        return None
    roster = parse_roster_file(args.roster, problem.scheme.categories)
    if args.cycle_roster and len(roster) < (needed := _positions_needed(problem, kind)):
        roster = replace(roster, assignment=tuple(islice(cycle(roster.assignment), needed)))
    return roster


def _order_of(problem: ReservationProblem, name: str) -> tuple[str, ...]:
    return tuple(sorted(problem.departments)) if name == "alpha" else problem.departments


# --- round ----------------------------------------------------------------


def _cmd_round(args) -> Iterable[str]:
    problem = _load_problem(args)
    fair = build_fair_share_table(problem, args.period)
    rounded = controlled_round(fair, SplitStream(args.seed))
    if args.format == "json":
        return _json_report("round", args.seed, **_period_dict(args.period, fair, rounded))
    return _csv_chunks(_TABLE_HEADER, _table_rows(args.period, fair, rounded, bias_of(rounded, fair)))


# --- roster ---------------------------------------------------------------


# Most cells (periods x departments) ``compare --synthesize`` may build.
_CELL_LIMIT = 100_000
# Most replications ``compare`` may run; each costs milliseconds to seconds.
_REPLICATION_LIMIT = 1_000_000


def _cmd_roster(args) -> Iterable[str]:
    if args.length > _POSITION_LIMIT:
        raise FlagError(f"--length {args.length}: a roster may have at most {_POSITION_LIMIT:,} positions")
    scheme = parse_scheme_file(args.scheme)
    _check_height(scheme, args.height)
    roster = draw_roster(scheme, args.length, SplitStream(args.seed), args.policy, height=args.height)
    if args.format == "csv":
        return _csv_chunks(("index", "category"), enumerate(roster.assignment, start=1))
    text, positions = {c: _json(c) for c in roster.categories}.__getitem__, roster.assignment
    return _json_report("roster", args.seed, block_length=roster.block_length,
                        extension_policy=roster.extension_policy, categories=list(roster.categories),
                        assignment=lambda pad: (("," + pad).join(map(text, positions[k:k + 1024]))
                                                for k in range(0, len(positions), 1024)))  # one chunk a position: 2x slower


# --- run ------------------------------------------------------------------


def _solution_config(args, problem: ReservationProblem) -> tuple[SolutionConfig, Optional[int]]:
    order = _order_of(problem, args.order)
    if args.solution == "proposed":
        if args.seed is None:
            raise UsageError("the proposed solution requires --seed")
        _check_height(problem.scheme, args.height)
        return SolutionConfig("proposed", height=args.height), args.seed
    roster = _roster(args, problem, args.solution)
    if roster is None:
        raise UsageError(f"the {args.solution} solution requires --roster")
    return SolutionConfig(args.solution, roster=roster, order=order), args.seed


def _cmd_run(args) -> Iterable[str]:
    problem = _load_problem(args)
    config, seed = _solution_config(args, problem)
    trace = run_solution(problem, config, seed)
    if args.format == "json":
        periods = enumerate(trace.periods, 1)  # each period is made and written in turn
        return _json_report("run", seed, solution=args.solution, order=list(_order_of(problem, args.order)),
                            periods=lambda pad: (_json(_period_dict(t, *tables), pad) for t, tables in periods))

    def rows():  # each period's table rows, then its violation rows
        for t, (fair, reserved) in enumerate(trace.periods, 1):
            yield from _table_rows(t, fair, reserved, bias_of(reserved, fair))
            for scope in ("department", "university"):
                stats = _violations(fair, reserved, scope, t)
                for key, value in (("count", stats.count), ("max_possible", stats.max_possible),
                                   ("percentage", float(stats.percentage))):
                    yield t, "violations", scope, key, value

    return _csv_chunks(_TABLE_HEADER, rows())


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


def _cmd_compare(args) -> Iterable[str]:
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

    roster = _roster(args, problem, "government")
    order = _order_of(problem, args.order)

    master = SplitStream(args.seed)
    runs = {  # every runner is built, and every roster checked, before the first byte is written
        kind: _replicate(problem, SolutionConfig(kind, roster=roster if kind != "proposed" else None,
                                                 order=order if kind == "government" else None, height=args.height),
                         args.replications, master.child(sub))
        for kind, sub in (("proposed", _SUB_PROPOSED), ("government", _SUB_GOVERNMENT), ("court", _SUB_COURT))
    }
    # (solution, period, scope, statistics) in report order, one solution's counts held at a time
    series = ((kind, *row) for kind, grids in sorted(runs.items()) for row in _bias_series(problem, grids))
    den = 2 * minimal_height(scheme)  # the statistics' common denominator
    if args.format == "csv":
        rows = (
            (kind, t, scope, stat, v / den)  # int true division rounds as float(Fraction(v, den)) does
            for kind, t, scope, (_, *values) in series
            for stat, v in zip(_STATISTICS, values)
        )
        return _csv_chunks(("solution", "period", "scope", "statistic", "value"), rows)

    def rows(pad: str) -> Iterator[str]:
        row, text = _row_format(_SERIES, pad).format, cache(lambda v: _json(_ratio(v, den)))
        for kind, t, scope, (count, *values) in series:
            yield row(f'"{kind}"', t, f'"{scope}"', count, *map(text, values))

    return _json_report("compare", args.seed, replications=args.replications, synthesized=bool(args.synthesize),
                        problem={"departments": list(problem.departments), "categories": list(scheme.categories),
                                 "periods": problem.periods,
                                 "vacancies": lambda pad: (_json(list(row), pad) for row in problem.vacancies)},
                        series=rows)


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
    p_round.set_defaults(func=_cmd_round)

    p_roster = sub.add_parser("roster", help="draw a roster from a scheme")
    p_roster.add_argument("scheme", help="scheme CSV (category,numerator,denominator)")
    p_roster.add_argument("--length", type=_positive_int, required=True)
    p_roster.add_argument("--seed", type=_seed_type, required=True)
    p_roster.add_argument("--policy", choices=_POLICIES, default=_POLICIES[0])
    p_roster.add_argument("--height", type=_positive_int, default=None)
    p_roster.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p_cmp.set_defaults(func=_cmd_compare)
    for command in (p_round, p_roster, p_run, p_cmp):
        command.add_argument("-o", "--output")
    return parser


# The exit code of each failure ``main`` reports, and the hint it adds to the message.
_EXIT_CODES = {ParseError: (2, ""), FlagError: (2, ""), PeriodRangeError: (3, ""),
               RosterLengthError: (4, " (--cycle-roster tiles a shorter roster)"), UsageError: (4, "")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.output)
        return 0
    except tuple(_EXIT_CODES) as err:
        code, hint = next(_EXIT_CODES[cls] for cls in type(err).__mro__ if cls in _EXIT_CODES)
        print(f"error: {err}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
