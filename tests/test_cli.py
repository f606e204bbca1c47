"""End-to-end tests of the command-line interface.

Most tests call ``main(argv)`` in-process and inspect stdout/stderr via
capsys; two tests run the CLI in a subprocess, through ``python -m
reserve2d`` and through the installed ``reserve2d`` console script, to make
sure the entry points themselves work.  ``FAILURES`` lists every failure a
user can reach, each checked by one test for its exit code and its one
``error:`` line.
"""

import csv
import io
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reserve2d
from reserve2d import analysis, cli
from reserve2d.cli import main
from reserve2d.fileio import parse_roster_file

from conftest import time_limit

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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Example input files: a 1/3-2/3 scheme, four departments over three
    periods with vacancies (2, 1, 2, 1), and rosters where every third
    position is c1."""
    root = tmp_path_factory.mktemp("cli")
    scheme = root / "scheme.csv"
    scheme.write_text("category,numerator,denominator\nc1,1,3\nc2,2,3\n")
    problem = root / "problem.csv"
    lines = ["department,period,vacancies"]
    for t in (1, 2, 3):
        for d, q in zip("1234", (2, 1, 2, 1)):
            lines.append(f"d{d},{t},{q}")
    problem.write_text("\n".join(lines) + "\n")

    def roster_text(length):
        rows = ["index,category"]
        for p in range(1, length + 1):
            rows.append(f"{p},{'c1' if p % 3 == 0 else 'c2'}")
        return "\n".join(rows) + "\n"

    roster18 = root / "roster18.csv"
    roster18.write_text(roster_text(18))
    roster3 = root / "roster3.csv"
    roster3.write_text(roster_text(3))
    return {
        "root": root,
        "scheme": str(scheme),
        "problem": str(problem),
        "roster18": str(roster18),
        "roster3": str(roster3),
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ basics


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("reserve2d ")


def test_parser_is_built_once_and_parses_each_call_afresh(capsys, files):
    """The one parser per process prints the same help and usage error on
    every call, and one call's options do not carry into the next."""
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["roster", files["scheme"], "--length", "0", "--seed", "1"]):
            with pytest.raises(SystemExit):
                main(argv)
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]
    assert outputs[0].out.startswith("usage: reserve2d ")
    assert outputs[1].err.startswith("usage: reserve2d roster ") and "--length" in outputs[1].err
    assert cli._build_parser() is cli._build_parser()
    parse = cli._build_parser().parse_args
    first = parse(["roster", files["scheme"], "--length", "3", "--seed", "1", "--height", "6"])
    again = parse(["roster", files["scheme"], "--length", "3", "--seed", "1"])
    assert first.height == 6 and again.height is None


# ---------------------------------------------------------------- failures

# Input files the failure rows name as {placeholders}; each is written to tmp_path (bytes as they are).
BAD_FILES = {
    "letters": "department,period,vacancies\nd1,1,x\nd2,1,1\n",
    "gap": "department,period,vacancies\nd1,1,2\nd2,1000000000000,1\n",
    "nameless": "department,period,vacancies\n,1,2\nd2,1,1\n",
    "two_fields": "department,period,vacancies\nd1,1\n",
    "latin1": "department,period,vacancies\nd\xe9pt,1,2\n".encode("latin-1"),
    "header_only": "department,period,vacancies\n",
    "crowded": "department,period,vacancies\nd1,1,1000000000\nd2,1,1\n",
    "eleven": "department,period,vacancies\n" + "".join(f"d{i},1,100000\n" for i in range(1, 12)),
    "tiny": "category,numerator,denominator\nc1,1e-99999999,\nc2,1,\n",
    "uncategorized": "category,numerator,denominator\n,1,3\nc2,2,3\n",
    "wide": "category,numerator,denominator\nc1,1,999983\nc2,999982,999983\n",  # height 999983
    "blank_position": "index,category\n1,c2\n2,\n",
    "no_positions": "index,category\n",
    "three_fields": "index,category\n1,c2,x\n",
}
SYNTH = "compare --scheme {scheme} --synthesize --replications 1 --seed 1"
# A synthesized problem of at most P periods x M departments x Q vacancies, filled in with % (P, M, M, Q, Q).
SIZED = SYNTH + " --periods %d --departments-range %d %d --vacancies-range %d %d"
# (id, argv, exit code, start of the one stderr line, text that line holds).  The argv, start and text are formatted
# with the ``files`` fixture, the paths of BAD_FILES and ``tmp`` (tmp_path).  A start of "usage: " marks a flag that
# argparse refuses itself.
FAILURES = [
    ("unknown-choice", "run {problem} --scheme {scheme} --solution lottery", 2,
     "usage: reserve2d run", "invalid choice: 'lottery'"),
    ("letters-for-vacancies", "round {letters} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {letters}:2:", "vacancies must be an integer"),
    ("huge-period-gap", "round {gap} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {gap}:3:", "periods must be contiguous"),
    ("empty-department", "round {nameless} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {nameless}:2:", "department identifier is empty"),
    ("problem-row-of-two-fields", "round {two_fields} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {two_fields}:2:", "expected 3 fields, got 2"),
    ("problem-not-utf8", "round {latin1} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {latin1}:0:", "cannot read file"),
    ("problem-of-only-a-header", "round {header_only} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {header_only}:1:", "no vacancy rows found"),
    ("department-vacancies-past-the-limit-proposed", "run {crowded} --scheme {scheme} --solution proposed --seed 1", 2,
     "error: {crowded}:2:", "over 100,000 vacancies"),
    ("department-vacancies-past-the-limit-court",
     "run {crowded} --scheme {scheme} --solution court --cycle-roster --roster {roster3}", 2,
     "error: {crowded}:2:", "over 100,000 vacancies"),
    ("problem-total-past-the-limit-round", "round {eleven} --scheme {scheme} -t 1 --seed 1", 2,
     "error: {eleven}:12:", "has over 1,000,000 vacancies"),
    ("problem-total-past-the-limit-run", "run {eleven} --scheme {scheme} --solution proposed --seed 1", 2,
     "error: {eleven}:12:", "has over 1,000,000 vacancies"),
    ("oversized-decimal-in-scheme", "roster {tiny} --length 5 --seed 1", 2,
     "error: {tiny}:2:", "exponent over 100"),
    ("empty-scheme-category", "roster {uncategorized} --length 3 --seed 1", 2,
     "error: {uncategorized}:2:", "category identifier is empty"),
    ("empty-roster-category", "run {problem} --scheme {scheme} --solution government --roster {blank_position}", 2,
     "error: {blank_position}:3:", "category identifier is empty"),
    ("roster-without-positions", "run {problem} --scheme {scheme} --solution court --roster {no_positions}", 2,
     "error: {no_positions}:1:", "roster has no positions"),
    ("roster-row-of-three-fields", "run {problem} --scheme {scheme} --solution government --roster {three_fields}", 2,
     "error: {three_fields}:2:", "expected 2 fields, got 3"),
    ("roster-bad-height", "roster {scheme} --length 5 --seed 1 --height 4", 2,
     "error: --height 4:", "smallest valid height is 3"),
    ("run-proposed-bad-height", "run {problem} --scheme {scheme} --solution proposed --seed 1 --height 5", 2,
     "error: --height 5:", "smallest valid height is 3"),
    ("compare-bad-height", "compare {problem} --scheme {scheme} --replications 2 --seed 1 --height 1", 2,
     "error: --height 1:", "at least 2"),
    ("explicit-height-past-the-limit", "roster {scheme} --length 5 --seed 1 --height 3000000", 2,
     "error: --height 3000000:", "more than 50,000 cells"),
    ("scheme-height-past-the-limit-roster", "roster {wide} --length 5 --seed 1", 2,
     "error: a scheme table of height 999983", "more than 50,000 cells"),
    ("scheme-height-past-the-limit-run", "run {problem} --scheme {wide} --solution proposed --seed 1", 2,
     "error: a scheme table of height 999983", "more than 50,000 cells"),
    ("scheme-height-past-the-limit-compare", "compare {problem} --scheme {wide} --replications 2 --seed 1", 2,
     "error: a scheme table of height 999983", "more than 50,000 cells"),
    ("roster-length-past-the-limit", "roster {scheme} --length 1000000000000 --seed 1", 2,
     "error: --length 1000000000000:", "at most 1,000,000 positions"),
    ("replications-past-the-limit", "compare {problem} --scheme {scheme} --replications 1000001 --seed 1", 2,
     "error: --replications 1000001:", "at most 1,000,000 allowed"),
    ("output-into-missing-directory", "round {problem} --scheme {scheme} -t 1 --seed 1 -o {tmp}/missing/report.json", 2,
     "error: cannot write {tmp}/missing/report.json:", "No such file or directory"),
    ("output-onto-a-directory", "round {problem} --scheme {scheme} -t 1 --seed 1 -o {tmp}", 2,
     "error: cannot write {tmp}:", "Is a directory"),
    *((f"synthesized-vacancies-past-the-limit-{periods}x{hi}", SIZED % (periods, 2, 2, hi, hi), 2,
       f"error: --periods {periods} x --vacancies-range HI {hi}:", "at most 100,000 vacancies")
      for periods, hi in ((2, 50_001), (10**12, 1), (1, 10**18))),
    *((f"synthesized-cells-past-the-limit-{periods}x{m}", SIZED % (periods, m, m, 0, 0), 2,
       f"error: --periods {periods} x --departments-range HI {m}:", "at most 100,000 cells")
      for periods, m in ((2, 50_001), (10**12, 2), (1, 10**9))),
    ("synthesized-total-past-the-limit", SIZED % (1, 101, 101, 9901, 9901), 2,
     "error: --periods 1 x --departments-range HI 101 x --vacancies-range HI 9901:", "at most 1,000,000 vacancies"),
    *((f"synthesize{flag}-{lo}-{hi}", f"{SYNTH} {flag} {lo} {hi}", 2, f"error: {flag} needs", f"{least} <= LO <= HI")
      for flag, least, lo, hi in (("--departments-range", 2, 5, 2), ("--departments-range", 2, 1, 3),
                                  ("--vacancies-range", 0, -1, 3), ("--vacancies-range", 0, 4, 3))),
    ("period-past-the-horizon", "round {problem} --scheme {scheme} -t 9 --seed 1", 3,
     "error: period 9 out of range", "problem has periods 1..3"),
    ("government-without-roster", "run {problem} --scheme {scheme} --solution government", 4,
     "error: the government solution requires", "--roster"),
    ("proposed-without-seed", "run {problem} --scheme {scheme} --solution proposed", 4,
     "error: the proposed solution requires", "--seed"),
    ("short-roster-without-cycling", "run {problem} --scheme {scheme} --solution government --roster {roster3}", 4,
     "error: government run needs 18 roster positions, roster has 3", "(--cycle-roster tiles a shorter roster)"),
    ("compare-short-roster-to-a-file",
     "compare {problem} --scheme {scheme} --roster {roster3} --replications 2 --seed 1 -o {tmp}/report.csv", 4,
     "error: government run needs 18 roster positions, roster has 3", "(--cycle-roster tiles a shorter roster)"),
    ("compare-without-problem", "compare --scheme {scheme} --seed 1", 4,
     "error: compare needs a problem file", "--synthesize"),
    ("compare-problem-and-synthesize", "compare {problem} --scheme {scheme} --synthesize --seed 1", 4,
     "error: --synthesize replaces the problem file", "drop the positional argument"),
]


@pytest.mark.parametrize("argv, code, start, text", [row[1:] for row in FAILURES], ids=[row[0] for row in FAILURES])
def test_failure_exits_with_its_code_and_one_error_line(capsys, files, tmp_path, argv, code, start, text):
    """Each row exits with its code within 5 s, writes nothing to stdout and one line, with no traceback, to stderr
    (argparse: its usage, then its error line).  A row that names ``-o`` leaves neither a report file nor a
    temporary file beside it.  A new failure is a row, not a test."""
    names = {**files, "tmp": tmp_path}
    for name, content in BAD_FILES.items():
        names[name] = path = tmp_path / f"{name}.csv"
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    argv, start, text = [a.format(**names) for a in argv.split()], start.format(**names), text.format(**names)
    output = argv[argv.index("-o") + 1] if "-o" in argv else None

    def beside():  # the names in the directory the -o file would go in, if that directory exists
        folder = os.path.dirname(output)
        return sorted(os.listdir(folder)) if os.path.isdir(folder) else None

    before = output and beside()
    refused = start.startswith("usage: ")  # argparse writes its usage lines, then its error line
    with time_limit(5):
        if refused:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            exit_code = exc.value.code
        else:
            exit_code = main(argv)
    out, err = capsys.readouterr()
    assert (exit_code, out) == (code, "")
    assert err.startswith(start) and text in err.splitlines()[-1] and "Traceback" not in err
    assert refused or err.count("\n") == 1
    assert output is None or (not os.path.isfile(output) and beside() == before)


def _row(row_id):
    """The argv, exit code, start and text of the FAILURES row ``row_id``."""
    return next(row[1:] for row in FAILURES if row[0] == row_id)


# The limit tests below keep their names and check their FAILURES rows through the one test above.
@pytest.mark.parametrize("solution", ["proposed", "court"], ids=["flags0", "flags1"])
def test_vacancies_past_the_limit_exit_two(capsys, files, tmp_path, solution):
    row = _row(f"department-vacancies-past-the-limit-{solution}")
    test_failure_exits_with_its_code_and_one_error_line(capsys, files, tmp_path, *row)


@pytest.mark.parametrize("periods, hi", [(2, 50_001), (10**12, 1), (1, 10**18)])
def test_synthesized_vacancies_past_the_limit_exit_two(capsys, files, tmp_path, periods, hi):
    row = _row(f"synthesized-vacancies-past-the-limit-{periods}x{hi}")
    test_failure_exits_with_its_code_and_one_error_line(capsys, files, tmp_path, *row)


@pytest.mark.parametrize("periods, departments", [(2, 50_001), (10**12, 2), (1, 10**9)])
def test_synthesized_cells_past_the_limit_exit_two(capsys, files, tmp_path, periods, departments):
    row = _row(f"synthesized-cells-past-the-limit-{periods}x{departments}")
    test_failure_exits_with_its_code_and_one_error_line(capsys, files, tmp_path, *row)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.integers(), inner)
    ),
    max_leaves=40,
)


# Compare series rows, whose statistics are ints, negative numerators and "p/q" strings, as ``_ratio`` writes them.
_SERIES_ROWS = st.tuples(
    st.sampled_from(("court", "government", "proposed")), st.integers(1, 10**6),
    st.sampled_from(("department", "university")), st.integers(1, 10**9),
    st.lists(st.builds(cli._ratio, st.integers(-10**6, 10**6), st.integers(1, 400)), min_size=7, max_size=7),
).map(lambda row: dict(zip(cli._SERIES, (*row[:4], *row[4]))))


@given(value=_JSON_VALUES | _SERIES_ROWS)
@example(value={"d\u00e9pt \u2603": ["1/3", 7, -0.5, float("nan"), True, None, [], {}], "a": {"\U0001f600": [[]]}})
@example(value=[{"x": 1.0, "y": float("inf")}, ("t", 2), {3: "three", 1: "one"}])
@example(value=dict(zip(cli._SERIES, ("court", 3, "university", 6, -1, "-1/3", 0, "1/6", "5/2", -2, "-7/6"))))
def test_json_writer_writes_what_the_indented_encoder_writes(value):
    """``cli._json`` writes the bytes of ``json.dumps(value, indent=2, sort_keys=True)``: ``ensure_ascii``
    escapes, floats, empty and nested containers, tuples and non-string keys included.  ``compare``'s
    series-row format writes what ``cli._json`` writes of the row at the series pad and at the top."""
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)
    if type(value) is dict and list(value) == list(cli._SERIES):
        texts = [cli._json(value[name]) for name in cli._SERIES]
        for pad in ("\n    ", "\n"):
            assert cli._row_format(cli._SERIES, pad).format(*texts) == cli._json(value, pad)


def test_json_reports_are_written_without_the_encoder(monkeypatch, capsys, files):
    """The ``compare``, ``run`` and ``round`` JSON reports, with their ``true``, ``false``, ``null`` and
    empty lists, are written without calling ``json.dumps``, which builds an encoder per call."""
    argvs = (
        ["compare", "--scheme", files["scheme"], "--synthesize", "--periods", "2", "--departments-range", "2", "3",
         "--replications", "2", "--seed", "5", "--format", "json"],
        ["compare", files["problem"], "--scheme", files["scheme"], "--replications", "2", "--seed", "1",
         "--format", "json"],
        ["run", files["problem"], "--scheme", files["scheme"], "--solution", "proposed", "--seed", "3"],
        ["round", files["problem"], "--scheme", files["scheme"], "-t", "2", "--seed", "11"],
    )
    expected = [run_cli(capsys, *argv)[1] for argv in argvs]

    def refuse(value, *args, **kwargs):
        raise AssertionError(f"json.dumps({value!r})")

    monkeypatch.setattr(json, "dumps", refuse)
    outs = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.undo()
    assert [(code, err) for code, _, err in outs] == [(0, "")] * len(argvs)
    assert [out for _, out, _ in outs] == expected
    written = "".join(expected)
    assert all(literal in written for literal in (": true", ": false", ": null", ": []")), written


class LargestWrite(io.StringIO):
    """A stdout that records the length of its largest single write."""

    largest = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        return super().write(text)


def test_large_reports_are_written_in_bounded_pieces(monkeypatch, files, tmp_path):
    """A compare of 3,000 periods (JSON and CSV), a run of 2,000 periods (JSON) and rosters of about 200,000
    positions (JSON and CSV), each over ten times the 64 KiB bound, are written at most 64 KiB at a time, as they
    are made.  Each JSON text is what the indented encoder writes, a roster's JSON holds the positions its CSV
    does, and ``-o`` writes the bytes stdout gets."""
    problem = tmp_path / "long.csv"
    draw = iter(random.Random(5).choices(range(3), k=3 * 2000))
    problem.write_text("department,period,vacancies\n" + "".join(
        f"d{d},{t},{next(draw)}\n" for t in range(1, 2001) for d in (1, 2, 3)))
    compare = ["compare", "--scheme", files["scheme"], "--synthesize", "--periods", "3000",
               "--departments-range", "2", "2", "--vacancies-range", "0", "2", "--replications", "1", "--seed", "9"]
    roster = ["roster", files["scheme"], "--seed", "9", "--length"]  # 200,704 is 196 JSON chunks of 1,024
    argvs = ([*compare, "--format", "json"], [*compare, "--format", "csv"],
             ["run", str(problem), "--scheme", files["scheme"], "--solution", "proposed", "--seed", "9"],
             [*roster, "200704", "--format", "json"], [*roster, "200000", "--format", "json"],
             [*roster, "200000", "--format", "csv"])
    texts = []
    for argv in argvs:
        out = LargestWrite()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        monkeypatch.undo()
        texts.append(out.getvalue())
        assert len(texts[-1]) > 10 * 64 * 1024 and 0 < out.largest <= 64 * 1024, (argv[0], out.largest)
    for argv, text in zip(argvs, texts):  # compared line by line: pytest's diff of two long strings takes minutes
        if "csv" not in argv:
            assert text.split("\n") == (json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n").split("\n"), argv
    positions = [line.split(",")[1] for line in texts[5].splitlines()[1:]]  # the same roster, JSON and CSV
    assert json.loads(texts[4])["assignment"] == positions and len(positions) == 200000
    target = tmp_path / "out" / "report.json"
    target.parent.mkdir()
    assert main([*argvs[0], "-o", str(target)]) == 0
    assert os.listdir(target.parent) == ["report.json"] and target.read_text() == texts[0]


def test_an_interrupted_report_leaves_the_output_as_it_was(tmp_path):
    """A report stopped after its first chunk, by an error or an interrupt, leaves no file where there was none
    and an existing file as it was, with no temporary file beside either."""

    def stopped(error):
        yield "partial"
        raise error

    for name, error in (("new.json", KeyboardInterrupt()), ("old.json", ValueError("stop"))):
        target = tmp_path / name
        if name == "old.json":
            target.write_text("the last report\n")
        with pytest.raises(type(error)):
            cli._emit(stopped(error), str(target))
    assert os.listdir(tmp_path) == ["old.json"] and (tmp_path / "old.json").read_text() == "the last report\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_output_to_a_pipe_is_written_through_it(capsys, files, tmp_path):
    """``-o`` naming a pipe writes the report into the pipe and leaves it a pipe: only a file is replaced."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_text()), daemon=True)  # opens when a writer does
    reader.start()
    argv = ["roster", files["scheme"], "--length", "5", "--seed", "1"]
    assert main([*argv, "-o", str(pipe)]) == 0
    reader.join(5)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode) and os.listdir(tmp_path) == ["pipe"]
    assert read == [run_cli(capsys, *argv)[1]]


# ------------------------------------------------------------------- round


def test_round_json_report(capsys, files):
    code, out, err = run_cli(
        capsys, "round", files["problem"], "--scheme", files["scheme"],
        "-t", "2", "--seed", "11",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["command"] == "round"
    assert report["metadata"]["seed"] == 11
    fair = report["fair_share"]
    assert fair["entries"][0] == ["4/3", "8/3"]
    assert fair["column_totals"] == [4, 8]
    reservation = report["reservation"]
    assert reservation["row_totals"] == [4, 2, 4, 2]
    assert reservation["column_totals"] == [4, 8]
    # a controlled rounding satisfies both quota rules by construction
    assert report["violations"]["department"]["count"] == 0
    assert report["violations"]["university"]["count"] == 0
    assert report["violations"]["department"]["max_possible"] == 8
    assert report["violations"]["university"]["max_possible"] == 2


def test_round_deterministic_and_output_file(capsys, files, tmp_path):
    argv = ["round", files["problem"], "--scheme", files["scheme"],
            "-t", "1", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2

    target = tmp_path / "report.json"
    code3, out3, _ = run_cli(capsys, *argv, "-o", str(target))
    assert code3 == 0
    assert out3 == ""
    assert target.read_text() == out1


def test_round_csv_shape(capsys, files):
    code, out, _ = run_cli(
        capsys, "round", files["problem"], "--scheme", files["scheme"],
        "-t", "1", "--seed", "5", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["period", "table", "department", "category", "value"]
    # 4x2 cells, row totals, column totals, grand total -- three tables each
    assert len(rows) - 1 == 3 * (4 * 2 + 4 + 2 + 1)
    assert rows[1] == ["1", "fair", "d1", "c1", str(2 / 3)]
    grand = [r for r in rows if r[2] == "total" and r[3] == "total"]
    assert [r[1] for r in grand] == ["fair", "reservation", "bias"]
    assert grand[0][4] == "6.0" and grand[1][4] == "6"


# ------------------------------------------------------------------ roster


def test_roster_csv_roundtrip_and_block_structure(capsys, files, tmp_path):
    argv = ["roster", files["scheme"], "--length", "18", "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "index,category"

    path = tmp_path / "drawn.csv"
    path.write_text(out)
    roster = parse_roster_file(str(path), ("c1", "c2"))
    assert len(roster) == 18
    # the file format carries no block metadata, only the assignment
    assert roster.block_length == 0
    # drawn as independent blocks of three: each block holds one c1
    for start in range(0, 18, 3):
        block = roster.assignment[start : start + 3]
        assert block.count("c1") == 1 and block.count("c2") == 2

    _, again, _ = run_cli(capsys, *argv)
    assert again == out


def test_roster_json_format(capsys, files):
    code, out, _ = run_cli(
        capsys, "roster", files["scheme"], "--length", "7", "--seed", "2",
        "--policy", "repeat-block", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "roster"
    assert report["block_length"] == 3
    assert report["extension_policy"] == "repeat-block"
    assert report["categories"] == ["c1", "c2"]
    assert len(report["assignment"]) == 7
    # repeat-block tiles the first block
    first = report["assignment"][:3]
    assert report["assignment"][3:6] == first
    assert report["assignment"][6] == first[0]


def test_roster_output_feeds_run(capsys, files, tmp_path):
    target = tmp_path / "roster.csv"
    code, out, _ = run_cli(
        capsys, "roster", files["scheme"], "--length", "18", "--seed", "4",
        "-o", str(target),
    )
    assert (code, out) == (0, "")
    code, out, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "government", "--roster", str(target),
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["solution"] == "government"
    assert report["periods"][2]["reservation"]["row_totals"] == [6, 3, 6, 3]


def test_roster_of_a_million_positions_is_written(capsys, files):
    """``--length`` at its limit draws; one past it is a row of FAILURES."""
    code, out, _ = run_cli(capsys, "roster", files["scheme"], "--length", "1000000", "--seed", "1")
    assert code == 0 and out.count("\n") == 1_000_001


# --------------------------------------------------------------------- run


def test_run_government_matches_known_tables(capsys, files):
    code, out, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "government", "--roster", files["roster18"],
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["solution"] == "government"
    assert report["order"] == ["d1", "d2", "d3", "d4"]
    assert "seed" not in report["metadata"]
    tables = [p["reservation"]["entries"] for p in report["periods"]]
    assert tables == [[list(r) for r in t] for t in GOVERNMENT_TABLES]
    assert [p["violations"]["department"]["count"] for p in report["periods"]] \
        == [0, 8, 8]
    assert [p["violations"]["university"]["count"] for p in report["periods"]] \
        == [0, 0, 0]
    worst = report["periods"][2]["violations"]["department"]
    assert worst["percentage"] == 100
    assert worst["max_magnitude"] == 2


def test_run_court_matches_known_tables(capsys, files):
    code, out, _ = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "court", "--roster", files["roster18"],
    )
    assert code == 0
    report = json.loads(out)
    tables = [p["reservation"]["entries"] for p in report["periods"]]
    assert tables == [[list(r) for r in t] for t in COURT_TABLES]
    assert [p["violations"]["department"]["count"] for p in report["periods"]] \
        == [0, 0, 0]
    assert [p["violations"]["university"]["count"] for p in report["periods"]] \
        == [2, 2, 0]


def test_run_proposed_deterministic_and_quota_clean(capsys, files):
    argv = ["run", files["problem"], "--scheme", files["scheme"],
            "--solution", "proposed", "--seed", "123"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["metadata"]["seed"] == 123
    for p in report["periods"]:
        assert p["violations"]["department"]["count"] == 0
        assert p["reservation"]["row_totals"] == [2, 1, 2, 1] if p["period"] == 1 else True
    assert report["periods"][2]["reservation"]["row_totals"] == [6, 3, 6, 3]
    _, again, _ = run_cli(capsys, *argv)
    assert again == out


def test_cycled_short_roster_matches_full(capsys, files):
    base = ["run", files["problem"], "--scheme", files["scheme"],
            "--solution", "government"]
    _, full, _ = run_cli(capsys, *base, "--roster", files["roster18"])
    code, cycled, _ = run_cli(
        capsys, *base, "--roster", files["roster3"], "--cycle-roster"
    )
    assert code == 0
    assert cycled == full


def test_order_alpha_changes_position_split(capsys, files, tmp_path):
    problem = tmp_path / "two.csv"
    problem.write_text("department,period,vacancies\nzeta,1,1\nalpha,1,1\n")
    roster = tmp_path / "r.csv"
    roster.write_text("index,category\n1,c1\n2,c2\n")
    base = ["run", str(problem), "--scheme", files["scheme"],
            "--solution", "government", "--roster", str(roster)]

    _, by_input, _ = run_cli(capsys, *base)
    _, by_alpha, _ = run_cli(capsys, *base, "--order", "alpha")
    first = json.loads(by_input)
    second = json.loads(by_alpha)
    assert first["order"] == ["zeta", "alpha"]
    assert second["order"] == ["alpha", "zeta"]
    # rows stay in problem order; who got the c1 position flips
    assert first["periods"][0]["reservation"]["entries"] == [[1, 0], [0, 1]]
    assert second["periods"][0]["reservation"]["entries"] == [[0, 1], [1, 0]]


def test_run_csv_includes_violation_rows(capsys, files):
    code, out, _ = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "court", "--roster", files["roster18"],
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["period", "table", "department", "category", "value"]
    per_period = 3 * (4 * 2 + 4 + 2 + 1) + 2 * 3
    assert len(rows) - 1 == 3 * per_period
    stats = [r for r in rows if r[1] == "violations"]
    assert [r[2] for r in stats[:3]] == ["department"] * 3
    assert [r[3] for r in stats[:3]] == ["count", "max_possible", "percentage"]
    univ1 = [r for r in stats if r[0] == "1" and r[2] == "university"]
    assert [r[4] for r in univ1] == ["2", "2", "100.0"]


# ----------------------------------------------------------------- compare


def test_compare_csv_shape_and_known_biases(capsys, files):
    code, out, err = run_cli(
        capsys, "compare", files["problem"], "--scheme", files["scheme"],
        "--roster", files["roster18"], "--replications", "4", "--seed", "9",
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["solution", "period", "scope", "statistic", "value"]
    statistics = ("minimum", "q1", "median", "q3", "maximum",
                  "lower_adjacent", "upper_adjacent")
    data = rows[1:]
    assert len(data) == 3 * 3 * 2 * len(statistics)

    table = {}
    for solution, period, scope, statistic, value in data:
        table[(solution, int(period), scope, statistic)] = float(value)
    for group in {(s, int(t), sc) for s, t, sc, _, _ in data}:
        names = [r[3] for r in data if (r[0], int(r[1]), r[2]) == group]
        assert tuple(names) == statistics

    # pooled roster concentrates bias: +/-2 by the third period
    assert table[("government", 3, "department", "minimum")] == -2.0
    assert table[("government", 3, "department", "maximum")] == 2.0
    # the pooled column totals are exact every period
    for t in (1, 2, 3):
        assert table[("government", t, "university", "minimum")] == 0.0
        assert table[("government", t, "university", "maximum")] == 0.0
    # per-department copies overshoot the column totals early on
    assert table[("court", 1, "university", "minimum")] == -2.0
    assert table[("court", 1, "university", "maximum")] == 2.0
    assert table[("court", 3, "university", "maximum")] == 0.0
    # the lottery keeps every department bias strictly inside (-1, 1)
    for t in (1, 2, 3):
        assert table[("proposed", t, "department", "minimum")] > -1.0
        assert table[("proposed", t, "department", "maximum")] < 1.0


def test_compare_counters_do_not_grow_with_replications(capsys, files, monkeypatch):
    """Proposed biases lie in (-1, 1), so on the 1/3 scheme (L = 3) each period's
    department-scope keys number at most 2L - 1 = 5, however many replications
    the counter counts."""
    seen = []
    lattice_counts = analysis._lattice_counts

    def spy(problem, grids):
        counted = []
        scale, span, department, university = lattice_counts(problem, (counted.append(g) or g for g in grids))
        seen.append((len(counted), scale, span, department))
        return scale, span, department, university

    monkeypatch.setattr(analysis, "_lattice_counts", spy)
    code, _, err = run_cli(
        capsys, "compare", files["problem"], "--scheme", files["scheme"],
        "--replications", "50", "--seed", "3",
    )
    assert (code, err) == (0, "")
    grids, scale, span, department = seen[-1]  # court, government, then proposed
    assert (len(seen), grids, scale) == (3, 50, 3)
    periods = {}
    for key, count in department.items():
        periods.setdefault((key + span // 2) // span, []).append(count)
    assert sorted(periods) == [0, 1, 2]
    for counts in periods.values():
        assert sum(counts) == 50 * 4 * 2
        assert len(counts) <= 2 * scale - 1


class Drawing(Exception):
    """Raised where ``compare`` would start drawing replications."""


@pytest.fixture
def replications(monkeypatch):
    """The (problem, count) pairs ``compare`` hands ``_replicate``, which raises Drawing instead of drawing."""
    handed = []

    def replicate(problem, config, count, stream):
        handed.append((problem, count))
        raise Drawing

    monkeypatch.setattr(cli, "_replicate", replicate)
    return handed


def test_compare_hands_a_million_replications_to_the_driver(files, replications):
    """``--replications`` at its limit reaches ``_replicate``; one past it is a row of FAILURES."""
    with pytest.raises(Drawing):
        main(["compare", files["problem"], "--scheme", files["scheme"], "--replications", "1000000", "--seed", "1"])
    assert [count for _, count in replications] == [1_000_000]


def test_compare_synthesize_json_smoke(capsys, files):
    code, out, _ = run_cli(
        capsys, "compare", "--scheme", files["scheme"], "--synthesize",
        "--periods", "2", "--departments-range", "2", "3",
        "--vacancies-range", "0", "3", "--replications", "2", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["synthesized"] is True
    assert report["replications"] == 2
    m = len(report["problem"]["departments"])
    assert 2 <= m <= 3
    assert len(report["problem"]["vacancies"]) == 2
    assert all(
        len(row) == m and all(0 <= q <= 3 for q in row)
        for row in report["problem"]["vacancies"]
    )
    assert len(report["series"]) == 3 * 2 * 2
    for entry in report["series"]:
        assert entry["solution"] in ("proposed", "government", "court")
        assert set(entry) >= {"period", "scope", "count", "minimum", "q1",
                              "median", "q3", "maximum", "lower_adjacent",
                              "upper_adjacent"}


def _synthesize(capsys, files, periods, hi, departments=2):
    return run_cli(
        capsys, "compare", "--scheme", files["scheme"], "--synthesize",
        "--periods", str(periods), "--departments-range", str(departments), str(departments),
        "--vacancies-range", str(hi), str(hi), "--replications", "1", "--seed", "1",
        "--format", "json",
    )


def test_synthesized_vacancies_at_the_limit_run(capsys, files):
    code, out, _ = _synthesize(capsys, files, 2, 50_000)
    assert code == 0
    vacancies = json.loads(out)["problem"]["vacancies"]
    assert [sum(col) for col in zip(*vacancies)] == [100_000, 100_000]


def test_synthesized_cells_at_the_limit_run(capsys, files):
    code, out, _ = _synthesize(capsys, files, 2, 0, departments=50_000)
    assert code == 0
    problem = json.loads(out)["problem"]
    assert len(problem["departments"]) == 50_000
    assert problem["vacancies"] == [[0] * 50_000] * 2


def test_synthesized_total_at_the_limit_reaches_the_driver(capsys, files, replications):
    """1 period x 100 departments x 10,000 vacancies, a total of 1,000,000, reaches ``_replicate``;
    1 x 101 x 9,901 is a row of FAILURES."""
    with pytest.raises(Drawing):
        _synthesize(capsys, files, 1, 10_000, departments=100)
    assert sum(replications[0][0].vacancies[0]) == 1_000_000


# ---------------------------------------------------------- console script


def test_module_entry_point_matches_in_process(capsys, files):
    """``python -m reserve2d`` writes the in-process report bytes and maps an
    out-of-range period to exit 3 with one error line."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(reserve2d.__file__))}

    def module_cli(*argv):
        return subprocess.run([sys.executable, "-m", "reserve2d", *argv], capture_output=True, env=env)

    argv = ["run", files["problem"], "--scheme", files["scheme"],
            "--solution", "court", "--roster", files["roster18"]]
    proc = module_cli(*argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()

    proc = module_cli("round", files["problem"], "--scheme", files["scheme"], "-t", "4", "--seed", "1")
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


def test_console_script_matches_in_process(capsys, files):
    exe = shutil.which("reserve2d")
    if exe is None:
        pytest.skip("console script not on PATH")
    argv = ["run", files["problem"], "--scheme", files["scheme"],
            "--solution", "court", "--roster", files["roster18"]]
    proc = subprocess.run([exe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0

    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out

    version = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert version.returncode == 0
    assert version.stdout.startswith("reserve2d ")
