"""End-to-end tests of the command-line interface.

Most tests call ``main(argv)`` in-process and inspect stdout/stderr via
capsys; two tests run the CLI in a subprocess, through ``python -m
reserve2d`` and through the installed ``reserve2d`` console script, to make
sure the entry points themselves work.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import reserve2d
from reserve2d import cli
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


def test_unknown_choice_exits_two(files):
    with pytest.raises(SystemExit) as exc:
        main(["run", files["problem"], "--scheme", files["scheme"],
              "--solution", "lottery"])
    assert exc.value.code == 2


def test_parse_error_reports_file_and_line(capsys, files, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("department,period,vacancies\nd1,1,x\nd2,1,1\n")
    code, out, err = run_cli(
        capsys, "round", str(bad), "--scheme", files["scheme"],
        "-t", "1", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"{bad}:2:" in err and "integer" in err


def test_huge_period_gap_exits_two(capsys, files, tmp_path):
    bad = tmp_path / "gap.csv"
    bad.write_text("department,period,vacancies\nd1,1,2\nd2,1000000000000,1\n")
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "round", str(bad), "--scheme", files["scheme"], "-t", "1", "--seed", "1",
        )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "contiguous" in err


def test_oversized_decimal_in_scheme_exits_two(capsys, files, tmp_path):
    bad = tmp_path / "scheme.csv"
    bad.write_text("category,numerator,denominator\nc1,1e-99999999,\nc2,1,\n")
    with time_limit(5):
        code, out, err = run_cli(capsys, "roster", str(bad), "--length", "5", "--seed", "1")
    _assert_one_line_error(code, out, err, "exponent over 100", start=f"error: {bad}:2:")


@pytest.mark.parametrize("flags", [["--solution", "proposed", "--seed", "1"],
                                   ["--solution", "court", "--cycle-roster", "--roster", "{roster}"]])
def test_vacancies_past_the_limit_exit_two(capsys, files, tmp_path, flags):
    bad = tmp_path / "problem.csv"
    bad.write_text("department,period,vacancies\nd1,1,1000000000\nd2,1,1\n")
    argv = [a.format(roster=files["roster3"]) for a in flags]
    with time_limit(5):
        code, out, err = run_cli(capsys, "run", str(bad), "--scheme", files["scheme"], *argv)
    _assert_one_line_error(code, out, err, "over 100,000 vacancies", start=f"error: {bad}:2:")


def _assert_one_line_error(code, out, err, needle, start="error: --height"):
    assert code == 2
    assert out == ""
    assert err.startswith(start) and needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_roster_bad_height_exits_two(capsys, files):
    code, out, err = run_cli(
        capsys, "roster", files["scheme"], "--length", "5", "--seed", "1", "--height", "4",
    )
    _assert_one_line_error(code, out, err, "smallest valid height is 3")


def test_roster_length_past_the_limit_exits_two(capsys, files):
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "roster", files["scheme"], "--length", "1000000000000", "--seed", "1",
        )
    _assert_one_line_error(code, out, err, "at most 1,000,000 positions", start="error: --length")
    code, out, _ = run_cli(capsys, "roster", files["scheme"], "--length", "1000000", "--seed", "1")
    assert code == 0 and out.count("\n") == 1_000_001


def test_run_proposed_bad_height_exits_two(capsys, files):
    code, out, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "proposed", "--seed", "1", "--height", "5",
    )
    _assert_one_line_error(code, out, err, "smallest valid height is 3")


def test_compare_bad_height_exits_two(capsys, files):
    code, out, err = run_cli(
        capsys, "compare", files["problem"], "--scheme", files["scheme"],
        "--replications", "2", "--seed", "1", "--height", "1",
    )
    _assert_one_line_error(code, out, err, "at least 2")


@pytest.fixture(scope="module")
def wide_scheme(tmp_path_factory):
    """A scheme whose block height, 999983, is past the scheme-table limit."""
    path = tmp_path_factory.mktemp("wide") / "scheme.csv"
    path.write_text("category,numerator,denominator\nc1,1,999983\nc2,999982,999983\n")
    return str(path)


@pytest.mark.parametrize("command", [
    ["roster", "{scheme}", "--length", "5", "--seed", "1"],
    ["run", "{problem}", "--scheme", "{scheme}", "--solution", "proposed", "--seed", "1"],
    ["compare", "{problem}", "--scheme", "{scheme}", "--replications", "2", "--seed", "1"],
])
def test_scheme_height_past_the_limit_exits_two(capsys, files, wide_scheme, command):
    argv = [a.format(scheme=wide_scheme, problem=files["problem"]) for a in command]
    with time_limit(5):
        code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err, "more than 50,000 cells", start="error: ")


def test_explicit_height_past_the_limit_exits_two(capsys, files):
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "roster", files["scheme"], "--length", "5", "--seed", "1",
            "--height", "3000000",
        )
    _assert_one_line_error(code, out, err, "more than 50,000 cells")


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_exits_two(capsys, files, tmp_path, target):
    code, out, err = run_cli(
        capsys, "round", files["problem"], "--scheme", files["scheme"],
        "-t", "1", "--seed", "1", "-o", str(tmp_path / target),
    )
    _assert_one_line_error(code, out, err, str(tmp_path), start="error: cannot write ")


def test_out_of_range_period_exits_three(capsys, files):
    code, out, err = run_cli(
        capsys, "round", files["problem"], "--scheme", files["scheme"],
        "-t", "9", "--seed", "1",
    )
    assert code == 3
    assert err.startswith("error:") and "period" in err


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


def test_run_missing_dependencies_exit_four(capsys, files):
    code, _, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "government",
    )
    assert code == 4 and "--roster" in err

    code, _, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "proposed",
    )
    assert code == 4 and "--seed" in err


def test_short_roster_without_cycling_exits_four(capsys, files):
    code, _, err = run_cli(
        capsys, "run", files["problem"], "--scheme", files["scheme"],
        "--solution", "government", "--roster", files["roster3"],
    )
    assert code == 4
    assert "18" in err and "--cycle-roster" in err


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
    """Proposed biases lie in (-1, 1), so on the 1/3 scheme (L = 3) each
    department-scope counter holds at most 2L - 1 = 5 keys, however many
    replications it counts."""
    seen = []
    lattice_counts = cli._lattice_counts

    def spy(scheme, traces):
        labels = []
        scale, counts = lattice_counts(scheme, (labels.append(tr.label) or tr for tr in traces))
        seen.append((labels, scale, counts))
        return scale, counts

    monkeypatch.setattr(cli, "_lattice_counts", spy)
    code, _, err = run_cli(
        capsys, "compare", files["problem"], "--scheme", files["scheme"],
        "--replications", "50", "--seed", "3",
    )
    assert (code, err) == (0, "")
    labels, scale, counts = seen[0]
    assert (labels, scale) == (["proposed"] * 50, 3)
    department = [c for (t, scope), c in counts.items() if scope == "department"]
    assert len(department) == 3
    for counter in department:
        assert sum(counter.values()) == 50 * 4 * 2
        assert len(counter) <= 2 * scale - 1


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


@pytest.mark.parametrize("periods, hi", [(2, 50_001), (10**12, 1), (1, 10**18)])
def test_synthesized_vacancies_past_the_limit_exit_two(capsys, files, periods, hi):
    with time_limit(5):  # refused before anything is drawn
        code, out, err = _synthesize(capsys, files, periods, hi)
    _assert_one_line_error(
        code, out, err, "at most 100,000 vacancies", start=f"error: --periods {periods} x"
    )


def test_synthesized_cells_at_the_limit_run(capsys, files):
    code, out, _ = _synthesize(capsys, files, 2, 0, departments=50_000)
    assert code == 0
    problem = json.loads(out)["problem"]
    assert len(problem["departments"]) == 50_000
    assert problem["vacancies"] == [[0] * 50_000] * 2


@pytest.mark.parametrize("periods, departments", [(2, 50_001), (10**12, 2), (1, 10**9)])
def test_synthesized_cells_past_the_limit_exit_two(capsys, files, periods, departments):
    with time_limit(5):  # refused before anything is drawn, even with no vacancies
        code, out, err = _synthesize(capsys, files, periods, 0, departments)
    _assert_one_line_error(
        code, out, err, "at most 100,000 cells",
        start=f"error: --periods {periods} x --departments-range HI {departments}:",
    )


@pytest.mark.parametrize("flag, lo, hi", [
    ("--departments-range", 5, 2),
    ("--departments-range", 1, 3),
    ("--vacancies-range", -1, 3),
    ("--vacancies-range", 4, 3),
])
def test_synthesize_malformed_range_exits_two(capsys, files, flag, lo, hi):
    """A malformed range is a bad flag value (exit 2), like ``--periods 0``."""
    code, out, err = run_cli(
        capsys, "compare", "--scheme", files["scheme"], "--synthesize",
        "--replications", "1", "--seed", "1", flag, str(lo), str(hi),
    )
    least = 2 if flag == "--departments-range" else 0
    _assert_one_line_error(code, out, err, f"{flag} needs {least} <= LO <= HI", start="error: ")


def test_compare_flag_dependencies(capsys, files):
    code, _, err = run_cli(capsys, "compare", "--scheme", files["scheme"],
                           "--seed", "1")
    assert code == 4 and "problem" in err

    code, _, err = run_cli(
        capsys, "compare", files["problem"], "--scheme", files["scheme"],
        "--synthesize", "--seed", "1",
    )
    assert code == 4 and "--synthesize" in err


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
