"""Tests for the CSV input parsers and report value rendering."""

from fractions import Fraction

import pytest

from reserve2d import Roster
from reserve2d.fileio import (
    ParseError,
    parse_problem_file,
    parse_rational,
    parse_roster_file,
    parse_scheme_file,
    rational,
    roster_lines,
)

from conftest import time_limit

F = Fraction


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- schemes


def test_parse_scheme_ratio_and_decimal_rows(tmp_path):
    path = _write(
        tmp_path,
        "scheme.csv",
        "category,numerator,denominator\nc1,1,3\nc2,2/3,\n",
    )
    scheme = parse_scheme_file(path)
    assert scheme.categories == ("c1", "c2")
    assert scheme.fractions == (F(1, 3), F(2, 3))


def test_parse_scheme_accepts_decimal_strings(tmp_path):
    path = _write(
        tmp_path,
        "scheme.csv",
        "Category,Numerator,Denominator\na,0.15,\nb,0.85,\n",
    )
    assert parse_scheme_file(path).fractions == (F(3, 20), F(17, 20))


def test_parse_scheme_errors_carry_path_and_line(tmp_path):
    path = _write(
        tmp_path, "s.csv", "category,numerator,denominator\nc1,1,3\nc1,2,3\n"
    )
    with pytest.raises(ParseError) as err:
        parse_scheme_file(path)
    assert err.value.line == 3
    assert "duplicate category" in str(err.value)
    assert str(err.value).startswith(f"{path}:3:")

    bad_number = _write(
        tmp_path, "s2.csv", "category,numerator,denominator\nc1,one,3\nc2,2,3\n"
    )
    with pytest.raises(ParseError, match="integer"):
        parse_scheme_file(bad_number)

    bad_sum = _write(
        tmp_path, "s3.csv", "category,numerator,denominator\nc1,1,3\nc2,1,3\n"
    )
    with pytest.raises(ParseError, match="sum to 1"):
        parse_scheme_file(bad_sum)


@pytest.mark.parametrize("text", ["1e-99999999", "1E+99999999", "0.1e1_000", "0." + "1" * 101])
def test_parse_scheme_rejects_oversized_decimals_fast(tmp_path, text):
    """A decimal's exact value is built, so its digits and exponent are capped."""
    path = _write(tmp_path, "s.csv", f"category,numerator,denominator\nc1,{text},\nc2,1/2,\n")
    with time_limit(5):
        with pytest.raises(ParseError, match="exponent over 100") as err:
            parse_scheme_file(path)
    assert err.value.line == 2


def test_parse_rational_reads_decimals_up_to_the_limit():
    assert parse_rational("1e-100") == F(1, 10**100)
    assert parse_rational("2.5E+1_0") == 25 * 10**9
    assert parse_rational("0." + "3" * 99) == F(int("3" * 99), 10**99)
    with pytest.raises(ValueError, match="more than 100 digits"):
        parse_rational("1e101")


def test_parse_scheme_rejects_wrong_header(tmp_path):
    path = _write(tmp_path, "s.csv", "name,share\nc1,0.5\n")
    with pytest.raises(ParseError, match="header"):
        parse_scheme_file(path)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_scheme_file(str(tmp_path / "nope.csv"))


# ---------------------------------------------------------------- problems


def test_undecodable_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"category,numerator,denominator\nc\xe9,1,3\nc2,2,3\n")
    with pytest.raises(ParseError, match="cannot read file: 'utf-8' codec"):
        parse_scheme_file(str(path))


def test_header_only_scheme_is_a_parse_error(tmp_path):
    path = _write(tmp_path, "s.csv", "category,numerator,denominator\n")
    with pytest.raises(ParseError, match="need at least 2 categories"):
        parse_scheme_file(path)


def test_parse_problem_keeps_file_order_and_fills_gaps(tmp_path, third_scheme):
    path = _write(
        tmp_path,
        "p.csv",
        "department,period,vacancies\n"
        "math,1,2\nphysics,1,1\nmath,2,0\nphysics,2,3\nchemistry,1,4\n",
    )
    problem = parse_problem_file(path, third_scheme)
    assert problem.departments == ("math", "physics", "chemistry")
    # chemistry has no period-2 row: defaults to zero
    assert problem.vacancies == ((2, 1, 4), (0, 3, 0))


def test_parse_problem_requires_contiguous_periods(tmp_path, third_scheme):
    path = _write(
        tmp_path, "p.csv", "department,period,vacancies\nd1,1,2\nd2,3,1\n"
    )
    with pytest.raises(ParseError, match="contiguous"):
        parse_problem_file(path, third_scheme)


def test_huge_period_gap_fails_fast(tmp_path, third_scheme):
    """The gap check counts periods instead of enumerating 1..10**12."""
    path = _write(
        tmp_path, "p.csv", "department,period,vacancies\nd1,1,2\nd2,1000000000000,1\n"
    )
    with time_limit(5):
        with pytest.raises(ParseError, match=r"missing \[2, 3, 4, 5, 6\] and 999999999993 more"):
            parse_problem_file(path, third_scheme)


def test_parse_problem_caps_each_departments_vacancies(tmp_path, third_scheme):
    """Cumulative vacancies over 100,000 would make a roster that long."""
    path = _write(
        tmp_path, "p.csv",
        "department,period,vacancies\nd1,1,60000\nd2,1,1000\nd1,2,40000\nd1,3,1\nd2,2,1\nd2,3,1\n",
    )
    with pytest.raises(ParseError, match="'d1' has over 100,000 vacancies") as err:
        parse_problem_file(path, third_scheme)
    assert err.value.line == 5
    at_limit = _write(tmp_path, "q.csv", "department,period,vacancies\nd1,1,60000\nd2,1,1\nd1,2,40000\n")
    assert parse_problem_file(at_limit, third_scheme).cumulative_vacancies(2) == (100000, 1)


def test_parse_problem_caps_the_problems_vacancies(tmp_path, third_scheme):
    """Total vacancies over 1,000,000 would make the government roster that long."""
    rows = "".join(f"d{i},{t},50000\n" for t in (1, 2) for i in range(1, 11))
    at_limit = _write(tmp_path, "q.csv", "department,period,vacancies\n" + rows)
    assert sum(parse_problem_file(at_limit, third_scheme).cumulative_vacancies(2)) == 1_000_000
    path = _write(tmp_path, "p.csv", "department,period,vacancies\n" + rows + "d11,1,1\nd11,2,1\n")
    with pytest.raises(ParseError, match="the problem has over 1,000,000 vacancies") as err:
        parse_problem_file(path, third_scheme)
    assert err.value.line == 22


def test_parse_problem_rejects_duplicates_and_negatives(tmp_path, third_scheme):
    dup = _write(
        tmp_path, "dup.csv", "department,period,vacancies\nd1,1,2\nd1,1,3\nd2,1,0\n"
    )
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem_file(dup, third_scheme)
    neg = _write(
        tmp_path, "neg.csv", "department,period,vacancies\nd1,1,-2\nd2,1,3\n"
    )
    with pytest.raises(ParseError, match=">= 0"):
        parse_problem_file(neg, third_scheme)


def test_parse_problem_needs_two_departments(tmp_path, third_scheme):
    path = _write(tmp_path, "p.csv", "department,period,vacancies\nd1,1,2\n")
    with pytest.raises(ParseError, match="2 departments"):
        parse_problem_file(path, third_scheme)


# ---------------------------------------------------------------- rosters


def test_roster_file_round_trip(tmp_path):
    roster = Roster(categories=("c1", "c2"), assignment=("c2", "c2", "c1"))
    text = roster_lines(roster)
    assert text == "index,category\n1,c2\n2,c2\n3,c1\n"
    back = parse_roster_file(_write(tmp_path, "r.csv", text), ("c1", "c2"))
    assert back == roster


def test_parse_roster_requires_positions_in_order(tmp_path):
    path = _write(tmp_path, "r.csv", "index,category\n1,c1\n3,c2\n")
    with pytest.raises(ParseError, match="expected index 2"):
        parse_roster_file(path)


def test_parse_roster_checks_scheme_categories(tmp_path):
    path = _write(tmp_path, "r.csv", "index,category\n1,c1\n2,zz\n")
    with pytest.raises(ParseError) as err:
        parse_roster_file(path, ("c1", "c2"))
    assert err.value.line == 3
    assert "unknown category 'zz'" in str(err.value)
    # without a scheme the distinct categories are accepted as they come
    roster = parse_roster_file(path)
    assert roster.categories == ("c1", "zz")


def test_parse_roster_carries_full_scheme_categories(tmp_path):
    path = _write(tmp_path, "r.csv", "index,category\n1,c2\n2,c2\n")
    roster = parse_roster_file(path, ("c1", "c2"))
    assert roster.categories == ("c1", "c2"), "unused categories must survive"


# ---------------------------------------------------------------- rationals


def test_rational_rendering_round_trips():
    assert rational(F(3, 10)) == "3/10"
    assert rational(F(4, 2)) == 2
    assert rational(7) == 7
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational(rational(F(-5, 3))) == F(-5, 3)


@pytest.mark.parametrize("value, rendered", [
    (0, 0), (7, 7), (-3, -3), (F(-5, 3), "-5/3"), (F(-1, 10**30), f"-1/{10**30}"),
    (F(6, 3), 2), (F(-12, 4), -3), (F(0, 5), 0), (F(10**40, 10**20), 10**20),
])
def test_rational_renders_ints_negatives_and_reducible_fractions(value, rendered):
    assert rational(value) == rendered
    assert type(rational(value)) is type(rendered)
