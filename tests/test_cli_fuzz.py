"""Property test of the CLI's error contract.

Any argv of the four subcommands, with small flag values and arbitrary
scheme, problem and roster file contents, must end with exit code 0, 2, 3
or 4 within a time bound and without a traceback.  Flag values stay small
(at most 50), the structured file rows use small numbers, and ``compare``
always gets small replication, period and range flags (its defaults make a
run of about half a minute), so a run that succeeds stays cheap.  One time
in twenty a flag takes a value just past its limit instead, and must exit at
once: a replication count, a synthesized problem's total vacancies, a roster
``--length`` and a ``--height`` (50,004 cells on the 1/3 scheme) exit 2, a
``round`` period far past the horizon exits 3, and a seed of 2**64 is
refused by argparse (exit 2).  Huge periods and department ranges of
``compare --synthesize`` below the total cap are out of scope.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reserve2d.cli import main

from conftest import time_limit

_NAMES = st.sampled_from(["c1", "c2", "c3", "d1", "d2", "d3", "", " x "])
_SMALL = st.integers(-2, 50)
_FIELD = st.one_of(_NAMES, _SMALL.map(str), st.text(max_size=4))


def _rarely(common: st.SearchStrategy, rare: st.SearchStrategy, odds: int) -> st.SearchStrategy:
    """``rare`` one time in ``odds``, else ``common``."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == odds else common)


def _csv_file(valid: list, header: str, columns: list) -> st.SearchStrategy:
    """Mostly one of the ``valid`` files, else random rows under a right or
    wrong header, or any text or bytes."""
    row = st.one_of(st.tuples(*columns), st.lists(_FIELD, max_size=4))
    rows = st.lists(row.map(lambda fields: ",".join(map(str, fields))), max_size=6)
    lines = st.tuples(st.sampled_from([header, header.upper(), "a,b"]), rows)
    other = st.one_of(lines.map(lambda hr: "\n".join([hr[0], *hr[1]]) + "\n"),
                      st.text(max_size=40), st.binary(max_size=40))
    return _rarely(st.sampled_from(valid), other, 3)


_SCHEMES = _csv_file(
    ["category,numerator,denominator\nc1,1,3\nc2,2,3\n",
     "category,numerator,denominator\nc1,1,4\nc2,1,4\nc3,1,2\n",
     "category,numerator,denominator\nc1,1/10,\nc2,0.9,\n",
     "category,numerator,denominator\nc1,1,999983\nc2,999982,999983\n"],
    "category,numerator,denominator",
    [_NAMES, st.integers(-1, 12), st.integers(-1, 12).map(str) | st.just("")],
)
_PROBLEMS = _csv_file(
    ["department,period,vacancies\nd1,1,2\nd2,1,1\nd3,1,0\nd1,2,3\nd3,2,4\n",
     "department,period,vacancies\nd1,1,0\nd2,1,0\nd1,2,5\n"],
    "department,period,vacancies",
    [_NAMES, st.integers(-1, 4), st.integers(-1, 12)],
)
_ROSTERS = _csv_file(
    ["index,category\n1,c2\n2,c1\n3,c2\n4,c3\n", "index,category\n1,c1\n"],
    "index,category",
    [st.integers(0, 8), _NAMES],
)


def _mostly(valid: list, invalid: list) -> st.SearchStrategy:
    """One of ``valid``, or one time in twenty one of ``invalid``."""
    return _rarely(st.sampled_from(valid), st.sampled_from(invalid), 20)


def _numbers(lo: int, hi: int) -> st.SearchStrategy:
    return _mostly([str(v) for v in range(lo, hi + 1)], ["-1", "0", "x", "1.5"])


# Values just past a limit: the roster length cap, 50,004 cells on the 1/3
# scheme, a period far past any horizon, and 2**64.
_PAST_LENGTH, _PAST_HEIGHT, _PAST_PERIOD, _PAST_SEED = "1000001", "25002", "1000000000000", str(2**64)


def _past(common: st.SearchStrategy, limit) -> st.SearchStrategy:
    """``common``, or one time in twenty the value ``limit``."""
    return _rarely(common, st.just(limit), 20)


def _always(flag: str, value: st.SearchStrategy) -> st.SearchStrategy:
    """``[flag, value...]``: the flag is always given."""
    return value.map(lambda v: [flag, *v] if isinstance(v, list) else [flag, v])


def _flag(flag: str, value: st.SearchStrategy, optional: bool = True) -> st.SearchStrategy:
    """``[flag, value...]``, or no flag: often when optional, rarely when required."""
    present = _always(flag, value)
    return st.one_of(st.just([]), present) if optional else _rarely(present, st.just([]), 20)


def _switch(flag: str) -> st.SearchStrategy:
    return st.sampled_from([[], [flag]])


# Small ranges for ``compare --synthesize``, or 1 x 101 x 9,901: one vacancy past the total cap.
_synthesized = st.tuples(
    _always("--periods", _numbers(1, 4)),
    _always("--departments-range", st.lists(_numbers(0, 8), min_size=2, max_size=2)),
    _always("--vacancies-range", st.lists(_numbers(0, 12), min_size=2, max_size=2)),
).map(lambda parts: [a for p in parts for a in p])
_PAST_THE_TOTAL = ["--periods", "1", "--departments-range", "101", "101", "--vacancies-range", "9901", "9901"]


def _argv(d: str) -> st.SearchStrategy:
    scheme, problem, roster = (os.path.join(d, name) for name in ("s.csv", "p.csv", "r.csv"))
    output = _flag("-o", st.sampled_from([os.path.join(d, "out"),
                                          os.path.join(d, "missing", "out"), d]))
    fmt = _flag("--format", _mostly(["json", "csv"], ["xml"]))
    seed = _flag("--seed", _past(_numbers(0, 50), _PAST_SEED), optional=False)
    height = _flag("--height", _past(_numbers(1, 50), _PAST_HEIGHT))
    order = _flag("--order", _mostly(["input", "alpha"], ["zeta"]))
    parts = {
        "round": [st.just([problem, "--scheme", scheme]),
                  _flag("-t", _past(_numbers(1, 3), _PAST_PERIOD), optional=False), seed, fmt, output],
        "roster": [st.just([scheme]), _flag("--length", _past(_numbers(1, 50), _PAST_LENGTH), optional=False),
                   seed, _flag("--policy", _mostly(["independent-blocks", "repeat-block"], ["x"])),
                   height, fmt, output],
        "run": [st.just([problem, "--scheme", scheme]),
                _flag("--solution", _mostly(["government", "court", "proposed"], ["x"]),
                      optional=False),
                _flag("--roster", st.just(roster)), _switch("--cycle-roster"), seed, order,
                height, fmt, output],
        # compare's defaults (1,000 replications on up to 50 departments) are slow.
        "compare": [st.sampled_from([[problem], []]), st.just(["--scheme", scheme]),
                    _flag("--roster", st.just(roster)), _switch("--cycle-roster"),
                    _always("--replications", _past(_numbers(1, 8), "1000001")),
                    seed, order, height,
                    _switch("--synthesize"), _past(_synthesized, _PAST_THE_TOTAL),
                    fmt, output],
    }
    command = st.sampled_from(sorted(parts))
    return command.flatmap(
        lambda c: st.tuples(*parts[c]).map(lambda ps: [c] + [a for p in ps for a in p])
    )


@given(data=st.data(), scheme=_SCHEMES, problem=_PROBLEMS, roster=_ROSTERS)
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_any_input_exits_with_a_documented_code(data, scheme, problem, roster):
    with tempfile.TemporaryDirectory() as d:
        for name, text in (("s.csv", scheme), ("p.csv", problem), ("r.csv", roster)):
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(text.encode() if isinstance(text, str) else text)
        argv = data.draw(_argv(d), label="argv")
        pairs = [argv[i:i + 2] for i in range(len(argv) - 1)]
        out, err = io.StringIO(), io.StringIO()
        with time_limit(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit:  # argparse rejects the flags
                code = exit.code
                assert code == 2, err.getvalue()
                return
    assert code in (0, 2, 3, 4), err.getvalue()
    assert _PAST_SEED not in argv, "argparse refuses a seed of 2**64"
    if ["--length", _PAST_LENGTH] in pairs or ["-t", _PAST_PERIOD] in pairs:
        assert code, argv  # no run of these succeeds
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
