"""Write the golden CLI outputs under ``tests/golden/``.

Each case is one ``reserve2d`` invocation on the input CSVs in that
directory; its output file is what ``test_golden.py`` compares byte for
byte.  Rerun this script only when the draws change on purpose:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> argv; input file names are relative to GOLDEN_DIR and the output
# goes to <name>.<format> there.
CASES = {
    "round-tenth.json": ["round", "problem_tenth.csv", "--scheme", "scheme_tenth.csv",
                         "-t", "2", "--seed", "11", "--format", "json"],
    "round-tenth.csv": ["round", "problem_tenth.csv", "--scheme", "scheme_tenth.csv",
                        "-t", "3", "--seed", "12", "--format", "csv"],
    "round-five.json": ["round", "problem_five.csv", "--scheme", "scheme_five.csv",
                        "-t", "1", "--seed", "5", "--format", "json"],
    "round-five.csv": ["round", "problem_five.csv", "--scheme", "scheme_five.csv",
                       "-t", "2", "--seed", "6", "--format", "csv"],
    "roster-third-independent.csv": ["roster", "scheme_third.csv", "--length", "20",
                                     "--seed", "4"],
    "roster-third-repeat.csv": ["roster", "scheme_third.csv", "--length", "20",
                                "--seed", "4", "--policy", "repeat-block"],
    "roster-third-height6.json": ["roster", "scheme_third.csv", "--length", "20",
                                  "--seed", "4", "--height", "6", "--format", "json"],
    "roster-quarters-independent.csv": ["roster", "scheme_quarters.csv", "--length", "17",
                                        "--seed", "7"],
    "roster-quarters-repeat.json": ["roster", "scheme_quarters.csv", "--length", "17",
                                    "--seed", "7", "--policy", "repeat-block",
                                    "--format", "json"],
    "roster-five-independent.csv": ["roster", "scheme_five.csv", "--length", "450",
                                    "--seed", "3"],
    "roster-five-repeat.csv": ["roster", "scheme_five.csv", "--length", "450",
                               "--seed", "3", "--policy", "repeat-block"],
    "run-government.json": ["run", "problem_third.csv", "--scheme", "scheme_third.csv",
                            "--solution", "government", "--roster", "roster_third.csv",
                            "--cycle-roster", "--order", "alpha"],
    "run-court.csv": ["run", "problem_third.csv", "--scheme", "scheme_third.csv",
                      "--solution", "court", "--roster", "roster_third.csv",
                      "--cycle-roster", "--format", "csv"],
    "run-proposed.json": ["run", "problem_third.csv", "--scheme", "scheme_third.csv",
                          "--solution", "proposed", "--seed", "99"],
    "compare-third.json": ["compare", "problem_third.csv", "--scheme", "scheme_third.csv",
                           "--replications", "5", "--seed", "9", "--format", "json"],
    "compare-five-roster.csv": ["compare", "problem_five.csv", "--scheme", "scheme_five.csv",
                                "--roster", "roster_five.csv", "--cycle-roster",
                                "--replications", "3", "--seed", "21", "--format", "csv"],
    "compare-five-drawn.csv": ["compare", "problem_five.csv", "--scheme", "scheme_five.csv",
                               "--replications", "2", "--seed", "23", "--format", "csv"],
    "compare-quarters-synthesized.json": ["compare", "--synthesize", "--scheme",
                                          "scheme_quarters.csv", "--height", "8",
                                          "--order", "alpha", "--periods", "4",
                                          "--departments-range", "10", "12",
                                          "--vacancies-range", "0", "5",
                                          "--replications", "6", "--seed", "17",
                                          "--format", "json"],
}


def run_case(name: str, output: str) -> int:
    """Run one case with its inputs resolved in GOLDEN_DIR, writing ``output``."""
    from reserve2d.cli import main

    argv = [
        os.path.join(GOLDEN_DIR, arg) if arg.endswith(".csv") else arg
        for arg in CASES[name]
    ]
    return main(argv + ["-o", output])


def main() -> int:
    for name in CASES:
        code = run_case(name, os.path.join(GOLDEN_DIR, name))
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
