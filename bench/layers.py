"""Layer timings of reserve2d on fixed seeded inputs, written as one JSON file.

Usage, from the root of a checkout::

    python3 bench/layers.py --out BENCH.json                     # this checkout's src/
    python3 bench/layers.py --src OTHER/src --out BENCH.json     # alternated with another checkout's src/
    python3 bench/layers.py --quick --out /tmp/bench.json        # each row once, on 2 seeds

Each row times one library call on fixed seeds: a repetition runs the call once per seed.  The
row records each repetition in milliseconds per call, their best, median and quartiles, and the
sha256 of every output with the stream's draw count after it.  Equal digests on two sides mean
the same work was timed; a row whose digest differs is a changed workload, not a speedup.  The
harness checks nothing else and carries no bound.

Each side is one interpreter (``--worker``) that imports the library from the side's ``src/``
and runs a repetition of a row whenever it reads the row's number.  Both live for the whole run,
and they take turns: ``REPEATS`` repetitions of each row per side, switching which side goes
first each time, so the host's swings in speed fall on both sides alike.  A pair is one
repetition of each side, run back to back; ``this_wins`` counts the pairs this side won.

The first rows are the layers a walk serves.  ``draw_block`` at heights 3 (1/3) and 24
(half/half) descends the sampler's tree, so they predict no change from a walk's; at height 200
(five-category) it walks.  Each sampler is built before timing, as every draw after a table's
first finds it built.  ``controlled_round`` rounds five-category fair tables of 5, 14 and 40
departments, and ``draw_roster`` draws two five-category blocks, as a department roster of
lottery-five does.  The last rows run a solution's replications, which read their blocks off
the lanes of fresh streams: ``replicate`` counts 100 runs of each solution into its lattice
Counters, as ``compare`` does, on compare-third's problem (1/3, 10 departments, 9 periods) and
on the one ``compare --synthesize --seed 9`` builds; ``tail_diagnostic`` takes criterion 8's
problem (100 one-vacancy departments, half/half) at 2,000 replications; ``run_solution`` is one
proposed run on compare-third's problem.  ``tables`` takes one seeded proposed trace (five-category,
48 departments x 9 periods, vacancies from ``Random('tables')`` in 1-30) and runs ``bias_of`` and both
quota checks on every period, as ``run`` does.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1
REPEATS = 10  # per side and row; a full run with --src takes about 46 s on 2 cores

# name, layer, inputs and seeds of a full run (--quick uses 2)
ROWS = [
    ("draw_block/1-3/h3", "roster.draw_block", {"scheme": "1/3", "height": 3}, 10000),
    ("draw_block/half/h24", "roster.draw_block", {"scheme": "half/half", "height": 24}, 5000),
    ("draw_block/five/h200", "roster.draw_block", {"scheme": "five-category", "height": 200}, 40),
    *((f"controlled_round/five/{m}", "rounding.controlled_round",
       {"scheme": "five-category", "departments": m, "periods": 1, "vacancies": f"Random('round/{m}'), 1-30"}, seeds)
      for m, seeds in ((5, 400), (14, 200), (40, 60))),
    ("draw_roster/five/2-blocks", "roster.draw_roster", {"scheme": "five-category", "length": 400}, 20),
    ("replicate/1-3/compare-third", "solutions._replicate",
     {"scheme": "1/3", "synthesize": ["--seed", "1", "--periods", "9", "--departments-range", "10", "10"],
      "replications": 100}, 5),
    ("replicate/1-3/compare-seed-9", "solutions._replicate",
     {"scheme": "1/3", "synthesize": ["--seed", "9"], "replications": 100}, 2),
    ("tail_diagnostic/half/100x1", "analysis.tail_diagnostic",  # criterion 8's problem, at 2,000 replications
     {"scheme": "half/half", "departments": 100, "vacancies": 1, "replications": 2000}, 2),
    ("run_solution/1-3/proposed", "solutions.run_solution",
     {"scheme": "1/3", "synthesize": ["--seed", "1", "--periods", "9", "--departments-range", "10", "10"]}, 200),
    ("tables/five/48x9", "core.bias_of",  # with both quota checks, on every period of one proposed trace (seed 1)
     {"scheme": "five-category", "departments": 48, "periods": 9, "vacancies": "Random('tables'), 1-30"}, 20),
]


def _call(name: str, inputs: dict):
    """The path a row's call takes ("tree descent", "walk" or, for a solution's runs, "lane read") and the call, on a
    stream, with its set-up done."""
    from fractions import Fraction

    from reserve2d import ReservationProblem, ReservationScheme, SolutionConfig, build_fair_share_table
    from reserve2d import controlled_round, draw_block, draw_roster, run_solution, tail_diagnostic
    from reserve2d import bias_of, within_department_quota, within_university_quota
    from reserve2d.analysis import _lattice_counts
    from reserve2d.cli import _build_parser, _synthesize_problem
    from reserve2d.roster import _sampler, build_scheme_table
    from reserve2d.solutions import _replicate

    scheme = {
        "1/3": ReservationScheme(("reserved", "open"), (Fraction(1, 3), Fraction(2, 3))),
        "half/half": ReservationScheme(("c1", "c2"), (Fraction(1, 2), Fraction(1, 2))),
        "five-category": ReservationScheme(  # 15 / 7.5 / 27 / 10 / 40.5 %
            ("sc", "st", "obc", "ews", "open"),
            (Fraction(3, 20), Fraction(3, 40), Fraction(27, 100), Fraction(1, 10), Fraction(81, 200)),
        ),
    }[inputs["scheme"]]
    layer = name.split("/")[0]
    if layer == "controlled_round":
        vacancies, m = random.Random(f"round/{inputs['departments']}"), inputs["departments"]
        problem = ReservationProblem([f"d{i}" for i in range(m)], scheme, [[vacancies.randint(1, 30) for _ in range(m)]])
        fair = build_fair_share_table(problem, 1)
        return "walk", lambda rng: controlled_round(fair, rng).entries
    if layer == "tables":  # the trace is drawn once, so the call draws nothing
        vacancies, m = random.Random("tables"), inputs["departments"]
        problem = ReservationProblem([f"d{i}" for i in range(m)], scheme,
                                     [[vacancies.randint(1, 30) for _ in range(m)] for _ in range(inputs["periods"])])
        periods = run_solution(problem, SolutionConfig("proposed"), 1).periods
        return "fair tables", lambda rng: [(bias_of(reserved, fair).entries, within_department_quota(reserved, fair),
                                            within_university_quota(reserved, fair)) for fair, reserved in periods]
    sampler = _sampler(build_scheme_table(scheme, inputs.get("height")))  # built before timing
    path = "walk" if sampler.root is None else "tree descent"
    if layer == "draw_block":
        return path, lambda rng: draw_block(scheme, inputs["height"], rng).positions
    if layer == "draw_roster":
        return path, lambda rng: draw_roster(scheme, inputs["length"], rng).assignment
    # A solution's runs read their blocks off the lanes of fresh streams where every leaf has one depth.
    path = "lane read" if sampler.fixed else "blocks"
    if "synthesize" in inputs:  # the problem ``compare --synthesize`` builds with these flags
        args = _build_parser().parse_args(["compare", "--synthesize", "--scheme", "-", *inputs["synthesize"]])
        problem = _synthesize_problem(args, scheme)
    else:
        m = inputs["departments"]
        problem = ReservationProblem([f"d{i}" for i in range(1, m + 1)], scheme, [[inputs["vacancies"]] * m])
    if layer == "replicate":  # every solution's runs counted into its two lattice Counters, as ``compare`` does
        return path, lambda rng: [
            sorted(counter.items()) for i, kind in enumerate(("proposed", "government", "court"))
            for counter in _lattice_counts(problem, _replicate(problem, SolutionConfig(kind), inputs["replications"],
                                                               rng.child(i)))[2:]]
    if layer == "tail_diagnostic":
        return path, lambda rng: tail_diagnostic(problem, "c1", 1, inputs["replications"], (2, 4, 6, 8, 10),
                                                 seed=rng.key)
    return path, lambda rng: run_solution(problem, SolutionConfig("proposed"), rng.key).periods


def worker(src: str, quick: bool) -> None:
    """Read row numbers from stdin and answer each with one repetition of the row, as a JSON line."""
    sys.path.insert(0, os.path.abspath(src))
    from reserve2d import SplitStream

    calls = {}
    for line in sys.stdin:
        r = int(line)
        name, _, inputs, seeds = ROWS[r]
        seeds = 2 if quick else seeds
        if r not in calls:
            calls[r] = _call(name, inputs)
        path, call = calls[r]
        outs, start = [], time.perf_counter()
        for seed in range(seeds):
            rng = SplitStream(seed)
            outs.append((call(rng), rng._n))
        ms = (time.perf_counter() - start) / seeds * 1e3
        sha256 = hashlib.sha256(repr(outs).encode()).hexdigest()
        print(json.dumps({"ms": ms, "sha256": sha256, "path": path}), flush=True)


def _checkout(src: str) -> dict:
    """The commit of the git checkout holding ``src`` and whether ``src`` differs from it (None and
    None outside one, as in an unpacked ``git archive``)."""
    head, status = (subprocess.run(["git", "-C", src, *command], capture_output=True, text=True)
                    for command in (["rev-parse", "HEAD"], ["status", "--porcelain", "."]))
    if head.returncode:
        return {"commit": None, "src_changed": None}
    return {"commit": head.stdout.strip(), "src_changed": bool(status.stdout.strip())}


def _summary(ms: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return {"best_ms": min(ms), "median_ms": statistics.median(ms), "q1_ms": q1, "q3_ms": q3, "ms": ms}


def run(other, quick: bool) -> dict:
    sides = {"this": os.path.join(ROOT, "src"), **({"other": other} if other else {})}
    argv = [sys.executable, os.path.abspath(__file__), "--worker"] + ["--quick"] * quick
    workers = {side: subprocess.Popen(argv + ["--src", src], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for side, src in sides.items()}
    rows = []
    try:
        for r, (name, layer, inputs, seeds) in enumerate(ROWS):
            replies = {side: [] for side in sides}
            for p in range(1 if quick else REPEATS):
                for side in (list(sides) if p % 2 == 0 else list(sides)[::-1]):
                    workers[side].stdin.write(f"{r}\n")
                    workers[side].stdin.flush()
                    line = workers[side].stdout.readline()
                    if not line:
                        raise RuntimeError(f"the {side} side's worker exited during {name}")
                    replies[side].append(json.loads(line))
            row = {"row": name, "layer": layer, "inputs": {**inputs, "seeds": f"SplitStream(0..{(2 if quick else seeds) - 1})",
                                                            "path": replies["this"][0]["path"]}}
            for side, mine in replies.items():
                digests = {reply["sha256"] for reply in mine}
                if len(digests) != 1:
                    raise RuntimeError(f"{name}: the {side} side's repetitions gave different outputs")
                row[side] = {**_summary([reply["ms"] for reply in mine]), "sha256": digests.pop()}
            if other:
                row["same_outputs"] = row["this"]["sha256"] == row["other"]["sha256"]
                row["this_wins"] = sum(a < b for a, b in zip(row["this"]["ms"], row["other"]["ms"]))
            rows.append(row)
    finally:
        for process in workers.values():
            process.stdin.close()
            process.wait(timeout=60)
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "sides": {side: _checkout(src) for side, src in sides.items()},
        "quick": quick,
        "repeats": 1 if quick else REPEATS,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="another checkout's src/ to alternate with this one's")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--quick", action="store_true", help="each row once, on 2 seeds")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.src, args.quick)
    elif not args.out:
        parser.error("--out is required")
    else:
        result = run(args.src, args.quick)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
