"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Inputs come from Python's own ``random.Random`` seeded with the workload
name and seed, so they do not depend on the generator under test.  The
shape of each workload (department counts, periods, replications, roster
lengths in blocks) is fixed; only values vary with the seed, so a run's
amount of work is the same for every seed.

Why these three:

* ``compare-third`` is the paper's headline experiment, ``compare
  --synthesize`` on the toy 1/3 scheme.  Its roster blocks have height 3
  and are served almost entirely from the sampler memo; its time goes to
  the replication driver, trace validation, biases and their exact summary.
* ``lottery-five`` draws department rosters on the realistic five-category
  scheme (block height 200).  Nearly every sampler state is new, so the
  memo grows by tens of megabytes per block: the same layer as in
  ``compare-third``, used the opposite way.
* ``round-five`` runs controlled rounding on five-category period tables of
  5 to 40 departments; its cost grows faster than the number of cells, so
  the sizes are spread on purpose.  No roster, solution or CLI code runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from reserve2d import cli, core, rounding, roster
from reserve2d.core import ReservationProblem, ReservationScheme
from reserve2d.rng import SplitStream

# Realistic scheme: SC 15 %, ST 7.5 %, OBC 27 %, EWS 10 %, open 40.5 %.
FIVE = ReservationScheme(
    ("sc", "st", "obc", "ews", "open"),
    (Fraction(3, 20), Fraction(3, 40), Fraction(27, 100), Fraction(1, 10), Fraction(81, 200)),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _inputs(name: str, seed: int, variant: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{variant}")


class CompareThird:
    name = "compare-third"
    DEPARTMENTS, PERIODS, REPLICATIONS, OPS = 10, 9, 10, 20

    def __init__(self, seed: int, variant: int, workdir: str):
        self.scheme_path = os.path.join(workdir, "third.csv")
        with open(self.scheme_path, "w", encoding="utf-8") as fh:
            fh.write("category,numerator,denominator\nreserved,1,3\nopen,2,3\n")
        gen = _inputs(self.name, seed, variant)
        self.ops = [gen.randrange(2**64) for _ in range(self.OPS)]

    def size(self) -> dict:
        return {
            "scheme": "1/3, 2/3 (block height 3)",
            "departments": self.DEPARTMENTS,
            "periods": self.PERIODS,
            "replications": self.REPLICATIONS,
            "ops_per_round": self.OPS,
        }

    def run(self, op_seed: int) -> str:
        argv = [
            "compare", "--synthesize", "--scheme", self.scheme_path,
            "--seed", str(op_seed),
            "--replications", str(self.REPLICATIONS),
            "--periods", str(self.PERIODS),
            "--departments-range", str(self.DEPARTMENTS), str(self.DEPARTMENTS),
            "--format", "json",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"compare exited with {code}")
        return out.getvalue()

    def check(self, op_seed: int, report: str) -> tuple[str, bool, dict]:
        """The report parses and summarizes every solution, period and scope."""
        try:
            data = json.loads(report)
        except ValueError:
            return digest(report), False, {}
        series = data.get("series", [])
        m, n, r = self.DEPARTMENTS, 2, self.REPLICATIONS
        expected = {"department": m * n * r, "university": n * r}
        ok = (
            data.get("command") == "compare"
            and len(series) == 3 * self.PERIODS * 2
            and all(s["count"] == expected[s["scope"]] for s in series)
        )
        return digest(report), ok, {}


class LotteryFive:
    name = "lottery-five"
    HEIGHT = 200
    # Blocks per department roster; 14 blocks in all keep the sampler memo
    # (about 37 MB per block with the current sampler) under 1 GB.  With eight
    # one-block rosters the median op is a one-block draw.
    BLOCKS = (2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1)

    def __init__(self, seed: int, variant: int, workdir: str):
        gen = _inputs(self.name, seed, variant)
        self.master = SplitStream(gen.randrange(2**64))
        self.ops = [
            (i, gen.randint((b - 1) * self.HEIGHT + 1, b * self.HEIGHT))
            for i, b in enumerate(self.BLOCKS)
        ]

    def size(self) -> dict:
        return {
            "scheme": "15/7.5/27/10/40.5 % (block height 200)",
            "departments": len(self.BLOCKS),
            "blocks": sum(self.BLOCKS),
            "roster_lengths": [length for _, length in self.ops],
        }

    def run(self, op):
        index, length = op
        stream = self.master.child(index)
        drawn = roster.draw_roster(FIVE, length, stream)
        return drawn, stream._n

    def check(self, op, out) -> tuple[str, bool, dict]:
        """Every prefix of q positions holds within one seat of q*a_j."""
        drawn, draws = out
        _, length = op
        ok = len(drawn) == length and drawn.block_length == self.HEIGHT
        held = dict.fromkeys(FIVE.categories, 0)
        for q, category in enumerate(drawn.assignment, start=1):
            held[category] += 1
            ok = ok and all(
                abs(held[c] * a.denominator - q * a.numerator) < a.denominator
                for c, a in zip(FIVE.categories, FIVE.fractions)
            )
        counts = {"rng.u64_draws": draws, "roster.blocks": -(-length // self.HEIGHT)}
        return digest(",".join(drawn.assignment)), ok, counts


class RoundFive:
    name = "round-five"
    PERIODS = 2
    # Problems per department count: a geometric spread from 5 to 40,
    # weighted toward the middle so that the median op's size class holds
    # many problems and op_p50_ms does not hinge on a few of them.
    PROBLEMS = {5: 1, 7: 2, 10: 3, 14: 6, 20: 3, 28: 2, 40: 1}

    def __init__(self, seed: int, variant: int, workdir: str):
        gen = _inputs(self.name, seed, variant)
        sizes = [m for m, count in self.PROBLEMS.items() for _ in range(count)]
        gen.shuffle(sizes)
        self.ops = []
        for m in sizes:
            vacancies = tuple(
                tuple(gen.randint(1, 30) for _ in range(m)) for _ in range(self.PERIODS)
            )
            problem = ReservationProblem(
                tuple(f"d{i}" for i in range(1, m + 1)), FIVE, vacancies
            )
            for t in range(1, self.PERIODS + 1):
                fair = core.build_fair_share_table(problem, t)
                cells = len(rounding.extend_table(fair).fraction_cells())
                self.ops.append((fair, gen.randrange(2**64), cells))

    def size(self) -> dict:
        return {
            "scheme": "15/7.5/27/10/40.5 %",
            "problems_by_departments": self.PROBLEMS,
            "periods": self.PERIODS,
            "fraction_cells": sum(cells for _, _, cells in self.ops),
        }

    def run(self, op):
        fair, op_seed, _ = op
        stream = SplitStream(op_seed)
        return rounding.controlled_round(fair, stream), stream._n

    def check(self, op, out) -> tuple[str, bool, dict]:
        """Every entry is floor or ceil of its fair share; row totals are exact."""
        table, draws = out
        fair, _, cells = op
        ok = all(
            sum(row) == total and all(
                v in (f.numerator // f.denominator, -(-f.numerator // f.denominator))
                for v, f in zip(row, fair_row)
            )
            for row, fair_row, total in zip(table.entries, fair.entries, fair.row_totals)
        ) and len(table.entries) == len(fair.entries)
        counts = {"rng.u64_draws": draws, "rounding.fraction_cells": cells}
        return digest(repr(table.entries)), ok, counts


WORKLOADS = {w.name: w for w in (CompareThird, LotteryFive, RoundFive)}
