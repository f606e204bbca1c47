"""reserve2d benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-third --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report each
    python3 perfbench/run.py --workload round-five --trace 1
    python3 perfbench/run.py --workload all --write-pins

A run repeats *rounds* until ``--seconds`` have passed.  A round is a fresh
interpreter (``child.py``) under its own address-space ceiling that imports
the library from ``src/``, generates the workload's inputs from the seed
and runs its fixed list of operations one after another (a closed loop with
one client).  Round r draws input variant r mod ``VARIANTS``: every
variant has the same shape, and cycling through them keeps a run's figures
from hinging on one draw of inputs.  Extra set-up-only rounds make at
least ``SETUP_SAMPLES`` set-up measurements.

Times are measured against a reference task: before, during and after
every operation the round times a fixed piece of pure-Python work
(``child.SpeedProbe``), and the operation's latency is divided by the mean
probe time.  On a shared host whose speed changes by up to twofold, in
bursts from a fraction of a second to minutes long, these ratios (unit
``ref``) repeat from run to run where seconds do not.  The report prints
the wall-clock ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` beside them,
with the probe time taken out.  Traced rounds run the probes too, so layer
self times hold a few per cent of probe time.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced rounds; the last line
holds the per-layer metrics of the traced rounds, whose outputs and counts
must match the untraced ones.

Every operation's output is checked by a domain rule and by its digest: at
the default seed against ``pins.json``, at any other seed against the
run's first round of the same variant.  An operation that raises, fails a
check or differs in digest counts as failed.  Exit code 2 means no round
could be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")

DEFAULT_SEED = 1
# Address-space ceiling of each workload's round process.  lottery-five
# peaks near 540 MB with the current sampler memo; a memo that grows past
# its ceiling ends in failed operations, not in an exhausted machine.
MEMORY_LIMIT_MB = {"compare-third": 1024, "lottery-five": 2048, "round-five": 1024}
SETUP_SAMPLES = 11
VARIANTS = 4
RUN_BUDGET_S = 170
# Counts that the traced rounds record and untraced rounds can also see.
SHARED_COUNTS = ("rng.u64_draws", "roster.blocks", "rounding.fraction_cells")

# Per-layer metrics: name -> (unit, how it is read from a traced round).
LAYER_METRICS = {
    "cli.compare.self_s": ("s", "self", "cli.compare"),
    "solutions.run_solution.calls": ("count", "calls", "solutions.run_solution"),
    "solutions.run_solution.self_s": ("s", "self", "solutions.run_solution"),
    "core.solution_trace.calls": ("count", "calls", "core.solution_trace"),
    "core.solution_trace.s": ("s", "self", "core.solution_trace"),
    "core.fair_share.calls": ("count", "calls", "core.fair_share"),
    "core.fair_share.s": ("s", "self", "core.fair_share"),
    "core.bias_of.calls": ("count", "calls", "core.bias_of"),
    "core.bias_of.s": ("s", "self", "core.bias_of"),
    "analysis.summarize_biases.calls": ("count", "calls", "analysis.summarize_biases"),
    "analysis.summarize_biases.s": ("s", "self", "analysis.summarize_biases"),
    "analysis.summarize_biases.values": ("count", "counter", "analysis.summarize_biases.values"),
    "roster.draw_roster.calls": ("count", "calls", "roster.draw_roster"),
    "roster.draw_roster.s": ("s", "self", "roster.draw_roster"),
    "roster.blocks": ("count", "counter", "roster.blocks"),
    "roster.memo_states": ("count", "memo", None),
    "roster.new_states_per_block": ("count", "memo_per_block", None),
    "rounding.controlled_round.calls": ("count", "calls", "rounding.controlled_round"),
    "rounding.controlled_round.s": ("s", "self", "rounding.controlled_round"),
    "rounding.fraction_cells": ("count", "counter", "rounding.fraction_cells"),
    "fileio.parse.s": ("s", "self", "fileio.parse"),
    "rng.u64_draws": ("count", "counter", "rng.u64_draws"),
    "trace.overhead_s": ("s", "overhead", None),
}


class SetupFailed(RuntimeError):
    """A round process ended before its inputs were ready."""


@dataclass
class Round:
    variant: int
    traced: bool
    setup_s: float
    ops: int
    size: dict
    records: list = field(default_factory=list)
    done: Optional[dict] = None
    error: Optional[str] = None


def _text(output) -> str:
    """Output captured before a timeout; bytes even in text mode."""
    return output.decode(errors="replace") if isinstance(output, bytes) else output or ""


def spawn_round(
    workload: str, seed: int, variant: int, timeout: float, *,
    traced: bool = False, setup_only: bool = False,
) -> Round:
    """Run one round in a fresh interpreter and collect what it reported."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--variant", str(variant)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    limit = MEMORY_LIMIT_MB[workload] << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.monotonic()
    error = None
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0), preexec_fn=limit_memory,
        )
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode != 0:
            error = f"round process exited with code {proc.returncode}"
    except subprocess.TimeoutExpired as err:
        stdout, stderr = _text(err.stdout), _text(err.stderr)
        error = f"round process killed after {timeout:.0f} s"
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by a killed process
    ready = next((r for r in records if "ready" in r), None)
    if ready is None:
        raise SetupFailed(f"{error or 'no ready line'}\n{stderr[-2000:]}")
    if error and stderr.strip():
        error += ": " + stderr.strip().splitlines()[-1]
    return Round(
        variant=variant,
        traced=traced,
        setup_s=ready["ready"] - start,
        ops=ready["ops"],
        size=ready["size"],
        records=[r for r in records if "op" in r],
        done=next((r for r in records if "done" in r), None),
        error=error,
    )


def p90(latencies: list[float]) -> Optional[float]:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1]


def read_pins() -> dict:
    try:
        with open(PINS, encoding="utf-8") as fh:
            return json.load(fh)["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def judge(rounds: list[Round], expected: Optional[list[list[str]]]) -> tuple[int, list[str]]:
    """Mark every op record ``failed`` or not; returns (failed, reasons).

    ``expected`` holds the pinned digests of each variant; without them each
    op must match the first digest any round of its variant gave for it.
    """
    reference = {
        (variant, index): pin
        for variant, pins in enumerate(expected or ())
        for index, pin in enumerate(pins)
    }
    failed, reasons = 0, []
    for number, rnd in enumerate(rounds):
        by_op = {r["op"]: r for r in rnd.records}
        for index in range(rnd.ops):
            key = (rnd.variant, index)
            rec = by_op.get(index)
            if rec is None:
                why = f"not run ({rnd.error or 'round ended early'})"
            elif "error" in rec:
                why = rec["error"]
            elif not rec.get("ok"):
                why = "domain check failed"
            else:
                if expected is None:
                    reference.setdefault(key, rec["digest"])
                if rec["digest"] != reference.get(key):
                    origin = "pinned one" if expected else "first round's"
                    why = f"digest differs from the {origin}"
                else:
                    rec["failed"] = False
                    continue
            if rec is not None:
                rec["failed"] = True
            failed += 1
            reasons.append(f"round {number} op {index}: {why}")
    return failed, reasons


def completed(rounds: list[Round]) -> list[dict]:
    return [r for rnd in rounds for r in rnd.records if not r.get("failed", True)]


def op_counts(rnd: Round) -> dict:
    """Counts an untraced round can see, summed over its ops."""
    totals: dict = {}
    for rec in rnd.records:
        for key, value in rec.get("counts", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def relative_latencies(rnd: Round) -> list[float]:
    """Each completed op's latency over the reference time measured beside it."""
    return [r["ms"] / r["ref_ms"] for r in completed([rnd])]


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    """The end-to-end metrics of an untraced run: set-up, latency in reference units, memory."""
    relative = [x for rnd in rounds for x in relative_latencies(rnd)]
    peaks = [max([r["rss_mb"] for r in rnd.records] + [rnd.done["rss_mb"] if rnd.done else 0.0])
             for rnd in rounds]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_mean_ref": (statistics.fmean(relative) if relative else 0.0, "ref"),
        "op_p50_ref": (statistics.median(relative) if relative else 0.0, "ref"),
        "peak_rss_mb": (max(peaks), "MB"),
    }


def raw_times(rounds: list[Round]) -> dict:
    """Wall-clock throughput and latency, printed but not gated: they drift with the host."""
    ms = [r["ms"] for r in completed(rounds)]
    refs = [r["ref_ms"] for rnd in rounds for r in rnd.records]
    tail = p90(ms)
    return {
        "ops_per_s": (1000 * len(ms) / sum(ms) if ms else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
        "op_p90_ms": (tail, "ms") if tail is not None else None,
        "reference_ms": (statistics.median(refs) if refs else 0.0, "ms"),
    }


def per_layer(pairs: list[tuple[Round, Round]]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, and any disagreement found.

    Times are medians over the traced rounds.  Counts come from the first
    one (variant 0); traced rounds of the same variant must repeat them, and
    each traced round must count what its untraced partner saw.
    """
    finished = [(u, t) for u, t in pairs if u.done and t.done]
    problems = [] if len(finished) == len(pairs) else ["a round of a traced pair did not finish"]
    if not finished:
        return {name: (0, unit) for name, (unit, _, _) in LAYER_METRICS.items()}, problems
    first = finished[0][1]
    counters = first.done["counters"]
    for untraced, traced in finished:
        seen = traced.done["counters"]
        for key in SHARED_COUNTS:
            if traced.variant == first.variant and seen.get(key, 0) != counters.get(key, 0):
                problems.append(f"{key} differs between traced rounds of one variant")
        for key, value in op_counts(untraced).items():
            if seen.get(key, 0) != value:
                problems.append(f"{key}: traced {seen.get(key, 0)}, untraced {value}")
    memo = first.records[-1].get("memo_states", 0) if first.records else 0
    blocks = counters.get("roster.blocks", 0)
    metrics = {}
    for name, (unit, kind, key) in LAYER_METRICS.items():
        if kind == "self":
            value = statistics.median(t.done["layers"].get(key, (0, 0.0))[1] for _, t in finished)
        elif kind == "calls":
            value = first.done["layers"].get(key, (0, 0.0))[0]
        elif kind == "counter":
            value = counters.get(key, 0)
        elif kind == "memo":
            value = memo
        elif kind == "memo_per_block":
            value = memo / blocks if blocks else 0.0
        else:
            value = statistics.median(t.done["loop_s"] - u.done["loop_s"] for u, t in finished)
        metrics[name] = (value, unit)
    return metrics, problems


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(seed: int) -> dict:
    mem_total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mem_total": f"{mem_total / 2**30:.1f} GiB",
        "commit": commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, write_pins: bool) -> dict:
    """Run one workload; prints its report and returns the result line."""
    start = time.monotonic()
    deadline = start + seconds

    def left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    rounds: list[Round] = []
    pairs: list[tuple[Round, Round]] = []
    while True:
        started = len(pairs) if trace else len(rounds)
        if rounds and (started == VARIANTS if write_pins else time.monotonic() >= deadline):
            break
        variant = started % VARIANTS
        if trace:
            pair = (spawn_round(name, seed, variant, left()),
                    spawn_round(name, seed, variant, left(), traced=True))
            pairs.append(pair)
            rounds.extend(pair)
        else:
            rounds.append(spawn_round(name, seed, variant, left()))
        if any(r.error for r in rounds[-2:]):
            break  # a crashed or killed round: report its failures, start no more
    setups = [r.setup_s for r in rounds if not r.traced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn_round(name, seed, 0, left(), setup_only=True).setup_s)

    pins = read_pins()
    expected = pins.get(name) if seed == DEFAULT_SEED and not write_pins else None
    failed, reasons = judge(rounds, expected)
    if seed == DEFAULT_SEED and not write_pins and expected is None:
        reasons.append(f"no pinned digests for {name} in {os.path.basename(PINS)}")
    attempted = sum(r.ops for r in rounds)
    ok = completed(rounds)
    first = rounds[0]
    digests: dict[int, list[str]] = {}
    for rnd in rounds:
        ordered = sorted(rnd.records, key=lambda r: r["op"])
        digests.setdefault(rnd.variant, [rec.get("digest", "-") for rec in ordered])

    if trace:
        metrics, problems = per_layer(pairs)
        reasons += problems
    else:
        metrics = end_to_end(rounds, setups)
    correct = failed == 0 and not reasons

    print(f"== reserve2d benchmark: {name}, seed {seed}, trace {int(trace)} ==")
    print("context: " + json.dumps(context(seed)))
    print(f"input size (variant 0 of {VARIANTS}): " + json.dumps(first.size))
    counts = op_counts(first)
    if counts:
        print("counts of variant 0: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"rounds: {len(rounds)} (fresh interpreter each, "
          + ("alternately untraced and traced)" if trace else f"untraced), {len(setups)} set-ups"))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value:>14.6g} {unit}")
    if not trace:
        print("wall clock, not gated:")
        for metric, shown in raw_times(rounds).items():
            if shown is None:
                print(f"  {metric:<36} {'n/a':>14} (needs 100 ops, have {len(ok)})")
            else:
                print(f"  {metric:<36} {shown[0]:>14.6g} {shown[1]}")
    print(f"  {'failed_ratio':<36} {failed / attempted:>14.6g} "
          f"({failed} failed / {attempted} attempted)")
    for variant, listed in sorted(digests.items()):
        print(f"digests of variant {variant}: " + " ".join(listed))
    if trace and pairs[0][1].done:
        print("spans of a traced round: perfbench/out/" + pairs[0][1].done["trace_file"])
    for reason in reasons[:20]:
        print("FAILED: " + reason)

    if write_pins:
        if failed:
            raise SystemExit(f"not pinning {name}: {failed} ops failed")
        pinned = read_pins()
        pinned[name] = [digests[variant] for variant in range(VARIANTS)]
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump({"seed": DEFAULT_SEED, "digests": pinned}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"pinned the digests of {VARIANTS} variants for {name}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*MEMORY_LIMIT_MB, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="store the digests of every variant at the default seed")
    args = parser.parse_args(argv)
    if args.write_pins and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-pins needs --seed {DEFAULT_SEED} and --trace 0")
    names = list(MEMORY_LIMIT_MB) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.write_pins)
        except SetupFailed as err:
            print(f"error: {name}: set-up failed: {err}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
