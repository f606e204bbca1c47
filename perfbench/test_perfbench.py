"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reserve2d import rounding  # noqa: E402
from reserve2d.core import ReservationTable  # noqa: E402
from reserve2d.rng import SplitStream  # noqa: E402


def test_p90_needs_at_least_100_ops():
    assert run.p90([float(i) for i in range(99)]) is None
    tail = run.p90([float(i) for i in range(1, 101)])
    assert tail is not None and 89 < tail < 92


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert tracing.layer_totals(spans + [["d", 8.0, 9.0, 0]])["d"] == (2, 3.0)


def test_overlapping_children_are_subtracted_once():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 5.0, 0], ["c", 3.0, 6.0, 0]]
    assert tracing.self_times(spans)[0] == 5.0


def test_recorder_nests_spans_and_keeps_results():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x + 1, "inner")
    outer = recorder.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in recorder.spans] == [("outer", None), ("inner", 0)]
    totals = tracing.layer_totals(recorder.spans)
    assert totals == {"outer": (1, 2.0), "inner": (1, 1.0)}


def test_install_counts_like_the_untraced_round_and_restores():
    fair = workloads.RoundFive(5, 0, HERE).ops[3][0]
    untraced = SplitStream(11)
    expected = rounding.controlled_round(fair, untraced)
    original = rounding.controlled_round
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        assert rounding.controlled_round is not original
        assert rounding.controlled_round(fair, SplitStream(11)) == expected
    finally:
        restore()
    assert rounding.controlled_round is original
    assert recorder.counters["rng.u64_draws"] == untraced._n
    cells = len(rounding.extend_table(fair).fraction_cells())
    assert recorder.counters["rounding.fraction_cells"] == cells
    assert tracing.layer_totals(recorder.spans)["rounding.controlled_round"][0] == 1


def _round(records, ops, variant=0):
    return run.Round(variant=variant, traced=False, setup_s=0.1, ops=ops, size={}, records=records)


def test_digest_check_flags_a_perturbed_rounding():
    workload = workloads.RoundFive(1, 0, HERE)
    op = workload.ops[0]
    table, draws = workload.run(op)
    pinned, ok, _ = workload.check(op, (table, draws))
    assert ok

    rows = [list(row) for row in table.entries]
    i = next(i for i, row in enumerate(rows) if row[1] >= 1)
    rows[i][0], rows[i][1] = rows[i][0] + 1, rows[i][1] - 1  # same row total
    moved = ReservationTable.from_entries(table.departments, table.categories, rows)
    changed, _, _ = workload.check(op, (moved, draws))
    assert changed != pinned

    records = [
        {"op": 0, "ms": 1.0, "digest": pinned, "ok": True},
        {"op": 1, "ms": 1.0, "digest": changed, "ok": True},
    ]
    failed, reasons = run.judge([_round(records, 3)], [[pinned, pinned, pinned]])
    assert failed == 2  # op 1 differs from its pin, op 2 never ran
    assert [r["failed"] for r in records] == [False, True]
    assert "digest differs" in reasons[0] and "not run" in reasons[1]


def test_domain_checks_flag_broken_outputs():
    rounding_workload = workloads.RoundFive(1, 0, HERE)
    op = rounding_workload.ops[-1]
    table, draws = rounding_workload.run(op)
    rows = [list(row) for row in table.entries]
    i = next(i for i, row in enumerate(rows) if row[2] >= 2)
    rows[i][2] -= 2  # two seats move from obc to open: row total kept
    rows[i][4] += 2
    broken = ReservationTable.from_entries(table.departments, table.categories, rows)
    assert not rounding_workload.check(op, (broken, draws))[1]

    lottery = workloads.LotteryFive(1, 0, HERE)
    op = (0, 5)
    drawn, draws = lottery.run(op)
    assert lottery.check(op, (drawn, draws))[1]
    lopsided = replace(drawn, assignment=("open",) * len(drawn))
    assert not lottery.check(op, (lopsided, draws))[1]


def test_without_pins_each_variant_must_repeat_its_first_round():
    def rounds(*digests):
        return [{"op": 0, "ms": 1.0, "digest": d, "ok": True} for d in digests]

    same_variant = [_round(rounds("aa"), 1), _round(rounds("bb"), 1)]
    failed, reasons = run.judge(same_variant, None)
    assert failed == 1 and "first round" in reasons[0]
    two_variants = [_round(rounds("aa"), 1, 0), _round(rounds("bb"), 1, 1)]
    assert run.judge(two_variants, None) == (0, [])


def test_latency_is_divided_by_the_reference_time_beside_it():
    records = [
        {"op": 0, "ms": 30.0, "ref_ms": 3.0, "rss_mb": 1.0, "failed": False},
        {"op": 1, "ms": 99.0, "ref_ms": 4.5, "rss_mb": 1.0, "failed": True},
        {"op": 2, "ms": 50.0, "ref_ms": 5.0, "rss_mb": 2.0, "failed": False},
    ]
    assert run.relative_latencies(_round(records, 3)) == [10.0, 10.0]
    metrics = run.end_to_end([_round(records, 3)], [0.5, 0.3, 0.4])
    assert metrics["op_mean_ref"] == (10.0, "ref") and metrics["setup_s"] == (0.4, "s")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == gated


def test_trimmed_mean_drops_a_preempted_probe():
    assert child.trimmed_mean([1.0] * 9 + [40.0]) == 1.0
    assert child.trimmed_mean([2.0, 4.0]) == 3.0
