"""``bench/layers.py --quick``: every row runs once on each side and the file keeps its schema."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_layer_run_writes_every_row_for_both_sides(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, os.path.join(ROOT, "bench", "layers.py"), "--quick", "--out", str(out),
            "--src", os.path.join(ROOT, "src")]
    subprocess.run(argv, check=True, timeout=60)
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and data["quick"] and data["repeats"] == 1 and data["cores"] >= 1
    assert set(data["sides"]) == {"this", "other"} and data["python"].count(".") == 2
    assert [row["row"] for row in data["rows"]] == [
        "draw_block/1-3/h3", "draw_block/half/h24", "draw_block/five/h200", "controlled_round/five/5",
        "controlled_round/five/14", "controlled_round/five/40", "draw_roster/five/2-blocks",
        "replicate/1-3/compare-third", "replicate/1-3/compare-seed-9", "tail_diagnostic/half/100x1",
        "run_solution/1-3/proposed", "tables/five/48x9"]
    assert {row["layer"] for row in data["rows"]} == {
        "roster.draw_block", "rounding.controlled_round", "roster.draw_roster", "solutions._replicate",
        "analysis.tail_diagnostic", "solutions.run_solution", "core.bias_of"}
    paths = [row["inputs"]["path"] for row in data["rows"]]
    # heights 3 and 24 descend the sampler's tree; a solution's runs on 1/3 and half/half read lanes
    assert paths == ["tree descent"] * 2 + ["walk"] * 5 + ["lane read"] * 4 + ["fair tables"]
    for row in data["rows"]:
        for side in ("this", "other"):
            summary = row[side]
            assert 0 < summary["best_ms"] <= summary["median_ms"] and len(summary["ms"]) == 1
            assert len(summary["sha256"]) == 64
        assert row["same_outputs"] and row["this_wins"] in (0, 1)  # the same src on both sides
