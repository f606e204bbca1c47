"""The README's library quick start runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    """The python block under "Library quick start" runs unchanged and prints
    one reserved table per period of its three-period problem."""
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert found, "README.md has no python block right under '## Library quick start'"
    exec(compile(found.group(1), str(README), "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    for row in rows:
        entries = ast.literal_eval(row)
        assert len(entries) == 4 and all(len(r) == 2 for r in entries)
