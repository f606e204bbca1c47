"""Seeded CLI outputs must match the committed goldens byte for byte.

The goldens pin every draw of the generator, the rounding walk and the
roster lottery; ``tests/make_golden.py`` wrote them and lists the cases.
"""

import os

import pytest

from make_golden import CASES, GOLDEN_DIR, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    output = tmp_path / name
    assert run_case(name, str(output)) == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        expected = fh.read()
    assert output.read_bytes() == expected
