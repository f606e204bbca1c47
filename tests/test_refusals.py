"""Every refusal of the scheme tables, flow networks, flow steps, blocks,
rosters, extended and fair tables, fraction cycles and rounding steps: one
test over the rows of ``conftest.REFUSALS``."""

import pytest

from conftest import REFUSALS, refuse


@pytest.mark.parametrize("row_id", [row[0] for row in REFUSALS])
def test_refusal_raises_its_class_and_message_before_any_draw(row_id):
    refuse(row_id)
