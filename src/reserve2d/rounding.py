"""Controlled rounding of fair share tables.

A fair share table has integer row totals but generally fractional entries
and column totals.  Appending one synthetic row with entries
``(1 - frac(column_sum)) mod 1`` makes every column total integral too, and
the extended table is then rounded by the dependent-rounding walk of
:mod:`reserve2d._walk` on the graph with one edge per cell, from the cell's
column to its row.  Every entry ends at floor or ceil of its fair share
with its fair share as expectation, every line total is kept, and dropping
the synthetic row leaves a reservation table that meets both the
per-department and the university-level quotas by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional

from ._walk import Graph, Walk, check_step, observed, scaled
from .core import FairShareTable, ReservationTable

__all__ = [
    "ExtendedTable",
    "FractionCycle",
    "DecompositionStep",
    "extend_table",
    "find_fraction_cycle",
    "decompose_once",
    "controlled_round",
]


@dataclass(frozen=True)
class ExtendedTable:
    """A fair share table plus the synthetic balancing row (always last).

    Every row and column sums to an integer; entries evolve during rounding
    but the link to the source table is kept for provenance.
    """

    source: FairShareTable
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m, n = len(self.source.departments), len(self.source.categories)
        if len(self.entries) != m + 1 or any(len(r) != n for r in self.entries):
            raise ValueError(
                f"extended table must be {m + 1} x {n} (source rows plus one synthetic row)"
            )
        # The walk's row-major scaled flows, derived once and checked in
        # integers; not a field, so equality, hashing and repr ignore it.
        scale, flows = scaled(v for row in self.entries for v in row)
        object.__setattr__(self, "_scaled", (scale, flows))
        for r in range(m + 1):
            row = flows[r * n:(r + 1) * n]
            if min(row, default=0) < 0:
                raise ValueError(f"row {r} has a negative entry")
            if sum(row) % scale:
                raise ValueError(f"row {r} does not sum to an integer")
        for j in range(n):
            if sum(flows[j::n]) % scale:
                raise ValueError(f"column {j} does not sum to an integer")

    @property
    def is_integral(self) -> bool:
        scale, flows = self._scaled
        return not any(f % scale for f in flows)

    def fraction_cells(self) -> tuple[tuple[int, int], ...]:
        """Row-major coordinates of the fractional entries."""
        scale, flows = self._scaled
        n = len(self.source.categories)
        return tuple(divmod(e, n) for e, f in enumerate(flows) if f % scale)


def extend_table(fair: FairShareTable) -> ExtendedTable:
    """Append the synthetic row that makes every column total integral."""
    synthetic = tuple((1 - (total % 1)) % 1 for total in fair.column_totals)
    return ExtendedTable(fair, fair.entries + (synthetic,))


@dataclass(frozen=True)
class FractionCycle:
    """An even alternating cycle of distinct cells.

    Consecutive cells share a row then a column, alternating; the closing
    pair (last, first) shares a column.  Cells at even positions (0-based)
    are the cycle's *odd* cells: the ones a raise-odd step moves up.
    """

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cells = self.cells
        if len(cells) < 4 or len(cells) % 2:
            raise ValueError(
                f"a cycle needs an even number (>= 4) of cells, got {len(cells)}"
            )
        if len(set(cells)) != len(cells):
            raise ValueError("cycle cells must be distinct")
        for s in range(len(cells)):
            a, b = cells[s], cells[(s + 1) % len(cells)]
            if s % 2 == 0:
                if a[0] != b[0]:
                    raise ValueError(
                        f"cells {a} and {b} must share a row (step {s} is a row step)"
                    )
            elif a[1] != b[1]:
                raise ValueError(
                    f"cells {a} and {b} must share a column (step {s} is a column step)"
                )

    @property
    def odd_cells(self) -> tuple[tuple[int, int], ...]:
        return self.cells[0::2]

    @property
    def even_cells(self) -> tuple[tuple[int, int], ...]:
        return self.cells[1::2]


def _walk(table: ExtendedTable) -> Walk:
    """The walk over ``table``: edge i*n + j runs from column j to row i."""
    graph = _graph(len(table.entries), len(table.entries[0]))
    return Walk(graph, *table._scaled)


@lru_cache(maxsize=64)
def _graph(rows: int, n: int) -> Graph:
    return Graph(n + rows, [(j, n + i) for i in range(rows) for j in range(n)])


def _cells(cycle, n: int) -> FractionCycle:
    return FractionCycle(tuple(divmod(e, n) for e, _ in cycle))


def find_fraction_cycle(table: ExtendedTable) -> Optional[FractionCycle]:
    """Deterministic cycle of fractional cells, or None if none remain.

    This is the walk's cycle rule (see :mod:`reserve2d._walk`) with cells as
    row-major column-to-row edges: it starts at the row-major-smallest
    fractional cell, alternates column and row moves, and is normalized to
    start at its row-major-smallest cell, moving along that cell's row first.
    """
    cycle = _walk(table).cycle()
    return None if cycle is None else _cells(cycle, len(table.entries[0]))


@dataclass(frozen=True)
class DecompositionStep:
    """One randomized rounding step with both branches materialized.

    The pre-step table equals probability * raise_odd +
    (1 - probability) * raise_even entry by entry; validated exactly.
    """

    table: ExtendedTable
    cycle: FractionCycle
    d_plus: Fraction
    d_minus: Fraction
    probability: Fraction
    raise_odd: ExtendedTable
    raise_even: ExtendedTable
    branch: str
    result: ExtendedTable

    BRANCHES = ("raise-odd", "raise-even")

    def __post_init__(self):
        rows = zip(self.table.entries, self.raise_odd.entries, self.raise_even.entries)
        check_step(self, self.raise_odd, self.raise_even, (
            ((i, j), v, o, e) for i, row in enumerate(rows) for j, (v, o, e) in enumerate(zip(*row))
        ))


def _table_at(source: FairShareTable, n: int, scale: int, flows) -> ExtendedTable:
    return ExtendedTable(
        source,
        tuple(
            tuple(Fraction(f, scale) for f in flows[i:i + n])
            for i in range(0, len(flows), n)
        ),
    )


def decompose_once(
    table: ExtendedTable,
    cycle: Optional[FractionCycle],
    rng,
    *,
    on_step: Optional[Callable[[DecompositionStep], None]] = None,
) -> ExtendedTable:
    """One randomized step along a cycle (default: the deterministic one).

    Strictly reduces the number of fractional cells, never moves an entry
    outside floor/ceil of its current (hence original) value, and leaves
    every line total unchanged; the expectation of the result is the input.
    """
    walk = _walk(table)
    n = len(table.entries[0])
    edges = None
    if cycle is not None:
        if not all(0 <= i < len(table.entries) and 0 <= j < n for i, j in cycle.cells):
            raise ValueError(f"cycle {cycle.cells} leaves the {len(table.entries)} x {n} extended table")
        for i, j in cycle.cells:
            if table.entries[i][j].denominator == 1:
                raise RuntimeError(
                    f"internal error: degenerate cycle (cell ({i}, {j}) is integral)"
                )
        edges = [(i * n + j, 1 - 2 * (s % 2)) for s, (i, j) in enumerate(cycle.cells)]
    push = walk.step(rng, edges)
    if push is None:
        raise ValueError("table is already integral; nothing to decompose")
    build = partial(_table_at, table.source, n, walk.scale)
    if on_step is None:
        return build(walk.flows)
    return observed(DecompositionStep, table, _cells(push.cycle, n), build, walk, push, on_step)


def controlled_round(
    fair: FairShareTable,
    rng,
    *,
    on_step: Optional[Callable[[DecompositionStep], None]] = None,
) -> ReservationTable:
    """Round a fair share table to an integer table, unbiasedly.

    Every entry of the result is floor or ceil of its fair share, row totals
    are preserved exactly, column totals land within floor/ceil of the fair
    column totals, and the expectation of every entry (margins included) is
    the fair share itself.
    """
    table = extend_table(fair)
    walk = _walk(table)
    n = len(fair.categories)
    build = partial(_table_at, fair, n, walk.scale)
    while (push := walk.step(rng)) is not None:
        if on_step is not None:
            table = observed(DecompositionStep, table, _cells(push.cycle, n), build, walk, push, on_step)
    rows = (  # the synthetic row is dropped
        tuple(f // walk.scale for f in walk.flows[i * n:(i + 1) * n])
        for i in range(len(fair.departments))
    )
    return ReservationTable.from_entries(fair.departments, fair.categories, rows)
