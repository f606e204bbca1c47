"""Span and counter recording for the traced benchmark run.

The traced run wraps the library's public functions at each layer boundary
by rebinding the module attributes their callers look up, so nothing in the
library itself changes.  Spans (name, start, end, parent) and counters are
kept in memory and written out when the round ends; the per-layer metrics
are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Iterable, Optional, Union

# A span is [name, start, end, parent index or None].
Span = list


class Recorder:
    """In-memory spans and counters of one traced round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._clock = clock

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[..., str]],
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments.  ``before`` sees
        the arguments and ``after`` the arguments and result; both run
        outside the span so their cost is not charged to the layer.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    totals: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, seconds + own)
    return totals


def blocks_in(roster) -> int:
    """Blocks drawn for a roster of independent blocks."""
    return -(-len(roster) // roster.block_length)


def memo_states(roster_module) -> int:
    """States held by the roster module's block-sampler memos."""
    samplers = getattr(roster_module, "_SAMPLERS", {})
    return sum(
        len(getattr(s, "steps", ())) + len(getattr(s, "blocks", ()))
        for s in samplers.values()
    )


def _rebind(sites: Iterable[tuple[object, str]], wrapper: Callable, saved: list) -> None:
    for module, attr in sites:
        if hasattr(module, attr):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary of the library; returns the undo function."""
    from reserve2d import analysis, cli, core, fileio, rng, roster, rounding, solutions

    counters = recorder.counters
    saved: list = []

    def layer(sites, name, before=None, after=None):
        module, attr = sites[0]
        _rebind(sites, recorder.wrap(getattr(module, attr), name, before, after), saved)

    layer([(cli, "main")], lambda argv=None, *a, **k: f"cli.{argv[0] if argv else 'main'}")
    layer([(cli, "run_solution"), (solutions, "run_solution")], "solutions.run_solution")

    def count_blocks(result, *args, **kwargs):
        counters["roster.blocks"] += blocks_in(result)

    layer(
        [(roster, "draw_roster"), (solutions, "draw_roster"), (cli, "draw_roster")],
        "roster.draw_roster",
        after=count_blocks,
    )
    layer([(solutions, "SolutionTrace")], "core.solution_trace")
    layer(
        [(core, "build_fair_share_table"), (solutions, "build_fair_share_table"),
         (cli, "build_fair_share_table"), (analysis, "build_fair_share_table")],
        "core.fair_share",
    )
    layer([(core, "bias_of"), (cli, "bias_of"), (analysis, "bias_of")], "core.bias_of")

    def count_values(values, *args, **kwargs):
        counters["analysis.summarize_biases.values"] += len(values)

    layer(
        [(analysis, "summarize_biases"), (cli, "summarize_biases")],
        "analysis.summarize_biases",
        before=count_values,
    )

    def count_cells(fair, *args, **kwargs):
        counters["rounding.fraction_cells"] += len(rounding.extend_table(fair).fraction_cells())

    layer(
        [(rounding, "controlled_round"), (cli, "controlled_round")],
        "rounding.controlled_round",
        before=count_cells,
    )
    for parser in ("parse_problem_file", "parse_scheme_file", "parse_roster_file"):
        layer([(fileio, parser), (cli, parser)], "fileio.parse")

    next_u64 = rng.SplitStream.next_u64

    def counted_next_u64(self):
        counters["rng.u64_draws"] += 1
        return next_u64(self)

    _rebind([(rng.SplitStream, "next_u64")], counted_next_u64, saved)

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
