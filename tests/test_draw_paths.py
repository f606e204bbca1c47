"""One table of the ways unobserved roster blocks are drawn, each checked against one reference.

The reference walks a stream's blocks one after another on the scheme table's network in the paper's form,
a vertex per cell (``conftest.paper_network``); it is checked against the observed ``decompose_flow_once``
loop of ``build_flow_network(table)``, whose network has each cell as one prefix -> row edge, on every case
but five-category, where one observed block takes seconds.
``PATHS`` lists the other ways: the sampler's walk, its descent by ``randrange`` and by read-ahead,
``read``'s single-depth decode and its fallback, ``solutions._reader``'s counts, a proposed run, and
``_tally`` of a ``draw_roster`` roster.  ``CASES`` lists what they run on: every golden scheme (and
half/half) at its minimal height, with its tree at the depth limit and one past it; five stream kinds;
keys that put a u64 ``randrange`` might reject at the ends and middle of a read's span and past it, at
the ends of a second 64-block chunk, or in and past the last 64-u64 chunk a walk reads; odd start indices;
counts that cross 64-block chunks; and run ends on block boundaries.  For each stream a path must give the
reference's blocks or counts and ``_n``, hand ``randrange`` the bounds the case predicts (every decision of a
walk from, or of a chunk of blocks at, a read-ahead chunk holding such a u64, or of a stream that is not read
ahead), and be served the way the case predicts.  A change to the
sampler edits rows or cases here, not tests.
"""

import ast
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional
from unittest.mock import patch

import pytest

from reserve2d import ReservationProblem, SolutionConfig, SplitStream, build_scheme_table, roster
from reserve2d import draw_block, draw_roster, minimal_height
from reserve2d._walk import Walk
from reserve2d.solutions import _reader, _runner, _tally

from conftest import SCHEMES, CountedU64s, CountingRandom, ZeroU64s, key_with_u64, network_walk, per_step, stepwise_draw

_TOP = (1 << 64) - 1
# The streams a case can draw from; "rebound" draws while ``SplitStream.next_u64`` is rebound on the class.
KINDS = {"split": SplitStream, "counted": CountedU64s, "zeros": ZeroU64s, "random": CountingRandom,
         "rebound": SplitStream}


@dataclass(frozen=True)
class Case:
    scheme: str  # a key of SCHEMES, drawn at its minimal height
    keys: tuple  # one stream each
    counts: tuple  # the blocks each stream draws
    kind: str = "split"  # a key of KINDS
    start: int = 0  # u64s each stream draws before a path runs
    limit: Optional[int] = None  # the sampler's tree depth limit, if not its own
    boundaries: bool = False  # every end closes a block
    seed: Optional[int] = None  # the keys are this seed's first children

    def ends(self, s: int) -> tuple:
        """The positions, in order, the counting paths count stream s at."""
        c, k = self.counts[s], minimal_height(SCHEMES[self.scheme][0])
        return (0, c // 2 * k, c * k) if self.boundaries else (c * k // 2, max(c * k - 1, 0), c * k)

    def rejects(self, s: int, n: int = 0, span: Optional[int] = None) -> bool:
        """Whether u64s n+1 .. n+``span`` of stream s (default: 1 .. d * count, d the leaves' depth) hold one
        above 2**64 - L, L the scale, which ``randrange`` might reject for a denominator of the walk."""
        scheme, depths = SCHEMES[self.scheme]
        stream, top = SplitStream(self.keys[s]), (1 << 64) - minimal_height(scheme)
        stream._n = n
        return any(stream.next_u64() > top for _ in range(depths[0] * self.counts[s] if span is None else span))


def _children_of(scheme: str, seed: int, counts: tuple, **fields) -> Case:
    """A case whose streams are the first children of ``seed``, as a proposed run's departments are."""
    return Case(scheme, tuple(SplitStream(seed).child(i).key for i in range(len(counts))), counts, seed=seed, **fields)


def _rejectable(name: str, count: int) -> tuple:
    """Keys putting 2**64 - L (which no denominator up to L rejects), 2**64 - L + 1 and 2**64 - 1 at
    u64 0, the first, middle and last u64 of the span a read of ``count`` blocks screens, and one past it."""
    scheme, (d,) = SCHEMES[name]
    low, span = (1 << 64) - minimal_height(scheme), d * count
    return tuple(key_with_u64(u, j) for u in (low, low + 1, _TOP) for j in (0, 1, span // 2, span, span + 1))


def _in_second_chunk(name: str) -> tuple:
    """Keys putting 2**64 - 1 (of 65 blocks) or 2**64 - L + 1 (of 150) at the first and the last u64 of the
    second 64-block chunk, and those counts."""
    scheme, (d,) = SCHEMES[name]
    at = [(u, j, count) for count, u in ((65, _TOP), (150, (1 << 64) - minimal_height(scheme) + 1))
          for j in (64 * d + 1, 64 * d + min(count - 64, 64) * d)]
    return tuple(key_with_u64(u, j) for u, j, _ in at), tuple(count for _, _, count in at)


def _cases() -> dict:
    batches = (0, 1, 33, 67, 100, 150)
    cases = {"five": _children_of("five", 5, (2, 0)), "five-odd-start": _children_of("five", 9, (1,), start=1),
             "five-rejectable": Case("five", (key_with_u64(_TOP, 1),), (1,)),
             # each block's walk (745 steps for the second key) reads u64s 705-768 as its last chunk
             "five-rejectable-last-chunk": Case("five", tuple(key_with_u64(_TOP, j) for j in (705, 746, 769)), (1,) * 3)}
    for i in range(4):  # reads of one u64, whose lane carries past 2**64: each decides one bit of a block
        cases[f"half-one-lane-{i}"] = Case("half", (_TOP - i,), (1,))
    for name in ("third", "quarters", "tenth", "half"):
        cases[name] = base = _children_of(name, 5, (2, 0, 3))
        deepest = max(SCHEMES[name][1])
        cases[f"{name}-at-limit"], cases[f"{name}-past-limit"] = (replace(base, limit=deepest - p) for p in (0, 1))
    for kind in ("counted", "zeros", "random", "rebound"):
        for name in ("third", "quarters", "third-past-limit"):
            cases[f"{name}-{kind}"] = replace(cases[name], kind=kind)
    cases["third-odd-start"], cases["quarters-odd-start"] = (replace(cases[n], start=1) for n in ("third", "quarters"))
    cases["third-batches"] = _children_of("third", 6, batches)
    cases["third-batches-odd-start"] = _children_of("third", 7, batches, start=1)
    cases["quarters-batches-odd-start"] = _children_of("quarters", 8, batches, start=3)
    cases["third-rejectable"] = Case("third", _rejectable("third", 5), (5,) * 15)
    cases["tenth-rejectable"] = Case("tenth", _rejectable("tenth", 2), (2,) * 15)
    cases["third-rejectable-chunks"] = Case("third", *_in_second_chunk("third"))
    cases["tenth-rejectable-chunks"] = Case("tenth", *_in_second_chunk("tenth"))
    cases["third-boundaries"], cases["quarters-boundaries"] = (
        replace(cases[n], counts=(2, 0, 4), boundaries=True) for n in ("third", "quarters"))
    return cases


CASES = _cases()


@dataclass(frozen=True)
class DrawPath:
    run: Callable  # (sampler, case, streams) -> each stream's blocks, or its counts at its ends
    reads: bool = False  # serves keys of fresh streams by decoding or falling back to ``blocks``
    counts: bool = False  # returns counts at the case's ends
    per_step: bool = False  # every draw goes through ``randrange``
    rebound: bool = False  # runs with ``SplitStream.next_u64`` rebound on the class
    default_sampler: bool = False  # draws from the cached sampler, which keeps its own depth limit


def _walked(sampler, case, streams) -> list:
    return [[sampler.walk(stream) for _ in range(count)] for stream, count in zip(streams, case.counts)]


def _descended(sampler, case, streams, view=lambda stream: stream) -> list:
    return [sampler.blocks(view(stream), count) for stream, count in zip(streams, case.counts)]


def _read(sampler, case, streams) -> list:
    blocks = iter(sampler.read(case.counts, [range(c) for c in case.counts])(case.keys))
    return [list(islice(blocks, c)) for c in case.counts]


def _reader_counts(sampler, case, streams) -> list:
    flat = _reader(sampler, [case.ends(s) for s in range(len(case.keys))])(case.keys)
    return _by_stream(flat, case, sampler.table.scheme.size)


def _by_stream(flat: list, case: Case, n: int) -> list:
    """Each stream's counts at its ends, from every stream's counts at its first end, then at its second ..."""
    rows = [tuple(flat[a:a + n]) for a in range(0, len(flat), n)]
    return [rows[s::len(case.keys)] for s in range(len(case.keys))]


def _proposed_counts(sampler, case, streams) -> list:
    """A proposed run whose departments are the streams, each reading its roster at its ends period by period."""
    ends = [case.ends(s) for s in range(len(case.keys))]
    vacancies = [[e[t] - (e[t - 1] if t else 0) for e in ends] for t in range(3)]
    problem = ReservationProblem([f"d{s}" for s in range(len(ends))], sampler.table.scheme, vacancies)
    return _by_stream(_runner(problem, SolutionConfig("proposed"))(case.seed), case, sampler.table.scheme.size)


def _tally_counts(sampler, case, streams) -> list:
    scheme, n = sampler.table.scheme, sampler.table.scheme.size
    tallies = [_tally(draw_roster(scheme, max(case.ends(s)), stream).assignment, case.ends(s), scheme.categories)
               for s, stream in enumerate(streams)]
    return [[tuple(flat[a:a + n]) for a in range(0, len(flat), n)] for flat in tallies]


PATHS = {
    "walk": DrawPath(_walked),
    "randrange descent": DrawPath(partial(_descended, view=per_step), per_step=True),
    "batched descent": DrawPath(_descended),
    "read decode": DrawPath(_read, reads=True),
    "read fallback": DrawPath(_read, reads=True, per_step=True, rebound=True),
    "_reader counts": DrawPath(_reader_counts, reads=True, counts=True),
    "proposed run": DrawPath(_proposed_counts, reads=True, counts=True, default_sampler=True),
    "_tally of draw_roster": DrawPath(_tally_counts, counts=True, default_sampler=True),
}


def _applies(path: DrawPath, case: Case) -> bool:
    if path.default_sampler and (case.limit is not None or path.reads and case.seed is None):
        return False
    if path.reads:  # a read takes keys of fresh SplitStreams
        return case.kind in ("split", "rebound") and not case.start and not (path.rebound and case.kind == "rebound")
    return True


def _spy(record, original):
    def spied(*args):
        record(*args)
        return original(*args)
    return spied


@contextmanager
def _watch(rebound: bool):
    """A log of what streams see while it is open, by stream key: ``randrange`` bounds, walks, the first ``blocks``
    call's stream and count, the last ``read``'s wanted lists, and ``next_u64`` calls while it is rebound."""
    log = SimpleNamespace(bounds=defaultdict(list), walked=set(), blocks={}, wanted=None, u64s=defaultdict(int))
    bound, sampler = (lambda rng, n: log.bounds[rng.key].append(n)), roster._BlockSampler
    spies = [(SplitStream, "randrange", bound), (CountingRandom, "randrange", bound),
             (Walk, "run", lambda walk, rng, *hook: log.walked.add(getattr(rng, "key", None))),  # cycle's has none
             (sampler, "blocks", lambda self, rng, count: log.blocks.setdefault(rng.key, (rng, count))),
             (sampler, "read", lambda self, counts, wanted: setattr(log, "wanted", [list(own) for own in wanted]))]
    spies += [(SplitStream, "next_u64", lambda rng: log.u64s.update({rng.key: log.u64s[rng.key] + 1}))] * rebound
    with ExitStack() as stack:
        for owner, name, record in spies:
            stack.enter_context(patch.object(owner, name, _spy(record, getattr(owner, name))))
        yield log


def _streams(case: Case) -> list:
    streams = [KINDS[case.kind](key) for key in case.keys]
    for stream in streams:
        for _ in range(case.start):
            stream.next_u64()
    return streams


@cache
def _reference(name: str) -> list:
    """Each stream's (blocks, ``_n`` before each block and after the last, (num, den, take) of every step of each
    block), walked block after block on the paper's network."""
    case = CASES[name]
    table, streams = build_scheme_table(SCHEMES[case.scheme][0]), _streams(case)
    with _watch(case.kind == "rebound"):
        walks = [[(stream._n, *network_walk(table, stream)) for _ in range(c)] for stream, c in zip(streams, case.counts)]
    return [([b for _, b, _ in w], [n for n, _, _ in w] + [stream._n], [ds for _, _, ds in w])
            for stream, w in zip(streams, walks)]


def _sampler(case: Case):
    table = build_scheme_table(SCHEMES[case.scheme][0])
    if case.limit is None:
        return roster._sampler(table)
    return type("Capped", (roster._BlockSampler,), {"_TREE_DEPTH": case.limit})(table)


def _bounds(case: Case, s: int, reference, per_step: bool, edges: Optional[int]) -> list:
    """The ``randrange`` bounds stream s sees: every decision's if ``per_step`` or the stream is no plain
    ``SplitStream``.  Otherwise those of each walk (``edges`` given) from its first chunk of read-ahead that holds a
    u64 ``randrange`` might reject on, and of each chunk of at most 64 descended blocks whose read-ahead holds one.
    A walk reads min(64, edges not yet read) u64s whenever its steps have used the last chunk; a chunk of blocks
    reads the deepest leaf's depth per block."""
    _, ns, draws = reference
    if per_step or case.kind != "split":
        return [den for block in draws for _, den, _ in block]
    bounds = []
    if edges:
        for n, block in zip(ns, draws):
            chunks = range(0, len(block), 64)
            first = next((m for m in chunks if case.rejects(s, n + m, min(64, edges - m))), len(block))
            bounds += [den for _, den, _ in block[first:]]
        return bounds
    for first in range(0, len(draws), 64):
        unit = draws[first:first + 64]
        if case.rejects(s, ns[first], max(SCHEMES[case.scheme][1]) * len(unit)):
            bounds += [den for block in unit for _, den, _ in block]
    return bounds


def _expected(path: DrawPath, case: Case, s: int, reference, edges: int) -> tuple:
    """What ``path`` gives for stream s: the result, ``_n``, ``randrange`` bounds and how it was served; a block's
    walk has ``edges`` edges."""
    blocks, ns, _ = reference
    if path.counts:
        positions = [p for block in blocks for p in block.positions]
        categories = SCHEMES[case.scheme][0].categories
        result = [tuple(positions[:q].count(c) for c in categories) for q in case.ends(s)]
    else:
        result = blocks
    depths = SCHEMES[case.scheme][1]
    tree = depths is not None and (case.limit is None or max(depths) <= case.limit)
    if path.reads:
        if path.rebound or case.kind == "rebound" or not tree or len(depths) > 1 or case.rejects(s):
            served = "fell back"
        else:
            k = minimal_height(SCHEMES[case.scheme][0])
            wanted = any(q % k for q in case.ends(s)) if path.counts else case.counts[s]
            return result, None, [], "decoded" if wanted else "none"
    else:
        served = "none" if not case.counts[s] else "descended" if tree and path is not PATHS["walk"] else "walked"
    walked = not tree or path is PATHS["walk"]
    return result, ns[-1], _bounds(case, s, reference, path.per_step, edges if walked else None), served


def _observed(path: DrawPath, case: Case, s: int, result, stream, log) -> tuple:
    key = case.keys[s]
    if path.reads:  # the stream read hands to ``blocks``, if any
        stream = log.blocks.get(key, (None,))[0]
        served = "fell back" if stream else "decoded" if log.wanted[s] else "none"
    else:
        served = "walked" if key in log.walked else "descended" if log.blocks.get(key, (0, 0))[1] else "none"
    n = stream and stream._n
    assert getattr(stream, "calls", n) == n and log.u64s.get(key, n) == n, "an overridden next_u64 missed a draw"
    return result, n, log.bounds.get(key, []), served


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_path_draws_the_reference(name):
    """Every path that can serve the case's streams gives, stream by stream, the reference's result, ``_n``
    and ``randrange`` bounds, served the way the case predicts."""
    case, reference = CASES[name], _reference(name)
    sampler = _sampler(case)
    for path_name, path in PATHS.items():
        if not _applies(path, case):
            continue
        want = [_expected(path, case, s, ref, len(sampler.start.flows)) for s, ref in enumerate(reference)]
        streams = _streams(case)
        with _watch(path.rebound or case.kind == "rebound") as log:
            results = path.run(sampler, case, streams)
        for s, (result, stream) in enumerate(zip(results, streams)):
            assert _observed(path, case, s, result, stream, log) == want[s], (path_name, s)


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case.scheme != "five"))
def test_the_reference_is_the_observed_loop(name):
    """Stream after stream, the loop of observed ``decompose_flow_once`` steps draws the reference's blocks
    with its (num, den, take) at every step and leaves the stream at its ``_n``; an observed ``draw_block``
    of each stream's first block shows the loop's steps record for record."""
    case = CASES[name]
    table = build_scheme_table(SCHEMES[case.scheme][0])
    with _watch(case.kind == "rebound"):
        for s, (stream, fresh, reference) in enumerate(zip(_streams(case), _streams(case), _reference(name))):
            blocks = reference[0]
            looped = [(stream._n, *stepwise_draw(table, stream)) for _ in blocks]
            taken = [[(step.probability.numerator, step.probability.denominator, step.branch == "raise-forward")
                      for step in steps] for _, _, steps in looped]
            assert ([b for _, b, _ in looped], [n for n, _, _ in looped] + [stream._n], taken) == reference, s
            if blocks:
                seen = []
                assert draw_block(table.scheme, None, fresh, on_step=seen.append) == blocks[0], s
                assert seen == looped[0][2], s


def test_no_test_module_imports_another():
    """Test modules share helpers through ``conftest.py`` alone: none imports a ``test_*`` module."""
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                assert not [name for name in names if name.startswith("test_")], (path.name, names)
