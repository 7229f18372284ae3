"""Exhaustive counting and enumeration of pattern-avoiding fillings.

Counts use a column-by-column transfer matrix: a ``dict`` from state to the
number of column prefixes that reach it, advanced one column at a time by
``step`` with no recursion.  An occurrence of a pattern x (k letters, r
positions) lives on rows rho_1 < ... < rho_k and is a subsequence
rho_{x_1} ... rho_{x_r} of the first rows[rho_k - 1] columns, so each
(pattern, rho) pair is a tracker whose state is its greedy leftmost-match
progress; greedy matching is exact for a fixed target word, and a branch dies
when some tracker completes.  On entry to a column of height h the trackers
with rho_k > h are dropped (heights weakly decrease, so they never come
back), which merges states.  Beside the progresses a state holds a regime
state: the remaining row capacities (fixed content), the set of still-empty
rows (at-least-one-per-row) or nothing, and a state is pruned when its rows
can no longer be filled in time (Hall condition: rows have deadlines because
column heights weakly decrease).

Three drivers share ``step``: the single-shape count, ``walk_shapes``, which
walks the tree of column-height sequences depth first and carries each
shape's state dict to the shapes one column longer (so a whole scan pays one
step per shape, and every positive content of a shape is counted at once),
and ``enumerate_fillings``, which expands one state at a time in
lexicographic order.  None of them recurses, so widths in the thousands are
fine.  All counts are exact Python integers.  Every count runs in the calling
process; the ``jobs`` keyword of the count functions is still accepted, so
older callers keep working, and is ignored.
"""

import json
import sys
from bisect import bisect_right
from functools import partial
from itertools import combinations, product
from typing import Iterator

from .core import (
    BadComposition,
    Composition,
    FerrersShape,
    Filling,
    FrozenValue,
    Word,
    format_composition,
    format_patterns,
    format_shape,
    make_composition,
    make_shape,
    validate_pattern,
)
from .matcher import avoids_all

UNCONSTRAINED = "unconstrained"
POSITIVE_ROWS = "positive-rows"
CONTENTS = "contents"  # walk_shapes regime: one count per positive content


def canonical_patterns(patterns) -> tuple[Word, ...]:
    """Validate, deduplicate and sort a pattern collection."""
    unique = {validate_pattern(p) for p in patterns}
    return tuple(sorted(unique, key=lambda p: (len(p), p)))


class _Trackers:
    """The (pattern, row subset) trackers on rows 1..m, grouped for column steps.

    The subset rho_1 < ... < rho_k of a pattern x hosts an occurrence exactly
    when the word rho_{x_1} ... rho_{x_r} is a subsequence of the first
    rows[rho_k - 1] columns, so a tracker is made only when row rho_k reaches
    r columns; rows weakly decrease, so those subsets lie among the rows
    1..tall that do.  Trackers are sorted by top row, so that the ones still
    live in a column of height h are the first ``live[h]``.
    """

    def __init__(self, patterns, rows):
        found = []
        for pattern in patterns:
            tall = sum(1 for length in rows if length >= len(pattern))
            for rho in combinations(range(1, tall + 1), max(pattern)):
                found.append((rho[-1], tuple(rho[v - 1] for v in pattern)))
        found.sort(key=lambda tracker: tracker[0])
        tops = [top for top, _ in found]
        self.live = [bisect_right(tops, h) for h in range(len(rows) + 1)]
        self.targets = [target for _, target in found]
        self._movers: dict = {}

    def movers(self, h: int) -> list:
        """Per row: (index, target, length) of each tracker live at height h that uses the row."""
        movers = self._movers.get(h)
        if movers is None:
            live = self.targets[: self.live[h]]
            movers = self._movers[h] = [
                [(i, target, len(target)) for i, target in enumerate(live) if row in target]
                for row in range(h + 1)
            ]
        return movers


def step(states: dict, h: int, trackers: _Trackers, moves) -> dict:
    """Advance a state dict by one column of height h.

    A state is (greedy match progress of each live tracker, regime state).  On
    entry the progress tuples are cut to the trackers with top row <= h, which
    merges states.  ``moves(regime)`` lists the (row, next regime) pairs a
    regime state allows in this column; it is called once per distinct one.
    """
    cut = trackers.live[h]
    movers = trackers.movers(h)
    if states and len(next(iter(states))[0]) > cut:  # all progress tuples are as long
        merged: dict = {}
        for (progress, regime), n in states.items():
            key = (progress[:cut], regime)
            merged[key] = merged.get(key, 0) + n
        states = merged
    options: dict = {}  # regime -> its moves in this column
    nxt: dict = {}
    for (progress, regime), n in states.items():
        rows = options.get(regime)
        if rows is None:
            rows = options[regime] = moves(regime)
        for row, after in rows:
            advanced = None  # a copy of progress, made once some tracker advances
            for i, target, r in movers[row]:
                t = progress[i]
                if target[t] == row:
                    if t + 1 == r:
                        break  # the column completes an occurrence
                    if advanced is None:
                        advanced = list(progress)
                    advanced[i] = t + 1
            else:
                key = (progress if advanced is None else tuple(advanced), after)
                nxt[key] = nxt.get(key, 0) + n
    return nxt


def _shape_regime(shape, caps=None, positive=False):
    """Start state and ``moves(regime, h, done)`` of a count on one shape.

    The regime state is the remaining 1's per row (fixed content), the bitmask
    of empty rows (positive rows) or None (unconstrained).  ``moves`` lists the
    (row, next regime) pairs for column ``done`` of height h, pruning regimes
    whose rows can no longer be filled in time (Hall condition: rows >= t can
    only be fed by columns <= rows[t-1]).
    """
    rows = shape.rows
    m = shape.n_rows

    def feasible(regime, done: int) -> bool:
        need = 0
        for t in range(m, 0, -1):
            need += regime[t - 1] if caps is not None else (regime >> (t - 1)) & 1
            if need and need > rows[t - 1] - done:
                return False
        return True

    def moves(regime, h: int, done: int) -> list:
        out = []
        for row in range(1, h + 1):
            if caps is not None:
                if regime[row - 1] == 0:
                    continue
                after = regime[: row - 1] + (regime[row - 1] - 1,) + regime[row:]
            elif positive:
                after = regime & ~(1 << (row - 1))
            else:
                out.append((row, None))
                continue
            if feasible(after, done):
                out.append((row, after))
        return out

    if caps is not None:
        return tuple(caps), moves
    if positive:
        return (1 << m) - 1, moves  # bit t-1 set while row t is empty
    return None, moves


def _count_engine(shape, patterns, caps=None, positive=False) -> int:
    trackers = _Trackers(patterns, shape.rows)
    start, moves = _shape_regime(shape, caps, positive)
    states = {((0,) * trackers.live[shape.n_rows], start): 1}
    for done, h in enumerate(shape.heights, start=1):
        states = step(states, h, trackers, partial(moves, h=h, done=done))
    return sum(states.values())


def walk_shapes(patterns, max_cols: int, max_rows: int, regime: str):
    """Yield (column heights, histogram) for every shape within the bounds.

    One depth-first walk per first-column height m covers every weakly
    decreasing height sequence that starts with m, carrying the state dict of
    each shape to the shapes that extend it by one column, so every shape
    costs one ``step``.  The regime state holds the row counts so far
    (``CONTENTS``) or the bitmask of empty rows (``POSITIVE_ROWS``); a state
    dies once an empty row lies above the column or more rows are empty than
    columns remain within ``max_cols``.  The histogram maps every positive
    content to its number of avoiders (``CONTENTS``), or ``POSITIVE_ROWS`` to
    the number of avoiders with no empty row; counts of 0 are left out.
    Shapes come in depth-first order, not in ``iter_shapes`` order.
    """
    if regime not in (CONTENTS, POSITIVE_ROWS):
        raise ValueError(f"regime must be {CONTENTS!r} or {POSITIVE_ROWS!r}, got {regime!r}")
    patterns = canonical_patterns(patterns)
    positive = regime == POSITIVE_ROWS

    def moves(state, h: int, done: int) -> list:
        left = max_cols - done  # columns that may still follow this one
        out = []
        if positive:
            if state >> h:
                return out  # an empty row above h stays empty
            for row in range(1, h + 1):
                after = state & ~(1 << (row - 1))
                if after.bit_count() <= left:
                    out.append((row, after))
        else:
            if 0 in state[h:]:
                return out  # an empty row above h stays empty
            empty = state.count(0)
            for row in range(1, h + 1):
                was = state[row - 1]
                if empty - (was == 0) <= left:
                    out.append((row, state[: row - 1] + (was + 1,) + state[row:]))
        return out

    if max_cols < 1:
        return
    for m in range(1, max_rows + 1):
        # Every row of a shape in the walk is at most max_cols long.
        trackers = _Trackers(patterns, (max_cols,) * m)
        start = (1 << m) - 1 if positive else (0,) * m
        stack = [((m,), {((0,) * trackers.live[m], start): 1})]
        while stack:
            heights, states = stack.pop()
            h = heights[-1]
            states = step(states, h, trackers, partial(moves, h=h, done=len(heights)))
            histogram: dict = {}
            for (_, state), n in states.items():
                if positive:
                    if state == 0:
                        histogram[POSITIVE_ROWS] = histogram.get(POSITIVE_ROWS, 0) + n
                elif 0 not in state:
                    histogram[state] = histogram.get(state, 0) + n
            yield heights, histogram
            if len(heights) < max_cols:
                stack.extend((heights + (g,), states) for g in range(h, 0, -1))


def _iter_engine(shape, patterns, caps=None, positive=False) -> Iterator[tuple[int, ...]]:
    # Depth first over the same column steps as the count, one state at a
    # time.  Each move is tagged with its row, so the children of a state stay
    # apart and come out of ``step`` in increasing row order.
    trackers = _Trackers(patterns, shape.rows)
    start, moves = _shape_regime(shape, caps, positive)
    heights = shape.heights
    width = shape.width

    tags: dict = {}  # (regime, column) -> its tagged moves, shared by every prefix

    def tagged(regime, h: int, done: int) -> list:
        key = (regime[1], done)
        out = tags.get(key)
        if out is None:
            out = tags[key] = [(row, (row, after)) for row, after in moves(regime[1], h, done)]
        return out

    columns = [partial(tagged, h=h, done=done) for done, h in enumerate(heights, start=1)]
    placed: list[int] = []
    # children[j] runs over the states after j columns that are still to expand
    children = [iter([((0,) * trackers.live[shape.n_rows], (0, start))])]
    while children:
        j = len(children) - 1
        state = next(children[j], None)
        if state is None:
            children.pop()
            continue
        if j:
            del placed[j - 1 :]
            placed.append(state[1][0])
        after = step({state: 1}, heights[j], trackers, columns[j])
        if j + 1 == width:
            for _, (row, _) in after:
                yield (*placed, row)
        else:
            children.append(iter(after))


def _check_content(shape: FerrersShape, content) -> Composition:
    comp = make_composition(content)
    if len(comp) != shape.n_rows:
        raise BadComposition(
            f"composition has {len(comp)} parts but the shape {shape.n_rows} rows"
        )
    if sum(comp) != shape.width:
        raise BadComposition(
            f"composition sums to {sum(comp)} but the shape has {shape.width} columns"
        )
    return comp


def count_fillings(shape: FerrersShape, content, patterns, jobs: int = 1) -> int:
    """Number of avoiding fillings with exactly content[i] 1's in row i."""
    comp = _check_content(shape, content)
    patterns = canonical_patterns(patterns)
    return _count_engine(shape, patterns, caps=comp)


def count_all_fillings(shape: FerrersShape, patterns, jobs: int = 1) -> int:
    """Number of avoiding fillings with unconstrained row contents."""
    patterns = canonical_patterns(patterns)
    return _count_engine(shape, patterns)


def count_positive_fillings(shape: FerrersShape, patterns, jobs: int = 1) -> int:
    """Number of avoiding fillings with at least one 1 in every row."""
    if shape.n_rows > shape.width:
        return 0
    patterns = canonical_patterns(patterns)
    return _count_engine(shape, patterns, positive=True)


def count_words(n: int, m: int, patterns, jobs: int = 1) -> int:
    """Number of avoiding words of length n over the alphabet {1..m}."""
    if n < 1 or m < 1:
        raise BadComposition(f"need positive length and alphabet size, got {n}, {m}")
    return count_all_fillings(make_shape((n,) * m), patterns)


def count_words_direct(n: int, m: int, patterns) -> int:
    """Oracle twin of count_words: iterate all m**n words and test each one."""
    from .matcher import word_contains

    patterns = canonical_patterns(patterns)
    total = 0
    for word in product(range(1, m + 1), repeat=n):
        if not any(word_contains(word, x) for x in patterns):
            total += 1
    return total


def brute_count_fillings(shape: FerrersShape, patterns, content=None, positive=False) -> int:
    """Oracle twin of the engine: filter the full product of column choices."""
    patterns = canonical_patterns(patterns)
    comp = _check_content(shape, content) if content is not None else None
    total = 0
    for cols in product(*(range(1, h + 1) for h in shape.heights)):
        if comp is not None or positive:
            counts = [0] * shape.n_rows
            for row in cols:
                counts[row - 1] += 1
            if comp is not None and tuple(counts) != comp:
                continue
            if positive and any(c == 0 for c in counts):
                continue
        if avoids_all(Filling(shape, cols), patterns):
            total += 1
    return total


def enumerate_fillings(
    shape: FerrersShape, patterns, content=None, positive=False
) -> Iterator[Filling]:
    """Stream the avoiding fillings in lexicographic order of col_to_row."""
    patterns = canonical_patterns(patterns)
    caps = None
    if content is not None:
        caps = list(_check_content(shape, content))
    elif positive and shape.n_rows > shape.width:
        return
    for cols in _iter_engine(shape, patterns, caps=caps, positive=positive and content is None):
        yield Filling(shape, cols)


def compositions(total: int, parts: int, positive: bool = True) -> Iterator[Composition]:
    """All compositions of ``total`` into ``parts`` parts, lexicographically."""
    if parts < 1:
        raise BadComposition(f"need at least one part, got {parts}")
    lo = 1 if positive else 0

    def rec(prefix: tuple[int, ...], left: int, k: int) -> Iterator[Composition]:
        if k == 1:
            if left >= lo:
                yield prefix + (left,)
            return
        for v in range(lo, left - lo * (k - 1) + 1):
            yield from rec(prefix + (v,), left - v, k - 1)

    yield from rec((), total, parts)


# --- count records and the persistent result cache -------------------------


def content_text(content) -> str:
    """Canonical text for a content constraint (composition or regime name)."""
    if content == UNCONSTRAINED or content == POSITIVE_ROWS:
        return content
    return format_composition(content)


class CountRecord(FrozenValue):
    """One counted set: shape, content constraint, pattern set, cardinality.

    ``content`` is a composition, ``UNCONSTRAINED`` or ``POSITIVE_ROWS``.
    """

    __slots__ = _fields = ("shape", "content", "patterns", "count")

    def __init__(self, shape: FerrersShape, content, patterns: tuple[Word, ...], count: int):
        self._assign(shape, content, patterns, count)

    def key(self) -> tuple[str, str, str]:
        return (
            format_shape(self.shape),
            content_text(self.content),
            format_patterns(canonical_patterns(self.patterns)) if self.patterns else "",
        )

    def to_json(self) -> dict:
        shape_text, content, patterns = self.key()
        return {"shape": shape_text, "content": content, "patterns": patterns, "count": self.count}


class CorruptCache(Exception):
    """A result-cache line, other than a torn last line, is not a count record."""


def _cache_entry(line: bytes) -> tuple[tuple[str, str, str], int]:
    row = json.loads(line)
    key = (row["shape"], row["content"], row["patterns"])
    count = row["count"]
    if not all(isinstance(part, str) for part in key) or type(count) is not int:
        raise TypeError("shape, content and patterns must be strings and count an integer")
    return key, count


class ResultCache:
    """Append-only JSONL cache of count records, keyed by the text encodings.

    Records go through one line-buffered handle, opened at the first ``add``
    and closed by ``close`` or at the end of a ``with`` block, so every record
    reaches the file as one whole line.  A torn last line, as a crash while
    appending leaves behind, is skipped with a warning on stderr and cut off
    the file, so the next record starts a fresh line; any other line that is
    not a count record raises ``CorruptCache``.
    """

    def __init__(self, path: str):
        self.path = path
        self._known: dict[tuple[str, str, str], int] = {}
        self._handle = None
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        lines = data.split(b"\n")
        tail = lines.pop()  # empty unless the last line lacks its newline
        for number, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    key, count = _cache_entry(line)
                except (ValueError, KeyError, TypeError) as exc:
                    raise CorruptCache(
                        f"{path}: line {number} is not a count record ({exc})"
                    ) from exc
                self._known.setdefault(key, count)
        if tail.strip():
            try:
                key, count = _cache_entry(tail)
            except (ValueError, KeyError, TypeError):
                print(f"warning: {path}: skipped torn last line {len(lines) + 1}", file=sys.stderr)
                with open(path, "r+b") as handle:
                    handle.truncate(len(data) - len(tail))
            else:
                self._known.setdefault(key, count)
                with open(path, "ab") as handle:
                    handle.write(b"\n")

    def get(self, key: tuple[str, str, str]):
        return self._known.get(key)

    def add(self, record: CountRecord) -> None:
        key = record.key()
        if key in self._known:
            return
        self._known[key] = record.count
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8", buffering=1)
        self._handle.write(json.dumps(record.to_json()) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def counted(shape: FerrersShape, content, patterns, cache=None, jobs: int = 1) -> CountRecord:
    """Count one set under any regime, consulting/filling the cache if given."""
    patterns = canonical_patterns(patterns)
    record = CountRecord(shape, content, patterns, -1)
    if cache is not None:
        hit = cache.get(record.key())
        if hit is not None:
            return CountRecord(shape, content, patterns, hit)
    if content == UNCONSTRAINED:
        n = count_all_fillings(shape, patterns)
    elif content == POSITIVE_ROWS:
        n = count_positive_fillings(shape, patterns)
    else:
        n = count_fillings(shape, content, patterns)
    record = CountRecord(shape, content, patterns, n)
    if cache is not None:
        cache.add(record)
    return record


def __getattr__(name):
    # Counts start no processes.  The pool class stays reachable as a module
    # attribute because bench/tracing.py wraps it to count pools started; it
    # is imported only on that lookup, so importing shapewilf does not load
    # multiprocessing.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
