"""Exhaustive counting and enumeration of pattern-avoiding fillings.

Counts use a column-by-column transfer matrix: a ``dict`` from state to the
number of column prefixes that reach it, advanced one column at a time with no
recursion.  An occurrence of a pattern x (k letters, r positions) lives on
rows rho_1 < ... < rho_k and is a subsequence rho_{x_1} ... rho_{x_r} of the
first rows[rho_k - 1] columns, so each (pattern, rho) pair is a tracker whose
state is its greedy leftmost-match progress; greedy matching is exact for a
fixed target word, and a branch dies when some tracker completes.  A tracker
is dropped once rho_k exceeds the next column's height (heights weakly
decrease, so it never comes back), which merges states.  Beside the
progresses a state holds the remaining row capacities (fixed content) or the
set of still-empty rows (at-least-one-per-row), and a state is pruned when
those can no longer be scheduled into the remaining columns (Hall condition:
rows have deadlines because column heights weakly decrease).

``enumerate_fillings`` streams the fillings themselves by backtracking over
the same columns with the same prunes.  All counts are exact Python integers.
Every count runs in the calling process; the ``jobs`` keyword of the count
functions is still accepted, so older callers keep working, and is ignored.
"""

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from .core import (
    BadComposition,
    Composition,
    FerrersShape,
    Filling,
    Word,
    format_composition,
    format_patterns,
    format_shape,
    make_composition,
    make_shape,
    validate_pattern,
)
from .matcher import LastColumnChecker, avoids_all

UNCONSTRAINED = "unconstrained"
POSITIVE_ROWS = "positive-rows"


def canonical_patterns(patterns) -> tuple[Word, ...]:
    """Validate, deduplicate and sort a pattern collection."""
    unique = {validate_pattern(p) for p in patterns}
    return tuple(sorted(unique, key=lambda p: (len(p), p)))


def _trackers(shape: FerrersShape, patterns) -> list[tuple[int, Word]]:
    """(top row, target word) for each pattern and row subset that fits the shape.

    The subset rho_1 < ... < rho_k of a pattern x hosts an occurrence exactly
    when the word rho_{x_1} ... rho_{x_r} is a subsequence of the first
    rows[rho_k - 1] columns.  Sorted by top row, so that the trackers still
    live at a column of height h are the prefix with top row <= h.
    """
    rows = shape.rows
    out = []
    for pattern in patterns:
        for rho in combinations(range(1, len(rows) + 1), max(pattern)):
            if rows[rho[-1] - 1] >= len(pattern):
                out.append((rho[-1], tuple(rho[v - 1] for v in pattern)))
    out.sort(key=lambda tracker: tracker[0])
    return out


def _count_engine(shape, patterns, caps=None, positive=False) -> int:
    heights = shape.heights
    rows = shape.rows
    m = shape.n_rows
    trackers = _trackers(shape, patterns)
    tops = [top for top, _ in trackers]
    live = [bisect_right(tops, h) for h in range(m + 1)]  # live trackers under height h

    def feasible(regime, done: int) -> bool:
        # Hall condition: rows >= t can only be fed by columns <= rows[t-1].
        need = 0
        for t in range(m, 0, -1):
            need += regime[t - 1] if caps is not None else (regime >> (t - 1)) & 1
            if need and need > rows[t - 1] - done:
                return False
        return True

    if caps is not None:
        start = tuple(caps)  # remaining 1's per row
    elif positive:
        start = (1 << m) - 1  # bit t-1 set while row t is empty
    else:
        start = None
    # A state is (greedy match progress of each live tracker, regime state).
    states = {((0,) * live[heights[0]], start): 1}
    movers_height = None
    for j, h in enumerate(heights):
        done = j + 1
        keep = live[heights[done]] if done < len(heights) else 0
        if h != movers_height:
            # per row: the live trackers whose target uses it, with target length
            movers = [
                [(i, target, len(target)) for i, (_, target) in enumerate(trackers[: live[h]])
                 if row in target]
                for row in range(h + 1)
            ]
            movers_height = h
        steps: dict = {}  # regime -> [(row, next regime)], for this column
        nxt: dict = {}
        for (progress, regime), n in states.items():
            moves = steps.get(regime)
            if moves is None:
                moves = []
                for row in range(1, h + 1):
                    if caps is not None:
                        if regime[row - 1] == 0:
                            continue
                        after = regime[: row - 1] + (regime[row - 1] - 1,) + regime[row:]
                    elif positive:
                        after = regime & ~(1 << (row - 1))
                    else:
                        moves.append((row, None))
                        continue
                    if feasible(after, done):
                        moves.append((row, after))
                steps[regime] = moves
            for row, after in moves:
                advanced = list(progress[:keep])
                for i, target, r in movers[row]:
                    t = progress[i]
                    if target[t] == row:
                        if t + 1 == r:
                            break  # the column completes an occurrence
                        if i < keep:
                            advanced[i] = t + 1
                else:
                    key = (tuple(advanced), after)
                    nxt[key] = nxt.get(key, 0) + n
        states = nxt
    return sum(states.values())


def _iter_engine(shape, patterns, caps=None, positive=False) -> Iterator[tuple[int, ...]]:
    heights = shape.heights
    width = shape.width
    rows = shape.rows
    m = shape.n_rows
    checkers = [LastColumnChecker(p) for p in patterns]
    placed: list[int] = []
    remaining = list(caps) if caps is not None else None
    filled = [0] * (m + 1)

    def feasible(done: int) -> bool:
        need = 0
        for t in range(m, 0, -1):
            if remaining is not None:
                need += remaining[t - 1]
            elif filled[t] == 0:
                need += 1
            if need and need > rows[t - 1] - done:
                return False
        return True

    def rec(j: int) -> Iterator[tuple[int, ...]]:
        if j == width:
            yield tuple(placed)
            return
        h = heights[j]
        done = j + 1
        for row in range(1, h + 1):
            if remaining is not None:
                if remaining[row - 1] == 0:
                    continue
                remaining[row - 1] -= 1
            filled[row] += 1
            placed.append(row)
            ok = True
            if remaining is not None or positive:
                ok = feasible(done)
            if ok:
                for checker in checkers:
                    if checker.fires(placed, j, row, h):
                        ok = False
                        break
            if ok:
                yield from rec(done)
            placed.pop()
            filled[row] -= 1
            if remaining is not None:
                remaining[row - 1] += 1

    return rec(0)


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


@dataclass(frozen=True)
class CountRecord:
    """One counted set: shape, content constraint, pattern set, cardinality."""

    shape: FerrersShape
    content: object  # Composition, UNCONSTRAINED, or POSITIVE_ROWS
    patterns: tuple[Word, ...]
    count: int

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
