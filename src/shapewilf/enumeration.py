"""Exhaustive counting and enumeration of pattern-avoiding fillings.

Counts use a column-by-column transfer matrix: a ``dict`` from state to the
number of column prefixes that reach it, advanced one column at a time by
``step`` with no recursion.  An occurrence of a pattern x (k letters, r
positions) lives on rows rho_1 < ... < rho_k and is a subsequence
rho_{x_1} ... rho_{x_r} of the first rows[rho_k - 1] columns, so each
(pattern, rho) pair is a tracker whose state is its greedy leftmost-match
progress; greedy matching is exact for a fixed target word, and a branch dies
when some tracker completes.  Each progress is one set bit in the tracker's
own run of bits, so a state keeps every progress in one int, and a 1 in a row
advances every tracker waiting for that row with one mask and one addition.
On entry to a column of height h the trackers with rho_k > h are masked off
(heights weakly decrease, so they never come back), which merges states.
Beside the progress a state holds a regime state, one int whose field t is
the number of 1's still owed to rows >= t (the content's parts, one per row
with positive rows, or none), and a state is pruned when its rows can no
longer be filled in time (Hall condition: rows have deadlines because column
heights weakly decrease), which one subtraction tests for every row at once.

Three callers share ``step``: ``column_states``, which yields a shape's
state dict after each column (the single-shape count reads the last one, and
the conjecture-2 scan reads every length of a word rectangle from one pass),
``enumerate_fillings``, which expands one state at a time in lexicographic
order, and ``walk_shapes``, which walks the tree of column-height sequences
depth first for every pattern set of a scan and carries each shape's state
dict to the shapes one column longer (so a whole scan pays one step per shape
and set, and counts every positive content of a shape at once, as the
histogram that ``shape_counts`` reads and a ``ResultCache`` keeps on one
line).  Each caller hands ``step`` a table of the column's moves per regime
state and a builder for the states it lacks.  The first two get their
trackers, start state and builder from one ``_start`` and use a fresh table
per column; the walk's regime state is one int too, a bit per empty row and a
field per row count, and since its moves read no tracker, every set's walk
reads one table per (height, column): the same states recur across shapes
and sets.
None of them recurses, so widths in the thousands are fine.  All counts are
exact Python integers, and every count runs in the calling process.
"""

import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from itertools import accumulate, combinations, repeat
from math import comb
from operator import itemgetter, sub
from typing import Iterator

from .core import (
    BadChoice,
    BadComposition,
    Composition,
    FerrersShape,
    Filling,
    InvalidPattern,
    UsageError,
    Value,
    Word,
    format_composition,
    format_patterns,
    format_shape,
    make_composition,
    make_shape,
    parse_composition,
    parse_patterns,
    parse_shape,
    validate_pattern,
)

UNCONSTRAINED = "unconstrained"
POSITIVE_ROWS = "positive-rows"
CONTENTS = "contents"  # walk_shapes regime: one count per positive content


def _items(collection, kind: str):
    """An iterator over ``collection``, else ``InvalidPattern`` saying what it must be."""
    try:
        return iter(collection)
    except TypeError:
        raise InvalidPattern(f"{kind}, got {collection!r}") from None


def canonical_patterns(patterns) -> tuple[Word, ...]:
    """Validate, deduplicate and sort a pattern collection, an iterable of words."""
    kind = "a pattern collection is an iterable of words"
    unique = {validate_pattern(p) for p in _items(patterns, kind)}
    return tuple(sorted(unique, key=lambda p: (len(p), p)))


class _Trackers:
    """The (pattern, row subset) trackers on rows 1..m, as bit masks for column steps.

    The subset rho_1 < ... < rho_k of a pattern x hosts an occurrence exactly
    when the word rho_{x_1} ... rho_{x_r} is a subsequence of the first
    rows[rho_k - 1] columns, so a tracker is made only when row rho_k reaches
    r columns; rows weakly decrease, so those subsets lie among the rows
    1..tall that do.  Each tracker owns a run of r bits, and its greedy match
    progress t is the one set bit t of its run, so the progress of every
    tracker together is one int.  ``start`` has every tracker at position 0,
    ``kill[row]`` is the last position of every target that ends in the row,
    and ``move[row]`` every other position that waits for the row.  Runs are
    laid out by top row, so the trackers still live in a column of height h
    are the low bits ``live[h]``.
    """

    def __init__(self, patterns, rows):
        found = []
        for pattern in patterns:
            tall = sum(1 for length in rows if length >= len(pattern))
            for rho in combinations(range(1, tall + 1), max(pattern)):
                found.append((rho[-1], tuple(rho[v - 1] for v in pattern)))
        found.sort(key=lambda tracker: tracker[0])
        self.start = 0
        self.kill = [0] * (len(rows) + 1)
        self.move = [0] * (len(rows) + 1)
        below = [0] * (len(rows) + 1)  # below[top]: bits up to the last tracker with that top
        bit = 0
        for top, target in found:
            self.start |= 1 << bit
            for row in target[:-1]:
                self.move[row] |= 1 << bit
                bit += 1
            self.kill[target[-1]] |= 1 << bit
            bit += 1
            below[top] = bit
        self.live = [(1 << bits) - 1 for bits in accumulate(below, max)]


def step(states: dict, h: int, done: int, trackers: _Trackers, table: dict, build) -> dict:
    """Advance a state dict by one column of height h, the ``done``-th column.

    A state is (progress int of the trackers, regime state).  On entry each
    progress is cut to ``trackers.live[h]``; states that then coincide reach
    the same successors and are summed there.  ``table`` maps a regime state
    to the (row, next regime) pairs it allows in this column; a state it lacks
    is listed by ``build(regime, h, done)`` and kept there, so the caller
    decides which columns share a table.  A 1 in a row kills the branch when
    it completes some tracker (``kill[row]``), and otherwise adds the progress
    bits that wait for the row (``move[row]``) to themselves, so each carries
    one place up and every waiting tracker advances at once.
    """
    live = trackers.live[h]
    kill = trackers.kill
    move = trackers.move
    nxt: dict = {}
    get = nxt.get
    for (progress, regime), n in states.items():
        rows = table.get(regime)
        if rows is None:
            rows = table[regime] = build(regime, h, done)
        progress &= live
        for row, after in rows:
            if not progress & kill[row]:
                key = (progress + (progress & move[row]), after)
                nxt[key] = get(key, 0) + n
    return nxt


def _start(shape, patterns, content):
    """(trackers, start regime state, ``moves(regime, h, done)``) of a one-shape count, or None.

    ``content`` is a composition, ``UNCONSTRAINED`` or ``POSITIVE_ROWS``; it is
    checked first, then the patterns.  The regime state is one int of packed
    row demands: field t holds D_t, the number of 1's still owed to rows >= t
    (a composition owes its parts, positive rows one 1 per row, unconstrained
    nothing).  Rows >= t can only be fed by the columns <= rows[t-1] (Hall
    condition), so a state is kept while every D_t is at most room_t, the
    columns after ``done`` that reach row t.  Each field is sized from
    ``max(width, n_rows)`` with a guard bit on top, and ``room[done]`` packs
    every room_t with its guard set, so one subtraction tests every row: the
    condition holds iff no guard is borrowed.  ``moves`` lists the (row, next
    regime) pairs for column ``done`` of height h: a 1 in a row that still owes
    subtracts ``pay[row]``, a 1 in every field t <= row, and with positive rows
    or unconstrained a 1 in a row that owes nothing leaves the state as it is.
    A start state that already fails the condition (with positive rows: more
    rows than columns) gives None before any tracker is built.
    """
    content = check_content(shape, content)
    patterns = canonical_patterns(patterns)
    bits = max(shape.width, shape.n_rows).bit_length()
    size = bits + 1
    ones = [1 << size * t for t in range(shape.n_rows)]  # ones[t - 1]: a 1 in field t
    pay = [0, *accumulate(ones)]  # pay[r]: a 1 in every field t <= r
    field = [0, *(((1 << bits) - 1) * one for one in ones)]  # field[r]: the value bits of field r
    guard = sum(ones) << bits
    # Column j reaches the rows <= heights[j-1]: it counts in those rooms
    # until it is placed, so each column placed takes its pay off the room.
    columns = [pay[h] for h in shape.heights]
    room = list(accumulate(columns, sub, initial=guard + sum(columns)))
    fixed = content != UNCONSTRAINED and content != POSITIVE_ROWS

    def moves(regime, h: int, done: int) -> list:
        slack = room[done]
        owes = regime - (regime >> size)  # field t: the 1's still owed to row t alone
        stays = not fixed and (slack - regime) & guard == guard
        out = []
        for row in range(1, h + 1):
            if owes & field[row]:
                after = regime - pay[row]
                if (slack - after) & guard == guard:
                    out.append((row, after))
            elif stays:
                out.append((row, regime))
        return out

    if fixed:
        start = sum(part * pay[row] for row, part in enumerate(content, start=1))
    else:
        start = sum(pay) if content == POSITIVE_ROWS else 0  # one 1 owed per row, or none
    if (room[0] - start) & guard != guard:
        return None
    return _Trackers(patterns, shape.rows), start, moves


def column_states(shape, patterns, content=UNCONSTRAINED) -> Iterator[dict]:
    """Yield the state dict of a count on one shape after each column; none if nothing fits.

    ``content`` is a composition, ``UNCONSTRAINED`` or ``POSITIVE_ROWS``, as for
    ``counted``; a composition is checked first, then the patterns.
    """
    started = _start(shape, patterns, content)
    if started is None:
        return
    trackers, start, moves = started
    states = {(trackers.start, start): 1}
    for done, h in enumerate(shape.heights, start=1):
        states = step(states, h, done, trackers, {}, moves)
        yield states


def _count_engine(shape, patterns, content) -> int:
    states: dict = {}
    for states in column_states(shape, patterns, content):
        pass
    return sum(states.values())


def walk_shapes(pattern_sets, max_cols: int, max_rows: int, regime: str):
    """Yield (set index, column heights, histogram) for every pattern set and shape in the bounds.

    One depth-first walk per pattern set and first-column height m covers
    every weakly decreasing height sequence that starts with m, carrying the
    state dict of each shape to the shapes that extend it by one column, so
    every shape costs one ``step`` per set (none once its dict is empty).  The
    regime state is one int: bit r-1 is set while row r has no 1, and with
    ``CONTENTS`` row r's count so far is a field of ``max_cols.bit_length()``
    bits above those ``max_rows`` bits (with ``POSITIVE_ROWS`` there are no
    fields).  A 1 in a row clears its bit and adds one to its field; a state
    dies once an empty row lies above the column or more rows are empty than
    columns remain within ``max_cols``.  A state's moves read only the regime
    state, so each (height, column) has one table of moves per first-column
    height, which every set's walk of that height reads and fills through
    ``step`` and the next height empties; each set keeps its own trackers.
    The histogram maps every positive content to its number of avoiders
    (``CONTENTS``), or ``POSITIVE_ROWS`` to the number of avoiders with no
    empty row; counts of 0 are left out, and a shape with fewer columns than
    rows has none.  For each m the sets' walks come in turn, so each set's
    own stream comes in the same depth-first order, not in ``iter_shapes``
    order.  A bound that is not a positive int raises ``BadComposition``.
    """
    if regime not in (CONTENTS, POSITIVE_ROWS):
        raise BadChoice(f"regime must be {CONTENTS!r} or {POSITIVE_ROWS!r}, got {regime!r}")
    check_bounds(max_cols=max_cols, max_rows=max_rows)
    kind = "pattern_sets is an iterable of pattern collections"
    pattern_sets = [canonical_patterns(patterns) for patterns in _items(pattern_sets, kind)]
    empty = (1 << max_rows) - 1  # the empty-row bits
    bits = max_cols.bit_length()
    field = (1 << bits) - 1
    one = 1 if regime == CONTENTS else 0  # a 1 counted in its row's field, or not at all
    fill = [0, *(one << max_rows + bits * r for r in range(max_rows))]  # fill[row]
    keep = [0, *(~(1 << r) for r in range(max_rows))]  # keep[row]: all but row's empty bit
    tables: dict = defaultdict(dict)  # (h, done) -> {state: its moves}, for one m's walks

    def moves(state, h: int, done: int) -> list:
        # A move fills at most one empty row and must leave no more empty rows
        # than columns that may still follow this one; an empty row above h
        # stays empty.
        vacant = state & empty
        short = vacant.bit_count() - (max_cols - done)
        if vacant >> h or short > 1:
            return []
        return [
            (row, (state & keep[row]) + fill[row])
            for row in range(1, h + 1)
            if short < 1 or vacant >> row - 1 & 1
        ]

    # A final state with no empty bit names a positive content: its m row
    # counts, or POSITIVE_ROWS, the one such state when there are no fields.
    contents: dict = {0: POSITIVE_ROWS} if regime == POSITIVE_ROWS else {}

    # Every row of a shape in the walk is at most max_cols long, and the first
    # step of each walk cuts the start to the trackers on rows 1..m.
    rows = (max_cols,) * max_rows
    walks = list(enumerate(_Trackers(patterns, rows) for patterns in pattern_sets))
    for m in range(1, max_rows + 1):
        # Row m is empty or counted in every state of this m's walks, so with
        # CONTENTS no state recurs in another m's walk, and emptying the tables
        # keeps them to the size of one m's walks.
        tables.clear()
        for side, trackers in walks:
            stack = [((m,), {(trackers.start, (1 << m) - 1): 1})]
            while stack:
                heights, states = stack.pop()
                h, done = heights[-1], len(heights)
                if states:  # an empty dict stays empty in every longer shape
                    states = step(states, h, done, trackers, tables[h, done], moves)
                histogram: dict = {}
                if done >= m:  # with fewer columns than rows, some row is empty
                    for (_, state), n in states.items():
                        if not state & empty:
                            name = contents.get(state)
                            if name is None:
                                name = contents[state] = tuple(
                                    state >> max_rows + bits * r & field for r in range(m)
                                )
                            histogram[name] = histogram.get(name, 0) + n
                yield side, heights, histogram
                if done < max_cols:
                    stack.extend((heights + (g,), states) for g in range(h, 0, -1))


def check_content(shape: FerrersShape, content):
    """A regime name as it is, else the composition checked against the shape."""
    if content == UNCONSTRAINED or content == POSITIVE_ROWS:
        return content
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


def check_bounds(**bounds) -> None:
    """Reject a scan bound that is not an int, or below 1 (nothing to scan passes vacuously)."""
    for name, value in bounds.items():
        if type(value) is not int:
            raise BadComposition(f"scan bound {name} must be an integer, got {value!r}")
        if value < 1:
            raise BadComposition(f"scan bound {name} must be positive, got {value}")


def count_fillings(shape: FerrersShape, content, patterns) -> int:
    """Number of avoiding fillings with exactly content[i] 1's in row i."""
    # make_composition rejects a regime name, which column_states would accept.
    return _count_engine(shape, patterns, make_composition(content))


def count_all_fillings(shape: FerrersShape, patterns) -> int:
    """Number of avoiding fillings with unconstrained row contents."""
    return _count_engine(shape, patterns, UNCONSTRAINED)


def count_positive_fillings(shape: FerrersShape, patterns) -> int:
    """Number of avoiding fillings with at least one 1 in every row."""
    return _count_engine(shape, patterns, POSITIVE_ROWS)


def word_rectangle(n: int, m: int) -> FerrersShape:
    """The m rows of length n whose fillings are the words of length n over {1..m}."""
    if type(n) is not int or type(m) is not int:
        raise BadComposition(f"length and alphabet size must be integers, got {n!r}, {m!r}")
    if n < 1 or m < 1:
        raise BadComposition(f"need positive length and alphabet size, got {n}, {m}")
    return make_shape((n,) * m)


def count_words(n: int, m: int, patterns) -> int:
    """Number of avoiding words of length n over the alphabet {1..m}."""
    return count_all_fillings(word_rectangle(n, m), patterns)


def enumerate_fillings(shape: FerrersShape, patterns, content=UNCONSTRAINED) -> Iterator[Filling]:
    """Stream the avoiding fillings in lexicographic order of col_to_row.

    ``content`` is a composition, ``UNCONSTRAINED`` or ``POSITIVE_ROWS``, as for ``counted``.
    """
    # Depth first over the same column steps as the count, one state at a
    # time.  Each move is tagged with its row, so the children of a state stay
    # apart and come out of ``step`` in increasing row order.
    started = _start(shape, patterns, content)
    if started is None:
        return
    trackers, start, moves = started
    heights = shape.heights
    width = shape.width

    tables = [{} for _ in heights]  # tables[j]: each tagged state's tagged moves in column j + 1

    def tagged(regime, h: int, done: int) -> list:
        return [(row, (row, after)) for row, after in moves(regime[1], h, done)]

    placed: list[int] = []
    # children[j] runs over the states after j columns that are still to expand
    children = [iter([(trackers.start, (0, start))])]
    while children:
        j = len(children) - 1
        state = next(children[j], None)
        if state is None:
            children.pop()
            continue
        if j:
            del placed[j - 1 :]
            placed.append(state[1][0])
        after = step({state: 1}, heights[j], j + 1, trackers, tables[j], tagged)
        if j + 1 == width:
            for _, (row, _) in after:
                yield Filling(shape, (*placed, row))
        else:
            children.append(iter(after))


def compositions(total: int, parts: int) -> Iterator[Composition]:
    """All compositions of ``total`` into ``parts`` positive parts, lexicographically.

    Stars and bars: the ``parts - 1`` cuts are points of 1..total-1, listed in
    lexicographic order.
    """
    if type(total) is not int or type(parts) is not int:
        raise BadComposition(f"total and parts must be integers, got {total!r}, {parts!r}")
    if parts < 1:
        raise BadComposition(f"need at least one part, got {parts}")
    if total < parts:
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


# --- count records and the persistent result cache -------------------------


def content_text(content) -> str:
    """Canonical text for a content constraint (composition or regime name)."""
    if content == UNCONSTRAINED or content == POSITIVE_ROWS:
        return content
    return format_composition(content)


def parse_content(text: str):
    """Inverse of ``content_text``; also reads 'all' and 'positive'."""
    if text in (UNCONSTRAINED, "all"):
        return UNCONSTRAINED
    if text in (POSITIVE_ROWS, "positive"):
        return POSITIVE_ROWS
    return parse_composition(text)


class CountRecord(Value):
    """One counted set: shape, content constraint, pattern set, cardinality.

    ``content`` is a composition, ``UNCONSTRAINED`` or ``POSITIVE_ROWS``, and
    ``patterns`` a canonical set (as ``counted`` returns it), whose
    ``format_patterns`` text keys the record.
    """

    __slots__ = _fields = ("shape", "content", "patterns", "count")

    def __init__(self, shape: FerrersShape, content, patterns: tuple[Word, ...], count: int):
        self._assign(shape, content, patterns, count)

    def to_json(self) -> dict:
        return record_json(*_cache_key(self.shape, (self.content,), self.patterns), self.count)


def _cache_key(shape: FerrersShape, contents, patterns) -> tuple[str, str, str]:
    """The texts that key a shape's counts of ``contents``: one content's own, else ``CONTENTS``."""
    text = content_text(contents[0]) if len(contents) == 1 else CONTENTS
    return format_shape(shape), text, format_patterns(patterns)


def record_json(shape: str, content: str, patterns: str, count) -> dict:
    """The JSON object of one count record, or of a ``CONTENTS`` line, from its text encodings."""
    return {"shape": shape, "content": content, "patterns": patterns, "count": count}


class CorruptCache(Exception):
    """A result-cache line, other than a torn last line, is not a count record, or two disagree."""


_key = itemgetter("shape", "content", "patterns")  # a cache line's key, from its JSON object


def _cache_entry(line: bytes, sizes: dict, sets: set) -> tuple[tuple[str, str, str], tuple]:
    """The key and counts of a cache line, else an error.

    ``sizes`` maps each shape text checked so far to its (width, rows), and
    ``sets`` holds the pattern-set texts checked, so a load parses each once.
    """
    row = json.loads(line)
    key = _key(row)
    count = row["count"]
    many = type(count) is list  # a CONTENTS line: one count per positive composition
    counts = tuple(count) if many else (count,)
    if (many != (key[1] == CONTENTS) or not all(isinstance(part, str) for part in key)
            or not all(type(n) is int for n in counts)):
        raise TypeError("texts must be strings and counts integers, in a list on a contents line")
    if min(counts, default=0) < 0:
        raise ValueError(f"count {min(counts)} is negative")
    shape, content, patterns = key
    if shape not in sizes:
        parsed = parse_shape(shape)
        if format_shape(parsed) != shape:
            raise ValueError(f"shape text {shape!r} is not canonical")
        sizes[shape] = parsed.width, parsed.n_rows
    if patterns not in sets:
        if format_patterns(canonical_patterns(parse_patterns(patterns))) != patterns:
            raise ValueError(f"pattern set text {patterns!r} is not canonical")
        sets.add(patterns)
    if content == UNCONSTRAINED or content == POSITIVE_ROWS:
        return key, counts
    # A shape of width w with r rows has comb(w - 1, r - 1) contents, each r
    # positive parts that sum to w.
    width, rows = sizes[shape]
    if many:
        if len(counts) != comb(width - 1, rows - 1):
            raise ValueError(f"{len(counts)} counts for the positive contents of shape {shape}")
    else:
        parts = parse_composition(content)
        if len(parts) != rows or sum(parts) != width or format_composition(parts) != content:
            raise ValueError(f"{content} is no content of shape {shape}")
    return key, counts


def _line_of(lines: list, key) -> int:
    """The number of the first of ``lines`` with ``key``; the lines before it must be records."""
    return next(n for n, s in enumerate(lines, 1) if s.strip() and _key(json.loads(s)) == key)


class UnusableCache(UsageError, OSError):
    """The result-cache path cannot be read, created or appended to."""


class ResultCache:
    """Append-only JSONL cache of counts, one line per (shape, contents, pattern set).

    A line is a count record of one content or, with the content ``CONTENTS``,
    the counts of a shape's positive compositions as a list in ``compositions``
    order (``_cache_key`` keys both); a key maps to its tuple of counts.  Lines
    go through one line-buffered handle, opened at the first ``add`` and closed
    by ``close`` or a ``with`` block's end, so each reaches the file whole.  A
    torn last line, one that does not parse as JSON, as a crash while appending
    leaves behind, is skipped with a warning on stderr and cut off the file.
    Any other line of neither kind (a list of the wrong length included, a
    shape or pattern-set text that ``format_shape`` or ``format_patterns``
    would not write, and a record whose content text is neither a regime name
    nor a positive composition of its shape), one that gives an earlier line's
    key other counts, or a record of one content whose count is not its entry
    on a ``CONTENTS`` line of the same shape and pattern set raises
    ``CorruptCache`` and leaves the file as it is; a repeated line (two runs
    appending at once) loads.  An ``OSError`` on the path raises
    ``UnusableCache`` (an ``OSError`` too): here, before any count, for a path
    that cannot be read or created, and from a failed ``add`` or ``close``.
    """

    def __init__(self, path: str):
        self.path = path
        self._known: dict[tuple[str, str, str], tuple[int, ...]] = {}
        self._handle = None
        with self._io():
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                # "" names no file, though its directory, "", would read as ".".
                if path and os.path.isdir(os.path.dirname(path) or "."):
                    return  # the first ``add`` creates the file
                raise
            lines = data.split(b"\n")  # the last is empty unless it lacks its newline
            torn, sizes, sets = False, {}, set()
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    key, counts = _cache_entry(line, sizes, sets)
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    # An append cut short cannot parse (a record ends at its closing
                    # brace), nor can a line nested deeper than the parser recurses.
                    torn = isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError,
                                            RecursionError))
                    if number < len(lines) or not torn:
                        raise CorruptCache(
                            f"{path}: line {number} is not a count record ({exc})"
                        ) from exc
                    break
                if self._known.setdefault(key, counts) != counts:
                    first = _line_of(lines, key)
                    raise CorruptCache(
                        f"{path}: lines {first} and {number} give one record the counts "
                        f"{json.loads(lines[first - 1])['count']} and {json.loads(line)['count']}"
                    )
            for (shape, content, patterns), counts in self._known.items():
                if content in (CONTENTS, UNCONSTRAINED, POSITIVE_ROWS):
                    continue
                listed = self._known.get((shape, CONTENTS, patterns))
                if not listed:
                    continue
                # its index in compositions order, since it is a positive content of the shape
                at = [*compositions(*sizes[shape])].index(parse_composition(content))
                if listed[at] != counts[0]:
                    one, many = (_line_of(lines, (shape, c, patterns)) for c in (content, CONTENTS))
                    raise CorruptCache(f"{path}: line {one} counts {content} on shape {shape} as "
                                       f"{counts[0]} and line {many} as {listed[at]}")
            if torn:
                print(f"warning: {path}: skipped torn last line {number}", file=sys.stderr)
                with open(path, "r+b") as handle:
                    handle.truncate(len(data) - len(line))
            elif lines[-1].strip():  # a whole last line: end it
                with open(path, "ab") as handle:
                    handle.write(b"\n")

    @contextmanager
    def _io(self):
        """Raise each ``OSError`` on the path as ``UnusableCache``."""
        try:
            yield
        except OSError as exc:
            raise UnusableCache(f"cannot use cache {self.path}: {exc.strerror}") from exc

    def get(self, key: tuple[str, str, str]):
        return self._known.get(key)

    def add(self, key: tuple[str, str, str], counts: tuple[int, ...]) -> None:
        """Append the line of ``key`` (as ``_cache_key`` builds it) unless the key is known."""
        if key in self._known:
            return
        with self._io():
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8", buffering=1)
            count = list(counts) if key[1] == CONTENTS else counts[0]
            self._handle.write(json.dumps(record_json(*key, count)) + "\n")
        self._known[key] = counts

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            with self._io():
                handle.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def shape_counts(shape, contents, pattern_sets, cache, histogram) -> tuple:
    """The histograms of one shape: per pattern set, the count of each content in turn.

    ``contents`` is one content or every positive composition of the shape in
    ``compositions`` order, and ``histogram(shape, side)`` maps each content to
    its number of avoiders of ``pattern_sets[side]`` (0 if left out).  Each
    pattern set's tuple of counts is one cache entry: a cached tuple wins, else
    ``histogram`` is read once and the tuple added, so a warm cache never counts
    and misses reach the cache in pattern-set order.  Without a cache no key is
    built, and a shape with no content reads and writes nothing.
    """
    if not contents:
        return ((),) * len(pattern_sets)
    histograms = []
    for side, patterns in enumerate(pattern_sets):
        key = None if cache is None else _cache_key(shape, contents, patterns)
        counts = None if key is None else cache.get(key)
        if counts is None:
            counts = tuple(map(histogram(shape, side).get, contents, repeat(0)))
            if key is not None:
                cache.add(key, counts)
        histograms.append(counts)
    return tuple(histograms)


def counted(shape: FerrersShape, content, patterns, cache=None) -> CountRecord:
    """Count one set under any regime, consulting/filling the cache if given."""
    content = check_content(shape, content)
    patterns = canonical_patterns(patterns)

    def histogram(shape, side: int) -> dict:
        if content == UNCONSTRAINED:
            return {content: count_all_fillings(shape, patterns)}
        if content == POSITIVE_ROWS:
            return {content: count_positive_fillings(shape, patterns)}
        return {content: count_fillings(shape, content, patterns)}

    ((count,),) = shape_counts(shape, (content,), (patterns,), cache, histogram)
    return CountRecord(shape, content, patterns, count)


def __getattr__(name):
    # Counts start no processes.  The pool class stays reachable as a module
    # attribute because bench/tracing.py wraps it to count pools started; it
    # is imported only on that lookup, so importing shapewilf does not load
    # multiprocessing.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
