"""Naive counters, a naive word matcher and a peeling ``reconstruct``, kept as oracles.

Each one does its job a slow or obvious way of its own, so that the engine,
the matrix-based ``contains`` and the bijection's search can be checked
against it.  The package itself calls none of them.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, product

from shapewilf import (
    POSITIVE_ROWS,
    UNCONSTRAINED,
    Filling,
    border_path,
    contains,
    make_shape,
    validate_pattern,
)


def avoids_all(filling, patterns) -> bool:
    """True iff the filling contains none of the given patterns."""
    return not any(contains(filling, x) for x in patterns)


def brute_count_fillings(shape, patterns, content=UNCONSTRAINED) -> int:
    """Avoiders among all column choices of the shape, filtered by content.

    ``content`` is ``UNCONSTRAINED``, ``POSITIVE_ROWS`` or a vector of row
    counts, whose parts may be 0.
    """
    total = 0
    for cols in product(*(range(1, h + 1) for h in shape.heights)):
        if content != UNCONSTRAINED:
            counts = [0] * shape.n_rows
            for row in cols:
                counts[row - 1] += 1
            if (0 in counts) if content == POSITIVE_ROWS else tuple(counts) != tuple(content):
                continue
        if avoids_all(Filling(shape, cols), patterns):
            total += 1
    return total


def count_words_direct(n: int, m: int, patterns) -> int:
    """Avoiding words of length n over {1..m}: test each of the m**n words."""
    return sum(
        not any(word_contains(word, x) for x in patterns)
        for word in product(range(1, m + 1), repeat=n)
    )


def word_contains(word, pattern) -> bool:
    """Subsequence with the same relative order, equal letters matching equal letters.

    Two words have the same relative order exactly when replacing each letter
    by its rank among the word's distinct letters gives the same word, and a
    pattern is already its own ranks.  So this asks whether the pattern is
    among the rank words of the subsequences of its length, which are listed
    once per (word, length).  It is an independent cross-check of the
    matrix-based ``contains``.
    """
    pattern = _validated(tuple(pattern))
    return pattern in _rank_words(tuple(word), len(pattern))


_validated = lru_cache(maxsize=1 << 10)(validate_pattern)


@lru_cache(maxsize=1 << 16)
def _rank_words(word, r: int) -> frozenset:
    """The rank words of every length-r subsequence of ``word``."""
    found = set()
    for sub in combinations(word, r):
        rank = {v: i for i, v in enumerate(sorted(set(sub)), start=1)}
        found.add(tuple([rank[v] for v in sub]))
    return frozenset(found)


def region_chain(col_to_row, x: int, y: int) -> int:
    """Longest row-and-column increasing chain among 1's with col <= x, row <= y."""
    tails: list[int] = []
    for c in range(x):
        row = col_to_row[c]
        if row <= y:
            i = bisect_left(tails, row)
            if i == len(tails):
                tails.append(row)
            else:
                tails[i] = row
    return len(tails)


def peel_reconstruct(shape, sequence, kind):
    """The ``kind``-avoiding full placement with I-sequence ``sequence``, or None.

    For 312 it peels the board's top row off, one row at a time.  The top
    row's 1 is in the last column a <= w (w the row's length) where the
    sequence rises along the top of the border, since the columns a+1..w of
    a 312-avoider must fall below it.  Deleting that row and column leaves
    the border reading I(0..a-1), then I at (w, top - 1) up to the new
    column w - 1, then the old border after (w, top - 1).  231 goes through
    the inverse permutation on the conjugate board, with the sequence
    reversed.  A candidate is returned only if its recounted I-sequence
    (``region_chain``) is ``sequence`` and ``contains`` finds no ``kind`` in it.
    """
    target = tuple(sequence)
    vertices = border_path(shape)
    if len(target) != len(vertices) or any(type(t) not in (int, float) for t in target):
        return None
    if kind == "231":
        conjugate = make_shape(shape.heights)
        mirror = _peel_312(conjugate, target[::-1])
        cols = None if mirror is None else _inverse(mirror)
    else:
        cols = _peel_312(shape, target)
    if cols is None:
        return None
    if tuple(region_chain(cols, x, y) for x, y in vertices) != target:
        return None
    if contains(Filling(shape, cols), (2, 3, 1) if kind == "231" else (3, 1, 2)):
        return None
    return cols


def _peel_312(shape, sequence):
    # The candidate's rows by column, or None when some top row has no rise.
    seq = list(sequence)
    columns = list(range(shape.width))  # the board's columns still left, by index
    cols = [0] * shape.width
    for top in range(shape.n_rows, 0, -1):
        w = shape.rows[top - 1] - (shape.width - len(columns))  # every deleted column was in it
        rises = [x for x in range(1, w + 1) if seq[x] > seq[x - 1]]
        if not rises:
            return None
        a = rises[-1]
        cols[columns.pop(a - 1)] = top
        seq = seq[:a] + [seq[w + 1]] * (w - a) + seq[w + 2 :]
    return tuple(cols)


def _inverse(cols):
    # The inverse permutation: the 1 in column c, row r goes to column r, row c.
    inverse = [0] * len(cols)
    for c, r in enumerate(cols, 1):
        inverse[r - 1] = c
    return tuple(inverse)
