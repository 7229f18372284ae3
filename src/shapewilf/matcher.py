"""Pattern containment and avoidance tests for fillings and words.

A filling contains a pattern x (with k = max(x) letters and r positions) if
there are rows rho_1 < ... < rho_k and columns c_1 < ... < c_r such that
column c_j has its 1 in row rho_{x_j} and the whole k x r window lies inside
the shape.  On a Ferrers shape the window condition reduces to the top-right
cell: row rho_k must extend to column c_r.

Patterns are general words, so several pattern positions may share a row;
permutation patterns are just the special case of distinct letters.
"""

from itertools import combinations

from .core import Filling, Word, validate_pattern


def contains(filling: Filling, pattern: Word) -> bool:
    """Does the filling contain the pattern as a (complete) submatrix?"""
    pattern = validate_pattern(pattern)
    k = max(pattern)
    r = len(pattern)
    rows = filling.shape.rows
    m = len(rows)
    if k > m:
        return False
    col_rows = filling.col_to_row
    positions = tuple(v - 1 for v in pattern)
    for rho in combinations(range(1, m + 1), k):
        # Only columns up to the top row's length can host the occurrence.
        limit = rows[rho[-1] - 1]
        if limit < r:
            continue
        t = 0
        want = rho[positions[0]]
        for c in range(limit):
            if col_rows[c] == want:
                t += 1
                if t == r:
                    return True
                want = rho[positions[t]]
    return False


def avoids_all(filling: Filling, patterns) -> bool:
    """True iff the filling contains none of the given patterns."""
    return not any(contains(filling, x) for x in patterns)


class LastColumnChecker:
    """Incremental containment test against a growing column prefix.

    ``fires`` decides whether some occurrence of the pattern uses the newest
    column as its rightmost column.  Since every occurrence has a rightmost
    column, checking this after each placement gives exact pruning for the
    column-by-column search engine.

    For a fixed (row of the new column, height of the new column) the
    admissible row choices rho are enumerated once and reduced to the row
    subword that the earlier columns must contain; those subwords are cached.
    """

    __slots__ = ("pattern", "k", "head", "last", "_cache")

    def __init__(self, pattern: Word):
        self.pattern = validate_pattern(pattern)
        self.k = max(self.pattern)
        self.head = tuple(v - 1 for v in self.pattern[:-1])
        self.last = self.pattern[-1]
        self._cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def _subwords(self, placed_row: int, height: int) -> list[tuple[int, ...]]:
        key = (placed_row, height)
        out = self._cache.get(key)
        if out is None:
            out = []
            below = self.last - 1
            above = self.k - self.last
            for low in combinations(range(1, placed_row), below):
                for high in combinations(range(placed_row + 1, height + 1), above):
                    rho = low + (placed_row,) + high
                    out.append(tuple(rho[i] for i in self.head))
            self._cache[key] = out
        return out

    def fires(self, placed_rows, count: int, placed_row: int, height: int) -> bool:
        """placed_rows[:count] are the earlier columns; the new column holds placed_row."""
        for needed in self._subwords(placed_row, height):
            n = len(needed)
            if n > count:
                continue
            t = 0
            for i in range(count):
                if placed_rows[i] == needed[t]:
                    t += 1
                    if t == n:
                        break
            if t == n:
                return True
        return False


def word_contains(word: Word, pattern: Word) -> bool:
    """Subsequence with the same relative order, equal letters matching equal letters.

    This follows the order-theoretic definition directly (pairwise comparisons
    along a backtracking scan) and is used as an independent cross-check of
    the matrix-based ``contains``.
    """
    pattern = validate_pattern(pattern)
    r = len(pattern)
    n = len(word)
    if r > n:
        return False
    chosen: list[int] = []

    def extend(t: int, start: int) -> bool:
        if t == r:
            return True
        for i in range(start, n - (r - t) + 1):
            wi = word[i]
            if all(
                (pattern[s] < pattern[t]) == (word[chosen[s]] < wi)
                and (pattern[s] == pattern[t]) == (word[chosen[s]] == wi)
                for s in range(t)
            ):
                chosen.append(i)
                if extend(t + 1, i + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)
