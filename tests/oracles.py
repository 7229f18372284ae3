"""Naive counters and a naive word matcher, kept as oracles for the test suite.

Each one does its job the slow, obvious way, so that the engine and the
matrix-based ``contains`` can be checked against it.  The package itself
calls none of them.
"""

from itertools import product

from shapewilf import POSITIVE_ROWS, UNCONSTRAINED, Filling, avoids_all, validate_pattern


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
