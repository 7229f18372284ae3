"""``reconstruct`` against the backtracking search it replaced, kept here as the oracle.

The border statistics and alpha's avoidance test are checked against their
definitions too: the package reads I and the test from one ``_Prefix`` pass,
and N as x + y - n.
"""

import random
import sys
from bisect import bisect_left
from collections import defaultdict

import pytest

from shapewilf import (
    Filling,
    FullRookPlacement,
    NoSuchPlacement,
    NotAvoiding,
    alpha,
    alpha_inverse,
    border_path,
    contains,
    enumerate_fillings,
    i_sequence,
    iter_shapes,
    make_shape,
    n_sequence,
    reconstruct,
)
from shapewilf.bijection import P231, P312
from shapewilf.matcher import LastColumnChecker

KINDS = {"231": P231, "312": P312}


def _region_chain(col_to_row, x: int, y: int) -> int:
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


def backtracking_reconstruct(shape, sequence, kind):
    """The kind-avoiding full placement with I-sequence ``sequence``, or None.

    Places rows column by column, bottom-up, one recursion level per column.
    A branch survives only while ``LastColumnChecker`` finds no occurrence
    ending in its newest column and every border vertex whose region is
    complete has its target chain length.
    """
    vertices = border_path(shape)
    target = tuple(sequence)
    by_x = defaultdict(list)
    for idx, (x, _) in enumerate(vertices):
        by_x[x].append(idx)
    if any(target[idx] != 0 for idx in by_x[0]):
        return None
    checker = LastColumnChecker(KINDS[kind])
    heights = shape.heights
    used = [False] * (shape.n_rows + 1)
    placed = []

    def rec(j):
        if j == shape.width:
            return True
        h = heights[j]
        for row in range(1, h + 1):
            if used[row]:
                continue
            used[row] = True
            placed.append(row)
            ok = not checker.fires(placed, j, row, h)
            if ok:
                for idx in by_x[j + 1]:
                    x, y = vertices[idx]
                    if _region_chain(placed, x, y) != target[idx]:
                        ok = False
                        break
            if ok and rec(j + 1):
                return True
            placed.pop()
            used[row] = False
        return False

    return tuple(placed) if rec(0) else None


def reconstructed(shape, sequence, kind):
    """``reconstruct``'s placement as a column tuple, or None for NoSuchPlacement."""
    try:
        return reconstruct(shape, sequence, kind).col_to_row
    except NoSuchPlacement:
        return None


def flipped(rook):
    return tuple(0 if i == 0 else n - i + 1 for i, n in zip(i_sequence(rook), n_sequence(rook)))


def square_boards(max_n):
    """Every Ferrers board with n rows and width n, for n = 1..max_n."""
    return [s for n in range(1, max_n + 1) for s in iter_shapes(n, n) if s.n_rows == s.width == n]


def full_placements(shape):
    return [FullRookPlacement(f) for f in enumerate_fillings(shape, [], (1,) * shape.n_rows)]


def raises_not_avoiding(alpha_map, rook):
    try:
        alpha_map(rook)
    except NotAvoiding:
        return True
    return False


def test_border_statistics_and_avoidance_match_their_definitions():
    placements, avoiders = 0, {kind: 0 for kind in KINDS}
    for shape in square_boards(6):
        vertices = border_path(shape)
        for rook in full_placements(shape):
            cols = rook.col_to_row
            assert i_sequence(rook) == tuple(_region_chain(cols, x, y) for x, y in vertices)
            assert n_sequence(rook) == tuple(
                sum(1 for c in range(x) if cols[c] <= y) for x, y in vertices
            )
            for kind, alpha_map in (("231", alpha), ("312", alpha_inverse)):
                found = contains(rook.filling, KINDS[kind])
                assert raises_not_avoiding(alpha_map, rook) == found, (shape, cols, kind)
                avoiders[kind] += not found
            placements += 1
    # alpha is a bijection on each board, so the two kinds have as many avoiders
    assert (placements, avoiders) == (11464, {"231": 4989, "312": 4989})


def test_alpha_round_trips_without_the_general_matcher(monkeypatch):
    rng = random.Random(12)
    square = random_avoider(make_shape((12,) * 12), "231", rng)
    width = 400
    staircase = FullRookPlacement(
        Filling(make_shape(range(width, 0, -1)), tuple(range(width, 0, -1)))
    )

    def no_scan(*args):
        raise AssertionError("alpha must not scan the placement with contains")

    monkeypatch.setattr("shapewilf.bijection.contains", no_scan)
    for rook in (square, staircase):
        assert alpha_inverse(alpha(rook)) == rook


def test_reconstruct_agrees_with_the_backtracking_oracle_on_small_boards():
    boards = square_boards(5)
    boards.append(make_shape((6,) * 6))
    cases = unrealizable = 0
    for shape in boards:
        for rook in full_placements(shape):
            sequence = i_sequence(rook)
            for kind in KINDS:
                expected = backtracking_reconstruct(shape, sequence, kind)
                assert reconstructed(shape, sequence, kind) == expected, (shape, rook, kind)
                cases += 1
                unrealizable += expected is None
    assert (cases, unrealizable) == (3578, 1302)


def random_board(n, rng):
    """A random Ferrers board with n rows and width n that has a full placement."""
    heights = [n]
    for j in range(1, n):
        heights.append(rng.randint(n - j, heights[-1]))
    return make_shape([sum(h >= i for h in heights) for i in range(1, n + 1)])


def random_avoider(shape, kind, rng):
    """A random full placement of ``shape`` that avoids ``kind``, by rejection."""
    heights = shape.heights
    while True:
        rows = list(range(1, shape.n_rows + 1))
        cols = [0] * shape.width
        for j in reversed(range(shape.width)):  # shortest column first: every pick fits
            fits = [r for r in rows if r <= heights[j]]
            cols[j] = rng.choice(fits)
            rows.remove(cols[j])
        rook = FullRookPlacement(Filling(shape, tuple(cols)))
        if not contains(rook.filling, KINDS[kind]):
            return rook


@pytest.mark.parametrize("n", [7, 8, 9])
def test_reconstruct_agrees_with_the_oracle_on_sampled_avoiders(n):
    rng = random.Random(n)
    unrealizable = 0
    for case in range(40):
        for kind, other in (("231", "312"), ("312", "231")):
            shape = make_shape((n,) * n) if case % 4 == 0 else random_board(n, rng)
            sequence = flipped(random_avoider(shape, kind, rng))
            i = rng.randrange(1, len(sequence) - 1)
            nudged = sequence[:i] + (sequence[i] + rng.choice((-1, 1)),) + sequence[i + 1 :]
            results = []
            for seq in (sequence, nudged):
                expected = backtracking_reconstruct(shape, seq, other)
                assert reconstructed(shape, seq, other) == expected, (shape, seq, other)
                results.append(expected)
            # alpha and its inverse realize every flipped sequence with the other kind.
            assert results[0] is not None
            unrealizable += results[1] is None
    assert unrealizable > 0


def test_reconstruct_does_not_recurse_per_column():
    width = 160
    staircase = make_shape(range(width, 0, -1))
    anti_diagonal = tuple(range(width, 0, -1))
    sequence = i_sequence(FullRookPlacement(Filling(staircase, anti_diagonal)))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        assert depth + 40 < width // 2
        for kind in KINDS:
            assert reconstruct(staircase, sequence, kind).col_to_row == anti_diagonal
    finally:
        sys.setrecursionlimit(limit)
