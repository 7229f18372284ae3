"""``reconstruct`` against the backtracking search it replaced, kept here as the oracle.

The border statistics and alpha's avoidance test are checked against their
definitions too: the package reads I and the test from one ``_Prefix`` pass,
and N as x + y - n.  So are the ``_Prefix`` state itself (its one 312 rule)
and ``_transpose``, through which the package reads and searches 231, and
the number of pushes the search makes on seeded sequences is pinned.  The
oracle searches 231 directly, so it checks the mirror too.  A second oracle,
``peel_reconstruct``, builds the placement by peeling its top row off with
no search; it is checked against ``reconstruct`` on every sequence that
keeps the border rules of the small boards.
"""

import random
import sys
from collections import defaultdict
from itertools import combinations

import pytest

from shapewilf import (
    Filling,
    FullRookPlacement,
    NoSuchPlacement,
    NotAvoiding,
    VARIANTS,
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
from shapewilf.bijection import P231, P312, _Prefix, _transpose
from shapewilf.matcher import LastColumnChecker

from oracles import peel_reconstruct, region_chain

KINDS = {"231": P231, "312": P312}


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
    if any(target[idx] != 0 for idx in by_x[0]) or any(type(t) is bool for t in target):
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
                    if region_chain(placed, x, y) != target[idx]:
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


def breaks_a_border_rule(shape, sequence):
    """Does ``sequence`` break a rule that every I-sequence on ``shape`` keeps?

    Each value is an integer (an int or an integral float, not a bool) from 0
    to its region's size, and it rises by 0 or 1 on a right step of the
    border and falls by 0 or 1 on a down step.
    """
    vertices = border_path(shape)
    n = shape.n_rows
    for (x, y), t in zip(vertices, sequence):
        if type(t) not in (int, float) or t != int(t) or not 0 <= t <= x + y - n:
            return True
    for (x, _), t, (x2, _), t2 in zip(vertices, sequence, vertices[1:], sequence[1:]):
        if t2 - t not in ((0, 1) if x2 > x else (0, -1)):
            return True
    return False


def border_rule_sequences(shape):
    """Every integer sequence on ``shape``'s border that breaks no border rule."""
    vertices = border_path(shape)
    n = shape.n_rows
    stack = [(0,)]  # the region of the first vertex, (0, n), is empty
    while stack:
        sequence = stack.pop()
        if len(sequence) == len(vertices):
            yield sequence
            continue
        (x, _), (x2, y2) = vertices[len(sequence) - 1 : len(sequence) + 1]
        for t in (sequence[-1], sequence[-1] + (1 if x2 > x else -1)):
            if 0 <= t <= x2 + y2 - n:
                stack.append(sequence + (t,))


def peel_agreement(max_n):
    """Check the peel against ``reconstruct`` on every border-rule sequence, both kinds.

    The boards are every n-row, width-n board with n <= max_n.  Returns the
    number of sequences and of realizable (sequence, kind) pairs.
    """
    sequences = realizable = 0
    for shape in square_boards(max_n):
        for sequence in border_rule_sequences(shape):
            sequences += 1
            for kind in KINDS:
                expected = reconstructed(shape, sequence, kind)
                assert peel_reconstruct(shape, sequence, kind) == expected, (shape, sequence, kind)
                realizable += expected is not None
    return sequences, realizable


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
            assert i_sequence(rook) == tuple(region_chain(cols, x, y) for x, y in vertices)
            assert not breaks_a_border_rule(shape, i_sequence(rook))
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


def test_transpose_swaps_the_kinds_and_reverses_the_border_sequences():
    placements = 0
    for shape in square_boards(6):
        for rook in full_placements(shape):
            mirror = _transpose(rook)
            assert _transpose(mirror) == rook
            assert contains(rook.filling, P231) == contains(mirror.filling, P312), rook
            assert i_sequence(mirror) == i_sequence(rook)[::-1]
            assert n_sequence(mirror) == n_sequence(rook)[::-1]
            placements += 1
    assert placements == 11464


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
    # Nor does trace scan an avoiding input, in either variant or direction.
    shape, content = make_shape((7, 7, 6, 4, 4)), (2, 2, 1, 1, 1)
    for variant in VARIANTS.values():
        for inverse, avoids in ((False, variant.source), (True, variant.target)):
            fillings = list(enumerate_fillings(shape, avoids, content))
            assert len(fillings) > 20
            for filling in fillings:
                image = variant.trace(filling, content, inverse).image
                assert variant.trace(image, content, not inverse).image == filling


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


def sampled_cases(n):
    """80 seeded (shape, sequence, nudged, kind): alpha's targets on n x n boards.

    ``sequence`` is the flipped I-sequence of a random avoider of the other
    kind, so it is realizable; ``nudged`` moves one of its inner values by 1.
    """
    rng = random.Random(n)
    for case in range(40):
        for kind, other in (("231", "312"), ("312", "231")):
            shape = make_shape((n,) * n) if case % 4 == 0 else random_board(n, rng)
            sequence = flipped(random_avoider(shape, kind, rng))
            i = rng.randrange(1, len(sequence) - 1)
            nudged = sequence[:i] + (sequence[i] + rng.choice((-1, 1)),) + sequence[i + 1 :]
            yield shape, sequence, nudged, other


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_reconstruct_agrees_with_the_oracle_on_sampled_avoiders(n):
    unrealizable = 0
    for shape, sequence, nudged, kind in sampled_cases(n):
        results = []
        for seq in (sequence, nudged):
            expected = backtracking_reconstruct(shape, seq, kind)
            assert reconstructed(shape, seq, kind) == expected, (shape, seq, kind)
            results.append(expected)
        # alpha and its inverse realize every flipped sequence with the other kind.
        assert results[0] is not None
        unrealizable += results[1] is None
    assert unrealizable > 0


def test_the_top_row_peel_agrees_with_reconstruct_on_every_border_rule_sequence():
    assert peel_agreement(5) == (6214, 1342)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_the_top_row_peel_agrees_with_reconstruct_on_sampled_avoiders(n):
    unrealizable = 0
    for shape, sequence, nudged, kind in sampled_cases(n):
        assert peel_reconstruct(shape, sequence, kind) == reconstructed(shape, sequence, kind)
        expected = reconstructed(shape, nudged, kind)
        assert peel_reconstruct(shape, nudged, kind) == expected, (shape, nudged, kind)
        unrealizable += expected is None
    assert unrealizable > 0


def test_reconstruct_keeps_its_search_tree(monkeypatch):
    # The pushes of the search on alpha's seeded targets at n = 8 and 9.  A
    # faster search visits the same prefixes; a change to which prefixes it
    # visits has to change this total on purpose.
    cases = [(shape, seq, kind) for n in (8, 9) for shape, seq, _, kind in sampled_cases(n)]
    pushes = 0
    push = _Prefix.push

    def counted(prefix, row):
        nonlocal pushes
        pushes += 1
        return push(prefix, row)

    monkeypatch.setattr(_Prefix, "push", counted)
    for shape, sequence, kind in cases:
        reconstruct(shape, sequence, kind)
    assert (len(cases), pushes) == (160, 6984)


def test_reconstruct_rejects_sequences_that_break_a_border_rule_before_any_push(monkeypatch):
    square = make_shape((3, 3, 3))  # region sizes 0, 1, 2, 3, 2, 1, 0
    cases = [
        (square, (-1, 0, 1, 2, 1, 0, -1)),  # negative
        (square, (0, 1, 2, 3, 3, 2, 1)),  # 1 above the empty region at (3, 0)
        (square, (0, 0.5, 1.5, 2.5, 1.5, 0.5, 0)),  # not integers
        (square, (0, 1, 2, "3", 2, 1, 0)),  # not a number
        (square, (0, True, 2, 3, 2, 1, 0)),  # a bool, though True == 1
        (square, (0, 0, 2, 2, 2, 1, 0)),  # rises by 2 on a right step
        (square, (0, 1, 2, 2, 2, 0, 0)),  # falls by 2 on a down step
        (square, (0, 1, 0, 1, 1, 1, 0)),  # falls on a right step
        (square, (0, 1, 1, 1, 0, 1, 0)),  # rises on a down step
    ]
    rng = random.Random(18)
    while len(cases) < 200:
        shape = random_board(rng.randint(2, 7), rng)
        sequence = list(i_sequence(random_avoider(shape, rng.choice(list(KINDS)), rng)))
        sequence[rng.randrange(len(sequence))] += rng.choice((-2, -1, 1, 2, 0.5))
        if breaks_a_border_rule(shape, sequence):
            cases.append((shape, tuple(sequence)))

    def no_push(prefix, row):
        raise AssertionError("a sequence that breaks a border rule needs no search")

    monkeypatch.setattr(_Prefix, "push", no_push)
    for shape, sequence in cases:
        assert breaks_a_border_rule(shape, sequence), sequence
        for kind in KINDS:
            assert reconstructed(shape, sequence, kind) is None, (shape, sequence, kind)
            assert backtracking_reconstruct(shape, sequence, kind) is None, (shape, sequence)


def occurrence_tops(placed, u):
    """Top rows of the 312 occurrences that a 1 in row u after the ``placed`` rows would complete."""
    return [a for a, b in combinations(placed, 2) if a > u > b]


def check_against_a_recount(prefix, cap) -> bool:
    """Assert ``prefix``'s state against a recount from its placed rows alone.

    ``forb`` is defined for the unused rows only.  Returns whether every
    unused row can still avoid 312 in the last column reaching it.
    """
    placed, n = prefix.placed, prefix.n
    unused = [u for u in range(1, n + 1) if u not in placed]
    assert prefix.used == [False] + [u in placed for u in range(1, n + 1)]
    assert prefix.mask == sum(1 << u for u in placed)
    assert prefix.L == [region_chain(placed, len(placed), v) for v in range(n + 1)]
    forb = [min(occurrence_tops(placed, u), default=n + 1) for u in unused]
    assert [prefix.forb[u] for u in unused] == forb, placed
    return all(f > cap[u] for u, f in zip(unused, forb))


def test_prefix_state_matches_a_recount_from_its_rows():
    rng = random.Random(4)
    steps = 0
    for _ in range(200):  # enough boards for a walk of more than 5000 steps
        n = rng.randint(1, 9)
        shape = random_board(n, rng)
        heights = shape.heights
        cap = [0] + [[h for h in heights if h >= u][-1] for u in range(1, n + 1)]
        prefix = _Prefix(shape)
        placed = prefix.placed
        for _ in range(6 * n):
            j = len(placed)
            free = [r for r in range(1, heights[j] + 1) if r not in placed] if j < n else []
            if free and (not placed or rng.random() < 0.6):
                alive = prefix.push(rng.choice(free))
                # Like the search, the walk extends only the prefixes that push calls alive.
                assert alive == check_against_a_recount(prefix, cap), (shape, placed)
                steps += 1
                if alive:
                    continue
            prefix.pop()
            check_against_a_recount(prefix, cap)
            steps += 1
    assert steps > 5000


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
