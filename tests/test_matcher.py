from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shapewilf import (
    Filling,
    InvalidPattern,
    avoids_all,
    contains,
    make_shape,
    parse_word,
    word_contains,
    word_to_filling,
)
from shapewilf.matcher import LastColumnChecker
from worked_example import FILLING, SECOND_FILLING, SHAPE


def all_patterns(max_len):
    """Every valid pattern word of length <= max_len."""
    out = []
    for n in range(1, max_len + 1):
        for p in product(range(1, n + 1), repeat=n):
            if set(p) == set(range(1, max(p) + 1)):
                out.append(p)
    return out


PATTERNS4 = all_patterns(4)


@st.composite
def shapes(draw, max_cols=7, max_rows=5):
    n_rows = draw(st.integers(1, max_rows))
    rows = []
    cap = draw(st.integers(1, max_cols))
    for _ in range(n_rows):
        cap = draw(st.integers(1, cap))
        rows.append(cap)
    return make_shape(rows)


@st.composite
def fillings(draw, **kwargs):
    shape = draw(shapes(**kwargs))
    cols = tuple(draw(st.integers(1, h)) for h in shape.heights)
    return Filling(shape, cols)


def test_contains_on_rectangles():
    filling = word_to_filling(parse_word("213314242"))
    assert contains(filling, (1, 2, 3))
    assert not contains(filling, (3, 1, 1, 2))


def test_contains_respects_the_shape_window():
    # The rightmost column of an occurrence must lie within the row hosting
    # the occurrence's highest 1.
    assert not contains(Filling(SHAPE, SECOND_FILLING), (4, 3, 1, 2))
    # Same column data on a rectangle: occurrences using the top rows are
    # inside the window there, and 4312 shows up.
    assert contains(word_to_filling(SECOND_FILLING), (4, 3, 1, 2))
    # A 231 occurrence whose window sticks out of (5,5,5,4) does not count.
    trimmed = Filling(make_shape((5, 5, 5, 4)), (1, 2, 3, 4, 2))
    assert not contains(trimmed, (2, 3, 1))
    assert contains(word_to_filling((1, 2, 3, 4, 2)), (2, 3, 1))


def test_contains_rejects_letter_gaps():
    with pytest.raises(InvalidPattern):
        contains(word_to_filling((1, 2, 3)), (1, 3))


def test_avoids_all():
    assert avoids_all(Filling(SHAPE, FILLING), [(2, 3, 1), (2, 2, 1)])
    assert avoids_all(word_to_filling((3, 1, 2)), [])
    assert not avoids_all(word_to_filling(parse_word("1465213233")), [(2, 3, 1)])


@given(fillings(), st.sampled_from(PATTERNS4), st.sampled_from(PATTERNS4))
def test_avoidance_is_monotone_in_the_pattern_set(filling, x, y):
    if avoids_all(filling, [x, y]):
        assert avoids_all(filling, [x]) and avoids_all(filling, [y])
    if not avoids_all(filling, [x]):
        assert not avoids_all(filling, [x, y])


@given(shapes(), st.data())
def test_window_rule_top_right_cell_dominates(shape, data):
    # If the top-right cell of a k x r window is inside the shape, the whole
    # window is: pick any rows/columns below/left of an inside cell.
    rho_k = data.draw(st.integers(1, shape.n_rows))
    c_r = data.draw(st.integers(1, shape.rows[rho_k - 1]))
    rho_i = data.draw(st.integers(1, rho_k))
    c_j = data.draw(st.integers(1, c_r))
    assert shape.rows[rho_i - 1] >= c_j


def test_contains_using_last_column():
    # fires(placed, j, row, h): columns 1..j are placed[:j]; column j+1 holds row, height h
    assert LastColumnChecker((1, 2)).fires((1, 2), 1, 2, 2)
    assert not LastColumnChecker((1, 2)).fires((2, 1), 1, 1, 2)
    assert not LastColumnChecker((2, 3, 1)).fires(FILLING[:5], 4, FILLING[4], SHAPE.heights[4])
    assert not LastColumnChecker((1, 2)).fires((), 0, 2, 2)


@given(fillings(max_cols=6, max_rows=4), st.sampled_from(PATTERNS4))
def test_rightmost_column_decomposition(filling, pattern):
    checker = LastColumnChecker(pattern)
    cols = filling.col_to_row
    by_prefix = any(
        checker.fires(cols, j, cols[j], filling.shape.heights[j])
        for j in range(filling.shape.width)
    )
    assert by_prefix == contains(filling, pattern)


def test_word_contains():
    w = parse_word("213314242")
    assert word_contains(w, (1, 2, 3))
    assert not word_contains(w, (3, 1, 1, 2))
    for x in PATTERNS4:
        assert word_contains(x, x)


def test_word_contains_equal_letters_must_match():
    # 212 needs the outer letters equal; 11 needs a repeated letter.
    assert word_contains((2, 1, 2), (2, 1, 2))
    assert not word_contains((2, 1, 3), (2, 1, 2))
    assert word_contains((2, 1, 3), (2, 1, 3))
    assert not word_contains((1, 2, 3), (1, 1))
    assert word_contains((1, 3, 1), (1, 1))


def test_word_and_matrix_containment_agree_exhaustively():
    # Exhaustive cross-check of the two implementations on short words.
    for n in range(1, 7):
        for w in product(range(1, 5), repeat=n):
            filling = word_to_filling(w)
            for x in PATTERNS4:
                assert word_contains(w, x) == contains(filling, x), (w, x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=7, max_size=7).map(tuple), st.sampled_from(PATTERNS4))
def test_word_and_matrix_containment_agree_on_length_seven(w, x):
    assert word_contains(w, x) == contains(word_to_filling(w), x)
