import errno
import json
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import shapewilf
from shapewilf import (
    BadComposition,
    CorruptCache,
    Filling,
    InvalidPattern,
    POSITIVE_ROWS,
    ResultCache,
    UNCONSTRAINED,
    compositions,
    count_all_fillings,
    count_fillings,
    count_positive_fillings,
    count_words,
    counted,
    enumerate_fillings,
    filling_content,
    iter_shapes,
    make_composition,
    make_shape,
    parse_shape,
)
from shapewilf import enumeration
from shapewilf.enumeration import UnusableCache, _Trackers, column_states, step, word_rectangle
from oracles import avoids_all, brute_count_fillings, count_words_direct

P231 = (2, 3, 1)
P312 = (3, 1, 2)


@st.composite
def shapes(draw, max_cols=5, max_rows=4):
    n_rows = draw(st.integers(1, max_rows))
    rows = []
    cap = draw(st.integers(1, max_cols))
    for _ in range(n_rows):
        cap = draw(st.integers(1, cap))
        rows.append(cap)
    return make_shape(rows)


def test_fixed_content_counts():
    s554 = parse_shape("5,5,4")
    assert count_fillings(s554, (2, 2, 1), [P231]) == 18
    assert count_fillings(s554, (1, 1, 3), [P312]) == 8
    s5554 = parse_shape("5,5,5,4")
    assert count_fillings(s5554, (1, 1, 2, 1), [P231]) == 25
    assert count_fillings(s5554, (1, 1, 2, 1), [P312]) == 26
    # the published table 1 prints 26 here; acceptance criterion 1 recounts
    # this cell by word containment (tests/test_acceptance.py)
    assert count_fillings(s5554, (1, 2, 1, 1), [P231]) == 25
    assert count_fillings(s5554, (1, 2, 1, 1), [P312]) == 25
    assert count_fillings(make_shape((2, 2)), (1, 1), []) == 2


def test_fixed_content_validation():
    shape = parse_shape("5,5,4")
    with pytest.raises(BadComposition):
        count_fillings(shape, (2, 2), [P231])  # wrong number of parts
    with pytest.raises(BadComposition):
        count_fillings(shape, (2, 2, 2), [P231])  # wrong sum
    with pytest.raises(BadComposition):
        count_fillings(shape, (3, 2, 0), [P231])  # zero part


@pytest.mark.parametrize("patterns", [5, P231], ids=["an-int", "a-flat-word"])
def test_a_collection_of_non_words_is_an_invalid_pattern(patterns):
    # A usage error, like a letter below 1, not a TypeError from iterating an int.
    with pytest.raises(InvalidPattern):
        enumeration.canonical_patterns(patterns)
    with pytest.raises(InvalidPattern):
        count_all_fillings(make_shape((3, 3)), patterns)
    with pytest.raises(InvalidPattern, match="a word is a sequence of letters, got 2"):
        shapewilf.make_word(2)
    # walk_shapes takes a list of pattern sets, so one set there is a list of non-words.
    with pytest.raises(InvalidPattern):
        list(shapewilf.walk_shapes([P231, (2, 2, 1)], 3, 3, shapewilf.CONTENTS))
    for pattern_sets in (7, None):  # no collection of pattern sets at all
        with pytest.raises(InvalidPattern, match="an iterable of pattern collections"):
            list(shapewilf.walk_shapes(pattern_sets, 3, 3, shapewilf.CONTENTS))


@pytest.mark.parametrize(
    "content", [POSITIVE_ROWS, ("a", 1), (1.0, 1.0)], ids=["regime-name", "letter", "float"]
)
def test_non_integer_parts_are_bad_compositions(content):
    # A regime name where a composition belongs, or any non-integer part, is a
    # usage error like a zero part, not a TypeError from comparing the parts.
    with pytest.raises(BadComposition, match="positive integers"):
        make_composition(content)
    with pytest.raises(BadComposition):
        count_fillings(make_shape((2, 2)), content, [(2, 1)])


@pytest.mark.parametrize("pattern", [(2.0, 1), "21"], ids=["float", "text"])
def test_non_integer_letters_are_invalid_patterns(pattern):
    with pytest.raises(InvalidPattern):
        count_all_fillings(make_shape((3, 3)), [pattern])


@pytest.mark.parametrize(
    "patterns",
    [(), (P231,), (P312, (2, 1, 2)), (P231, (1, 2, 1))],
    ids=["no-pattern", "231", "312+212", "231+121"],
)
def test_counts_match_a_content_histogram_of_every_column_choice(patterns):
    # The Hall test decides which rows a column may fill: a lowest row one too
    # high loses fillings, and a test that passes a start state it should
    # fail, or fails one it should pass, changes some count below.
    for shape in iter_shapes(5, 4):
        histogram = Counter()
        for cols in product(*(range(1, h + 1) for h in shape.heights)):
            filling = Filling(shape, cols)
            if avoids_all(filling, patterns):
                histogram[filling_content(filling)] += 1
        for content in compositions(shape.width, shape.n_rows):
            assert count_fillings(shape, content, patterns) == histogram[content], (shape, content)
        positive = sum(n for content, n in histogram.items() if 0 not in content)
        assert count_positive_fillings(shape, patterns) == positive, shape
        assert count_all_fillings(shape, patterns) == sum(histogram.values()), shape


def test_hall_test_keeps_exactly_the_states_that_can_be_completed():
    # Counts cannot see a lowest row one too low, since a state that cannot
    # be completed dies at a later column anyway.  So with no pattern the
    # regimes after each column must be exactly what the prefixes of the
    # fillings of the content leave: the 1's still to place per row, or the
    # rows still empty.  A regime packs D_t, the 1's owed to rows >= t, in
    # field t, each max(width, n_rows).bit_length() + 1 bits wide.
    for shape in iter_shapes(5, 4):
        m = shape.n_rows
        size = max(shape.width, m).bit_length() + 1

        def owed(regime):
            assert regime >> size * m == 0, (shape, regime)
            demand = [regime >> size * t & (1 << size) - 1 for t in range(m)]
            return tuple(d - below for d, below in zip(demand, [*demand[1:], 0]))

        left = defaultdict(set)  # (content, columns done) -> 1's owed per row
        for cols in product(*(range(1, h + 1) for h in shape.heights)):
            content = filling_content(Filling(shape, cols))
            to_place, empty = list(content), [1] * m
            for done, row in enumerate(cols, start=1):
                to_place[row - 1] -= 1
                empty[row - 1] = 0
                left[content, done].add(tuple(to_place))
                if 0 not in content:
                    left[POSITIVE_ROWS, done].add(tuple(empty))
        for content in [*compositions(shape.width, m), POSITIVE_ROWS]:
            for done, states in enumerate(column_states(shape, (), content), start=1):
                regimes = {owed(regime) for _, regime in states}
                assert regimes == left[content, done], (shape, content)


@pytest.mark.parametrize("width", [7, 8, 15, 16, 31, 32])
def test_counts_at_the_regime_field_width_boundaries(width):
    # Each regime field is max(width, n_rows).bit_length() + 1 bits wide, so
    # these widths put the largest demand just below and at a power of two,
    # and shapes with more rows than columns size their fields from the rows.
    # With no pattern every content is checked against a brute-force histogram.
    for rows in [(width, 3, 1), (width, 2, 2), (width,) + (1,) * (width - 1),
                 (width,) + (1,) * width, (width,) + (1,) * (2 * width)]:
        shape = make_shape(rows)
        histogram = Counter(
            filling_content(Filling(shape, cols))
            for cols in product(*(range(1, h + 1) for h in shape.heights))
        )
        for content in compositions(shape.width, shape.n_rows):
            assert count_fillings(shape, content, ()) == histogram[content], (rows, content)
        positive = sum(n for content, n in histogram.items() if 0 not in content)
        assert count_positive_fillings(shape, ()) == positive, rows
    # Positive rows on more rows than columns fail at the start, before any
    # column, also where the n_rows 1's owed need more bits than the width.
    for m in [2 * width + 2, 4 * width]:
        assert list(column_states(make_shape((width,) * m), (), POSITIVE_ROWS)) == [], m
    # The words of length n using all of 1..m, by inclusion-exclusion over the
    # letters used; with more rows than columns there are none.
    for n, m in [(width, 3), (width, 4)] + ([(width, width + 1)] if width < 9 else []):
        rectangle = word_rectangle(n, m)
        expected = sum(
            (-1) ** (m - k) * comb(m, k) * count_words(n, k, [P231]) for k in range(1, m + 1)
        )
        assert count_positive_fillings(rectangle, [P231]) == expected, (n, m)
        assert expected > 0 or m > n
        if comb(n - 1, m - 1) <= 120:
            fixed = sum(count_fillings(rectangle, c, [P231]) for c in compositions(n, m))
            assert fixed == expected, (n, m)


def test_unconstrained_counts():
    assert count_all_fillings(make_shape((2, 1)), []) == 2
    # rows may stay empty here, unlike the positive regime below
    assert count_all_fillings(parse_shape("6,6,6,4"), [P231]) == 1548
    assert count_all_fillings(parse_shape("6,6,6,4"), [P312]) == 1552


@given(shapes())
def test_empty_pattern_set_counts_every_column_choice(shape):
    expected = 1
    for h in shape.heights:
        expected *= h
    assert count_all_fillings(shape, []) == expected


def test_positive_row_counts():
    s5554 = parse_shape("5,5,5,4")
    assert count_positive_fillings(s5554, [P231]) == 96
    assert count_positive_fillings(s5554, [P312]) == 97
    assert count_positive_fillings(parse_shape("6,6,6,4"), [P231]) == 425
    assert count_positive_fillings(parse_shape("6,6,6,4"), [P312]) == 429
    assert count_positive_fillings(make_shape((1,)), []) == 1
    # more rows than columns leaves nothing to count
    assert count_positive_fillings(make_shape((2, 2, 2)), []) == 0


@given(shapes(max_cols=4, max_rows=3), st.sampled_from([(), (P231,), (P312, (2, 1, 2))]))
@settings(deadline=None)
def test_counts_add_up_across_contents(shape, patterns):
    per_content = [
        count_fillings(shape, a, patterns) for a in compositions(shape.width, shape.n_rows)
    ]
    assert sum(per_content) == count_positive_fillings(shape, patterns)
    # unconstrained = sum over all content vectors, including those with 0's:
    # one less in every part of a positive composition of width + rows
    by_vector = sum(
        brute_count_fillings(shape, patterns, tuple(part - 1 for part in c))
        for c in compositions(shape.width + shape.n_rows, shape.n_rows)
    )
    assert by_vector == count_all_fillings(shape, patterns)


def test_word_counts():
    assert count_words(3, 1, [(1, 2)]) == 1
    assert count_words(5, 1, [(1, 2)]) == 1
    for n, m in [(4, 3), (5, 2), (3, 4)]:
        for patterns in ([(1, 2, 3)], [P231], [(2, 1, 2)], [P231, (2, 2, 1)]):
            assert count_words(n, m, patterns) == count_words_direct(n, m, patterns)
    with pytest.raises(BadComposition):
        count_words(0, 3, [])


@pytest.mark.parametrize(
    "count",
    [
        lambda: count_words(3, True, [(2, 1)]),
        lambda: count_words(True, 3, [(2, 1)]),
        lambda: count_words(3, 2.0, [(2, 1)]),
        lambda: word_rectangle(2, "2"),
    ],
    ids=["bool-alphabet", "bool-length", "float-alphabet", "text-alphabet"],
)
def test_word_sizes_must_be_ints(count):
    # True == 1 and 2.0 == 2, but neither is a length or an alphabet size
    with pytest.raises(BadComposition, match="length and alphabet size must be integers"):
        count()


def _reverse(p):
    return tuple(reversed(p))


def _complement(p):
    k = max(p)
    return tuple(k + 1 - v for v in p)


@pytest.mark.parametrize("pattern", [P231, (2, 3, 1, 4), (1, 2, 2), (2, 1, 2)])
def test_word_counts_respect_reversal_and_complementation(pattern):
    for n, m in [(5, 3), (4, 4)]:
        base = count_words(n, m, [pattern])
        assert count_words(n, m, [_reverse(pattern)]) == base
        assert count_words(n, m, [_complement(pattern)]) == base
        assert count_words(n, m, [_reverse(_complement(pattern))]) == base


def test_enumerate_fillings():
    only = list(enumerate_fillings(make_shape((2, 2)), [(1, 2)], content=(1, 1)))
    assert [f.col_to_row for f in only] == [(2, 1)]
    stream = list(enumerate_fillings(parse_shape("5,5,4"), [P231], content=(2, 2, 1)))
    assert len(stream) == 18
    cols = [f.col_to_row for f in stream]
    assert cols == sorted(cols)  # deterministic lexicographic order
    assert len(set(cols)) == 18
    assert [f.col_to_row for f in enumerate_fillings(make_shape((1,)), [])] == [(1,)]


def test_positive_rows_validate_patterns_before_finding_no_filling():
    # two rows, one column: no filling has a 1 in each row, but (1, 3) is no pattern
    with pytest.raises(InvalidPattern):
        count_positive_fillings(make_shape((1, 1)), [(1, 3)])
    with pytest.raises(InvalidPattern):
        list(enumerate_fillings(make_shape((1, 1)), [(1, 3)], POSITIVE_ROWS))


def test_contents_that_cannot_fit_build_no_trackers(monkeypatch):
    def no_trackers(*args):
        raise AssertionError("trackers built for a content that cannot fit")

    monkeypatch.setattr(shapewilf.enumeration, "_Trackers", no_trackers)
    tall = make_shape((2,) * 1200)  # C(1200, 2) trackers for 21
    assert count_positive_fillings(tall, [(2, 1)]) == 0
    assert list(enumerate_fillings(tall, [(2, 1)], POSITIVE_ROWS)) == []
    # rows 2 and 3 both need their 1 in column 1, the only column they reach
    thin = make_shape((3, 1, 1))
    assert count_fillings(thin, (1, 1, 1), [(2, 1)]) == 0
    assert brute_count_fillings(thin, [(2, 1)], (1, 1, 1)) == 0


def test_enumerate_streams_very_wide_shapes_without_recursing():
    # the {1,2}-words of length 1200 avoiding 21 are 1^a 2^b, a = 0..1200
    stream = enumerate_fillings(make_shape((1200, 1200)), [(2, 1)])
    first = next(stream)
    assert first.col_to_row == (1,) * 1200
    count = 1
    for filling in stream:
        count += 1
    assert count == 1201
    assert filling.col_to_row == (2,) * 1200


def test_enumerate_matches_counts_in_every_regime():
    shape = parse_shape("4,4,3")
    patterns = [P231, (2, 1, 2)]
    assert len(list(enumerate_fillings(shape, patterns))) == count_all_fillings(shape, patterns)
    assert len(list(enumerate_fillings(shape, patterns, POSITIVE_ROWS))) == (
        count_positive_fillings(shape, patterns)
    )
    for a in compositions(shape.width, shape.n_rows):
        assert len(list(enumerate_fillings(shape, patterns, content=a))) == (
            count_fillings(shape, a, patterns)
        )


def test_column_states_checks_its_input():
    shape = make_shape((3, 3))
    with pytest.raises(InvalidPattern):
        list(column_states(shape, [(1, 3)]))
    with pytest.raises(BadComposition):
        list(column_states(shape, [(2, 1)], (1, 1)))  # sums to 2, the shape has 3 columns
    with pytest.raises(BadComposition):
        list(column_states(shape, [(1, 3)], (1, 1)))  # the content is checked first
    with pytest.raises(InvalidPattern):  # before the Hall test finds that nothing fits
        list(column_states(make_shape((1, 1)), [(1, 3)], POSITIVE_ROWS))


@pytest.mark.parametrize(
    "entry",
    [
        lambda shape, content, patterns: count_fillings(shape, content, patterns),
        lambda shape, content, patterns: list(column_states(shape, patterns, content)),
        lambda shape, content, patterns: counted(shape, content, patterns),
        lambda shape, content, patterns: list(enumerate_fillings(shape, patterns, content)),
    ],
    ids=["count_fillings", "column_states", "counted", "enumerate_fillings"],
)
def test_every_engine_entry_checks_the_content_before_the_patterns(entry):
    # (1, 1) sums to 2 on a shape of 3 columns, and (1, 3) is no pattern
    with pytest.raises(BadComposition):
        entry(make_shape((3, 3)), (1, 1), [(1, 3)])


@pytest.mark.parametrize(
    "patterns",
    [(P231,), ((2, 2, 1),), ((1, 2, 1),), ((2, 2, 1, 3),), (P231, (2, 2, 1))],
    ids=["231", "221", "121", "2213", "231+221"],
)
def test_a_stepped_filling_dies_at_its_first_prefix_that_contains_a_pattern(patterns):
    # One state stepped through a filling's own rows must live exactly while
    # the prefix, on the shape cut to the columns done, avoids the patterns.
    for shape in iter_shapes(4, 4):
        trackers = _Trackers(patterns, shape.rows)
        for cols in product(*(range(1, h + 1) for h in shape.heights)):
            moves = lambda regime, h, done: [(cols[done - 1], None)]  # noqa: E731
            states = {(trackers.start, None): 1}
            for done, h in enumerate(shape.heights, start=1):
                states = step(states, h, done, trackers, {}, moves)
                cut = make_shape([min(length, done) for length in shape.rows])
                assert len(states) == avoids_all(Filling(cut, cols[:done]), patterns), (cols, done)


@pytest.mark.parametrize(
    "patterns",
    [(), (P231,), (P231, (2, 2, 1)), (P312, (2, 1, 2)), ((2, 1), (1, 2, 1))],
    ids=["no-pattern", "231", "231+221", "312+212", "21+121"],
)
def test_enumeration_lists_exactly_the_avoiding_column_choices(patterns):
    for shape in iter_shapes(4, 4):
        avoiders = []  # (col_to_row, content) of every avoiding filling
        for cols in product(*(range(1, h + 1) for h in shape.heights)):
            filling = Filling(shape, cols)
            if avoids_all(filling, patterns):
                avoiders.append((cols, filling_content(filling)))
        for content in [UNCONSTRAINED, POSITIVE_ROWS, *compositions(shape.width, shape.n_rows)]:
            expected = [
                cols for cols, c in avoiders
                if content == UNCONSTRAINED
                or (0 not in c if content == POSITIVE_ROWS else c == content)
            ]
            listed = [f.col_to_row for f in enumerate_fillings(shape, patterns, content)]
            assert listed == sorted(expected), (shape, content)


def test_compositions():
    assert list(compositions(5, 3)) == [
        (1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1),
    ]
    assert len(list(compositions(6, 4))) == 10
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(2, 3)) == []  # too many positive parts
    with pytest.raises(BadComposition, match="need at least one part"):
        list(compositions(3, 0))


@pytest.mark.parametrize(
    "total, parts",
    [(True, 1), (3, True), (3.0, 2), (3, 2.0), ("3", 2)],
    ids=["bool-total", "bool-parts", "float-total", "float-parts", "text-total"],
)
def test_compositions_take_only_int_sizes(total, parts):
    # True == 1 and 3.0 == 3, but neither is a number of columns or rows
    with pytest.raises(BadComposition, match="must be integers"):
        list(compositions(total, parts))


def recursive_compositions(total, parts):
    """The recursive generator ``compositions`` replaced, kept as its oracle."""

    def rec(prefix, left, k):
        if k == 1:
            if left >= 1:
                yield prefix + (left,)
            return
        for v in range(1, left - k + 2):
            yield from rec(prefix + (v,), left - v, k - 1)

    yield from rec((), total, parts)


def test_compositions_match_the_recursive_generator():
    for total in range(-1, 10):
        for parts in range(1, 7):
            assert list(compositions(total, parts)) == list(
                recursive_compositions(total, parts)
            ), (total, parts)


def test_compositions_with_many_parts_do_not_recurse():
    assert next(compositions(1500, 1500)) == (1,) * 1500


@pytest.mark.parametrize(
    "patterns",
    [[P231], [P312], [(2, 2, 1)], [(1, 2, 1)], [P231, (2, 2, 1)], [(1, 2)], [(2, 1), (2, 1, 2)]],
)
def test_engine_matches_brute_force(patterns):
    for rows in [(3, 2), (4, 4, 2), (5, 3, 3, 1), (4, 4, 4, 4)]:
        shape = make_shape(rows)
        assert count_all_fillings(shape, patterns) == brute_count_fillings(shape, patterns)
        assert count_positive_fillings(shape, patterns) == brute_count_fillings(
            shape, patterns, POSITIVE_ROWS
        )


def test_long_words_need_no_recursion():
    # nondecreasing words over {1, 2}: one per position of the first 2
    assert count_words(2000, 2, [(2, 1)]) == 2001


def test_import_does_not_load_multiprocessing():
    probe = "import sys, shapewilf; print('multiprocessing' in sys.modules)"
    assert run_python(probe).strip() == "False"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, shapewilf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_python(probe).strip() == "[]"


def test_importing_the_cli_loads_no_importlib_resources():
    # Since Python 3.12 importlib.resources imports inspect. Site hooks (.pth
    # files) may load it at start-up, so look with them switched off.
    probe = "import sys, shapewilf.cli; print('importlib.resources' in sys.modules)"
    assert run_python(probe, flags=["-S"]).strip() == "False"


# Repeated letters, several patterns at once, and patterns with more letters
# than small shapes have rows.
PATTERN_SETS = [
    (), (P231,), (P312,), ((2, 2, 1),), ((1, 2, 1),), ((2, 1, 2),), ((2, 1, 1),),
    ((1, 2),), ((1, 1),), ((1, 2, 3, 4),), ((2, 1, 3, 4),), (P231, (2, 2, 1)),
    (P312, (2, 1, 2)), (P231, (1, 2, 1)), (P312, (2, 1, 1)), ((2, 1), (1, 2, 3)),
    ((1, 2, 3), (3, 2, 1), (1, 1, 1)),
]


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
        lambda rows: make_shape(sorted(rows, reverse=True))
    ),
    st.sampled_from(PATTERN_SETS),
    st.data(),
)
@settings(deadline=None, max_examples=100)
def test_engine_matches_brute_force_on_random_shapes(shape, patterns, data):
    assert count_all_fillings(shape, patterns) == brute_count_fillings(shape, patterns)
    assert count_positive_fillings(shape, patterns) == brute_count_fillings(
        shape, patterns, POSITIVE_ROWS
    )
    contents = list(compositions(shape.width, shape.n_rows))
    if contents:
        content = data.draw(st.sampled_from(contents))
        assert count_fillings(shape, content, patterns) == brute_count_fillings(
            shape, patterns, content=content
        )


@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from(PATTERN_SETS))
@settings(deadline=None, max_examples=80)
def test_word_counts_match_direct_count(n, m, patterns):
    assert count_words(n, m, patterns) == count_words_direct(n, m, patterns)


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_word_counts_with_hundreds_of_progress_bits(m):
    # C(m, 2) trackers of 21 take 2 bits each and C(m, 3) of 231 take 3 bits
    # each: 72 to 132 and 252 to 660 bits of progress per state.
    for patterns in ([(2, 1)], [P231]):
        for n in range(1, 5):
            assert count_words(n, m, patterns) == count_words_direct(n, m, patterns), (n, patterns)


def test_counts_match_the_published_table_and_the_direct_word_count():
    shape = parse_shape("6,6,6,4")
    assert count_positive_fillings(shape, [P231]) == 425  # table 4
    assert count_words(6, 4, [(2, 3, 1, 4)]) == count_words_direct(6, 4, [(2, 3, 1, 4)])


def test_result_cache(tmp_path):
    path = tmp_path / "counts.jsonl"
    shape = parse_shape("5,5,4")
    with ResultCache(str(path)) as cache:
        record = counted(shape, (2, 2, 1), [P231], cache=cache)
        assert record.count == 18
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18}]
        # warm lookups do not append again, across regimes and instances
        counted(shape, (2, 2, 1), [P231], cache=cache)
    for content in (UNCONSTRAINED, POSITIVE_ROWS):
        with ResultCache(str(path)) as cache:
            counted(shape, content, [P231], cache=cache)
    reloaded = ResultCache(str(path))
    assert reloaded.get(("5,5,4", "2,2,1", "231")) == (18,)
    assert len(path.read_text().splitlines()) == 3


def test_a_cell_builds_its_cache_key_once(tmp_path, monkeypatch):
    keys = []
    cache_key = enumeration._cache_key

    def counted_key(*cell):
        keys.append(cell)
        return cache_key(*cell)

    monkeypatch.setattr(enumeration, "_cache_key", counted_key)
    path = tmp_path / "counts.jsonl"
    with ResultCache(str(path)) as cache:
        shape = parse_shape("5,5,4")
        assert counted(shape, (2, 2, 1), [P231], cache=cache).count == 18  # a miss, then added
        assert len(keys) == 1
        assert counted(shape, (2, 2, 1), [P231], cache=cache).count == 18  # a hit
        assert len(keys) == 2
    line = b'{"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18}\n'
    assert path.read_bytes() == line


def run_python(code, *args, flags=()):
    """Run ``python flags -c code args`` with this shapewilf importable; returns its stdout."""
    src = os.path.dirname(os.path.dirname(shapewilf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout


def test_cache_records_written_by_another_process_read_back(tmp_path):
    path = tmp_path / "counts.jsonl"
    writer = (
        "import sys\n"
        "from shapewilf import ResultCache, counted, parse_shape\n"
        "with ResultCache(sys.argv[1]) as cache:\n"
        "    for content in [(2, 2, 1), (1, 1, 3), 'positive-rows']:\n"
        "        counted(parse_shape('5,5,4'), content, [(2, 3, 1)], cache=cache)\n"
    )
    run_python(writer, str(path))
    fresh = ResultCache(str(path))
    assert fresh.get(("5,5,4", "2,2,1", "231")) == (18,)
    assert fresh.get(("5,5,4", "1,1,3", "231")) == (
        count_fillings(parse_shape("5,5,4"), (1, 1, 3), [P231]),
    )
    assert fresh.get(("5,5,4", "positive-rows", "231")) == (82,)
    assert len(path.read_text().splitlines()) == 3


def test_cache_records_are_whole_lines_before_close(tmp_path):
    path = tmp_path / "counts.jsonl"
    with ResultCache(str(path)) as cache:
        counted(parse_shape("5,5,4"), (2, 2, 1), [P231], cache=cache)
        assert ResultCache(str(path)).get(("5,5,4", "2,2,1", "231")) == (18,)
        counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache)
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


def _torn_cache(path):
    """A two-record cache whose last line was cut short while being appended."""
    shape = parse_shape("5,5,4")
    with ResultCache(str(path)) as cache:
        counted(shape, (2, 2, 1), [P231], cache=cache)
        counted(shape, (1, 1, 3), [P312], cache=cache)
    whole, last = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(whole + last[: len(last) // 2])
    return whole


def test_cache_skips_a_torn_last_line_and_cuts_it_off(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    whole = _torn_cache(path)
    with ResultCache(str(path)) as cache:
        assert "skipped torn last line 2" in capsys.readouterr().err
        assert path.read_bytes() == whole
        assert cache.get(("5,5,4", "2,2,1", "231")) == (18,)
        assert cache.get(("5,5,4", "1,1,3", "312")) is None
        assert counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache).count == 8
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


def test_adding_a_key_the_cache_holds_appends_nothing(tmp_path):
    path = tmp_path / "counts.jsonl"
    key = ("5,5,4", "2,2,1", "231")
    with ResultCache(str(path)) as cache:
        cache.add(key, (18,))
        text = path.read_text()
        cache.add(key, (18,))
        cache.add(key, (99,))  # the count it holds stands
        assert cache.get(key) == (18,)
    with ResultCache(str(path)) as cache:  # a key loaded from the file
        cache.add(key, (18,))
    assert path.read_text() == text == json.dumps({"shape": "5,5,4", "content": "2,2,1",
                                                   "patterns": "231", "count": 18}) + "\n"


def test_cache_keeps_a_whole_last_record_without_its_newline(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    path.write_text(json.dumps({"shape": "5,5,4", "content": "2,2,1", "patterns": "231",
                                "count": 18}))
    with ResultCache(str(path)) as cache:
        assert cache.get(("5,5,4", "2,2,1", "231")) == (18,)
        counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache)
    assert capsys.readouterr().err == ""
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


TORN_LINE = '{"shape": "5,5,4", "content": "2,2'  # a record cut short while appended
BAD_LINES = [
    TORN_LINE, '{"shape": "5,5,4"}', '[1, 2]',
    '{"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": "18"}',
]


@pytest.mark.parametrize("bad_line", BAD_LINES)
def test_cache_rejects_a_bad_line_before_the_last(tmp_path, bad_line):
    path = tmp_path / "counts.jsonl"
    good = json.dumps({"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18})
    text = f"{good}\n{bad_line}\n{good}\n"
    path.write_text(text)
    with pytest.raises(CorruptCache, match="line 2"):
        ResultCache(str(path))
    assert path.read_text() == text  # a damaged cache is reported, not repaired


def cache_line(content, count):
    return json.dumps({"shape": "5,5,4", "content": content, "patterns": "231", "count": count})


@pytest.mark.parametrize("bad_line", [*BAD_LINES, cache_line("2,2,1", -5)])
def test_a_last_line_without_its_newline_is_torn_only_if_it_does_not_parse(
    tmp_path, capsys, bad_line
):
    # An append cut short cannot parse, since a record ends at its closing
    # brace, so a whole line that parses but is not a record is damaged.
    path = tmp_path / "counts.jsonl"
    good = cache_line("2,2,1", 18)
    text = f"{good}\n{bad_line}"
    path.write_text(text)
    if bad_line == TORN_LINE:
        ResultCache(str(path)).close()
        assert "skipped torn last line 2" in capsys.readouterr().err
        assert path.read_text() == f"{good}\n"
    else:
        with pytest.raises(CorruptCache, match="line 2 is not a count record"):
            ResultCache(str(path))
        assert path.read_text() == text


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "whole-last-line"])
def test_cache_rejects_two_lines_that_count_one_record_differently(tmp_path, end):
    path = tmp_path / "counts.jsonl"
    text = f"{cache_line('2,2,1', 99)}\n{cache_line('1,1,3', 8)}\n\n{cache_line('2,2,1', 18)}{end}"
    path.write_text(text)
    with pytest.raises(CorruptCache, match="lines 1 and 4 give one record the counts 99 and 18"):
        ResultCache(str(path))
    assert path.read_text() == text


def test_cache_loads_a_record_repeated_with_the_same_count(tmp_path):
    # two runs that append at once can both write a record neither had read
    path = tmp_path / "counts.jsonl"
    text = f"{cache_line('2,2,1', 18)}\n{cache_line('1,1,3', 8)}\n{cache_line('2,2,1', 18)}\n"
    path.write_text(text)
    with ResultCache(str(path)) as cache:
        assert cache.get(("5,5,4", "2,2,1", "231")) == (18,)
        assert counted(parse_shape("5,5,4"), (2, 2, 1), [P231], cache=cache).count == 18
    assert path.read_text() == text


# 231's counts of the six positive contents of 5,5,4 in compositions order:
# 1,1,3 1,2,2 1,3,1 2,1,2 2,2,1 3,1,1, so 2,2,1's is the fifth.
CONTENTS_LINE = cache_line("contents", [8, 15, 13, 15, 18, 13])


@pytest.mark.parametrize("record_first", [True, False], ids=["record-first", "contents-first"])
def test_cache_rejects_a_record_that_its_contents_line_counts_otherwise(tmp_path, record_first):
    path = tmp_path / "counts.jsonl"
    lines = [cache_line("2,2,1", 99), cache_line("1,1,3", 8), CONTENTS_LINE]
    lines = lines if record_first else lines[::-1]
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    one, many = (1, 3) if record_first else (3, 1)
    with pytest.raises(CorruptCache, match=f"line {one} counts 2,2,1 on shape 5,5,4 as 99 and "
                                           f"line {many} as 18$"):
        ResultCache(str(path))
    assert path.read_text() == text


@pytest.mark.parametrize("record_first", [True, False], ids=["record-first", "contents-first"])
def test_cache_loads_records_that_agree_with_their_contents_line(tmp_path, record_first):
    # Records of a regime are not compared.
    lines = [cache_line("2,2,1", 18), cache_line("3,1,1", 13), cache_line("unconstrained", 99),
             CONTENTS_LINE]
    lines = lines if record_first else lines[::-1]
    path = tmp_path / "counts.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with ResultCache(str(path)) as cache:
        assert counted(parse_shape("5,5,4"), (2, 2, 1), [P231], cache=cache).count == 18
        assert cache.get(("5,5,4", "contents", "231"))[4] == 18


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "whole-last-line"])
@pytest.mark.parametrize("content, message", [
    ("x", "cannot parse composition 'x'"),
    ("2,2", "2,2 is no content of shape 5,5,4"),
    ("2,2,2", "2,2,2 is no content of shape 5,5,4"),
    ("2, 2,1", "2, 2,1 is no content of shape 5,5,4"),
    ("3,2,0", "composition parts must be positive integers"),
], ids=["text", "too-few-parts", "wrong-sum", "not-canonical", "zero-part"])
def test_cache_rejects_a_record_of_no_content_of_its_shape(tmp_path, content, message, end):
    # No count can read such a record, so it is damage, not a count to keep.
    path = tmp_path / "counts.jsonl"
    text = f"{cache_line('2,2,1', 18)}\n{cache_line(content, 99)}{end}"
    path.write_text(text)
    with pytest.raises(CorruptCache, match=f"line 2 is not a count record \\({message}"):
        ResultCache(str(path))
    assert path.read_text() == text


# Lines whose shape or pattern-set text is not as format_shape and
# format_patterns write it: no count builds their key.
NON_CANONICAL_KEYS = {
    "shape-text": (("x", UNCONSTRAINED, "231"), "cannot parse shape 'x'"),
    "spaced-shape": (("5, 4", POSITIVE_ROWS, "231"), "shape text '5, 4' is not canonical"),
    "not-ferrers": (("4,5", "2,2", "231"), "row lengths must not grow upwards"),
    "pattern-text": (("5,5,4", UNCONSTRAINED, "nonsense"), "cannot parse word 'nonsense'"),
    "unsorted-set": (
        ("5,5,4", UNCONSTRAINED, "312+231"), "pattern set text '312+231' is not canonical"
    ),
}


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "whole-last-line"])
@pytest.mark.parametrize("key, message", NON_CANONICAL_KEYS.values(), ids=NON_CANONICAL_KEYS)
def test_cache_rejects_a_line_whose_key_texts_are_not_canonical(tmp_path, key, message, end):
    path = tmp_path / "counts.jsonl"
    shape, content, patterns = key
    line = json.dumps({"shape": shape, "content": content, "patterns": patterns, "count": 7})
    text = f"{cache_line('2,2,1', 18)}\n{line}{end}"
    path.write_text(text)
    with pytest.raises(CorruptCache, match=re.escape(f"line 2 is not a count record ({message}")):
        ResultCache(str(path))
    assert path.read_text() == text


def test_a_cache_load_checks_each_distinct_key_text_once(tmp_path, monkeypatch):
    path = str(tmp_path / "counts.jsonl")
    with ResultCache(path) as cache:
        shapewilf.check_equivalence([P231], [(3, 1, 2)], 4, 3, cache=cache)
    with open(path) as lines:
        rows = [json.loads(line) for line in lines]
    assert len(rows) == 58 and len({row["shape"] for row in rows}) == 29  # two sets per shape
    calls = Counter()

    def counting(parse):
        def wrapped(text):
            calls[parse.__name__] += 1
            return parse(text)
        return wrapped

    for parse in (enumeration.parse_shape, enumeration.parse_patterns):
        monkeypatch.setattr(enumeration, parse.__name__, counting(parse))
    assert len(ResultCache(path)._known) == 58
    assert calls == {"parse_shape": 29, "parse_patterns": 2}


def fail_opening(monkeypatch, failing_mode):
    """Make the cache's ``open`` in ``failing_mode`` fail as on a read-only file.

    Root ignores file modes, so ``chmod`` cannot make an append fail.
    """

    def guarded_open(file, mode="r", *args, **kwargs):
        if mode == failing_mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(enumeration, "open", guarded_open, raising=False)


def test_an_unreadable_or_uncreatable_cache_path_is_an_unusable_cache(tmp_path, monkeypatch):
    missing = str(tmp_path / "missing" / "counts.jsonl")
    with pytest.raises(UnusableCache) as exc:
        ResultCache(missing)
    assert str(exc.value) == f"cannot use cache {missing}: No such file or directory"
    assert isinstance(exc.value, OSError) and isinstance(exc.value.__cause__, FileNotFoundError)
    with pytest.raises(UnusableCache) as exc:
        ResultCache("")  # names no file, though its directory would read as "."
    assert str(exc.value) == "cannot use cache : No such file or directory"
    path = tmp_path / "counts.jsonl"
    path.write_text(f"{cache_line('2,2,1', 18)}\n")
    fail_opening(monkeypatch, "rb")
    with pytest.raises(UnusableCache, match="Permission denied"):
        ResultCache(str(path))


@pytest.mark.parametrize(
    "text, failing_mode",
    [("", "a"), (f"{cache_line('2,2,1', 18)}\n{{\"sha", "r+b"), (cache_line("2,2,1", 18), "ab")],
    ids=["append", "torn-line-cut", "newline-repair"],
)
def test_a_failed_write_to_the_cache_is_an_unusable_cache(
    tmp_path, monkeypatch, text, failing_mode
):
    path = tmp_path / "counts.jsonl"
    path.write_text(text)
    fail_opening(monkeypatch, failing_mode)
    with pytest.raises(UnusableCache) as exc:
        with ResultCache(str(path)) as cache:
            counted(parse_shape("5,5,4"), (1, 1, 3), [P231], cache=cache)
    assert str(exc.value) == f"cannot use cache {path}: Permission denied"
    assert isinstance(exc.value.__cause__, PermissionError)
    assert path.read_text() == text


def test_a_failed_close_is_an_unusable_cache(tmp_path, monkeypatch):
    class FullDisk:
        def write(self, text):
            return len(text)

        def close(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    path = tmp_path / "counts.jsonl"
    cache = ResultCache(str(path))
    monkeypatch.setattr(enumeration, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    cache.add(("5,5,4", "2,2,1", "231"), (18,))
    with pytest.raises(UnusableCache, match=f"cannot use cache .*: {os.strerror(errno.ENOSPC)}"):
        cache.close()
    cache.close()  # the handle went with the first close


def test_counted_dispatches_regimes():
    shape = parse_shape("5,5,5,4")
    assert counted(shape, UNCONSTRAINED, [P231]).count == count_all_fillings(shape, [P231])
    assert counted(shape, POSITIVE_ROWS, [P231]).count == 96
    assert counted(shape, (1, 1, 2, 1), [P312]).count == 26


def test_parse_content_inverts_content_text():
    from shapewilf.enumeration import content_text, parse_content

    for content in (UNCONSTRAINED, POSITIVE_ROWS, (2, 2, 1), (1,)):
        assert parse_content(content_text(content)) == content
    assert parse_content("all") == UNCONSTRAINED
    assert parse_content("positive") == POSITIVE_ROWS
    with pytest.raises(BadComposition):
        parse_content("2,0,1")
