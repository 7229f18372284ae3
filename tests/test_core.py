import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from shapewilf import (
    CountRecord,
    Direction,
    EquivalenceVariant,
    Filling,
    FullRookPlacement,
    InvalidPattern,
    Mismatch,
    NotFerrers,
    ScanReport,
    VARIANTS,
    ShapeMismatch,
    border_path,
    direct_sum,
    filling_content,
    format_patterns,
    format_shape,
    format_word,
    make_composition,
    make_shape,
    parse_composition,
    parse_patterns,
    parse_shape,
    parse_word,
    validate_pattern,
    word_to_filling,
)
import shapewilf
from shapewilf import core, enumeration
from shapewilf.enumeration import check_bounds
from worked_example import CONTENT, FILLING, SHAPE


@st.composite
def shapes(draw, max_cols=7, max_rows=5):
    n_rows = draw(st.integers(1, max_rows))
    rows = []
    cap = draw(st.integers(1, max_cols))
    for _ in range(n_rows):
        cap = draw(st.integers(1, cap))
        rows.append(cap)
    return make_shape(rows)


words = st.lists(st.integers(1, 6), min_size=1, max_size=8).map(tuple)


def test_make_shape_accepts_weakly_decreasing_rows():
    shape = make_shape((10, 10, 10, 7, 4, 4))
    assert shape.rows == (10, 10, 10, 7, 4, 4)
    assert shape.heights == (6, 6, 6, 6, 4, 4, 4, 3, 3, 3)
    assert make_shape((1,)).rows == (1,)


@pytest.mark.parametrize("rows", [(4, 5), (2, 3, 1), (1, 0), (-1,), (), (3.0, 2), "32", (3, None)])
def test_make_shape_rejects_non_shapes(rows):
    with pytest.raises(NotFerrers):
        make_shape(rows)


def test_column_heights():
    assert make_shape((5, 5, 4)).heights == (3, 3, 3, 3, 2)
    assert make_shape((1,)).heights == (1,)
    assert make_shape((10, 10, 10, 7, 4, 4)).heights == (6, 6, 6, 6, 4, 4, 4, 3, 3, 3)


@given(shapes())
def test_column_heights_decrease_and_cover_all_cells(shape):
    heights = shape.heights
    assert all(a >= b for a, b in zip(heights, heights[1:]))
    assert sum(heights) == sum(shape.rows)


def test_word_to_filling():
    filling = word_to_filling(parse_word("213314242"))
    assert filling.shape.rows == (9, 9, 9, 9)
    assert filling.col_to_row == (2, 1, 3, 3, 1, 4, 2, 4, 2)
    assert word_to_filling((1,)).shape.rows == (1,)
    assert word_to_filling((1, 1)).col_to_row == (1, 1)


def test_the_empty_word_has_no_filling():
    with pytest.raises(InvalidPattern, match="empty word"):
        word_to_filling(())


@given(words)
def test_word_to_filling_content_counts_letters(word):
    content = filling_content(word_to_filling(word))
    assert content == tuple(word.count(v) for v in range(1, max(word) + 1))


@given(words, words)
def test_word_to_filling_injective(u, v):
    if u != v:
        fu, fv = word_to_filling(u), word_to_filling(v)
        assert (fu.shape, fu.col_to_row) != (fv.shape, fv.col_to_row)


def test_filling_content_with_empty_rows():
    assert filling_content(Filling(SHAPE, FILLING)) == CONTENT
    assert filling_content(word_to_filling((1, 2, 3))) == (1, 1, 1)
    assert filling_content(word_to_filling((1, 1, 1))) == (3,)
    # an unused top row shows up as 0
    assert filling_content(Filling(make_shape((2, 2)), (1, 1))) == (2, 0)


def test_direct_sum():
    assert direct_sum((2, 3, 1), (1, 2)) == (2, 3, 1, 4, 5)
    assert direct_sum((2, 3, 1), (1,)) == (2, 3, 1, 4)
    assert direct_sum((2, 3, 1), ()) == (2, 3, 1)
    assert direct_sum((), (2, 1)) == (2, 1)


@given(words, words, words)
def test_direct_sum_associative_with_additive_max(x, y, z):
    assert direct_sum(direct_sum(x, y), z) == direct_sum(x, direct_sum(y, z))
    assert max(direct_sum(x, y)) == max(x) + max(y)


def test_border_path_small_cases():
    assert border_path(make_shape((2, 1))) == ((0, 2), (1, 2), (1, 1), (2, 1), (2, 0))
    assert border_path(make_shape((1,))) == ((0, 1), (1, 1), (1, 0))
    assert len(border_path(make_shape((10,) * 7 + (7, 4, 4)))) == 21


@given(shapes())
def test_border_path_steps(shape):
    path = border_path(shape)
    assert len(path) == shape.n_rows + shape.width + 1
    assert path[0] == (0, shape.n_rows)
    assert path[-1] == (shape.width, 0)
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(path, path[1:])]
    assert steps.count((1, 0)) == shape.width
    assert steps.count((0, -1)) == shape.n_rows


def test_filling_must_stay_inside_shape():
    shape = make_shape((2, 1))
    assert Filling(shape, (2, 1)).col_to_row == (2, 1)
    with pytest.raises(ShapeMismatch):
        Filling(shape, (1, 2))  # column 2 has height 1
    with pytest.raises(ShapeMismatch):
        Filling(shape, (1,))  # one entry per column
    with pytest.raises(ShapeMismatch, match="not an integer"):
        Filling(make_shape((2, 2)), (1.0, 2))


def test_full_rook_placement_validation():
    square = make_shape((2, 2))
    assert FullRookPlacement(Filling(square, (2, 1))).col_to_row == (2, 1)
    # staircase shapes admit full placements too
    assert FullRookPlacement(Filling(make_shape((2, 1)), (2, 1))).shape.rows == (2, 1)
    with pytest.raises(ShapeMismatch):
        FullRookPlacement(Filling(square, (1, 1)))  # row 1 used twice
    with pytest.raises(ShapeMismatch):
        FullRookPlacement(Filling(make_shape((3, 1)), (2, 1, 1)))  # 2 rows, 3 columns


@pytest.mark.parametrize(
    "site",
    [
        lambda v: make_shape((2, v)),
        lambda v: Filling(make_shape((2, 2)), (v, 2)),
        lambda v: validate_pattern((v,)),
        lambda v: make_composition((v, 1)),
        lambda v: check_bounds(max_cols=v),
    ],
    ids=["shape-row", "filling-row", "letter", "composition-part", "scan-bound"],
)
def test_a_bool_is_rejected_like_a_float(site):
    # True == 1, but it would print as "True" in every text encoding.
    errors = []
    for value in (1.5, True):
        with pytest.raises(ValueError) as exc:
            site(value)
        errors.append((type(exc.value), str(exc.value).replace(repr(value), "<value>")))
    assert errors[0] == errors[1]
    assert "<value>" in errors[0][1]


def test_pattern_validation():
    assert validate_pattern((2, 3, 1)) == (2, 3, 1)
    assert validate_pattern((1, 1)) == (1, 1)
    with pytest.raises(InvalidPattern):
        validate_pattern((1, 3))  # gap: no 2
    with pytest.raises(InvalidPattern):
        validate_pattern(())
    with pytest.raises(InvalidPattern):
        validate_pattern((0, 1))


def test_text_encodings_round_trip():
    assert format_shape(parse_shape("10,10,10,7,4,4")) == "10,10,10,7,4,4"
    assert parse_word("231") == (2, 3, 1)
    assert parse_word("10,9,2") == (10, 9, 2)
    assert format_word((10, 9, 2)) == "10,9,2"
    assert format_word((2, 3, 1)) == "231"
    assert parse_patterns("231+221") == ((2, 3, 1), (2, 2, 1))
    assert parse_patterns("") == ()
    assert format_patterns(((2, 3, 1), (2, 2, 1))) == "231+221"
    with pytest.raises(InvalidPattern):
        parse_patterns("13")
    with pytest.raises(ValueError):
        parse_shape("5,x")


def test_the_empty_word_formats_as_the_empty_text():
    assert format_word(()) == ""
    assert parse_word(format_word(())) == ()


@pytest.mark.parametrize(
    "parse, text",
    [(parse_shape, "1_0"), (parse_shape, "3,1_0"), (parse_composition, "2_1"), (parse_word, "1_2,3")],
    ids=["shape", "shape-second-row", "composition", "word"],
)
def test_digit_group_underscores_are_parse_errors(parse, text):
    # int() reads "1_0" as 10
    with pytest.raises(core.ParseError, match="expected comma-separated integers"):
        parse(text)


def test_a_signed_row_still_reaches_the_shape_check():
    with pytest.raises(NotFerrers, match="non-positive length -1"):
        parse_shape("-1")


@pytest.mark.parametrize(
    "text", ["\u00b231", "2\u00b31", "\u24602"], ids=["superscript-2", "superscript-3", "circled-1"]
)
def test_a_word_with_a_digit_int_cannot_read_is_an_invalid_pattern(text):
    # str.isdigit accepts these, but int() does not
    with pytest.raises(InvalidPattern, match="cannot parse word"):
        parse_word(text)


@pytest.mark.parametrize(
    "text", ["\u0662\u0663\u0661", "\uff12\uff13\uff11", "\uff12,3,1"],
    ids=["arabic-indic", "full-width", "full-width-listed"],
)
def test_a_word_reads_only_ascii_digits(text):
    # int() reads each of these as 231 or as its first letter 2
    with pytest.raises((InvalidPattern, core.ParseError)):
        parse_word(text)


@pytest.mark.parametrize("text", ["\uff13", "1_0", "", "+", "- 3", "3 4", "0x3", "1.0"])
def test_parse_int_reads_only_a_sign_and_ascii_digits(text):
    with pytest.raises(ValueError):
        core.parse_int(text)


def test_parse_int_keeps_signs_and_surrounding_spaces():
    assert [core.parse_int(t) for t in ("7", " +3 ", "-12", "007", "\t5\n")] == [7, 3, -12, 7, 5]


def test_every_input_error_is_a_usage_error_and_a_value_error():
    # The CLI exits 2 on exactly these; library callers may catch ValueError.
    input_errors = [
        core.NotFerrers, core.InvalidPattern, core.BadComposition, core.ContentMismatch,
        core.ShapeMismatch, core.NotAvoiding, core.ParseError, enumeration.UnusableCache,
    ]
    assert all(issubclass(error, core.UsageError) for error in input_errors)
    assert issubclass(core.UsageError, ValueError)
    assert issubclass(enumeration.UnusableCache, OSError)
    assert not issubclass(enumeration.CorruptCache, core.UsageError)
    # Exported, so that a library caller can catch them as shapewilf.UsageError.
    assert shapewilf.UsageError is core.UsageError
    assert shapewilf.UnusableCache is enumeration.UnusableCache


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: shapewilf.reproduce_table(5), "table id must be 1..4"),
        (lambda: shapewilf.reconstruct(make_shape((1,)), (0, 1, 0), "123"), "kind must be"),
        (
            lambda: shapewilf.blowup(Filling(make_shape((1,)), (1,)), (1,), "increasing"),
            "direction must be a Direction",
        ),
        (lambda: list(shapewilf.walk_shapes([(1, 2)], 2, 2, "unconstrained")), "regime must be"),
    ],
    ids=["table-id", "reconstruct-kind", "blowup-direction", "walk-regime"],
)
def test_a_choice_outside_its_values_is_a_usage_error(call, message):
    with pytest.raises(core.BadChoice, match=message):
        call()
    assert issubclass(core.BadChoice, core.UsageError)


# --- value semantics of the record classes ---------------------------------

# Per class: a builder that makes a fresh, equal object on every call, an
# object that differs from it, and a field to try to assign.
FROZEN_VALUES = {
    "FerrersShape": (lambda: make_shape([3, 2]), make_shape((3, 3)), "rows"),
    "Filling": (
        lambda: Filling(make_shape((3, 2)), [1, 2, 1]),
        Filling(make_shape((3, 2)), (2, 2, 1)),
        "col_to_row",
    ),
    "FullRookPlacement": (
        lambda: FullRookPlacement(Filling(make_shape((2, 2)), (2, 1))),
        FullRookPlacement(Filling(make_shape((2, 2)), (1, 2))),
        "filling",
    ),
    "MapTrace": (
        lambda: VARIANTS["11"].trace(Filling(make_shape((2, 2)), [2, 1]), [1, 1]),
        VARIANTS["12"].trace(Filling(make_shape((2, 2)), (2, 1)), (1, 1)),
        "image",
    ),
    "EquivalenceVariant": (
        lambda: EquivalenceVariant(
            "11", ((2, 3, 1), (2, 2, 1)), ((3, 1, 2), (2, 1, 2)), Direction.INCREASING
        ),
        VARIANTS["12"],
        "forward_direction",
    ),
    "CountRecord": (
        lambda: CountRecord(make_shape((5, 5, 4)), (2, 2, 1), ((2, 3, 1),), 18),
        CountRecord(make_shape((5, 5, 4)), (2, 2, 1), ((2, 3, 1),), 19),
        "count",
    ),
    "Mismatch": (
        lambda: Mismatch("5,5,4", "2,2,1", 18, 19),
        Mismatch("5,5,4", "2,2,1", 18, 19, "x"),
        "note",
    ),
}


@pytest.mark.parametrize("name", FROZEN_VALUES)
def test_frozen_records_are_values(name):
    build, other, field = FROZEN_VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not (a == other)
    assert repr(a) == repr(b) and repr(a).startswith(name + "(")
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_record_equality_needs_the_same_class():
    placement = FullRookPlacement(Filling(make_shape((2, 2)), (2, 1)))
    assert placement != placement.filling
    assert make_shape((3, 2)) != (3, 2)
    assert VARIANTS["11"] == FROZEN_VALUES["EquivalenceVariant"][0]()
    assert Mismatch("5,5,4", "2,2,1", 18, 19) == Mismatch("5,5,4", "2,2,1", 18, 19, note="")


def test_shapes_compare_and_hash_on_rows_alone():
    shape, twin = make_shape((3, 2)), make_shape((3, 2))
    object.__setattr__(twin, "heights", (9,))
    assert shape == twin and hash(shape) == hash(twin)
    assert repr(twin) == "FerrersShape(rows=(3, 2))"
    with pytest.raises(AttributeError):
        shape.heights = (2, 2, 1)


def test_scan_reports_are_mutable_values_with_their_own_lists():
    first, second = ScanReport("demo"), ScanReport(scope="demo")
    assert first == second and first.counts is not second.counts
    assert first.mismatches is not second.mismatches
    record = FROZEN_VALUES["CountRecord"][1]
    counts = (record.shape, (record.content,), (record.patterns,), ((record.count,),))
    first.counts.append(counts)
    assert second.counts == [] and first != second
    second.counts.append(counts)
    assert first == second and list(first.records) == [record]
    assert repr(first).startswith("ScanReport(scope='demo', counts=[(FerrersShape(")
    first.verdict = "unequal"
    assert first != second
    assert pickle.loads(pickle.dumps(first)) == first
    assert copy.deepcopy(first) == first
    with pytest.raises(TypeError):
        hash(first)
