import pytest

from shapewilf import (
    BijectionFailure,
    ContentMismatch,
    Direction,
    Filling,
    FullRookPlacement,
    MapTrace,
    NoSuchPlacement,
    NotAvoiding,
    POSITIVE_ROWS,
    ShapeMismatch,
    alpha,
    alpha_inverse,
    avoids_all,
    blowup,
    border_path,
    count_fillings,
    enumerate_fillings,
    filling_content,
    i_sequence,
    iter_shapes,
    make_shape,
    n_sequence,
    reconstruct,
    shrink,
    VARIANTS,
)
from shapewilf.bijection import P121, P211, P212, P221, P231, P312
from worked_example import (
    BLOWN_PLACEMENT,
    BLOWN_SHAPE,
    CHAIN_SEQ,
    CONTENT,
    FILLING,
    FLIPPED_SEQ,
    IMAGE_FILLING,
    IMAGE_PLACEMENT,
    SHAPE,
)


def placement(shape, cols):
    return FullRookPlacement(Filling(shape, cols))


def flipped(rook):
    """alpha's target I-sequence, from the border sequences: 0 stays 0, else N - I + 1."""
    return tuple(0 if i == 0 else n - i + 1 for i, n in zip(i_sequence(rook), n_sequence(rook)))


def band_rows(rook, content):
    """The rows of the 1's of each band, column by column; band i is the next content[i] rows."""
    bands, first = [], 1
    for size in content:
        bands.append([row for row in rook.col_to_row if first <= row < first + size])
        first += size
    return bands


SQUARE3 = make_shape((3, 3, 3))
BLOWN = placement(BLOWN_SHAPE, BLOWN_PLACEMENT)
IMAGE = placement(BLOWN_SHAPE, IMAGE_PLACEMENT)
THEOREM_11, THEOREM_12 = VARIANTS["11"], VARIANTS["12"]


def test_i_sequence_worked_example():
    assert i_sequence(BLOWN) == CHAIN_SEQ


def test_i_sequence_small_cases():
    assert i_sequence(placement(make_shape((1,)), (1,))) == (0, 1, 0)
    assert i_sequence(placement(SQUARE3, (1, 2, 3))) == (0, 1, 2, 3, 2, 1, 0)
    assert i_sequence(placement(SQUARE3, (3, 2, 1))) == (0, 1, 1, 1, 1, 1, 0)


def test_n_sequence():
    assert n_sequence(placement(SQUARE3, (1, 2, 3))) == (0, 1, 2, 3, 2, 1, 0)
    assert n_sequence(placement(make_shape((2, 2)), (2, 1))) == (0, 1, 2, 1, 0)
    nseq = n_sequence(BLOWN)
    iseq = i_sequence(BLOWN)
    assert iseq[13] == 5 and nseq[13] == 7
    assert all(n >= i for i, n in zip(iseq, nseq))


def test_alpha_sequence():
    assert flipped(BLOWN) == FLIPPED_SEQ
    assert flipped(placement(make_shape((1,)), (1,))) == (0, 1, 0)
    anti = placement(SQUARE3, (3, 2, 1))
    assert n_sequence(anti) == (0, 1, 2, 3, 2, 1, 0)
    assert flipped(anti) == (0, 1, 2, 3, 2, 1, 0)
    assert i_sequence(alpha(anti)) == flipped(anti)
    with pytest.raises(NotAvoiding):
        alpha(placement(SQUARE3, (2, 3, 1)))


def test_border_sequences_have_one_value_per_vertex():
    for p in (BLOWN, IMAGE, placement(make_shape((2, 1)), (2, 1))):
        n_vertices = len(border_path(p.shape))
        for seq in (i_sequence(p), n_sequence(p)):
            assert len(seq) == n_vertices
            assert seq[0] == 0 and seq[-1] == 0
        assert all(abs(a - b) <= 1 for a, b in zip(i_sequence(p), i_sequence(p)[1:]))


def test_reconstruct():
    assert reconstruct(BLOWN_SHAPE, FLIPPED_SEQ, "312").col_to_row == IMAGE_PLACEMENT
    one = make_shape((1,))
    assert reconstruct(one, (0, 1, 0), "231").col_to_row == (1,)
    assert reconstruct(one, (0, 1, 0), "312").col_to_row == (1,)
    assert reconstruct(SQUARE3, (0, 1, 2, 3, 2, 1, 0), "231").col_to_row == (1, 2, 3)


def test_reconstruct_failure_modes():
    with pytest.raises(NoSuchPlacement):
        reconstruct(make_shape((2, 2)), (0, 1, 2, 2, 0), "312")
    with pytest.raises(NoSuchPlacement):
        reconstruct(make_shape((2, 2)), (1, 1, 2, 1, 0), "231")
    with pytest.raises(ValueError):
        reconstruct(SQUARE3, (0, 1, 2, 3, 2, 1, 0), "123")
    with pytest.raises(ShapeMismatch):
        reconstruct(make_shape((3, 1)), (0, 1, 1, 1, 1, 0), "231")  # 2 rows, 3 columns
    with pytest.raises(ShapeMismatch):
        reconstruct(make_shape((3, 3)), (0, 1, 0), "231")  # wrong sequence length


def test_alpha_on_worked_example():
    assert alpha(BLOWN).col_to_row == IMAGE_PLACEMENT


def test_alpha_small_cases():
    single = placement(make_shape((1,)), (1,))
    assert alpha(single).col_to_row == (1,)
    assert alpha(placement(SQUARE3, (3, 2, 1))).col_to_row == (1, 2, 3)
    assert alpha_inverse(placement(SQUARE3, (1, 2, 3))).col_to_row == (3, 2, 1)
    with pytest.raises(NotAvoiding):
        alpha(placement(SQUARE3, (2, 3, 1)))
    with pytest.raises(NotAvoiding):
        alpha_inverse(placement(SQUARE3, (3, 1, 2)))


def test_alpha_inverse_on_worked_example():
    assert alpha_inverse(IMAGE).col_to_row == BLOWN_PLACEMENT


def test_blowup_worked_example():
    blown = blowup(Filling(SHAPE, FILLING), CONTENT, Direction.INCREASING)
    assert blown.shape == BLOWN_SHAPE
    assert blown.col_to_row == BLOWN_PLACEMENT


def test_blowup_trivial_and_one_row():
    f = Filling(make_shape((3, 2)), (2, 1, 1))
    # all-ones content leaves everything unchanged
    blown = blowup(Filling(make_shape((2, 1)), (2, 1)), (1, 1), Direction.DECREASING)
    assert blown.shape.rows == (2, 1) and blown.col_to_row == (2, 1)
    # two 1's in a single row, stacked downwards by column
    blown = blowup(Filling(make_shape((2,)), (1, 1)), (2,), Direction.DECREASING)
    assert blown.shape.rows == (2, 2) and blown.col_to_row == (2, 1)
    with pytest.raises(ContentMismatch):
        blowup(f, (1, 2), Direction.INCREASING)


def test_shrink_worked_example():
    shrunk = shrink(IMAGE, CONTENT)
    assert shrunk.shape == SHAPE
    assert shrunk.col_to_row == IMAGE_FILLING


def test_shrink_is_left_inverse_of_blowup():
    for shape in iter_shapes(4, 3):
        for filling in enumerate_fillings(shape, [], POSITIVE_ROWS):
            content = filling_content(filling)
            for direction in Direction:
                blown = blowup(filling, content, direction)
                assert shrink(blown, content).col_to_row == filling.col_to_row
    rook = placement(make_shape((2, 2)), (2, 1))
    assert shrink(rook, (1, 1)).col_to_row == (2, 1)


def test_shrink_validates_band_compatibility():
    with pytest.raises(ShapeMismatch):
        shrink(placement(make_shape((3, 3, 3)), (1, 2, 3)), (2, 2))
    with pytest.raises(ShapeMismatch):
        # rows 1..2 of one band differ in length
        shrink(placement(make_shape((3, 2, 2)), (3, 2, 1)), (2, 1))


def test_band_monotone():
    # The increasing blowup stacks each band upwards, and alpha's image stacks it downwards.
    assert band_rows(BLOWN, CONTENT) == [[1, 2], [3, 4], [5, 6, 7], [8], [9], [10]]
    assert all(rows == sorted(rows) for rows in band_rows(BLOWN, CONTENT))
    assert not all(rows == sorted(rows, reverse=True) for rows in band_rows(BLOWN, CONTENT))
    assert all(rows == sorted(rows, reverse=True) for rows in band_rows(IMAGE, CONTENT))
    ones = (1,) * 10
    assert all(rows == sorted(rows) for rows in band_rows(BLOWN, ones))
    assert all(rows == sorted(rows, reverse=True) for rows in band_rows(BLOWN, ones))


def test_equivalence_maps_on_worked_example():
    image = THEOREM_11.forward(Filling(SHAPE, FILLING), CONTENT)
    assert image.col_to_row == IMAGE_FILLING
    assert avoids_all(image, [P312, P212])
    back = THEOREM_11.inverse(image, CONTENT)
    assert back.col_to_row == FILLING


def test_equivalence_maps_validate_their_inputs():
    contains_221 = Filling(make_shape((3, 3)), (2, 2, 1))
    with pytest.raises(NotAvoiding):
        THEOREM_11.forward(contains_221, (2, 1))
    with pytest.raises(NotAvoiding):
        THEOREM_11.inverse(Filling(make_shape((3, 3)), (2, 1, 2)), (2, 1))


def test_equivalence_maps_reduce_to_alpha_on_full_placements():
    ones = (1, 1, 1)
    for filling in enumerate_fillings(SQUARE3, [P231, P221], content=ones):
        rook = FullRookPlacement(filling)
        assert THEOREM_11.forward(filling, ones).col_to_row == alpha(rook).col_to_row
    for filling in enumerate_fillings(SQUARE3, [P231, P121], content=ones):
        rook = FullRookPlacement(filling)
        assert THEOREM_12.forward(filling, ones).col_to_row == alpha(rook).col_to_row


def test_single_row_filling_maps_to_itself():
    row = Filling(make_shape((2,)), (1, 1))
    assert THEOREM_12.forward(row, (2,)).col_to_row == (1, 1)
    assert THEOREM_11.forward(row, (2,)).col_to_row == (1, 1)


@pytest.mark.parametrize(
    "forward,inverse,source,target,expected_size",
    [
        # The maps are bound methods named forward/inverse, so the case ids
        # are spelled out, naming each direction by the avoiders it yields.
        pytest.param(
            THEOREM_11.forward, THEOREM_11.inverse, (P231, P221), (P312, P212), 9,
            id="to_312_212_avoider-to_231_221_avoider-source0-target0-9",
        ),
        pytest.param(
            THEOREM_12.forward, THEOREM_12.inverse, (P231, P121), (P312, P211), 7,
            id="to_312_211_avoider-to_231_121_avoider-source1-target1-7",
        ),
    ],
)
def test_equivalence_maps_are_bijections_on_a_mid_size_case(
    forward, inverse, source, target, expected_size
):
    shape = make_shape((5, 5, 4))
    content = (2, 2, 1)
    sources = list(enumerate_fillings(shape, source, content=content))
    targets = {f.col_to_row for f in enumerate_fillings(shape, target, content=content)}
    assert len(sources) == expected_size
    assert count_fillings(shape, content, target) == expected_size
    images = set()
    for filling in sources:
        image = forward(filling, content)
        assert filling_content(image) == content
        assert avoids_all(image, target)
        assert inverse(image, content).col_to_row == filling.col_to_row
        images.add(image.col_to_row)
    assert images == targets


def test_alpha_preserves_region_counts_and_is_injective():
    shape = make_shape((4, 4, 3, 2))
    ones = (1, 1, 1, 1)
    seen = {}
    for filling in enumerate_fillings(shape, [P231], content=ones):
        rook = FullRookPlacement(filling)
        seq = i_sequence(rook)
        assert seq not in seen
        seen[seq] = rook
        image = alpha(rook)
        assert n_sequence(image) == n_sequence(rook)
        assert i_sequence(image) == flipped(rook)


def test_blowup_transfers_avoidance_both_ways():
    # The monotone re-stacking turns the merged-pattern conditions into the
    # plain 231/312 conditions on the blown placement, in both directions.
    for shape in iter_shapes(4, 3):
        for content in compositions_of(shape):
            for filling in enumerate_fillings(shape, [], content=content):
                inc = blowup(filling, content, Direction.INCREASING)
                dec = blowup(filling, content, Direction.DECREASING)
                assert avoids_all(filling, [P231, P221]) == avoids_all(inc.filling, [P231])
                assert avoids_all(filling, [P231, P121]) == avoids_all(dec.filling, [P231])
                assert avoids_all(filling, [P312, P212]) == avoids_all(dec.filling, [P312])
                assert avoids_all(filling, [P312, P211]) == avoids_all(inc.filling, [P312])


def compositions_of(shape):
    from shapewilf import compositions

    return compositions(shape.width, shape.n_rows, positive=True)


def test_internal_failure_is_not_a_caller_error():
    # An unrealizable transformed sequence can only come from an internal
    # inconsistency, so it is reported as a RuntimeError, distinct from the
    # NotAvoiding/ShapeMismatch family raised on bad inputs.
    assert issubclass(BijectionFailure, RuntimeError)
    assert not issubclass(BijectionFailure, ValueError)
    assert issubclass(NoSuchPlacement, LookupError)


def reference_trace(variant, filling, content, inverse):
    # The map composed from its public steps, as the CLI wrote it out before
    # EquivalenceVariant.trace: blowup, border sequences, alpha or
    # alpha_inverse, shrink.
    if inverse:
        avoids, stacking, step = variant.target, variant.inverse_direction, alpha_inverse
    else:
        avoids, stacking, step = variant.source, variant.forward_direction, alpha
    placement = blowup(filling, content, stacking)
    partner = step(placement)
    transformed = i_sequence(partner) if inverse else flipped(placement)
    return MapTrace(
        avoids, stacking, placement, i_sequence(placement), n_sequence(placement), transformed,
        partner, shrink(partner, content),
    )


def test_trace_matches_the_composed_steps_up_to_5x4():
    cases = 0
    for shape in iter_shapes(5, 4):
        for content in compositions_of(shape):
            for variant in VARIANTS.values():
                for inverse in (False, True):
                    avoids = variant.target if inverse else variant.source
                    for filling in enumerate_fillings(shape, avoids, content=content):
                        expected = reference_trace(variant, filling, content, inverse)
                        assert variant.trace(filling, content, inverse) == expected
                        cases += 1
    assert cases == 4852

