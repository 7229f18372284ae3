"""Border chain statistics, the alpha correspondence, and the band blowup/shrink maps.

For a full rook placement R and a border vertex v = (x, y), the lower-left
region of v consists of the placed 1's with column <= x and row <= y.  The
I-statistic at v is the length of the longest chain of 1's in that region
that increases in both row and column; the N-statistic is the region's size.
Reading all border vertices in canonical order (top-left corner down to the
bottom-right corner) gives the I- and N-sequences.

alpha sends a 231-avoiding full rook placement to the unique 312-avoiding one
whose I-sequence is, vertex by vertex, 0 where I was 0 and N - I + 1
elsewhere.  Conjugating alpha with a row blowup (each row i becomes a band of
content[i] rows, its 1's re-stacked monotonically) and the inverse shrink
turns it into content-preserving bijections between fillings avoiding
{231,221} and {312,212}, and between fillings avoiding {231,121} and
{312,211}.
"""

from bisect import bisect_left
from collections import defaultdict
from enum import Enum

from .core import (
    Composition,
    ContentMismatch,
    FerrersShape,
    Filling,
    FrozenValue,
    FullRookPlacement,
    NotAvoiding,
    ShapeMismatch,
    Word,
    border_path,
    filling_content,
    format_shape,
    format_word,
    make_composition,
    make_shape,
)
from .matcher import LastColumnChecker, contains

BorderSequence = tuple[int, ...]

P231: Word = (2, 3, 1)
P312: Word = (3, 1, 2)
P221: Word = (2, 2, 1)
P212: Word = (2, 1, 2)
P121: Word = (1, 2, 1)
P211: Word = (2, 1, 1)


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class NoSuchPlacement(LookupError):
    """No placement of the requested kind realizes the given border sequence."""


class BijectionFailure(RuntimeError):
    """Internal inconsistency: a transformed sequence has no realization.

    This is never a caller mistake; it would disprove the uniqueness theory
    the alpha map rests on, so it carries a full diagnostic dump.
    """


class BandStructure(FrozenValue):
    """Grouping of blown-up rows back into the original rows.

    Band i (1-based) covers the contiguous blown-up rows
    ``row_range[i-1][0] .. row_range[i-1][1]`` and has ``composition[i-1]``
    rows; ``band_of[r-1]`` is the band of blown-up row r.
    """

    __slots__ = _fields = ("composition", "band_of", "row_range")

    def __init__(
        self,
        composition: Composition,
        band_of: tuple[int, ...],
        row_range: tuple[tuple[int, int], ...],
    ):
        self._assign(composition, band_of, row_range)


def bands_from_composition(content) -> BandStructure:
    comp = make_composition(content)
    band_of: list[int] = []
    ranges: list[tuple[int, int]] = []
    next_row = 1
    for i, size in enumerate(comp, start=1):
        ranges.append((next_row, next_row + size - 1))
        band_of.extend([i] * size)
        next_row += size
    return BandStructure(comp, tuple(band_of), tuple(ranges))


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


def i_sequence(placement: FullRookPlacement) -> BorderSequence:
    """Longest increasing chain of the lower-left region at each border vertex."""
    cols = placement.col_to_row
    return tuple(_region_chain(cols, x, y) for x, y in border_path(placement.shape))


def n_sequence(placement: FullRookPlacement) -> BorderSequence:
    """Size of the lower-left region at each border vertex."""
    cols = placement.col_to_row
    return tuple(
        sum(1 for c in range(x) if cols[c] <= y) for x, y in border_path(placement.shape)
    )


def _flip(iseq: BorderSequence, nseq: BorderSequence) -> BorderSequence:
    return tuple(0 if i == 0 else n - i + 1 for i, n in zip(iseq, nseq))


def alpha_sequence(placement: FullRookPlacement) -> BorderSequence:
    """The I-sequence of alpha's image: 0 stays 0, otherwise N - I + 1."""
    _require_placement_avoids(placement, P231)
    return _flip(i_sequence(placement), n_sequence(placement))


_KIND_PATTERNS = {"231": P231, "312": P312}


def reconstruct(shape: FerrersShape, sequence, kind: str) -> FullRookPlacement:
    """The unique ``kind``-avoiding full rook placement with the given I-sequence.

    Backtracks over placements column by column; a branch survives only while
    it avoids the pattern and reproduces the target values at every border
    vertex whose region is already complete.  Raises NoSuchPlacement when the
    sequence is not realizable by a placement of this kind.
    """
    try:
        pattern = _KIND_PATTERNS[kind]
    except KeyError:
        raise ValueError(f"kind must be '231' or '312', got {kind!r}")
    if shape.n_rows != shape.width:
        raise ShapeMismatch(
            f"full placements need as many rows as columns: {shape.n_rows} vs {shape.width}"
        )
    vertices = border_path(shape)
    target = tuple(sequence)
    if len(target) != len(vertices):
        raise ShapeMismatch(
            f"sequence has {len(target)} values but the border {len(vertices)} vertices"
        )
    by_x: dict[int, list[int]] = defaultdict(list)
    for idx, (x, _) in enumerate(vertices):
        by_x[x].append(idx)
    if any(target[idx] != 0 for idx in by_x[0]):
        raise NoSuchPlacement("the sequence must start with 0 at the empty corner")

    checker = LastColumnChecker(pattern)
    heights = shape.heights
    width = shape.width
    used = [False] * (shape.n_rows + 1)
    placed: list[int] = []

    def rec(j: int) -> bool:
        if j == width:
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

    if not rec(0):
        raise NoSuchPlacement(
            f"no {kind}-avoiding full placement on {format_shape(shape)} has that I-sequence"
        )
    return FullRookPlacement(Filling(shape, tuple(placed)))


def _require_placement_avoids(placement: FullRookPlacement, pattern: Word) -> None:
    if contains(placement.filling, pattern):
        raise NotAvoiding(f"placement contains {format_word(pattern)}")


def alpha(placement: FullRookPlacement) -> FullRookPlacement:
    """Map a 231-avoiding full rook placement to its 312-avoiding partner."""
    _require_placement_avoids(placement, P231)
    iseq = i_sequence(placement)
    nseq = n_sequence(placement)
    target = _flip(iseq, nseq)
    try:
        return reconstruct(placement.shape, target, "312")
    except NoSuchPlacement as exc:
        raise BijectionFailure(
            "alpha produced an unrealizable sequence; "
            f"shape={format_shape(placement.shape)} placement={placement.col_to_row} "
            f"I={iseq} N={nseq} transformed={target}"
        ) from exc


def alpha_inverse(placement: FullRookPlacement) -> FullRookPlacement:
    """Map a 312-avoiding full rook placement back to its 231-avoiding partner.

    N is shared between partners and the value transform is an involution, so
    the inverse applies the same flip and reconstructs on the 231 side.
    """
    _require_placement_avoids(placement, P312)
    iseq = i_sequence(placement)
    nseq = n_sequence(placement)
    target = _flip(iseq, nseq)
    try:
        return reconstruct(placement.shape, target, "231")
    except NoSuchPlacement as exc:
        raise BijectionFailure(
            "alpha_inverse produced an unrealizable sequence; "
            f"shape={format_shape(placement.shape)} placement={placement.col_to_row} "
            f"I={iseq} N={nseq} transformed={target}"
        ) from exc


def blowup(
    filling: Filling, content, direction: Direction
) -> tuple[FullRookPlacement, BandStructure]:
    """Expand row i into content[i] rows, re-stacking its 1's monotonically.

    Every 1 keeps its column; within band i the 1's are assigned to the
    band's rows bottom-up in column order (INCREASING) or top-down
    (DECREASING).  The result has exactly one 1 per row and per column.
    """
    comp = make_composition(content)
    if filling_content(filling) != comp:
        raise ContentMismatch(
            f"filling has content {filling_content(filling)}, expected {comp}"
        )
    bands = bands_from_composition(comp)
    blown_rows: list[int] = []
    for length, size in zip(filling.shape.rows, comp):
        blown_rows.extend([length] * size)
    blown_shape = make_shape(blown_rows)

    cols_by_row: list[list[int]] = [[] for _ in filling.shape.rows]
    for col, row in enumerate(filling.col_to_row, start=1):
        cols_by_row[row - 1].append(col)

    col_to_row = [0] * filling.shape.width
    for i, cols in enumerate(cols_by_row):
        first, last = bands.row_range[i]
        rows_in_order = (
            range(first, last + 1)
            if direction is Direction.INCREASING
            else range(last, first - 1, -1)
        )
        for col, new_row in zip(cols, rows_in_order):
            col_to_row[col - 1] = new_row
    return FullRookPlacement(Filling(blown_shape, tuple(col_to_row))), bands


def shrink(placement: FullRookPlacement, bands: BandStructure) -> Filling:
    """Compress each band back to a single row (left inverse of blowup)."""
    shape = placement.shape
    if shape.n_rows != len(bands.band_of):
        raise ShapeMismatch(
            f"placement has {shape.n_rows} rows but the bands cover {len(bands.band_of)}"
        )
    original_rows = []
    for first, last in bands.row_range:
        lengths = set(shape.rows[first - 1 : last])
        if len(lengths) != 1:
            raise ShapeMismatch(f"rows {first}..{last} of one band differ in length")
        original_rows.append(lengths.pop())
    target_shape = make_shape(original_rows)
    col_to_row = tuple(bands.band_of[row - 1] for row in placement.col_to_row)
    return Filling(target_shape, col_to_row)


def band_monotone(placement: FullRookPlacement, bands: BandStructure, direction: Direction) -> bool:
    """Are the 1's of every band monotone in the given direction, by column?"""
    if placement.shape.n_rows != len(bands.band_of):
        raise ShapeMismatch(
            f"placement has {placement.shape.n_rows} rows but the bands cover {len(bands.band_of)}"
        )
    for first, last in bands.row_range:
        band_rows = [row for row in placement.col_to_row if first <= row <= last]
        if direction is Direction.INCREASING:
            good = all(a < b for a, b in zip(band_rows, band_rows[1:]))
        else:
            good = all(a > b for a, b in zip(band_rows, band_rows[1:]))
        if not good:
            return False
    return True


def _require_avoids(filling: Filling, patterns) -> None:
    for pattern in patterns:
        if contains(filling, pattern):
            raise NotAvoiding(f"filling contains {format_word(pattern)}")


def to_312_212_avoider(filling: Filling, content) -> Filling:
    """Bijection from {231,221}-avoiding fillings to {312,212}-avoiding ones."""
    _require_avoids(filling, (P231, P221))
    placement, bands = blowup(filling, content, Direction.INCREASING)
    return shrink(alpha(placement), bands)


def to_231_221_avoider(filling: Filling, content) -> Filling:
    """Inverse of to_312_212_avoider."""
    _require_avoids(filling, (P312, P212))
    placement, bands = blowup(filling, content, Direction.DECREASING)
    return shrink(alpha_inverse(placement), bands)


def to_312_211_avoider(filling: Filling, content) -> Filling:
    """Bijection from {231,121}-avoiding fillings to {312,211}-avoiding ones."""
    _require_avoids(filling, (P231, P121))
    placement, bands = blowup(filling, content, Direction.DECREASING)
    return shrink(alpha(placement), bands)


def to_231_121_avoider(filling: Filling, content) -> Filling:
    """Inverse of to_312_211_avoider."""
    _require_avoids(filling, (P312, P211))
    placement, bands = blowup(filling, content, Direction.INCREASING)
    return shrink(alpha_inverse(placement), bands)


class EquivalenceVariant(FrozenValue):
    """One of the two content-preserving equivalences, as used by the CLI."""

    __slots__ = _fields = ("name", "source", "target", "forward_direction", "inverse_direction")

    def __init__(
        self,
        name: str,
        source: tuple[Word, Word],
        target: tuple[Word, Word],
        forward_direction: Direction,
        inverse_direction: Direction,
    ):
        self._assign(name, source, target, forward_direction, inverse_direction)

    def forward(self, filling: Filling, content) -> Filling:
        _require_avoids(filling, self.source)
        placement, bands = blowup(filling, content, self.forward_direction)
        return shrink(alpha(placement), bands)

    def inverse(self, filling: Filling, content) -> Filling:
        _require_avoids(filling, self.target)
        placement, bands = blowup(filling, content, self.inverse_direction)
        return shrink(alpha_inverse(placement), bands)


VARIANTS = {
    "11": EquivalenceVariant(
        "11", (P231, P221), (P312, P212), Direction.INCREASING, Direction.DECREASING
    ),
    "12": EquivalenceVariant(
        "12", (P231, P121), (P312, P211), Direction.DECREASING, Direction.INCREASING
    ),
}
