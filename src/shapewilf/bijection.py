"""Border chain statistics, the alpha correspondence, and the band blowup/shrink maps.

For a full rook placement R and a border vertex v = (x, y), the lower-left
region of v consists of the placed 1's with column <= x and row <= y.  The
I-statistic at v is the length of the longest chain of 1's in that region
that increases in both row and column; the N-statistic is the region's size.
Reading all border vertices in canonical order (top-left corner down to the
bottom-right corner) gives the I- and N-sequences.  On a board of n rows, N
is x + y - n at (x, y) whatever the placement.

alpha sends a 231-avoiding full rook placement to the unique 312-avoiding one
whose I-sequence is, vertex by vertex, 0 where I was 0 and N - I + 1
elsewhere (alpha_inverse swaps the kinds).  Both are one step, ``_alpha``:
test and read the placement, flip its I-sequence and rebuild the partner.
Conjugating alpha with a row blowup (each row i becomes a band of content[i]
rows, its 1's re-stacked monotonically) and the inverse shrink turns it into
content-preserving bijections between fillings avoiding {231,221} and
{312,212}, and between fillings avoiding {231,121} and {312,211}.  Each
variant keeps only its forward stacking; the inverse map stacks the bands
the other way.
``EquivalenceVariant.trace`` is that map's one pipeline: it blows the input
up (checking its content against the shape, then the filling), takes the
``_alpha`` step once and shrinks, and keeps every step.  A filling avoids
the variant's two patterns exactly when its blowup avoids 231 (or 312), so
alpha's own test of the blowup decides the input's avoidance.  ``forward``,
``inverse`` and the CLI's ``bijection`` command all go through it.  The
bands are given by the content alone: ``blowup`` and ``shrink`` both take
it, and band i covers the next content[i] rows from the bottom.

``reconstruct`` finds the partner from its I-sequence alone.  It searches
column by column, on its own stack, over one prefix state (``_Prefix``)
that each placed 1 pushes and each backtrack pops.  The state answers the
312 test for a new 1 with one comparison, and bounds the final chain at
every border vertex, so a prefix is cut as soon as some target is out of
reach, complete region or not.  A push of row r can change that bound only
at vertices with y >= r, so only those are tested again.  alpha reads its
input through the same state, in one pass over the columns: the test before
each push decides avoidance, and the pushed chains give the I-sequence.
The state keeps 312's rule alone: 231 is read and searched through
``_transpose``, which swaps the kinds and reverses I and N.
"""

from enum import Enum
from itertools import accumulate

from .core import (
    BadChoice,
    ContentMismatch,
    FerrersShape,
    Filling,
    FullRookPlacement,
    NotAvoiding,
    ShapeMismatch,
    Value,
    Word,
    border_path,
    filling_content,
    format_shape,
    format_word,
    make_composition,
    make_shape,
)
from .enumeration import check_content
from .matcher import contains

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


def i_sequence(placement: FullRookPlacement) -> BorderSequence:
    """Longest increasing chain of the lower-left region at each border vertex (``_chains``)."""
    return _chains(placement, None)


def n_sequence(placement: FullRookPlacement) -> BorderSequence:
    """Size of the lower-left region at each border vertex: x + y - n, with no scan."""
    return _region_sizes(border_path(placement.shape), placement.shape.n_rows)


def _region_sizes(vertices, n: int) -> BorderSequence:
    """x + y - n at each border vertex (x, y) of an n-row board: the 1's of its region.

    The n - y rows above y are no longer than x, so their 1's are among the
    x 1's of the first x columns, whatever the full placement.
    """
    return tuple(x + y - n for x, y in vertices)


def _transpose(placement: FullRookPlacement) -> FullRookPlacement:
    """The inverse permutation on the conjugate board: column c, row r goes to column r, row c.

    It swaps 231 and 312 occurrences, keeps each one's rectangle inside the
    board and runs the border backwards, so I and N come out reversed.
    """
    cols = [0] * len(placement.col_to_row)
    for c, r in enumerate(placement.col_to_row, 1):
        cols[r - 1] = c
    return FullRookPlacement(Filling(make_shape(placement.shape.heights), tuple(cols)))


class _Prefix:
    """The first columns of a full placement, kept as the search reads them.

    Rows are 1..n, and index 0 stands for "no row".  ``used[v]`` tells
    whether row v is placed, and bit v of ``mask`` is set exactly then, so
    ``(mask & rows).bit_count()`` counts the placed rows in a set ``rows``.
    For v = 0..n, ``L[v]`` is the longest increasing chain among the placed
    rows <= v, read in column order.  ``forb[u]`` is the lowest top row of
    a 312 that a 1 in row u would complete in the next column (the least
    earlier row above u over columns a < b with rows above and below u), or
    n + 1 if none, so 312 fires there exactly when ``forb[u] <= h``.

    ``push`` places a 1 in the next column and ``pop`` takes it back, from
    what the push kept.  A push of row r changes ``used``, ``mask`` and
    ``L`` at rows >= r and ``forb`` above r only.  ``cap[u]`` is the height
    of the last column that reaches row u: an unused row whose forb is at
    most that can never be placed, and ``push`` reports it.
    """

    __slots__ = ("n", "used", "mask", "L", "forb", "cap", "placed", "undo")

    def __init__(self, shape: FerrersShape):
        n = shape.n_rows
        self.n = n
        self.used = [False] * (n + 1)
        self.mask = 0
        self.L = [0] * (n + 1)
        self.forb = [n + 1] * (n + 1)
        self.cap = [0] + [shape.heights[length - 1] for length in shape.rows]
        self.placed: list[int] = []
        self.undo: list[tuple[int, list[int]]] = []

    def push(self, r: int) -> bool:
        """Place row r in the next column; False if some unused row can no longer be placed."""
        n, used, L, forb, cap = self.n, self.used, self.L, self.forb, self.cap
        used[r] = True
        self.mask |= 1 << r
        self.placed.append(r)
        chain = L[r - 1] + 1  # L is non-decreasing, so it rises to chain on rows r..s - 1
        s = r
        while s <= n and L[s] < chain:
            s += 1
        L[r:s] = [chain] * (s - r)
        self.undo.append((s, forb[r + 1 :]))
        # New pairs end in row r: rows u > r now meet the least earlier row above u.
        alive = True
        above = n + 1
        for u in range(n, r, -1):
            if used[u]:
                above = u
            elif above < forb[u]:
                forb[u] = above
                if above <= cap[u]:
                    alive = False
        return alive

    def pop(self) -> None:
        """Take back the newest column."""
        s, saved = self.undo.pop()
        r = self.placed.pop()
        self.used[r] = False
        self.mask ^= 1 << r
        L = self.L
        L[r:s] = [L[r - 1]] * (s - r)
        self.forb[r + 1 :] = saved


def _chains(placement: FullRookPlacement, kind: str | None) -> BorderSequence:
    """The I-sequence, from one pass of a ``_Prefix`` over the columns in order.

    Once the first x columns are pushed, the chain at border vertex (x, y) is
    L[y].  With a ``kind``, each 1 is tested before its push and NotAvoiding
    raised when it completes an occurrence (``forb[row] <= h``).  The test is
    exact: in a full placement the row of the next 1 is always still unused.
    For 231 the pass reads the transpose, a 312 test, and reverses its chains.
    """
    mirrored = kind == "231"
    if mirrored:
        placement = _transpose(placement)
    shape = placement.shape
    prefix = _Prefix(shape)
    forb, L, placed = prefix.forb, prefix.L, prefix.placed
    cols, heights = placement.col_to_row, shape.heights
    chains = []
    for x, y in border_path(shape):
        if x > len(placed):  # a right step: column x - 1 comes in
            row = cols[x - 1]
            if kind and forb[row] <= heights[x - 1]:
                raise NotAvoiding(f"placement contains {kind}")
            prefix.push(row)
        chains.append(L[y])
    return tuple(reversed(chains) if mirrored else chains)


def _fits(prefix: _Prefix, checks) -> bool:
    """Can the prefix still meet the target t of each (y, t, x + y - n, rows <= y) in ``checks``?

    The region of a border vertex (x, y) right of the prefix ends with
    x + y - n 1's, so f more are to come (f < 0 once a row above y has no
    column left).  f never exceeds the columns left before x, as that would
    take more than n - y placed rows above y, nor (as x <= n) the unused rows
    in 1..y, so the scan of those rows ends at a break or a return.  The
    chain starts at L[y] and ends, at best, as placed rows up to some v
    followed by f unused rows in (v, y].  Only rows <= y are read, so a push
    of row r can change the answer only where y >= r.  ``checks`` runs along the border, y falling;
    it is read with y rising, since a prefix that fails mostly fails low.
    """
    mask, L, used = prefix.mask, prefix.L, prefix.used
    for y, t, ones, rows in reversed(checks):
        f = ones - (mask & rows).bit_count()
        if f < 0:
            return False
        low = L[y]
        if low == t:
            continue
        if low > t or low + f < t:  # a complete region has f == 0
            return False
        free = 0  # unused rows in (v - 1, y]; a used row v cannot raise the bound
        for v in range(y, 0, -1):
            if not used[v]:
                free += 1
                if L[v - 1] + free >= t:
                    break
                if free == f:
                    return False
    return True


def reconstruct(shape: FerrersShape, sequence, kind: str) -> FullRookPlacement:
    """The unique ``kind``-avoiding full rook placement with the given I-sequence.

    The search is for a 312-avoider; for 231 it finds the transpose, with the
    sequence reversed on the conjugate board.  First each value must be an
    integer (an int or an integral float, not a bool) from 0 to its region
    size x + y - n that rises by 0 or 1 on each right step of the border and
    falls by 0 or 1 on each down step, rules the transpose keeps.  Then it
    goes column by column, rows bottom-up, and tries a row only if it is
    unused, completes no 312 (``forb[row] > h``) and gives each vertex whose
    region the column completes its target.  A pushed prefix is cut when an
    unused row can avoid 312 in no column left to it, or when ``_fits`` fails
    at a vertex with y >= row.  No cut drops a prefix of an avoider, and
    there is at most one.  Raises NoSuchPlacement, naming the caller's shape
    and kind, if there is none.
    """
    if kind not in ("231", "312"):
        raise BadChoice(f"kind must be '231' or '312', got {kind!r}")
    if shape.n_rows != shape.width:
        raise ShapeMismatch(
            f"full placements need as many rows as columns: {shape.n_rows} vs {shape.width}"
        )
    unrealizable = NoSuchPlacement(
        f"no {kind}-avoiding full placement on {format_shape(shape)} has that I-sequence"
    )
    target = tuple(sequence)
    mirrored = kind == "231"
    if mirrored:
        shape, target = make_shape(shape.heights), target[::-1]
    vertices = border_path(shape)
    if len(target) != len(vertices):
        raise ShapeMismatch(
            f"sequence has {len(target)} values but the border {len(vertices)} vertices"
        )
    n = shape.n_rows
    sizes = _region_sizes(vertices, n)
    values = zip(target, sizes)
    steps = zip(vertices, target, vertices[1:], target[1:])  # x2 - x + y2 - y is 1 or -1
    if not (
        all(type(t) in (int, float) and 0 <= t <= k and t % 1 == 0 for t, k in values)
        and all(0 <= (t2 - t) * (x2 - x + y2 - y) <= 1 for (x, y), t, (x2, y2), t2 in steps)
    ):
        raise unrealizable

    checks = [(y, t, k, (2 << y) - 1) for (_, y), t, k in zip(vertices, target, sizes)]
    # The border steps right and down, so the vertices with x >= d and y >= r
    # are checks[suffix[d]:above[r]].
    suffix, above = [0] * (n + 2), [0] * (n + 1)
    for i, (x, y) in enumerate(vertices, 1):
        suffix[x + 1] = above[y] = i
    prefix = _Prefix(shape)
    used, forb, placed, L = prefix.used, prefix.forb, prefix.placed, prefix.L
    start = 1  # the lowest row still to try in column len(placed)
    while len(placed) < n:
        j = len(placed)
        h = shape.heights[j]
        lo = suffix[j + 1]
        closing = checks[lo : suffix[j + 2]]  # the vertices whose region column j completes
        for row in range(start, h + 1):
            if used[row] or forb[row] <= h:
                continue
            chain = L[row - 1] + 1  # complete vertices below row already meet their targets
            for y, t, _, _ in closing:
                if y >= row and (L[y] if L[y] > chain else chain) != t:
                    break
            else:
                if prefix.push(row) and _fits(prefix, checks[lo : above[row]]):
                    start = 1
                    break
                prefix.pop()
        else:
            if not placed:
                raise unrealizable
            start = placed[-1] + 1
            prefix.pop()
    found = FullRookPlacement(Filling(shape, tuple(placed)))
    return _transpose(found) if mirrored else found


def _alpha(placement: FullRookPlacement, kind: str):
    """alpha (``kind`` 231) or alpha_inverse (312) of ``placement``, with its sequences.

    One pass of a ``_Prefix`` tests that the placement avoids ``kind`` and
    gives I, and N needs no scan.  The flip sends 0 to 0 and I to N - I + 1;
    N is shared between partners, so the flip is an involution and serves
    both maps.  ``reconstruct`` rebuilds the partner of the other kind from
    the flip; it never raises NotAvoiding, so only the test does, and a
    NoSuchPlacement there is an internal inconsistency, raised as
    BijectionFailure.  Returns (I, N, flipped I, partner).
    """
    iseq = _chains(placement, kind)
    nseq = n_sequence(placement)
    target = tuple(0 if i == 0 else n - i + 1 for i, n in zip(iseq, nseq))
    name, other = ("alpha", "312") if kind == "231" else ("alpha_inverse", "231")
    try:
        return iseq, nseq, target, reconstruct(placement.shape, target, other)
    except NoSuchPlacement as exc:
        raise BijectionFailure(
            f"{name} produced an unrealizable sequence; "
            f"shape={format_shape(placement.shape)} placement={placement.col_to_row} "
            f"I={iseq} N={nseq} transformed={target}"
        ) from exc


def alpha(placement: FullRookPlacement) -> FullRookPlacement:
    """Map a 231-avoiding full rook placement to its 312-avoiding partner."""
    return _alpha(placement, "231")[3]


def alpha_inverse(placement: FullRookPlacement) -> FullRookPlacement:
    """Map a 312-avoiding full rook placement back to its 231-avoiding partner."""
    return _alpha(placement, "312")[3]


def blowup(filling: Filling, content, direction: Direction) -> FullRookPlacement:
    """Expand row i into a band of content[i] rows, re-stacking its 1's monotonically.

    Every 1 keeps its column; within band i the 1's are assigned to the
    band's rows bottom-up in column order (INCREASING) or top-down
    (DECREASING).  The result has exactly one 1 per row and per column.
    The content must fit the shape (``check_content``), then the filling.
    """
    if not isinstance(direction, Direction):
        raise BadChoice(f"direction must be a Direction, got {direction!r}")
    comp = check_content(filling.shape, make_composition(content))
    if filling_content(filling) != comp:
        raise ContentMismatch(
            f"filling has content {filling_content(filling)}, expected {comp}"
        )
    blown_rows: list[int] = []
    for length, size in zip(filling.shape.rows, comp):
        blown_rows.extend([length] * size)
    step = 1 if direction is Direction.INCREASING else -1
    # next_row[i]: the blown-up row that the next 1 of row i + 1 goes to
    next_row = [
        last - size + 1 if step == 1 else last for last, size in zip(accumulate(comp), comp)
    ]
    col_to_row = []
    for row in filling.col_to_row:
        col_to_row.append(next_row[row - 1])
        next_row[row - 1] += step
    return FullRookPlacement(Filling(make_shape(blown_rows), tuple(col_to_row)))


def shrink(placement: FullRookPlacement, content) -> Filling:
    """Compress band i, the next content[i] rows, back to one row (left inverse of blowup)."""
    comp = make_composition(content)
    rows = placement.shape.rows
    if len(rows) != sum(comp):
        raise ShapeMismatch(f"placement has {len(rows)} rows but the bands cover {sum(comp)}")
    band_of: list[int] = []  # band_of[r - 1]: the band of blown-up row r
    for band, size in enumerate(comp, start=1):
        first = len(band_of)
        if len(set(rows[first : first + size])) != 1:
            raise ShapeMismatch(f"rows {first + 1}..{first + size} of one band differ in length")
        band_of.extend([band] * size)
    col_to_row = tuple(band_of[row - 1] for row in placement.col_to_row)
    return Filling(make_shape([rows[last - 1] for last in accumulate(comp)]), col_to_row)


class MapTrace(Value):
    """Every step of one equivalence map (or its inverse) on one filling.

    ``avoids`` are the patterns the input must avoid, ``blowup`` the
    placement stacked in direction ``stacking``, ``i_sequence`` and
    ``n_sequence`` its border sequences, ``transformed`` their flip (the
    I-sequence of ``partner``, the alpha or alpha_inverse image of the
    blowup) and ``image`` the shrunk partner.
    """

    __slots__ = _fields = (
        "avoids", "stacking", "blowup", "i_sequence", "n_sequence", "transformed", "partner",
        "image",
    )

    def __init__(self, avoids, stacking, blowup, i_sequence, n_sequence, transformed, partner,
                 image):
        self._assign(avoids, stacking, blowup, i_sequence, n_sequence, transformed, partner, image)


class EquivalenceVariant(Value):
    """One of the two content-preserving equivalences: blowup, alpha, shrink.

    ``forward_direction`` stacks the bands of a source filling's blowup; the
    inverse map stacks a target filling's bands the other way.
    """

    __slots__ = _fields = ("name", "source", "target", "forward_direction")

    def __init__(
        self,
        name: str,
        source: tuple[Word, Word],
        target: tuple[Word, Word],
        forward_direction: Direction,
    ):
        self._assign(name, source, target, forward_direction)

    def trace(self, filling: Filling, content, inverse: bool = False) -> MapTrace:
        """Map ``filling`` (with ``inverse``, map it back) and keep every step."""
        if inverse:
            # The blowup turns the pattern with a repeated letter into alpha's:
            # the source's (221 or 121) into 231 under the forward stacking, the
            # target's (212 or 211) into 312 only under the other one.
            stacking = next(d for d in Direction if d is not self.forward_direction)
            avoids, kind = self.target, "312"
        else:
            avoids, stacking, kind = self.source, self.forward_direction, "231"
        placement = blowup(filling, content, stacking)
        try:
            iseq, nseq, target, partner = _alpha(placement, kind)
        except NotAvoiding:
            # Only _alpha's test of the blowup raises it (reconstruct never
            # does), and the blowup contains kind exactly when the filling
            # contains one of ``avoids``: name the first.
            found = next(p for p in avoids if contains(filling, p))
            raise NotAvoiding(f"input filling contains {format_word(found)}") from None
        return MapTrace(
            avoids, stacking, placement, iseq, nseq, target, partner, shrink(partner, content)
        )

    def forward(self, filling: Filling, content) -> Filling:
        return self.trace(filling, content).image

    def inverse(self, filling: Filling, content) -> Filling:
        return self.trace(filling, content, inverse=True).image


VARIANTS = {
    "11": EquivalenceVariant("11", (P231, P221), (P312, P212), Direction.INCREASING),
    "12": EquivalenceVariant("12", (P231, P121), (P312, P211), Direction.DECREASING),
}
