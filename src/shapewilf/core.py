"""Ferrers shapes, words, 0-1 fillings, and the text encodings shared by the CLI.

Conventions used throughout the package: rows are numbered 1..m from the
bottom (French convention), columns 1..width from the left.  A filling places
exactly one 1 in every column, recorded as the row index of that 1.
"""


class UsageError(ValueError):
    """Input the caller has to fix; the CLI reports it and exits 2."""


class NotFerrers(UsageError):
    """Row lengths do not form a Ferrers shape."""


class InvalidPattern(UsageError):
    """Pattern words must use every letter value 1..max at least once."""


class BadComposition(UsageError):
    """Content vector is incompatible with the shape."""


class ContentMismatch(UsageError):
    """Filling content differs from the stated composition."""


class ShapeMismatch(UsageError):
    """The shapes of the arguments are incompatible."""


class NotAvoiding(UsageError):
    """Input contains a pattern it was required to avoid."""


class ParseError(UsageError):
    """Text is not a comma-separated list of integers."""


class BadChoice(UsageError):
    """An argument is not one of the values it may take (a table id, a kind, a regime)."""


Word = tuple[int, ...]
Composition = tuple[int, ...]
BorderVertexPath = tuple[tuple[int, int], ...]


class Value:
    """Value equality and a ``Name(field=value, ...)`` repr over ``_fields``.

    The package's record classes derive from this or from ``FrozenValue``,
    list their attributes in ``__slots__`` and set them in an explicit
    ``__init__`` whose positional parameters are ``_fields`` in order, so
    pickling and copying rebuild an object through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenValue(Value):
    """A hashable ``Value`` whose attributes cannot change after ``__init__``."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        """From ``__init__``: set the attributes named in ``__slots__``, in that order."""
        setter = object.__setattr__
        for name, value in zip(self.__slots__, values):
            setter(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


class FerrersShape(FrozenValue):
    """Left-justified rows with weakly decreasing lengths bottom to top.

    ``rows[i-1]`` is the length of row i.  ``heights[j-1]`` is the number of
    rows covering column j; it is weakly decreasing as well.  Shapes compare
    and hash on ``rows`` alone, which determines ``heights``.
    """

    __slots__ = ("rows", "heights")
    _fields = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        rows = tuple(rows)
        if not rows:
            raise NotFerrers("a shape needs at least one row")
        for i, length in enumerate(rows):
            if type(length) is not int:
                raise NotFerrers(f"row {i + 1} has length {length!r}, not an integer")
            if length < 1:
                raise NotFerrers(f"row {i + 1} has non-positive length {length}")
            if i and rows[i - 1] < length:
                raise NotFerrers(
                    f"row lengths must not grow upwards: row {i + 1} is {length}, "
                    f"row {i} is {rows[i - 1]}"
                )
        self._assign(rows, _heights(rows))

    @classmethod
    def _generated(cls, rows: tuple[int, ...]) -> "FerrersShape":
        """The shape of ``rows`` without the per-row checks, for rows generated valid.

        ``rows`` must be a non-empty tuple of weakly decreasing positive ints,
        as ``harness.iter_shapes`` builds them; outside input goes through
        ``__init__``.
        """
        shape = object.__new__(cls)
        shape._assign(rows, _heights(rows))
        return shape

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return self.rows[0]


def _heights(rows: tuple[int, ...]) -> tuple[int, ...]:
    heights = []
    covering = len(rows)  # rows reaching the column; lengths weakly decrease
    for j in range(1, rows[0] + 1):
        while rows[covering - 1] < j:
            covering -= 1
        heights.append(covering)
    return tuple(heights)


class Filling(FrozenValue):
    """A 0-1 filling with exactly one 1 per column.

    ``col_to_row[j-1]`` is the row of the 1 in column j; it must lie inside
    the shape, i.e. not exceed the column's height.
    """

    __slots__ = _fields = ("shape", "col_to_row")

    def __init__(self, shape: FerrersShape, col_to_row: tuple[int, ...]):
        col_to_row = tuple(col_to_row)
        if len(col_to_row) != shape.width:
            raise ShapeMismatch(
                f"need one entry per column: got {len(col_to_row)} for width {shape.width}"
            )
        for j, row in enumerate(col_to_row, start=1):
            height = shape.heights[j - 1]
            if type(row) is not int:
                raise ShapeMismatch(f"column {j}: row {row!r} is not an integer")
            if not 1 <= row <= height:
                raise ShapeMismatch(f"column {j}: row {row} is outside the shape (height {height})")
        self._assign(shape, col_to_row)


class FullRookPlacement(FrozenValue):
    """A filling that also has exactly one 1 per row (a square-content filling)."""

    __slots__ = _fields = ("filling",)

    def __init__(self, filling: Filling):
        shape = filling.shape
        if shape.n_rows != shape.width:
            raise ShapeMismatch(
                f"full placements need as many rows as columns: {shape.n_rows} vs {shape.width}"
            )
        if sorted(filling.col_to_row) != list(range(1, shape.n_rows + 1)):
            raise ShapeMismatch("full placements need exactly one 1 per row")
        self._assign(filling)

    @property
    def shape(self) -> FerrersShape:
        return self.filling.shape

    @property
    def col_to_row(self) -> tuple[int, ...]:
        return self.filling.col_to_row


def make_shape(rows) -> FerrersShape:
    """Validate row lengths (bottom to top) and build the shape."""
    return FerrersShape(tuple(rows))


def make_word(letters) -> Word:
    word = tuple(letters)
    for v in word:
        if type(v) is not int or v < 1:
            raise InvalidPattern(f"letters must be positive integers, got {v!r}")
    return word


def validate_pattern(pattern: Word) -> Word:
    """A pattern is a non-empty word using every letter value 1..max."""
    word = make_word(pattern)
    if not word:
        raise InvalidPattern("patterns must be non-empty")
    top = max(word)
    missing = set(range(1, top + 1)) - set(word)
    if missing:
        raise InvalidPattern(
            f"pattern {format_word(word)} skips letter value(s) {sorted(missing)}"
        )
    return word


def word_to_filling(word: Word) -> Filling:
    """Represent a word on the max(word) x len(word) rectangle, letter = row."""
    word = make_word(word)
    if not word:
        raise InvalidPattern("cannot represent the empty word as a filling")
    m = max(word)
    shape = make_shape((len(word),) * m)
    return Filling(shape, word)


def filling_content(filling: Filling) -> tuple[int, ...]:
    """Number of 1's in each row; entries may be 0 for general fillings."""
    counts = [0] * filling.shape.n_rows
    for row in filling.col_to_row:
        counts[row - 1] += 1
    return tuple(counts)


def direct_sum(x: Word, y: Word) -> Word:
    """Concatenate x with y shifted up by max(x)."""
    x = make_word(x)
    y = make_word(y)
    shift = max(x) if x else 0
    return x + tuple(v + shift for v in y)


def border_path(shape: FerrersShape) -> BorderVertexPath:
    """Vertices along the right/up border, from (0, m) down to (width, 0).

    Consecutive vertices differ by a right step (+1, 0) or a down step
    (0, -1); the path has m + width + 1 vertices.
    """
    rows = shape.rows
    m = len(rows)
    vertices = [(0, m)]
    x = 0
    for i in range(m, 0, -1):
        while x < rows[i - 1]:
            x += 1
            vertices.append((x, i))
        vertices.append((x, i - 1))
    return tuple(vertices)


def make_composition(parts) -> Composition:
    comp = tuple(parts)
    if not comp or any(type(p) is not int or p < 1 for p in comp):
        raise BadComposition(f"composition parts must be positive integers, got {comp}")
    return comp


# --- text encodings -------------------------------------------------------
#
# shape: comma-separated row lengths bottom to top    "10,10,10,7,4,4"
# word/pattern: digit string while letters <= 9, else comma-separated
# composition: always comma-separated                 "2,2,3,1,1,1"
# pattern set: patterns joined by "+"                 "231+221"


def parse_shape(text: str) -> FerrersShape:
    return make_shape(_parse_int_list(text, "shape"))


def format_shape(shape: FerrersShape) -> str:
    return ",".join(str(r) for r in shape.rows)


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return make_word(_parse_int_list(text, "word"))
    try:
        letters = [parse_int(ch) for ch in text]
    except ValueError:
        raise InvalidPattern(f"cannot parse word {text!r}")
    return make_word(letters)


def format_word(word: Word) -> str:
    if not word:
        return ""
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def parse_composition(text: str) -> Composition:
    return make_composition(_parse_int_list(text, "composition"))


def format_composition(comp) -> str:
    return ",".join(str(p) for p in comp)


def parse_patterns(text: str) -> tuple[Word, ...]:
    """Parse a "+"-joined pattern set; the empty string is the empty set."""
    text = text.strip()
    if not text:
        return ()
    return tuple(validate_pattern(parse_word(part)) for part in text.split("+"))


def format_patterns(patterns) -> str:
    return "+".join(format_word(p) for p in patterns)


def parse_int(text: str) -> int:
    """An integer written as an optional sign and ASCII digits, spaces around it allowed.

    ``int`` alone would also read other decimal digits ("３") and underscores
    ("1_0"); both raise ``ValueError`` here.
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(parse_int, text.split(",")))
    except ValueError:
        raise ParseError(f"cannot parse {what} {text!r}: expected comma-separated integers")
