"""Pattern-avoiding words and 0-1 fillings of Ferrers shapes.

Exhaustive counting under three content regimes, word counting, the border
chain statistics with the alpha correspondence between 231- and 312-avoiding
full rook placements, the band blowup/shrink conjugations that extend it to
general contents, and scan/reproduction commands for the published tables.
"""

from .core import (
    BadComposition,
    BorderVertexPath,
    Composition,
    ContentMismatch,
    FerrersShape,
    Filling,
    FullRookPlacement,
    InvalidPattern,
    NotAvoiding,
    NotFerrers,
    ParseError,
    ShapeMismatch,
    Word,
    border_path,
    direct_sum,
    filling_content,
    format_composition,
    format_patterns,
    format_shape,
    format_word,
    make_composition,
    make_shape,
    make_word,
    parse_composition,
    parse_patterns,
    parse_shape,
    parse_word,
    validate_pattern,
    word_to_filling,
)
from .matcher import (
    avoids_all,
    contains,
    word_contains,
)
from .enumeration import (
    CONTENTS,
    POSITIVE_ROWS,
    UNCONSTRAINED,
    CorruptCache,
    CountRecord,
    ResultCache,
    brute_count_fillings,
    compositions,
    count_all_fillings,
    count_fillings,
    count_positive_fillings,
    count_words,
    count_words_direct,
    counted,
    enumerate_fillings,
    walk_shapes,
)
from .bijection import (
    BijectionFailure,
    BorderSequence,
    Direction,
    EquivalenceVariant,
    MapTrace,
    NoSuchPlacement,
    VARIANTS,
    alpha,
    alpha_inverse,
    blowup,
    i_sequence,
    n_sequence,
    reconstruct,
    shrink,
)
from .harness import (
    Mismatch,
    ScanReport,
    check_equivalence,
    iter_shapes,
    reproduce_table,
    scan_conjecture1,
    scan_conjecture2,
)

__version__ = "0.1.0"
