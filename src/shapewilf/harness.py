"""Table reproduction, equivalence scanning, and conjecture scanning.

Every published count lives in a fixture file (fixtures/table*.json) so that
reproducing a table is a regression check: ``reproduce_table`` reads the
fixture, its two pattern texts through ``parse_patterns``, recomputes each
cell and reports computed-vs-published mismatches.  Equivalence scans sweep
all shapes within bounds (ordered by cell count, then lexicographically) and
all positive contents, comparing the avoider counts of two pattern sets.

``check_equivalence`` and ``scan_conjecture1`` are one loop, ``_compare``,
given the test of a pair of counts (``!=`` or ``>``) and the two verdicts.
It counts with one ``walk_shapes`` over both pattern sets, which pays one
column step per shape and set rather than one transfer-matrix count per
(shape, content) cell, and in which both sets look up each recurring regime
state's moves in the same tables (README gives the timings).
``scan_conjecture2``, which stops at its first witness, advances one column
pass per (alphabet, pattern) by a column per length, and table reproduction
counts cell by cell.  Every count runs in-process.

A report is its counts: per shape in report order, the shape's contents
and one histogram per pattern set (the count of each content in turn), which
every report gets from ``enumeration.shape_counts``, where a ``--cache``
line, one per histogram, wins over the count, which runs only on a miss.  The
scans find their mismatches by comparing a shape's histograms and visit its
contents only where they differ.  ``ScanReport.records`` is a read-only
view: its length builds no ``CountRecord`` and iterating it builds one at a
time, while comparing, copying and pickling a report read only its counts.
``to_json_dict`` and the stream writers ``write_json`` and ``write_csv`` read
one pass over the rows of texts, ``ScanReport._rows``, which formats each
content and pattern text once per report, and the JSON writer fills one
record template per row.
"""

import csv
import json
import os
from itertools import combinations_with_replacement, islice
from operator import gt, ne

from .core import (
    BadChoice,
    FerrersShape,
    InvalidPattern,
    Value,
    direct_sum,
    format_patterns,
    format_shape,
    make_word,
    parse_patterns,
    parse_shape,
    validate_pattern,
)
from .bijection import P231, P312
from .enumeration import (
    CONTENTS,
    POSITIVE_ROWS,
    UNCONSTRAINED,
    CountRecord,
    canonical_patterns,
    check_bounds,
    column_states,
    compositions,
    content_text,
    counted,
    parse_content,
    record_json,
    shape_counts,
    walk_shapes,
    word_rectangle,
)

VERDICT_EQUAL = "equal"
VERDICT_UNEQUAL = "unequal"
VERDICT_CONSISTENT = "conjecture-consistent"
VERDICT_COUNTEREXAMPLE = "counterexample-found"

# A record as json.dumps(to_json_dict(), indent=2) lays it out: its texts are canonical
# encodings (digits, commas, "+", "unconstrained", "positive-rows"), which JSON never escapes.
_RECORD_JSON = ('    {\n      "shape": "%s",\n      "content": "%s",\n      "patterns": "%s",'
                '\n      "count": %d\n    }')


class Mismatch(Value):
    """One differing pair of counts (computed vs published, or side A vs side B)."""

    __slots__ = _fields = ("shape", "content", "a", "b", "note")

    def __init__(self, shape: str, content: str, a: int, b: int, note: str = ""):
        self._assign(shape, content, a, b, note)

    def to_json(self) -> dict:
        out = {"shape": self.shape, "content": self.content, "a": self.a, "b": self.b}
        if self.note:
            out["note"] = self.note
        return out


class _Records:
    """The records of a report's counts, one ``CountRecord`` per (shape, content, pattern set).

    ``len`` builds no record, and iteration builds one at a time, in report order.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: list):
        self._counts = counts

    def __len__(self) -> int:
        return sum(len(contents) * len(sets) for _, contents, sets, _ in self._counts)

    def __iter__(self):
        for shape, contents, pattern_sets, histograms in self._counts:
            for content, cell_counts in zip(contents, zip(*histograms)):
                for patterns, count in zip(pattern_sets, cell_counts):
                    yield CountRecord(shape, content, patterns, count)


class ScanReport(Value):
    """Outcome of a table reproduction or a comparison scan.

    ``counts`` holds one (shape, contents, pattern sets, histograms) tuple
    per shape, in report order: the shape's contents and, per pattern set,
    its histogram over them, the number of avoiders of each content in turn
    (as ``enumeration.shape_counts`` gives them).  ``records`` reads them as
    one ``CountRecord`` per (shape, content, pattern set), built only when
    iterated.  Each pattern set is canonical (as ``counted`` gives it), so
    ``format_patterns`` gives its text.  ``to_json_dict`` and the JSON and CSV
    writers read the rows of texts from ``_rows`` and build no record.  A
    report is a frozen value: each builder collects its counts and mismatches
    first and builds the report once, with the verdict they imply.  Its
    fields are lists, so it has no hash.
    """

    __slots__ = _fields = ("scope", "counts", "mismatches", "verdict")

    def __init__(self, scope: str, counts: list, mismatches: list[Mismatch], verdict: str):
        self._assign(scope, counts, mismatches, verdict)

    @property
    def records(self) -> _Records:
        return _Records(self.counts)

    def _rows(self):
        """(shape, content, patterns) texts and count of every record, in report order."""
        content_texts: dict = {}  # content -> its text, formatted once per report
        pattern_texts: dict = {}  # pattern sets -> their texts, formatted once per report
        for shape, contents, pattern_sets, histograms in self.counts:
            shape_text = format_shape(shape)
            sides = pattern_texts.get(pattern_sets)
            if sides is None:
                sides = pattern_texts[pattern_sets] = [format_patterns(p) for p in pattern_sets]
            for content, counts in zip(contents, zip(*histograms)):
                text = content_texts.get(content)
                if text is None:
                    text = content_texts[content] = content_text(content)
                for patterns, count in zip(sides, counts):
                    yield shape_text, text, patterns, count

    def to_json_dict(self) -> dict:
        return {
            "scope": self.scope,
            "records": [record_json(*row) for row in self._rows()],
            "mismatches": [m.to_json() for m in self.mismatches],
            "verdict": self.verdict,
        }

    def write_json(self, stream) -> None:
        """Write ``json.dumps(to_json_dict(), indent=2)`` to ``stream``, records in batches."""
        dumps = json.dumps
        stream.write('{\n  "scope": ' + dumps(self.scope) + ',\n  "records": [')
        rows, lead = self._rows(), "\n"
        while batch := [_RECORD_JSON % row for row in islice(rows, 4096)]:
            stream.write(lead + ",\n".join(batch))
            lead = ",\n"
        stream.write("]" if lead == "\n" else "\n  ]")
        tail = {"mismatches": [m.to_json() for m in self.mismatches], "verdict": self.verdict}
        stream.write(",\n" + dumps(tail, indent=2)[2:])  # its keys, at the document's indent

    def write_csv(self, stream) -> None:
        """Write the report as CSV: flat record rows; tables group contents into columns."""
        writer = csv.writer(stream)
        if not self.scope.startswith("table"):
            writer.writerow(["shape", "content", "patterns", "count"])
            writer.writerows(self._rows())
            return
        # One block per shape: contents as columns, one row per pattern set.
        by_shape: dict[str, dict[str, dict[str, int]]] = {}
        for shape, content, patterns, count in self._rows():
            by_shape.setdefault(shape, {}).setdefault(content, {})[patterns] = count
        for shape, cols in by_shape.items():
            contents = list(cols)
            writer.writerow(["shape " + shape] + contents)
            for pattern in sorted({p for counts in cols.values() for p in counts}):
                writer.writerow([pattern] + [cols[c].get(pattern, "") for c in contents])
            writer.writerow([])


def reproduce_table(table_id: int, cache=None) -> ScanReport:
    """Recompute every cell of a published table and compare exactly."""
    if type(table_id) is not int or table_id not in (1, 2, 3, 4):
        raise BadChoice(f"table id must be 1..4, got {table_id}")
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"table{table_id}.json")
    with open(path, encoding="utf-8") as handle:
        fixture = json.load(handle)
    pattern_sets = tuple(
        canonical_patterns(parse_patterns(fixture[side])) for side in ("pattern_a", "pattern_b")
    )
    counts, mismatches = [], []
    for cell in fixture["cells"]:
        shape = parse_shape(cell["shape"])
        content = parse_content(cell["content"])
        records = [counted(shape, content, patterns, cache) for patterns in pattern_sets]
        histograms = tuple((record.count,) for record in records)
        counts.append((shape, (records[0].content,), pattern_sets, histograms))
        for record, expected in zip(records, (cell["a"], cell["b"])):
            if record.count != expected:
                note = f"{format_patterns(record.patterns)}: computed vs published"
                mismatches.append(
                    Mismatch(cell["shape"], cell["content"], record.count, expected, note)
                )
    verdict = VERDICT_EQUAL if not mismatches else VERDICT_UNEQUAL
    return ScanReport(f"table {table_id}", counts, mismatches, verdict)


def iter_shapes(max_cols: int, max_rows: int):
    """All shapes within the bounds, by total cell count, then lexicographically.

    The bounds are checked as a scan's are.  The rows are generated valid, so
    the shapes skip the per-row checks.
    """
    check_bounds(max_cols=max_cols, max_rows=max_rows)
    lengths = range(max_cols, 0, -1)  # so each combination's rows weakly decrease
    found = [rows for r in range(1, max_rows + 1)
             for rows in combinations_with_replacement(lengths, r)]
    found.sort(key=lambda rows: (sum(rows), rows))
    return map(FerrersShape._generated, found)


def _compare(scope: str, pattern_sets, regime: str, max_cols: int, max_rows: int, cache,
             violates, verdicts) -> ScanReport:
    """Compare two pattern sets' counts on every shape in the bounds, content by content.

    Shapes come in ``iter_shapes`` order, and each shape's histograms, one
    per pattern set, come from one ``shape_counts`` call.  The contents of
    each (width, rows) size are listed once: every positive composition
    (``CONTENTS``) or ``POSITIVE_ROWS`` alone.  Both pattern sets are counted
    by one ``walk_shapes`` over the bounds, run at the first histogram the
    cache lacks, which fills one dict of histograms per set; a cached histogram
    wins (a half-warm cache walks both sets, and the cached set's histograms
    go unread), new ones reach the cache in report order and a warm cache does
    no counting.  A content whose counts a, b give ``violates(a, b)`` is a
    mismatch, and the verdict is ``verdicts[0]`` without one and
    ``verdicts[1]`` with one.
    """
    walks = []  # per pattern set: its histograms by column heights, once walked

    def histogram(shape, side: int) -> dict:
        if not walks:
            walks.extend({} for _ in pattern_sets)
            for at, heights, found in walk_shapes(pattern_sets, max_cols, max_rows, regime):
                walks[at][heights] = found
        return walks[side].pop(shape.heights)  # read once; the report keeps its counts

    counts, mismatches = [], []
    sizes: dict = {}
    for shape in iter_shapes(max_cols, max_rows):
        size = (shape.width, shape.n_rows)
        contents = sizes.get(size)
        if contents is None:
            contents = sizes[size] = (
                list(compositions(*size)) if regime == CONTENTS else [POSITIVE_ROWS]
            )
        histograms = shape_counts(shape, contents, pattern_sets, cache, histogram)
        counts.append((shape, contents, pattern_sets, histograms))
        counts_a, counts_b = histograms
        if counts_a != counts_b:  # the contents are visited only where the histograms differ
            shape_text = format_shape(shape)
            for content, a, b in zip(contents, counts_a, counts_b):
                if violates(a, b):
                    mismatches.append(Mismatch(shape_text, content_text(content), a, b))
    return ScanReport(scope, counts, mismatches, verdicts[bool(mismatches)])


def check_equivalence(omega, sigma, max_cols: int, max_rows: int, cache=None) -> ScanReport:
    """Compare avoider counts of two pattern sets over all shapes and contents."""
    check_bounds(max_cols=max_cols, max_rows=max_rows)
    pattern_sets = (canonical_patterns(omega), canonical_patterns(sigma))
    scope = (
        f"equivalence {format_patterns(pattern_sets[0])} vs {format_patterns(pattern_sets[1])} "
        f"cols<={max_cols} rows<={max_rows}"
    )
    return _compare(scope, pattern_sets, CONTENTS, max_cols, max_rows, cache, ne,
                    (VERDICT_EQUAL, VERDICT_UNEQUAL))


def scan_conjecture1(max_cols: int, max_rows: int, cache=None) -> ScanReport:
    """Check |avoiders of 231| <= |avoiders of 312| on all shapes in bounds.

    The compared sets are the fillings with one 1 per column and at least one
    per row (the union over all positive contents), which is the regime the
    published per-shape totals use.  Mismatches list only violations of the
    inequality; ties and strict inequalities both count as consistent and
    stay in the records.
    """
    scope = f"conjecture1 cols<={max_cols} rows<={max_rows}"
    return _compare(scope, ((P231,), (P312,)), POSITIVE_ROWS, max_cols, max_rows, cache, gt,
                    (VERDICT_CONSISTENT, VERDICT_COUNTEREXAMPLE))


def check_beta(beta):
    """The word ``beta`` if it is a permutation (possibly empty), else ``InvalidPattern``."""
    beta = make_word(beta)
    if beta:
        validate_pattern(beta)
        if len(set(beta)) != len(beta):
            raise InvalidPattern(f"beta must be a permutation, got {beta}")
    return beta


def scan_conjecture2(
    beta, max_length: int, max_alphabet: int, cache=None
) -> ScanReport:
    """Scan word counts for 231+beta vs 312+beta until they first differ.

    Walks the (length, alphabet) grid in lexicographic order and stops at the
    first witness; ``unequal`` is the conjecture-supporting verdict here.
    Each (alphabet, pattern) pair has one column pass over the longest
    rectangle, stepped a column per length.  beta must be a permutation
    (possibly empty).
    """
    check_bounds(max_length=max_length, max_alphabet=max_alphabet)
    beta = check_beta(beta)
    x = direct_sum(P231, beta)
    y = direct_sum(P312, beta)
    scope = (
        f"conjecture2 beta={format_patterns((beta,)) if beta else '(empty)'} "
        f"n<={max_length} m<={max_alphabet}"
    )
    pattern_sets = ((x,), (y,))
    passes: dict = {}  # (side, m) -> (length, column states) of the max_length x m rectangle

    def histogram(rectangle, side: int) -> dict:
        n, m = rectangle.width, rectangle.n_rows
        columns = passes.get((side, m))
        if columns is None:
            columns = passes[side, m] = enumerate(
                column_states(word_rectangle(max_length, m), pattern_sets[side]), start=1
            )
        for length, states in columns:  # lengths come in order; cached ones are stepped over
            if length == n:
                return {UNCONSTRAINED: sum(states.values())}

    contents, counts = (UNCONSTRAINED,), []
    for n in range(1, max_length + 1):
        for m in range(1, max_alphabet + 1):
            rectangle = word_rectangle(n, m)
            histograms = shape_counts(rectangle, contents, pattern_sets, cache, histogram)
            counts.append((rectangle, contents, pattern_sets, histograms))
            (a,), (b,) = histograms
            if a != b:
                note = f"first witness at length {n}, alphabet {m}"
                witness = Mismatch(format_shape(rectangle), UNCONSTRAINED, a, b, note)
                return ScanReport(scope, counts, [witness], VERDICT_UNEQUAL)
    return ScanReport(scope, counts, [], VERDICT_EQUAL)
