"""Table reproduction, equivalence scanning, and conjecture scanning.

Every published count lives in a fixture file (fixtures/table*.json) so that
reproducing a table is a regression check: the scan recomputes each cell and
reports computed-vs-published mismatches.  Equivalence scans sweep all shapes
within bounds (ordered by cell count, then lexicographically) and all
positive contents, comparing the avoider counts of two pattern sets.

``check_equivalence`` and ``scan_conjecture1`` count with one
``walk_shapes`` per pattern set, which pays one column step per shape rather
than one transfer-matrix count per (shape, content) cell; bounds such as
7 columns x 5 rows (7,125 cells) or 9 x 5 (2,001 shapes) take well under a
second.  ``enumeration.shape_records`` builds each shape's records in one
pass, content by content, then pattern set by pattern set; a ``--cache`` hit
wins over the walk, which runs only when some record is not cached.
``scan_conjecture2``, which stops at its first witness, advances one column
pass per (alphabet, pattern) by a column per length, and table reproduction
counts cell by cell.  Every record comes from ``shape_records``, and every
count runs in-process.
"""

import csv
import io
import json
import os

from .core import (
    FerrersShape,
    FrozenValue,
    InvalidPattern,
    Value,
    direct_sum,
    format_patterns,
    format_shape,
    make_word,
    parse_shape,
    parse_word,
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
    shape_records,
    walk_shapes,
    word_rectangle,
)

VERDICT_EQUAL = "equal"
VERDICT_UNEQUAL = "unequal"
VERDICT_CONSISTENT = "conjecture-consistent"
VERDICT_COUNTEREXAMPLE = "counterexample-found"


class Mismatch(FrozenValue):
    """One differing pair of counts (computed vs published, or side A vs side B)."""

    __slots__ = _fields = ("shape", "content", "a", "b", "note")

    def __init__(self, shape: str, content: str, a: int, b: int, note: str = ""):
        self._assign(shape, content, a, b, note)

    def to_json(self) -> dict:
        out = {"shape": self.shape, "content": self.content, "a": self.a, "b": self.b}
        if self.note:
            out["note"] = self.note
        return out


class ScanReport(Value):
    """Outcome of a table reproduction or a comparison scan.

    Reports compare by value, and each gets its own lists unless given some.
    """

    __slots__ = _fields = ("scope", "records", "mismatches", "verdict")

    def __init__(
        self,
        scope: str,
        records: list[CountRecord] | None = None,
        mismatches: list[Mismatch] | None = None,
        verdict: str = VERDICT_EQUAL,
    ):
        self.scope = scope
        self.records = [] if records is None else records
        self.mismatches = [] if mismatches is None else mismatches
        self.verdict = verdict

    def strict_inequalities(self) -> list[tuple[CountRecord, CountRecord]]:
        """Consecutive record pairs with differing counts (derived, not stored)."""
        out = []
        for a, b in zip(self.records[::2], self.records[1::2]):
            if a.count != b.count:
                out.append((a, b))
        return out

    def to_json_dict(self) -> dict:
        return {
            "scope": self.scope,
            "records": [r.to_json() for r in self.records],
            "mismatches": [m.to_json() for m in self.mismatches],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        """Flat record rows; table scopes group compositions into columns."""
        if self.scope.startswith("table"):
            return self._table_csv()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["shape", "content", "patterns", "count"])
        for record in self.records:
            writer.writerow(record.to_json().values())
        return buf.getvalue()

    def _table_csv(self) -> str:
        # One block per shape: compositions as columns, one row per pattern set.
        buf = io.StringIO()
        writer = csv.writer(buf)
        by_shape: dict[str, dict[str, dict[str, int]]] = {}
        for record in self.records:
            row = record.to_json()
            cols = by_shape.setdefault(row["shape"], {})
            cols.setdefault(row["content"], {})[row["patterns"]] = row["count"]
        for shape_text, cols in by_shape.items():
            contents = list(cols)
            writer.writerow(["shape " + shape_text] + contents)
            patterns = sorted({p for counts in cols.values() for p in counts})
            for pattern in patterns:
                writer.writerow([pattern] + [cols[c].get(pattern, "") for c in contents])
            writer.writerow([])
        return buf.getvalue()


def _load_table(table_id: int) -> dict:
    if type(table_id) is not int or table_id not in (1, 2, 3, 4):
        raise ValueError(f"table id must be 1..4, got {table_id}")
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"table{table_id}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reproduce_table(table_id: int, cache=None) -> ScanReport:
    """Recompute every cell of a published table and compare exactly."""
    fixture = _load_table(table_id)
    pattern_a = validate_pattern(parse_word(fixture["pattern_a"]))
    pattern_b = validate_pattern(parse_word(fixture["pattern_b"]))
    report = ScanReport(scope=f"table {table_id}")
    for cell in fixture["cells"]:
        shape = parse_shape(cell["shape"])
        content = parse_content(cell["content"])
        for pattern, expected in ((pattern_a, cell["a"]), (pattern_b, cell["b"])):
            record = counted(shape, content, (pattern,), cache=cache)
            report.records.append(record)
            if record.count != expected:
                report.mismatches.append(
                    Mismatch(
                        cell["shape"],
                        cell["content"],
                        record.count,
                        expected,
                        note=f"{format_patterns((pattern,))}: computed vs published",
                    )
                )
    report.verdict = VERDICT_EQUAL if not report.mismatches else VERDICT_UNEQUAL
    return report


def iter_shapes(max_cols: int, max_rows: int):
    """All shapes within the bounds, by total cell count, then lexicographically.

    The rows are generated valid, so the shapes skip the per-row checks.
    """
    found: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            found.append(prefix)
        if len(prefix) < max_rows:
            cap = prefix[-1] if prefix else max_cols
            stack.extend(prefix + (length,) for length in range(1, cap + 1))
    found.sort(key=lambda rows: (sum(rows), rows))
    for rows in found:
        yield FerrersShape._generated(rows)


def _scan(pattern_sets, regime: str, max_cols: int, max_rows: int, cache):
    """Yield (shape, records) for every shape in the bounds.

    Shapes come in ``iter_shapes`` order, and each shape's records come from
    one ``shape_records`` call: for each content in turn, one record per
    pattern set.  The contents of each (width, rows) size are listed once.
    Each pattern set is counted by one ``walk_shapes`` over the bounds, run at
    the first count the cache lacks, so a cached count wins, new records
    reach the cache in report order and a warm cache does no counting.
    """
    walks = [None] * len(pattern_sets)  # per pattern set: its histograms by column heights

    def histogram(shape, side: int) -> dict:
        walk = walks[side]
        if walk is None:
            walk = walks[side] = dict(walk_shapes(pattern_sets[side], max_cols, max_rows, regime))
        return walk[shape.heights]

    sizes: dict = {}
    for shape in iter_shapes(max_cols, max_rows):
        size = (shape.width, shape.n_rows)
        contents = sizes.get(size)
        if contents is None:
            contents = sizes[size] = (
                list(compositions(*size)) if regime == CONTENTS else [POSITIVE_ROWS]
            )
        yield shape, shape_records(shape, contents, pattern_sets, cache, histogram)


def check_equivalence(
    omega, sigma, max_cols: int, max_rows: int, cache=None
) -> ScanReport:
    """Compare avoider counts of two pattern sets over all shapes and contents."""
    check_bounds(max_cols=max_cols, max_rows=max_rows)
    omega = canonical_patterns(omega)
    sigma = canonical_patterns(sigma)
    report = ScanReport(
        scope=f"equivalence {format_patterns(omega)} vs {format_patterns(sigma)} "
        f"cols<={max_cols} rows<={max_rows}"
    )
    for shape, records in _scan((omega, sigma), CONTENTS, max_cols, max_rows, cache):
        report.records += records
        pairs = iter(records)
        for rec_a, rec_b in zip(pairs, pairs):
            if rec_a.count != rec_b.count:
                report.mismatches.append(
                    Mismatch(
                        format_shape(shape), content_text(rec_a.content), rec_a.count, rec_b.count
                    )
                )
    report.verdict = VERDICT_EQUAL if not report.mismatches else VERDICT_UNEQUAL
    return report


def scan_conjecture1(max_cols: int, max_rows: int, cache=None) -> ScanReport:
    """Check |avoiders of 231| <= |avoiders of 312| on all shapes in bounds.

    The compared sets are the fillings with one 1 per column and at least one
    per row (the union over all positive contents), which is the regime the
    published per-shape totals use.  Mismatches list only violations of the
    inequality; ties and strict inequalities both count as consistent and
    stay in the records.
    """
    check_bounds(max_cols=max_cols, max_rows=max_rows)
    report = ScanReport(scope=f"conjecture1 cols<={max_cols} rows<={max_rows}")
    scanned = _scan(((P231,), (P312,)), POSITIVE_ROWS, max_cols, max_rows, cache)
    for shape, records in scanned:
        report.records += records
        rec_a, rec_b = records  # one content: POSITIVE_ROWS
        if rec_a.count > rec_b.count:
            report.mismatches.append(
                Mismatch(format_shape(shape), POSITIVE_ROWS, rec_a.count, rec_b.count)
            )
    report.verdict = VERDICT_CONSISTENT if not report.mismatches else VERDICT_COUNTEREXAMPLE
    return report


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
    beta = make_word(beta)
    if beta:
        validate_pattern(beta)
        if len(set(beta)) != len(beta):
            raise InvalidPattern(f"beta must be a permutation, got {beta}")
    x = direct_sum(P231, beta)
    y = direct_sum(P312, beta)
    report = ScanReport(
        scope=f"conjecture2 beta={format_patterns((beta,)) if beta else '(empty)'} "
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

    for n in range(1, max_length + 1):
        for m in range(1, max_alphabet + 1):
            rectangle = word_rectangle(n, m)
            rec_a, rec_b = shape_records(rectangle, (UNCONSTRAINED,), pattern_sets, cache, histogram)
            report.records += [rec_a, rec_b]
            if rec_a.count != rec_b.count:
                report.mismatches.append(
                    Mismatch(
                        format_shape(rectangle),
                        UNCONSTRAINED,
                        rec_a.count,
                        rec_b.count,
                        note=f"first witness at length {n}, alphabet {m}",
                    )
                )
                report.verdict = VERDICT_UNEQUAL
                return report
    report.verdict = VERDICT_EQUAL
    return report
