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
second.  Their records still come in shape order, then content order, and a
``--cache`` hit wins over the walk, which runs only when some record is not
cached.  Table reproduction and ``scan_conjecture2``, which stops at its
first witness, count cell by cell.  The ``jobs`` keyword of the scans is
still accepted for older callers and ignored: every count runs in-process.
"""

import csv
import io
import json
import os

from .core import (
    FrozenValue,
    InvalidPattern,
    Value,
    direct_sum,
    format_patterns,
    format_shape,
    make_shape,
    make_word,
    parse_composition,
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
    compositions,
    content_text,
    counted,
    walk_shapes,
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
    if table_id not in (1, 2, 3, 4):
        raise ValueError(f"table id must be 1..4, got {table_id}")
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"table{table_id}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reproduce_table(table_id: int, jobs: int = 1, cache=None) -> ScanReport:
    """Recompute every cell of a published table and compare exactly."""
    fixture = _load_table(table_id)
    pattern_a = validate_pattern(parse_word(fixture["pattern_a"]))
    pattern_b = validate_pattern(parse_word(fixture["pattern_b"]))
    report = ScanReport(scope=f"table {table_id}")
    for cell in fixture["cells"]:
        shape = parse_shape(cell["shape"])
        if cell["content"] in (UNCONSTRAINED, POSITIVE_ROWS):
            content = cell["content"]
        else:
            content = parse_composition(cell["content"])
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
    """All shapes within the bounds, by total cell count, then lexicographically."""
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
        yield make_shape(rows)


def _scan(cells, pattern_sets, regime: str, max_cols: int, max_rows: int, cache):
    """Records of each pattern set on each (shape, content) cell, one list per cell.

    A cached count wins.  Each pattern set whose counts the cache lacks is
    counted by one ``walk_shapes`` over the bounds, and its new records are
    added to the cache in report order; a warm cache does no counting.
    """
    found = [
        [
            cache.get(CountRecord(shape, content, patterns, -1).key()) if cache is not None else None
            for patterns in pattern_sets
        ]
        for shape, content in cells
    ]
    walks = [
        dict(walk_shapes(patterns, max_cols, max_rows, regime))
        if any(counts[side] is None for counts in found)
        else None
        for side, patterns in enumerate(pattern_sets)
    ]
    out = []
    for (shape, content), counts in zip(cells, found):
        records = []
        for patterns, walk, n in zip(pattern_sets, walks, counts):
            if n is None:
                record = CountRecord(shape, content, patterns, walk[shape.heights].get(content, 0))
                if cache is not None:
                    cache.add(record)
            else:
                record = CountRecord(shape, content, patterns, n)
            records.append(record)
        out.append(records)
    return out


def check_equivalence(
    omega, sigma, max_cols: int, max_rows: int, jobs: int = 1, cache=None
) -> ScanReport:
    """Compare avoider counts of two pattern sets over all shapes and contents."""
    omega = canonical_patterns(omega)
    sigma = canonical_patterns(sigma)
    report = ScanReport(
        scope=f"equivalence {format_patterns(omega)} vs {format_patterns(sigma)} "
        f"cols<={max_cols} rows<={max_rows}"
    )
    cells = [
        (shape, content)
        for shape in iter_shapes(max_cols, max_rows)
        for content in compositions(shape.width, shape.n_rows, positive=True)
    ]
    scanned = _scan(cells, (omega, sigma), CONTENTS, max_cols, max_rows, cache)
    for (shape, content), (rec_a, rec_b) in zip(cells, scanned):
        report.records += [rec_a, rec_b]
        if rec_a.count != rec_b.count:
            report.mismatches.append(
                Mismatch(format_shape(shape), content_text(content), rec_a.count, rec_b.count)
            )
    report.verdict = VERDICT_EQUAL if not report.mismatches else VERDICT_UNEQUAL
    return report


def scan_conjecture1(max_cols: int, max_rows: int, jobs: int = 1, cache=None) -> ScanReport:
    """Check |avoiders of 231| <= |avoiders of 312| on all shapes in bounds.

    The compared sets are the fillings with one 1 per column and at least one
    per row (the union over all positive contents), which is the regime the
    published per-shape totals use.  Mismatches list only violations of the
    inequality; ties and strict inequalities both count as consistent and
    stay in the records.
    """
    report = ScanReport(scope=f"conjecture1 cols<={max_cols} rows<={max_rows}")
    cells = [(shape, POSITIVE_ROWS) for shape in iter_shapes(max_cols, max_rows)]
    scanned = _scan(cells, ((P231,), (P312,)), POSITIVE_ROWS, max_cols, max_rows, cache)
    for (shape, _), (rec_a, rec_b) in zip(cells, scanned):
        report.records += [rec_a, rec_b]
        if rec_a.count > rec_b.count:
            report.mismatches.append(
                Mismatch(format_shape(shape), POSITIVE_ROWS, rec_a.count, rec_b.count)
            )
    report.verdict = VERDICT_CONSISTENT if not report.mismatches else VERDICT_COUNTEREXAMPLE
    return report


def scan_conjecture2(
    beta, max_length: int, max_alphabet: int, jobs: int = 1, cache=None
) -> ScanReport:
    """Scan word counts for 231+beta vs 312+beta until they first differ.

    Walks the (length, alphabet) grid in lexicographic order and stops at the
    first witness; ``unequal`` is the conjecture-supporting verdict here.
    beta must be a permutation (possibly empty).
    """
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
    for n in range(1, max_length + 1):
        for m in range(1, max_alphabet + 1):
            rectangle = make_shape((n,) * m)
            rec_a = counted(rectangle, UNCONSTRAINED, (x,), cache=cache)
            rec_b = counted(rectangle, UNCONSTRAINED, (y,), cache=cache)
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
