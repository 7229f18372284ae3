"""Reference computations that the benchmark checks the program's outputs against.

Nothing here imports shapewilf.  Containment is decided by trying every set
of columns and comparing the order pattern of their rows with the pattern
word; the program instead walks row subsets (``contains``) or tests only the
newest column during a search (the counting engine).  Counts are recounted by
filtering every filling of a shape.  Published values come from
``published.json``, a copy of the paper's tables kept with the benchmark.

Every ``check_*`` function returns a list of error strings; an empty list
means the output passed.
"""

import json
import random
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

PUBLISHED = json.loads(Path(__file__).with_name("published.json").read_text())
UNCONSTRAINED = "unconstrained"
POSITIVE_ROWS = "positive-rows"


# --- text encodings (the CLI's and the report JSON's) ----------------------


def ints(text):
    return tuple(int(part) for part in text.split(","))


def word(text):
    return ints(text) if "," in text else tuple(int(ch) for ch in text)


def word_text(letters):
    if max(letters) <= 9:
        return "".join(str(v) for v in letters)
    return ",".join(str(v) for v in letters)


def patterns_of(text):
    return tuple(word(part) for part in text.split("+")) if text else ()


def content_of(text):
    return text if text in (UNCONSTRAINED, POSITIVE_ROWS) else ints(text)


# --- containment and brute-force counts ------------------------------------


def heights(rows):
    return tuple(sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1))


@lru_cache(maxsize=None)
def _relations(pattern):
    return tuple(
        (i, j, (pattern[i] > pattern[j]) - (pattern[i] < pattern[j]))
        for i, j in combinations(range(len(pattern)), 2)
    )


def _occurs(rows, cols, pattern, chosen):
    """Do the 1's of the chosen columns form the pattern inside the shape?"""
    sub = [cols[c] for c in chosen]
    for i, j, rel in _relations(pattern):
        if (sub[i] > sub[j]) - (sub[i] < sub[j]) != rel:
            return False
    # The occurrence's window is inside the shape iff its top-right cell is.
    return rows[max(sub) - 1] >= chosen[-1] + 1


def contains(rows, cols, pattern):
    """Does the filling (row of the 1 in each column) contain the pattern?"""
    return any(
        _occurs(rows, cols, pattern, chosen)
        for chosen in combinations(range(len(cols)), len(pattern))
    )


def _ends_at_last(rows, cols, pattern):
    last = len(cols) - 1
    return any(
        _occurs(rows, cols, pattern, earlier + (last,))
        for earlier in combinations(range(last), len(pattern) - 1)
    )


def row_content(n_rows, cols):
    counts = [0] * n_rows
    for row in cols:
        counts[row - 1] += 1
    return tuple(counts)


def brute_fillings(rows, content, patterns):
    """Filter every filling of the shape by content and avoidance; lexicographic order."""
    for cols in product(*(range(1, h + 1) for h in heights(rows))):
        if content != UNCONSTRAINED:
            got = row_content(len(rows), cols)
            if (0 in got) if content == POSITIVE_ROWS else got != content:
                continue
        if not any(contains(rows, cols, p) for p in patterns):
            yield cols


def brute_count(rows, content, patterns):
    return sum(1 for _ in brute_fillings(rows, content, patterns))


def fillings_to_filter(rows):
    """How many fillings ``brute_count`` tries for this shape."""
    n = 1
    for h in heights(rows):
        n *= h
    return n


def avoiders(rows, content, patterns):
    """Every filling with the given content avoiding all patterns, in lexicographic order."""
    hs = heights(rows)
    caps = list(content)
    placed = []
    out = []

    def schedulable(done):
        # Rows >= t can only take 1's from columns <= rows[t-1].
        need = 0
        for t in range(len(rows), 0, -1):
            need += caps[t - 1]
            if need > max(0, rows[t - 1] - done):
                return False
        return True

    def grow(j):
        if j == len(hs):
            out.append(tuple(placed))
            return
        for row in range(1, hs[j] + 1):
            if not caps[row - 1]:
                continue
            caps[row - 1] -= 1
            placed.append(row)
            if schedulable(j + 1) and not any(
                _ends_at_last(rows, placed, p) for p in patterns
            ):
                grow(j + 1)
            placed.pop()
            caps[row - 1] += 1

    grow(0)
    return out


@lru_cache(maxsize=None)
def catalan(n):
    return 1 if n <= 1 else sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def random_231_avoider(n, rng, low=1):
    """A uniformly random 231-avoiding permutation of low..low+n-1.

    The largest letter splits such a permutation into a 231-avoiding prefix
    of the smallest letters and a 231-avoiding suffix of the rest.
    """
    if n == 0:
        return ()
    pick = rng.randrange(catalan(n))
    p = 1
    while pick >= catalan(p - 1) * catalan(n - p):
        pick -= catalan(p - 1) * catalan(n - p)
        p += 1
    return (
        random_231_avoider(p - 1, rng, low)
        + (low + n - 1,)
        + random_231_avoider(n - p, rng, low + p - 1)
    )


# --- tables ----------------------------------------------------------------


def table_cells():
    """(table, shape, content, pattern, published count) for every cell of tables 1-4."""
    for table, data in PUBLISHED["tables"].items():
        for shape, content, a, b in data["cells"]:
            for pattern, value in zip(data["patterns"], (a, b)):
                yield int(table), shape, content, pattern, value


def published_cell(*key):
    """The printed count of one (table, shape, content, pattern) cell."""
    return next(value for *cell, value in table_cells() if tuple(cell) == key)


def word_counts():
    """(length, alphabet, pattern, published count) for the eight word counts."""
    return [tuple(w) for w in PUBLISHED["words"]]


@lru_cache(maxsize=None)
def erratum_recounts():
    """{(table, shape, content, pattern): (printed, recount)} for the known misprints."""
    return {
        (e["table"], e["shape"], e["content"], e["pattern"]): (
            e["printed"],
            brute_count(ints(e["shape"]), ints(e["content"]), (word(e["pattern"]),)),
        )
        for e in PUBLISHED["errata"]
    }


def expected_cell(table, shape, content, pattern, published):
    recount = erratum_recounts().get((table, shape, content, pattern))
    return published if recount is None else recount[1]


def check_erratum():
    return [
        f"table {key[0]} {key[1]} {key[2]} {key[3]}: recount {recount} equals the printed {printed}"
        for key, (printed, recount) in erratum_recounts().items()
        if recount == printed
    ]


def check_tables(cell_counts, word_results):
    """Every table cell and word count against the paper (the erratum against its recount).

    ``cell_counts`` maps (table, shape, content, pattern) and ``word_results``
    maps (length, alphabet, pattern) to the program's counts.
    """
    errors = check_erratum()
    for table, shape, content, pattern, published in table_cells():
        key = (table, shape, content, pattern)
        want = expected_cell(*key, published)
        if cell_counts.get(key) != want:
            errors.append(f"table {' '.join(map(str, key))}: {cell_counts.get(key)} != {want}")
    for n, m, pattern, published in word_counts():
        got = word_results.get((n, m, pattern))
        if got != published:
            errors.append(f"words n={n} m={m} {pattern}: {got} != {published}")
    return errors


def check_table_report(report, table):
    """A table reproduction report: one record per published cell and pattern."""
    got = {(r["shape"], r["content"], r["patterns"]): r["count"] for r in report["records"]}
    cells = [c for c in table_cells() if c[0] == table]
    errors = []
    if len(report["records"]) != len(cells):
        errors.append(f"{len(report['records'])} records, expected {len(cells)}")
    misprinted = False
    for _, shape, content, pattern, published in cells:
        want = expected_cell(table, shape, content, pattern, published)
        misprinted |= want != published
        found = got.get((shape, content, pattern))
        if found != want:
            errors.append(f"table {table} {shape} {content} {pattern}: {found} != {want}")
    if report["verdict"] != ("unequal" if misprinted else "equal"):
        errors.append(f"verdict {report['verdict']}")
    return errors


# --- scan reports (ScanReport JSON: scope, records, mismatches, verdict) ---


def shapes_within(max_cols, max_rows):
    """Every Ferrers shape with at most max_rows rows of length at most max_cols."""
    out = []

    def grow(prefix, cap):
        if prefix:
            out.append(prefix)
        if len(prefix) < max_rows:
            for length in range(1, cap + 1):
                grow(prefix + (length,), length)

    grow((), max_cols)
    return out


def compositions(total, parts):
    """Every way to write total as an ordered sum of parts positive integers."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _paired(report):
    records = report["records"]
    if len(records) % 2:
        return None
    return list(zip(records[::2], records[1::2]))


def _published_in_bounds(pairs, table, max_cols, max_rows):
    """Errors for table cells inside the bounds whose records disagree with the paper."""
    found = {(a["shape"], a["content"]): (a["count"], b["count"]) for a, b in pairs}
    data = PUBLISHED["tables"][str(table)]
    errors = []
    for shape, content, a, b in data["cells"]:
        rows = ints(shape)
        if rows[0] > max_cols or len(rows) > max_rows:
            continue
        want = tuple(
            expected_cell(table, shape, content, p, v) for p, v in zip(data["patterns"], (a, b))
        )
        got = found.get((shape, content))
        if got != want:
            errors.append(f"table {table} {shape} {content}: {got} != {want}")
    return errors


def check_equivalence(report, max_cols, max_rows, expect=None):
    """A check_equivalence report: all positive contents of all shapes, pairs, verdict."""
    pairs = _paired(report)
    if pairs is None:
        return ["odd number of records"]
    errors = []
    cells = sorted(
        (",".join(map(str, rows)), ",".join(map(str, comp)))
        for rows in shapes_within(max_cols, max_rows)
        for comp in compositions(rows[0], len(rows))
    )
    if sorted((a["shape"], a["content"]) for a, _ in pairs) != cells:
        errors.append(f"{len(pairs)} record pairs do not cover the {len(cells)} cells in bounds")
    differing = []
    for a, b in pairs:
        if (a["shape"], a["content"]) != (b["shape"], b["content"]) or a["content"] in (
            UNCONSTRAINED,
            POSITIVE_ROWS,
        ):
            errors.append(f"bad pair {a} / {b}")
        elif a["count"] != b["count"]:
            differing.append((a["shape"], a["content"], a["count"], b["count"]))
    reported = [(m["shape"], m["content"], m["a"], m["b"]) for m in report["mismatches"]]
    if reported != differing:
        errors.append(f"mismatches {reported[:3]} do not list the differing pairs {differing[:3]}")
    verdict = "equal" if not differing else "unequal"
    if report["verdict"] != verdict or (expect is not None and verdict != expect):
        errors.append(f"verdict {report['verdict']}, records say {verdict}, expected {expect}")
    if pairs and {a["patterns"] for a, _ in pairs} == {"231"}:
        errors += _published_in_bounds(pairs, 1, max_cols, max_rows)
    return errors


def check_conjecture1(report, max_cols, max_rows):
    """A scan_conjecture1 report: 231 never above 312 on positive-row fillings."""
    pairs = _paired(report)
    if pairs is None:
        return ["odd number of records"]
    errors = []
    want_shapes = sorted(",".join(map(str, rows)) for rows in shapes_within(max_cols, max_rows))
    if sorted(a["shape"] for a, _ in pairs) != want_shapes:
        errors.append("the records do not cover every shape in bounds exactly once")
    violations = [(a["shape"], a["count"], b["count"]) for a, b in pairs if a["count"] > b["count"]]
    reported = [(m["shape"], m["a"], m["b"]) for m in report["mismatches"]]
    if reported != violations:
        errors.append(f"mismatches {reported[:3]} do not list the violations {violations[:3]}")
    if violations or report["verdict"] != "conjecture-consistent":
        errors.append(f"verdict {report['verdict']} with violations {violations[:3]}")
    errors += _published_in_bounds(pairs, 4, max_cols, max_rows)
    return errors


def check_conjecture2(report, beta, max_length, max_alphabet):
    """A scan_conjecture2 report for 231+beta vs 312+beta on words.

    With beta empty the two sides are equal everywhere (reverse-complement
    maps 231-avoiders onto 312-avoiders).  With beta = 1 the first witness in
    (length, alphabet) order is at length 7, alphabet 5: 67853 vs 67854.
    """
    pairs = _paired(report)
    if pairs is None:
        return ["odd number of records"]
    grid = [(n, m) for n in range(1, max_length + 1) for m in range(1, max_alphabet + 1)]
    witness = (7, 5) if beta == (1,) and (7, 5) in grid else None
    if witness is not None:
        grid = grid[: grid.index(witness) + 1]
    errors = []
    if [ints(a["shape"]) for a, _ in pairs] != [(n,) * m for n, m in grid]:
        errors.append("records do not walk the (length, alphabet) grid in order")
        return errors
    published = {(n, m, p): v for n, m, p, v in word_counts()}
    for (n, m), (a, b) in zip(grid, pairs):
        for rec in (a, b):
            want = published.get((n, m, rec["patterns"]))
            if want is not None and rec["count"] != want:
                errors.append(f"words n={n} m={m} {rec['patterns']}: {rec['count']} != {want}")
        if (a["count"] != b["count"]) != ((n, m) == witness):
            errors.append(f"n={n} m={m}: {a['count']} vs {b['count']}")
    if witness is None:
        if report["verdict"] != "equal" or report["mismatches"]:
            errors.append(f"verdict {report['verdict']}, expected equal")
    else:
        mismatch = report["mismatches"][0] if len(report["mismatches"]) == 1 else {}
        witness_counts = (mismatch.get("a"), mismatch.get("b"))
        if report["verdict"] != "unequal" or witness_counts != (67853, 67854):
            errors.append(f"{report['verdict']} {witness_counts}: want the witness 67853 vs 67854")
    return errors


def check_sample_recount(records, seed, size, limit):
    """Recount a seeded sample of small records by brute force."""
    small = {}
    for rec in records:
        if fillings_to_filter(ints(rec["shape"])) <= limit:
            small[(rec["shape"], rec["content"], rec["patterns"])] = rec["count"]
    keys = sorted(small)
    sample = random.Random(seed).sample(keys, min(size, len(keys)))
    errors = []
    for shape, content, patterns in sample:
        want = brute_count(ints(shape), content_of(content), patterns_of(patterns))
        if small[(shape, content, patterns)] != want:
            got = small[(shape, content, patterns)]
            errors.append(f"{shape} {content} {patterns}: {got} != brute-force {want}")
    return errors


# --- bijections ------------------------------------------------------------


def check_round_trip(rows, content, targets, source, image, back):
    """The image keeps the content and avoids the targets; the inverse gives the source back."""
    errors = []
    if len(image) != len(source) or any(not 1 <= r <= h for r, h in zip(image, heights(rows))):
        return [f"{source}: image {image} is not a filling of {rows}"]
    if row_content(len(rows), image) != tuple(content):
        errors.append(f"{source}: image {image} changes the content {content}")
    for pattern in targets:
        if contains(rows, image, pattern):
            errors.append(f"{source}: image {image} contains {word_text(pattern)}")
    if back != source:
        errors.append(f"{source}: inverse gives {back}")
    return errors


def check_distinct(sources, images):
    """Distinct inputs of one shape and content must have distinct images."""
    seen = {}
    errors = []
    for source, image in zip(sources, images):
        if seen.setdefault(image, source) != source:
            errors.append(f"{seen[image]} and {source} share the image {image}")
    return errors
