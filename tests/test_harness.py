import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from shapewilf import (
    BadComposition,
    CONTENTS,
    UNCONSTRAINED,
    POSITIVE_ROWS,
    CountRecord,
    Mismatch,
    ResultCache,
    ScanReport,
    check_equivalence,
    compositions,
    count_words,
    counted,
    direct_sum,
    enumeration,
    format_patterns,
    harness,
    iter_shapes,
    make_shape,
    reproduce_table,
    scan_conjecture1,
    scan_conjecture2,
    walk_shapes,
)

P231 = (2, 3, 1)
P312 = (3, 1, 2)
# The repeated-letter patterns of theorems 11 and 12, 11, and 1234, which is
# taller than most shapes in the bounds drawn below.
WALK_PATTERNS = [P231, P312, (2, 2, 1), (1, 2, 1), (2, 1, 2), (2, 1, 1), (1, 1), (1, 2, 3, 4)]
pattern_sets = st.lists(st.sampled_from(WALK_PATTERNS), min_size=1, max_size=3)
max_cols = st.integers(1, 5)
max_rows = st.integers(1, 4)


def test_iter_shapes_order_and_bounds():
    shapes = list(iter_shapes(3, 3))
    rows = [s.rows for s in shapes]
    assert len(rows) == len(set(rows)) == 19
    keys = [(sum(r), r) for r in rows]
    assert keys == sorted(keys)
    assert rows[0] == (1,)
    assert all(s.width <= 3 and s.n_rows <= 3 for s in shapes)


def test_generated_shapes_equal_checked_ones():
    # iter_shapes builds its shapes without FerrersShape's per-row checks
    shapes = list(iter_shapes(8, 6))
    assert len(shapes) == 3002
    for shape in shapes:
        checked = make_shape(shape.rows)
        assert type(shape.rows) is tuple and shape.rows == checked.rows
        assert type(shape.heights) is tuple and shape.heights == checked.heights
        assert shape == checked and hash(shape) == hash(checked)
        assert repr(shape) == repr(checked)


def test_reproduce_table_2_and_3_match_the_published_values():
    for table_id in (2, 3):
        report = reproduce_table(table_id)
        assert report.verdict == "equal", report.mismatches
        assert not report.mismatches


@pytest.mark.parametrize("table_id", [0, 5, 2.0, True, "2"])
def test_a_table_id_that_is_not_an_int_from_1_to_4_is_rejected(table_id):
    # 2.0 == 2 and True == 1, but neither names a fixture file
    with pytest.raises(ValueError, match="table id must be 1..4"):
        reproduce_table(table_id)


def test_published_table_1_has_one_anomalous_cell():
    # The published table prints 26 for (5,5,5,4) with content (1,2,1,1)
    # avoiding 231; the engine gives 25, and acceptance criterion 1 confirms
    # it with a subsequence-based recount of all 40 counts.  The fixture stays
    # faithful to the published table, so the reproduction reports exactly
    # this one mismatch.
    report = reproduce_table(1)
    assert report.verdict == "unequal"
    assert [(m.shape, m.content, m.a, m.b) for m in report.mismatches] == [
        ("5,5,5,4", "1,2,1,1", 25, 26)
    ]


@pytest.mark.parametrize("gamma", [(), (1,), (1, 2), (2, 1)], ids=["empty", "1", "12", "21"])
@pytest.mark.parametrize(
    "omega, sigma",
    [([P231, (2, 2, 1)], [P312, (2, 1, 2)]), ([P231, (1, 2, 1)], [P312, (2, 1, 1)])],
    ids=["theorem-11", "theorem-12"],
)
def test_theorems_hold_after_a_direct_sum_with_gamma(omega, sigma, gamma):
    # the extension of Stankova-West to words: x + gamma ~ y + gamma
    omega = [direct_sum(x, gamma) for x in omega]
    sigma = [direct_sum(y, gamma) for y in sigma]
    report = check_equivalence(omega, sigma, 7, 6)
    assert report.verdict == "equal" and not report.mismatches
    for n in range(1, 9):
        for m in range(1, 6):
            assert count_words(n, m, omega) == count_words(n, m, sigma), (n, m)


@pytest.mark.parametrize(
    "omega, sigma",
    [([P231, (2, 2, 1)], [P312, (2, 1, 2)]), ([P231, (1, 2, 1)], [P312, (2, 1, 1)])],
    ids=["theorem-11", "theorem-12"],
)
def test_theorems_hold_after_a_direct_sum_with_1_on_8_columns_and_7_rows(omega, sigma):
    # the test above on larger bounds: 56,280 (shape, content) cells, each
    # counted for both pattern sets
    omega = [direct_sum(x, (1,)) for x in omega]
    sigma = [direct_sum(y, (1,)) for y in sigma]
    report = check_equivalence(omega, sigma, 8, 7)
    assert (report.verdict, len(report.records)) == ("equal", 112_560)


def test_231_and_312_split_after_a_direct_sum_with_1():
    report = check_equivalence([direct_sum(P231, (1,))], [direct_sum(P312, (1,))], 7, 6)
    assert report.verdict == "unequal"
    assert len(report.mismatches) == 19
    first = report.mismatches[0]
    assert (first.shape, first.content, first.a, first.b) == ("7,7,7,7,4", "1,1,2,2,1", 630, 629)


def test_check_equivalence_splits_231_from_312():
    report = check_equivalence([P231], [P312], 6, 4)
    assert report.verdict == "unequal"
    first = report.mismatches[0]
    # the smallest splitting shape in scan order, 18 cells
    assert (first.shape, first.content, first.a, first.b) == ("5,5,5,3", "1,1,2,1", 23, 22)
    entries = {(m.shape, m.content): (m.a, m.b) for m in report.mismatches}
    assert entries[("5,5,5,4", "1,1,2,1")] == (25, 26)


def test_check_equivalence_is_symmetric():
    fwd = check_equivalence([P231], [P312], 6, 3)
    rev = check_equivalence([P312], [P231], 6, 3)
    assert fwd.verdict == rev.verdict
    assert [(m.shape, m.content, m.b, m.a) for m in fwd.mismatches] == [
        (m.shape, m.content, m.a, m.b) for m in rev.mismatches
    ]


def test_check_equivalence_12_vs_21():
    report = check_equivalence([(1, 2)], [(2, 1)], 4, 4)
    assert report.verdict == "equal"


def test_scan_conjecture1():
    small = scan_conjecture1(3, 3)
    assert small.verdict == "conjecture-consistent"
    assert not small.mismatches
    covering = scan_conjecture1(6, 4)
    assert covering.verdict == "conjecture-consistent"
    strict = {
        rec_a.to_json()["shape"]: (rec_a.count, rec_b.count)
        for rec_a, rec_b in covering.strict_inequalities()
    }
    assert strict["6,6,6,4"] == (425, 429)


def test_scan_conjecture2_finds_the_first_witness():
    report = scan_conjecture2((1,), 8, 5)
    assert report.verdict == "unequal"
    witness = report.mismatches[0]
    assert witness.shape == "7,7,7,7,7"
    assert (witness.a, witness.b) == (67853, 67854)
    assert "length 7, alphabet 5" in witness.note
    # everything before the witness was equal
    paired = list(zip(report.records[:-2:2], report.records[1:-2:2]))
    assert all(a.count == b.count for a, b in paired)


def test_scan_conjecture2_with_empty_tail_stays_equal():
    report = scan_conjecture2((), 5, 3)
    assert report.verdict == "equal"
    assert not report.mismatches


def test_scan_conjecture2_rejects_non_permutations():
    with pytest.raises(ValueError):
        scan_conjecture2((1, 1), 4, 3)


@pytest.mark.parametrize(
    "scan, bound",
    [
        (lambda: check_equivalence([P231], [P312], 2.5, 3), "max_cols"),
        (lambda: scan_conjecture1(3, 2.0), "max_rows"),
        (lambda: scan_conjecture2((1,), "4", 3), "max_length"),
    ],
    ids=["check-equivalence", "conjecture1", "conjecture2"],
)
def test_non_integer_scan_bounds_are_usage_errors(scan, bound):
    with pytest.raises(BadComposition, match=f"scan bound {bound} must be an integer"):
        scan()


def test_report_json_and_csv_shapes():
    report = reproduce_table(1)
    doc = report.to_json_dict()
    assert set(doc) == {"scope", "records", "mismatches", "verdict"}
    assert doc["records"][0] == {
        "shape": "5,5,4",
        "content": "2,2,1",
        "patterns": "231",
        "count": 18,
    }
    assert all(set(m) >= {"shape", "content", "a", "b"} for m in doc["mismatches"])
    csv_text = report.to_csv()
    assert "shape 5,5,4" in csv_text.splitlines()[0]
    flat = check_equivalence([(1, 2)], [(2, 1)], 2, 2).to_csv()
    assert flat.splitlines()[0] == "shape,content,patterns,count"


def test_table_1_records_are_the_published_counts_but_the_erratum():
    path = os.path.join(os.path.dirname(harness.__file__), "fixtures", "table1.json")
    with open(path, encoding="utf-8") as handle:
        cells = json.load(handle)["cells"]
    published = [count for cell in cells for count in (cell["a"], cell["b"])]
    erratum = next(2 * i for i, cell in enumerate(cells)
                   if (cell["shape"], cell["content"]) == ("5,5,5,4", "1,2,1,1"))
    published[erratum] = 25  # printed 26; see the erratum in acceptance criterion 1
    assert [record.count for record in reproduce_table(1).records] == published


def test_cache_makes_reports_reproducible(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with ResultCache(path) as cache:
        cold = reproduce_table(1, cache=cache)
    with ResultCache(path) as cache:
        warm = reproduce_table(1, cache=cache)
    assert warm.to_json() == cold.to_json()
    assert warm.to_csv() == cold.to_csv()
    # the cache file holds one record per distinct count
    lines = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(lines) == len({json.dumps(json.loads(l), sort_keys=True) for l in lines}) == 40


def test_scan_report_is_a_plain_document():
    report = ScanReport(scope="demo")
    assert report.to_json_dict() == {
        "scope": "demo",
        "records": [],
        "mismatches": [],
        "verdict": "equal",
    }


# --- the tree walk behind check_equivalence and scan_conjecture1 ----------


def per_cell_records(cells, pattern_sets):
    """The scan records counted one (shape, content) cell at a time."""
    return [
        counted(shape, content, patterns)
        for shape, content in cells
        for patterns in pattern_sets
    ]


@given(pattern_sets, pattern_sets, max_cols, max_rows)
@settings(max_examples=20, deadline=None)
def test_walked_equivalence_scan_matches_per_cell_counts(omega, sigma, cols, rows):
    cells = [
        (shape, content)
        for shape in iter_shapes(cols, rows)
        for content in compositions(shape.width, shape.n_rows)
    ]
    report = check_equivalence(omega, sigma, cols, rows)
    reference = per_cell_records(cells, (omega, sigma))
    assert report.records == reference
    assert [r.to_json() for r in report.records] == [r.to_json() for r in reference]


@given(max_cols, max_rows)
@settings(max_examples=20, deadline=None)
def test_walked_conjecture1_scan_matches_per_cell_counts(cols, rows):
    cells = [(shape, POSITIVE_ROWS) for shape in iter_shapes(cols, rows)]
    report = scan_conjecture1(cols, rows)
    reference = per_cell_records(cells, ((P231,), (P312,)))
    assert [r.to_json() for r in report.records] == [r.to_json() for r in reference]


def check_walk(patterns, cols, rows, regime) -> dict:
    """Walk the bounds, check every shape's histogram against per-cell counts, return them."""
    walked = list(walk_shapes(patterns, cols, rows, regime))
    histograms = dict(walked)
    shapes = list(iter_shapes(cols, rows))
    assert len(walked) == len(histograms) == len(shapes)
    for shape in shapes:
        histogram = histograms[shape.heights]
        if regime == POSITIVE_ROWS:
            contents = [POSITIVE_ROWS]
        else:
            contents = list(compositions(shape.width, shape.n_rows))
        assert set(histogram) <= set(contents)
        assert 0 not in histogram.values()
        for content in contents:
            expected = counted(shape, content, patterns).count
            assert histogram.get(content, 0) == expected, (cols, rows, shape, content)
    return histograms


@given(pattern_sets, max_cols, max_rows, st.sampled_from([CONTENTS, POSITIVE_ROWS]))
@settings(max_examples=20, deadline=None)
def test_walk_yields_every_shape_once_with_per_cell_counts(patterns, cols, rows, regime):
    check_walk(patterns, cols, rows, regime)


@pytest.mark.parametrize("cols", [3, 4, 7, 8, 15, 16])
def test_walks_at_the_regime_field_width_boundaries(cols):
    # With CONTENTS each row's count is a field of cols.bit_length() bits, so
    # these bounds put the largest count, cols in a one-row shape, just below
    # and at a power of two; a field one bit short carries into its neighbour.
    rows = 3 if cols <= 8 else 2
    for patterns in [(), (P231,)]:
        histograms = check_walk(patterns, cols, rows, CONTENTS)
        assert histograms[(1,) * cols] == {(cols,): 1}
        check_walk(patterns, cols, rows, POSITIVE_ROWS)


def test_walks_share_no_moves_across_calls():
    # 5 x 4 and 6 x 4 pack their states alike, but a state's moves depend on
    # the columns left, so moves kept from one walk would miscount the next.
    for cols in (5, 6, 5):
        for regime in (CONTENTS, POSITIVE_ROWS):
            check_walk([P231, (2, 2, 1)], cols, 4, regime)


def test_walk_rejects_an_unknown_regime():
    with pytest.raises(ValueError):
        list(walk_shapes([P231], 3, 3, "unconstrained"))


@pytest.mark.parametrize(
    "cols, rows, bound, message",
    [
        (2.5, 2, "max_cols", "must be an integer"),
        (3, 2.0, "max_rows", "must be an integer"),
        (0, 2, "max_cols", "must be positive"),
    ],
)
def test_walk_rejects_bounds_as_the_scans_do(cols, rows, bound, message):
    with pytest.raises(BadComposition, match=f"scan bound {bound} {message}"):
        list(walk_shapes([P231], cols, rows, CONTENTS))


def test_scans_report_cached_counts_and_count_the_rest(tmp_path):
    # A theorem pair, and a pair whose counts differ, so that a count taken
    # from the other pattern set's walk would show.
    for case, (omega, sigma) in enumerate(
        [([P231, (2, 2, 1)], [P312, (2, 1, 2)]), ([P231], [(1, 1)])]
    ):
        path = tmp_path / f"cache{case}.jsonl"
        cold = check_equivalence(omega, sigma, 4, 3)
        # Every third record is cached with a wrong count, so a reported wrong
        # count shows that the cached value won over the walk.
        planted = [
            CountRecord(r.shape, r.content, r.patterns, r.count + 1000) for r in cold.records[::3]
        ]
        with ResultCache(str(path)) as cache:
            for record in planted:
                cache.add(record.key(), record.count)
        with ResultCache(str(path)) as cache:
            mixed = check_equivalence(omega, sigma, 4, 3, cache=cache)
        assert [r.count for r in mixed.records] == [
            r.count + 1000 if i % 3 == 0 else r.count for i, r in enumerate(cold.records)
        ]
        assert mixed.verdict == "unequal"
        # the counted records follow the planted ones in the file, in report order
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [r.to_json() for r in planted] + [
            r.to_json() for i, r in enumerate(cold.records) if i % 3
        ]


@pytest.mark.parametrize(
    "omega, sigma",
    [([P231], [(1, 1)]), ([P231, (2, 2, 1)], [P312, (2, 1, 2)]), ([(1, 2)], [(2, 1), (1, 1)])],
)
def test_scans_through_a_cold_cache_match_scans_without_one(tmp_path, omega, sigma):
    # _scan builds records on one path without a cache and on another with
    # one; both must give the same reports, and the cache every record.
    for cols, rows in [(1, 6), (4, 3), (5, 4), (6, 2)]:
        path = tmp_path / f"cache{cols}x{rows}.jsonl"
        with ResultCache(str(path)) as cache:
            cached = [
                check_equivalence(omega, sigma, cols, rows, cache=cache),
                scan_conjecture1(cols, rows, cache=cache),
            ]
        plain = [check_equivalence(omega, sigma, cols, rows), scan_conjecture1(cols, rows)]
        assert [r.to_json() for r in cached] == [r.to_json() for r in plain]
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [r.to_json() for report in plain for r in report.records]


def test_a_warm_cache_never_enters_the_walk(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    omega, sigma = [P231, (1, 2, 1)], [P312, (2, 1, 1)]
    with ResultCache(path) as cache:
        cold_equivalence = check_equivalence(omega, sigma, 5, 4, cache=cache)
        cold_conjecture = scan_conjecture1(5, 4, cache=cache)
    size = (tmp_path / "cache.jsonl").stat().st_size

    def no_walk(*args, **kwargs):
        raise AssertionError("walked although every count was cached")

    monkeypatch.setattr(harness, "walk_shapes", no_walk)
    with ResultCache(path) as cache:
        warm_equivalence = check_equivalence(omega, sigma, 5, 4, cache=cache)
        warm_conjecture = scan_conjecture1(5, 4, cache=cache)
    assert warm_equivalence.to_json() == cold_equivalence.to_json()
    assert warm_conjecture.to_json() == cold_conjecture.to_json()
    assert (tmp_path / "cache.jsonl").stat().st_size == size
    with pytest.raises(AssertionError):
        check_equivalence(omega, sigma, 5, 4)  # without the cache it must walk


def test_scans_without_a_cache_build_no_cache_key(monkeypatch):
    def no_key(*cell):
        raise AssertionError("built a cache key without a cache")

    monkeypatch.setattr(enumeration, "_record_key", no_key)
    assert check_equivalence([P231, (2, 2, 1)], [P312, (2, 1, 2)], 4, 3).verdict == "equal"
    assert scan_conjecture1(4, 3).verdict == "conjecture-consistent"
    assert scan_conjecture2((1,), 4, 3).verdict == "equal"
    assert counted(make_shape((3, 2)), (2, 1), [P231]).count == 2


def test_a_walk_builds_its_trackers_once(monkeypatch):
    built = []

    class Counted(enumeration._Trackers):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(enumeration, "_Trackers", Counted)
    for regime in (CONTENTS, POSITIVE_ROWS):
        built.clear()
        walked = list(walk_shapes([P231, (2, 2, 1)], 5, 4, regime))
        assert len(walked) == len(list(iter_shapes(5, 4)))
        assert len(built) == 1


def test_scans_of_very_wide_shapes_do_not_recurse():
    # 1500 one-row shapes: one filling each, avoiding every pattern with two letters
    report = scan_conjecture1(1500, 1)
    assert report.verdict == "conjecture-consistent"
    assert len(report.records) == 3000 and {r.count for r in report.records} == {1}
    report = check_equivalence([P231, (2, 2, 1)], [P312, (2, 1, 2)], 1500, 1)
    assert report.verdict == "equal"
    assert len(report.records) == 3000 and {r.count for r in report.records} == {1}


def test_scans_of_very_tall_bounds_do_not_recurse():
    assert len(list(iter_shapes(1, 1200))) == 1200
    # one-column shapes: only the one-row shape has a filling with no empty row
    report = scan_conjecture1(1, 1200)
    assert report.verdict == "conjecture-consistent"
    assert [r.count for r in report.records] == [1, 1] + [0] * 2398
    report = check_equivalence([P231, (2, 2, 1)], [P312, (2, 1, 2)], 1, 1200)
    assert report.verdict == "equal"
    assert [(r.shape.rows, r.count) for r in report.records] == [((1,), 1), ((1,), 1)]


@pytest.mark.parametrize(
    "omega, sigma",
    [([P231, (2, 2, 1)], [P312, (2, 1, 2)]), ([P231, (1, 2, 1)], [P312, (2, 1, 1)])],
)
def test_theorem_pairs_are_equal_on_every_shape_up_to_7_by_5(omega, sigma):
    start = time.perf_counter()
    report = check_equivalence(omega, sigma, 7, 5)
    elapsed = time.perf_counter() - start
    assert report.verdict == "equal"
    assert len(report.records) == 14250
    print(f"check_equivalence 7x5: {elapsed:.2f} s")


def test_conjecture1_holds_on_every_shape_up_to_9_by_5():
    start = time.perf_counter()
    report = scan_conjecture1(9, 5)
    elapsed = time.perf_counter() - start
    assert report.verdict == "conjecture-consistent"
    assert len(report.records) == 4002
    print(f"scan_conjecture1 9x5: {elapsed:.2f} s")


# --- the chained column pass behind scan_conjecture2 ----------------------


BETAS = [(), (1,), (1, 2), (2, 1)]


def per_rectangle_conjecture2(beta, max_length, max_alphabet, count):
    """``scan_conjecture2`` as one ``count(rectangle, pattern)`` per rectangle, as its oracle."""
    x, y = direct_sum(P231, beta), direct_sum(P312, beta)
    report = ScanReport(
        scope=f"conjecture2 beta={format_patterns((beta,)) if beta else '(empty)'} "
        f"n<={max_length} m<={max_alphabet}"
    )
    for n in range(1, max_length + 1):
        for m in range(1, max_alphabet + 1):
            rectangle = make_shape((n,) * m)
            rec_a, rec_b = count(rectangle, x), count(rectangle, y)
            report.records += [rec_a, rec_b]
            if rec_a.count != rec_b.count:
                shape = ",".join(map(str, rectangle.rows))
                note = f"first witness at length {n}, alphabet {m}"
                report.mismatches.append(
                    Mismatch(shape, UNCONSTRAINED, rec_a.count, rec_b.count, note)
                )
                report.verdict = "unequal"
                return report
    return report


@pytest.mark.parametrize("beta", BETAS)
def test_chained_conjecture2_scan_matches_per_rectangle_counts(beta):
    memo = {}

    def count(rectangle, pattern):
        key = (rectangle, pattern)
        if key not in memo:
            memo[key] = counted(rectangle, UNCONSTRAINED, (pattern,))
        return memo[key]

    for max_length in range(1, 8):
        for max_alphabet in range(1, 6):
            report = scan_conjecture2(beta, max_length, max_alphabet)
            reference = per_rectangle_conjecture2(beta, max_length, max_alphabet, count)
            assert report.to_json() == reference.to_json(), (max_length, max_alphabet)
    if beta == (1,):  # the 7x5 scan stops at the one witness in the grid
        assert (report.verdict, len(report.records)) == ("unequal", 70)
        assert (report.mismatches[0].a, report.mismatches[0].b) == (67853, 67854)


def test_chained_conjecture2_scan_fills_a_cache_like_the_per_rectangle_loop(tmp_path):
    chained, looped = str(tmp_path / "chained.jsonl"), str(tmp_path / "looped.jsonl")
    with ResultCache(chained) as cache:
        cold = scan_conjecture2((2, 1), 7, 5, cache=cache)
    with ResultCache(looped) as cache:
        reference = per_rectangle_conjecture2(
            (2, 1), 7, 5, lambda rectangle, p: counted(rectangle, UNCONSTRAINED, (p,), cache=cache)
        )
    assert cold.to_json() == reference.to_json()
    assert (tmp_path / "chained.jsonl").read_bytes() == (tmp_path / "looped.jsonl").read_bytes()


def test_chained_conjecture2_scan_reports_cached_counts_and_counts_the_rest(tmp_path):
    path = tmp_path / "cache.jsonl"
    cold = scan_conjecture2((1,), 6, 5)
    assert cold.verdict == "equal"
    # Every third record up to length 4 is cached with its true count, so the
    # column passes must step over those lengths; the count of 231+1 on the
    # 5 x 3 rectangle is planted wrong and must end the scan as it stands.
    stop = cold.records.index(next(r for r in cold.records if r.shape.rows == (5, 5, 5)))
    planted = [r for r in cold.records[:stop:3] if r.shape.width <= 4]
    wrong = cold.records[stop]
    planted.append(CountRecord(wrong.shape, wrong.content, wrong.patterns, wrong.count + 1000))
    with ResultCache(str(path)) as cache:
        for record in planted:
            cache.add(record.key(), record.count)
    with ResultCache(str(path)) as cache:
        mixed = scan_conjecture2((1,), 6, 5, cache=cache)
    assert mixed.records == cold.records[:stop] + [planted[-1], cold.records[stop + 1]]
    assert (mixed.verdict, mixed.mismatches[0].a) == ("unequal", wrong.count + 1000)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [r.to_json() for r in planted] + [
        r.to_json() for r in mixed.records if r not in planted
    ]


def test_a_warm_cache_never_enters_the_column_passes(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    with ResultCache(path) as cache:
        cold = [scan_conjecture2(beta, 7, 5, cache=cache) for beta in BETAS]
    size = (tmp_path / "cache.jsonl").stat().st_size

    def no_pass(*args, **kwargs):
        raise AssertionError("counted although every count was cached")

    monkeypatch.setattr(harness, "column_states", no_pass)
    with ResultCache(path) as cache:
        warm = [scan_conjecture2(beta, 7, 5, cache=cache) for beta in BETAS]
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]
    assert (tmp_path / "cache.jsonl").stat().st_size == size
    with pytest.raises(AssertionError):
        scan_conjecture2((), 3, 2)  # without the cache it must count
