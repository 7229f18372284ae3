import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from shapewilf import (
    CONTENTS,
    POSITIVE_ROWS,
    CountRecord,
    ResultCache,
    ScanReport,
    check_equivalence,
    compositions,
    counted,
    harness,
    iter_shapes,
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


def test_reproduce_table_2_and_3_match_the_published_values():
    for table_id in (2, 3):
        report = reproduce_table(table_id)
        assert report.verdict == "equal", report.mismatches
        assert not report.mismatches


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


def test_check_equivalence_of_the_merged_pattern_pairs():
    report = check_equivalence([P231, (2, 2, 1)], [P312, (2, 1, 2)], 5, 4)
    assert report.verdict == "equal"
    assert not report.mismatches
    report = check_equivalence([P231, (1, 2, 1)], [P312, (2, 1, 1)], 4, 4)
    assert report.verdict == "equal"


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


def test_reports_are_independent_of_worker_count():
    assert reproduce_table(1, jobs=2).to_json() == reproduce_table(1).to_json()


def test_cache_makes_reports_reproducible(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cold = reproduce_table(1, cache=ResultCache(path))
    warm = reproduce_table(1, cache=ResultCache(path))
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


@given(pattern_sets, max_cols, max_rows, st.sampled_from([CONTENTS, POSITIVE_ROWS]))
@settings(max_examples=20, deadline=None)
def test_walk_yields_every_shape_once_with_per_cell_counts(patterns, cols, rows, regime):
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
            assert histogram.get(content, 0) == counted(shape, content, patterns).count


def test_walk_rejects_an_unknown_regime():
    with pytest.raises(ValueError):
        list(walk_shapes([P231], 3, 3, "unconstrained"))


def test_scans_report_cached_counts_and_count_the_rest(tmp_path):
    path = tmp_path / "cache.jsonl"
    omega, sigma = [P231, (2, 2, 1)], [P312, (2, 1, 2)]
    cold = check_equivalence(omega, sigma, 4, 3)
    # Every third record is cached with a wrong count, so a reported wrong
    # count shows that the cached value won over the walk.
    planted = [
        CountRecord(r.shape, r.content, r.patterns, r.count + 1000) for r in cold.records[::3]
    ]
    with ResultCache(str(path)) as cache:
        for record in planted:
            cache.add(record)
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
