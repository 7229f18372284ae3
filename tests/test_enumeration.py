import json
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import shapewilf
from shapewilf import (
    BadComposition,
    CorruptCache,
    InvalidPattern,
    POSITIVE_ROWS,
    ResultCache,
    UNCONSTRAINED,
    brute_count_fillings,
    compositions,
    count_all_fillings,
    count_fillings,
    count_positive_fillings,
    count_words,
    count_words_direct,
    counted,
    enumerate_fillings,
    make_composition,
    make_shape,
    parse_shape,
)

P231 = (2, 3, 1)
P312 = (3, 1, 2)


@st.composite
def shapes(draw, max_cols=5, max_rows=4):
    n_rows = draw(st.integers(1, max_rows))
    rows = []
    cap = draw(st.integers(1, max_cols))
    for _ in range(n_rows):
        cap = draw(st.integers(1, cap))
        rows.append(cap)
    return make_shape(rows)


def test_fixed_content_counts():
    s554 = parse_shape("5,5,4")
    assert count_fillings(s554, (2, 2, 1), [P231]) == 18
    assert count_fillings(s554, (1, 1, 3), [P312]) == 8
    s5554 = parse_shape("5,5,5,4")
    assert count_fillings(s5554, (1, 1, 2, 1), [P231]) == 25
    assert count_fillings(s5554, (1, 1, 2, 1), [P312]) == 26
    # the published table 1 prints 26 here; acceptance criterion 1 recounts
    # this cell by word containment (tests/test_acceptance.py)
    assert count_fillings(s5554, (1, 2, 1, 1), [P231]) == 25
    assert count_fillings(s5554, (1, 2, 1, 1), [P312]) == 25
    assert count_fillings(make_shape((2, 2)), (1, 1), []) == 2


def test_fixed_content_validation():
    shape = parse_shape("5,5,4")
    with pytest.raises(BadComposition):
        count_fillings(shape, (2, 2), [P231])  # wrong number of parts
    with pytest.raises(BadComposition):
        count_fillings(shape, (2, 2, 2), [P231])  # wrong sum
    with pytest.raises(BadComposition):
        count_fillings(shape, (3, 2, 0), [P231])  # zero part


@pytest.mark.parametrize(
    "content", [POSITIVE_ROWS, ("a", 1), (1.0, 1.0)], ids=["regime-name", "letter", "float"]
)
def test_non_integer_parts_are_bad_compositions(content):
    # A regime name where a composition belongs, or any non-integer part, is a
    # usage error like a zero part, not a TypeError from comparing the parts.
    with pytest.raises(BadComposition, match="positive integers"):
        make_composition(content)
    with pytest.raises(BadComposition):
        count_fillings(make_shape((2, 2)), content, [(2, 1)])


def test_unconstrained_counts():
    assert count_all_fillings(make_shape((2, 1)), []) == 2
    # rows may stay empty here, unlike the positive regime below
    assert count_all_fillings(parse_shape("6,6,6,4"), [P231]) == 1548
    assert count_all_fillings(parse_shape("6,6,6,4"), [P312]) == 1552


@given(shapes())
def test_empty_pattern_set_counts_every_column_choice(shape):
    expected = 1
    for h in shape.heights:
        expected *= h
    assert count_all_fillings(shape, []) == expected


def test_positive_row_counts():
    s5554 = parse_shape("5,5,5,4")
    assert count_positive_fillings(s5554, [P231]) == 96
    assert count_positive_fillings(s5554, [P312]) == 97
    assert count_positive_fillings(parse_shape("6,6,6,4"), [P231]) == 425
    assert count_positive_fillings(parse_shape("6,6,6,4"), [P312]) == 429
    assert count_positive_fillings(make_shape((1,)), []) == 1
    # more rows than columns leaves nothing to count
    assert count_positive_fillings(make_shape((2, 2, 2)), []) == 0


@given(shapes(max_cols=4, max_rows=3), st.sampled_from([(), (P231,), (P312, (2, 1, 2))]))
@settings(deadline=None)
def test_counts_add_up_across_contents(shape, patterns):
    per_content = [
        count_fillings(shape, a, patterns)
        for a in compositions(shape.width, shape.n_rows, positive=True)
    ]
    assert sum(per_content) == count_positive_fillings(shape, patterns)
    # unconstrained = sum over all content vectors, including those with 0's
    by_vector = sum(
        brute_count_fillings_for_vector(shape, vector, patterns)
        for vector in compositions(shape.width, shape.n_rows, positive=False)
    )
    assert by_vector == count_all_fillings(shape, patterns)


def brute_count_fillings_for_vector(shape, vector, patterns):
    from shapewilf import Filling, avoids_all

    n = 0
    for cols in product(*(range(1, h + 1) for h in shape.heights)):
        counts = [0] * shape.n_rows
        for row in cols:
            counts[row - 1] += 1
        if tuple(counts) == tuple(vector) and avoids_all(Filling(shape, cols), patterns):
            n += 1
    return n


def test_word_counts():
    assert count_words(3, 1, [(1, 2)]) == 1
    assert count_words(5, 1, [(1, 2)]) == 1
    for n, m in [(4, 3), (5, 2), (3, 4)]:
        for patterns in ([(1, 2, 3)], [P231], [(2, 1, 2)], [P231, (2, 2, 1)]):
            assert count_words(n, m, patterns) == count_words_direct(n, m, patterns)
    with pytest.raises(BadComposition):
        count_words(0, 3, [])


def _reverse(p):
    return tuple(reversed(p))


def _complement(p):
    k = max(p)
    return tuple(k + 1 - v for v in p)


@pytest.mark.parametrize("pattern", [P231, (2, 3, 1, 4), (1, 2, 2), (2, 1, 2)])
def test_word_counts_respect_reversal_and_complementation(pattern):
    for n, m in [(5, 3), (4, 4)]:
        base = count_words(n, m, [pattern])
        assert count_words(n, m, [_reverse(pattern)]) == base
        assert count_words(n, m, [_complement(pattern)]) == base
        assert count_words(n, m, [_reverse(_complement(pattern))]) == base


def test_enumerate_fillings():
    only = list(enumerate_fillings(make_shape((2, 2)), [(1, 2)], content=(1, 1)))
    assert [f.col_to_row for f in only] == [(2, 1)]
    stream = list(enumerate_fillings(parse_shape("5,5,4"), [P231], content=(2, 2, 1)))
    assert len(stream) == 18
    cols = [f.col_to_row for f in stream]
    assert cols == sorted(cols)  # deterministic lexicographic order
    assert len(set(cols)) == 18
    assert [f.col_to_row for f in enumerate_fillings(make_shape((1,)), [])] == [(1,)]


def test_positive_rows_validate_patterns_before_finding_no_filling():
    # two rows, one column: no filling has a 1 in each row, but (1, 3) is no pattern
    with pytest.raises(InvalidPattern):
        count_positive_fillings(make_shape((1, 1)), [(1, 3)])
    with pytest.raises(InvalidPattern):
        list(enumerate_fillings(make_shape((1, 1)), [(1, 3)], POSITIVE_ROWS))


def test_contents_that_cannot_fit_build_no_trackers(monkeypatch):
    def no_trackers(*args):
        raise AssertionError("trackers built for a content that cannot fit")

    monkeypatch.setattr(shapewilf.enumeration, "_Trackers", no_trackers)
    tall = make_shape((2,) * 1200)  # C(1200, 2) trackers for 21
    assert count_positive_fillings(tall, [(2, 1)]) == 0
    assert list(enumerate_fillings(tall, [(2, 1)], POSITIVE_ROWS)) == []
    # rows 2 and 3 both need their 1 in column 1, the only column they reach
    thin = make_shape((3, 1, 1))
    assert count_fillings(thin, (1, 1, 1), [(2, 1)]) == 0
    assert brute_count_fillings(thin, [(2, 1)], (1, 1, 1)) == 0


def test_enumerate_streams_very_wide_shapes_without_recursing():
    # the {1,2}-words of length 1200 avoiding 21 are 1^a 2^b, a = 0..1200
    stream = enumerate_fillings(make_shape((1200, 1200)), [(2, 1)])
    first = next(stream)
    assert first.col_to_row == (1,) * 1200
    count = 1
    for filling in stream:
        count += 1
    assert count == 1201
    assert filling.col_to_row == (2,) * 1200


def test_enumerate_matches_counts_in_every_regime():
    shape = parse_shape("4,4,3")
    patterns = [P231, (2, 1, 2)]
    assert len(list(enumerate_fillings(shape, patterns))) == count_all_fillings(shape, patterns)
    assert len(list(enumerate_fillings(shape, patterns, POSITIVE_ROWS))) == (
        count_positive_fillings(shape, patterns)
    )
    for a in compositions(shape.width, shape.n_rows):
        assert len(list(enumerate_fillings(shape, patterns, content=a))) == (
            count_fillings(shape, a, patterns)
        )


def test_compositions():
    assert list(compositions(5, 3)) == [
        (1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1),
    ]
    assert len(list(compositions(6, 4))) == 10
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(2, 3)) == []  # too many positive parts
    assert len(list(compositions(3, 2, positive=False))) == 4
    with pytest.raises(BadComposition):
        list(compositions(3, 0))


def recursive_compositions(total, parts, positive=True):
    """The recursive generator ``compositions`` replaced, kept as its oracle."""
    lo = 1 if positive else 0

    def rec(prefix, left, k):
        if k == 1:
            if left >= lo:
                yield prefix + (left,)
            return
        for v in range(lo, left - lo * (k - 1) + 1):
            yield from rec(prefix + (v,), left - v, k - 1)

    yield from rec((), total, parts)


@pytest.mark.parametrize("positive", [True, False])
def test_compositions_match_the_recursive_generator(positive):
    for total in range(-1, 10):
        for parts in range(1, 7):
            assert list(compositions(total, parts, positive)) == list(
                recursive_compositions(total, parts, positive)
            ), (total, parts)


def test_compositions_with_many_parts_do_not_recurse():
    assert next(compositions(1500, 1500)) == (1,) * 1500
    assert next(compositions(0, 1500, positive=False)) == (0,) * 1500


@pytest.mark.parametrize(
    "patterns",
    [[P231], [P312], [(2, 2, 1)], [(1, 2, 1)], [P231, (2, 2, 1)], [(1, 2)], [(2, 1), (2, 1, 2)]],
)
def test_engine_matches_brute_force(patterns):
    for rows in [(3, 2), (4, 4, 2), (5, 3, 3, 1), (4, 4, 4, 4)]:
        shape = make_shape(rows)
        assert count_all_fillings(shape, patterns) == brute_count_fillings(shape, patterns)
        assert count_positive_fillings(shape, patterns) == brute_count_fillings(
            shape, patterns, POSITIVE_ROWS
        )


def test_long_words_need_no_recursion():
    # nondecreasing words over {1, 2}: one per position of the first 2
    assert count_words(2000, 2, [(2, 1)]) == 2001


def test_import_does_not_load_multiprocessing():
    probe = "import sys, shapewilf; print('multiprocessing' in sys.modules)"
    assert run_python(probe).strip() == "False"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, shapewilf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_python(probe).strip() == "[]"


def test_importing_the_cli_loads_no_importlib_resources():
    # Since Python 3.12 importlib.resources imports inspect. Site hooks (.pth
    # files) may load it at start-up, so look with them switched off.
    probe = "import sys, shapewilf.cli; print('importlib.resources' in sys.modules)"
    assert run_python(probe, flags=["-S"]).strip() == "False"


# Repeated letters, several patterns at once, and patterns with more letters
# than small shapes have rows.
PATTERN_SETS = [
    (), (P231,), (P312,), ((2, 2, 1),), ((1, 2, 1),), ((2, 1, 2),), ((2, 1, 1),),
    ((1, 2),), ((1, 1),), ((1, 2, 3, 4),), ((2, 1, 3, 4),), (P231, (2, 2, 1)),
    (P312, (2, 1, 2)), (P231, (1, 2, 1)), (P312, (2, 1, 1)), ((2, 1), (1, 2, 3)),
    ((1, 2, 3), (3, 2, 1), (1, 1, 1)),
]


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
        lambda rows: make_shape(sorted(rows, reverse=True))
    ),
    st.sampled_from(PATTERN_SETS),
    st.data(),
)
@settings(deadline=None, max_examples=100)
def test_engine_matches_brute_force_on_random_shapes(shape, patterns, data):
    assert count_all_fillings(shape, patterns) == brute_count_fillings(shape, patterns)
    assert count_positive_fillings(shape, patterns) == brute_count_fillings(
        shape, patterns, POSITIVE_ROWS
    )
    contents = list(compositions(shape.width, shape.n_rows))
    if contents:
        content = data.draw(st.sampled_from(contents))
        assert count_fillings(shape, content, patterns) == brute_count_fillings(
            shape, patterns, content=content
        )


@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from(PATTERN_SETS))
@settings(deadline=None, max_examples=80)
def test_word_counts_match_direct_count(n, m, patterns):
    assert count_words(n, m, patterns) == count_words_direct(n, m, patterns)


def test_counts_match_the_published_table_and_the_direct_word_count():
    shape = parse_shape("6,6,6,4")
    assert count_positive_fillings(shape, [P231]) == 425  # table 4
    assert count_words(6, 4, [(2, 3, 1, 4)]) == count_words_direct(6, 4, [(2, 3, 1, 4)])


def test_result_cache(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = ResultCache(str(path))
    shape = parse_shape("5,5,4")
    record = counted(shape, (2, 2, 1), [P231], cache=cache)
    assert record.count == 18
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [{"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18}]
    # warm lookups do not append again, across regimes and instances
    counted(shape, (2, 2, 1), [P231], cache=cache)
    counted(shape, UNCONSTRAINED, [P231], cache=ResultCache(str(path)))
    counted(shape, POSITIVE_ROWS, [P231], cache=ResultCache(str(path)))
    reloaded = ResultCache(str(path))
    assert reloaded.get(("5,5,4", "2,2,1", "231")) == 18
    assert len(path.read_text().splitlines()) == 3


def run_python(code, *args, flags=()):
    """Run ``python flags -c code args`` with this shapewilf importable; returns its stdout."""
    src = os.path.dirname(os.path.dirname(shapewilf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout


def test_cache_records_written_by_another_process_read_back(tmp_path):
    path = tmp_path / "counts.jsonl"
    writer = (
        "import sys\n"
        "from shapewilf import ResultCache, counted, parse_shape\n"
        "with ResultCache(sys.argv[1]) as cache:\n"
        "    for content in [(2, 2, 1), (1, 1, 3), 'positive-rows']:\n"
        "        counted(parse_shape('5,5,4'), content, [(2, 3, 1)], cache=cache)\n"
    )
    run_python(writer, str(path))
    fresh = ResultCache(str(path))
    assert fresh.get(("5,5,4", "2,2,1", "231")) == 18
    assert fresh.get(("5,5,4", "1,1,3", "231")) == count_fillings(parse_shape("5,5,4"), (1, 1, 3), [P231])
    assert fresh.get(("5,5,4", "positive-rows", "231")) == 82
    assert len(path.read_text().splitlines()) == 3


def test_cache_records_are_whole_lines_before_close(tmp_path):
    path = tmp_path / "counts.jsonl"
    with ResultCache(str(path)) as cache:
        counted(parse_shape("5,5,4"), (2, 2, 1), [P231], cache=cache)
        assert ResultCache(str(path)).get(("5,5,4", "2,2,1", "231")) == 18
        counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache)
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


def _torn_cache(path):
    """A two-record cache whose last line was cut short while being appended."""
    shape = parse_shape("5,5,4")
    with ResultCache(str(path)) as cache:
        counted(shape, (2, 2, 1), [P231], cache=cache)
        counted(shape, (1, 1, 3), [P312], cache=cache)
    whole, last = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(whole + last[: len(last) // 2])
    return whole


def test_cache_skips_a_torn_last_line_and_cuts_it_off(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    whole = _torn_cache(path)
    with ResultCache(str(path)) as cache:
        assert "skipped torn last line 2" in capsys.readouterr().err
        assert path.read_bytes() == whole
        assert cache.get(("5,5,4", "2,2,1", "231")) == 18
        assert cache.get(("5,5,4", "1,1,3", "312")) is None
        assert counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache).count == 8
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


def test_cache_keeps_a_whole_last_record_without_its_newline(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    path.write_text(json.dumps({"shape": "5,5,4", "content": "2,2,1", "patterns": "231",
                                "count": 18}))
    with ResultCache(str(path)) as cache:
        assert cache.get(("5,5,4", "2,2,1", "231")) == 18
        counted(parse_shape("5,5,4"), (1, 1, 3), [P312], cache=cache)
    assert capsys.readouterr().err == ""
    assert [json.loads(line)["count"] for line in path.read_text().splitlines()] == [18, 8]


@pytest.mark.parametrize(
    "bad_line",
    ['{"shape": "5,5,4", "content": "2,2', '{"shape": "5,5,4"}', '[1, 2]',
     '{"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": "18"}'],
)
def test_cache_rejects_a_bad_line_before_the_last(tmp_path, bad_line):
    path = tmp_path / "counts.jsonl"
    good = json.dumps({"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18})
    text = f"{good}\n{bad_line}\n{good}\n"
    path.write_text(text)
    with pytest.raises(CorruptCache, match="line 2"):
        ResultCache(str(path))
    assert path.read_text() == text  # a damaged cache is reported, not repaired


def test_counted_dispatches_regimes():
    shape = parse_shape("5,5,5,4")
    assert counted(shape, UNCONSTRAINED, [P231]).count == count_all_fillings(shape, [P231])
    assert counted(shape, POSITIVE_ROWS, [P231]).count == 96
    assert counted(shape, (1, 1, 2, 1), [P312]).count == 26


def test_parse_content_inverts_content_text():
    from shapewilf.enumeration import content_text, parse_content

    for content in (UNCONSTRAINED, POSITIVE_ROWS, (2, 2, 1), (1,)):
        assert parse_content(content_text(content)) == content
    assert parse_content("all") == UNCONSTRAINED
    assert parse_content("positive") == POSITIVE_ROWS
    with pytest.raises(BadComposition):
        parse_content("2,0,1")
