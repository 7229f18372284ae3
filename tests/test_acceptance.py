"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  All comparisons are exact integer equality.
"""

import json
import time
from importlib import resources
from itertools import combinations, product

from shapewilf import (
    Filling,
    FullRookPlacement,
    VARIANTS,
    alpha,
    alpha_inverse,
    blowup,
    border_path,
    compositions,
    contains,
    count_all_fillings,
    count_fillings,
    count_positive_fillings,
    count_words,
    enumerate_fillings,
    filling_content,
    i_sequence,
    iter_shapes,
    n_sequence,
    parse_composition,
    parse_shape,
    parse_word,
    reproduce_table,
)
from shapewilf.bijection import Direction, P121, P211, P212, P221, P231, P312
from shapewilf.enumeration import _cache_key
from oracles import avoids_all, word_contains
from worked_example import CHAIN_SEQ, CONTENT, FILLING, FLIPPED_SEQ, IMAGE_FILLING, SHAPE


def _line(criterion, ok, elapsed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}",
          flush=True)


# Published table 1 misprints one count, keyed (shape, content, pattern) and
# mapped to (printed, recounted).  The 48 fillings of that cell are the
# arrangements of the letters 1,2,2,3,4 with the 4 kept out of column 5 (row 4
# has length 4); 25 of them avoid 231 under the containment rule of
# shapewilf.matcher (the window's top-right cell lies in the shape).  That rule
# reproduces the other 39 table-1 counts and tables 2-4, and no convention
# tried that fits them gives 26 here.  The fixture keeps the printed value.
TABLE_1_ERRATA = {("5,5,5,4", "1,2,1,1", "231"): (26, 25)}


def _recount_by_subsequences(rows, content, pattern):
    """Avoiders of one pattern with the given content, by word containment alone.

    Shares no code with the counting engine or ``contains``: a filling
    contains the pattern iff, for some row t, the letters <= t among its
    first ``rows[t-1]`` columns form a word that contains the pattern.
    """
    heights = [sum(1 for length in rows if length > c) for c in range(rows[0])]
    total = 0
    for word in product(*(range(1, h + 1) for h in heights)):
        if any(word.count(row) != a for row, a in enumerate(content, start=1)):
            continue
        if not any(
            word_contains([v for v in word[: rows[t - 1]] if v <= t], pattern)
            for t in range(1, len(rows) + 1)
        ):
            total += 1
    return total


def test_criterion_1_table_1_reproduction():
    start = time.time()
    fixture = json.loads(
        resources.files("shapewilf.fixtures").joinpath("table1.json").read_text()
    )
    published = {}
    for cell in fixture["cells"]:
        published[(cell["shape"], cell["content"], fixture["pattern_a"])] = cell["a"]
        published[(cell["shape"], cell["content"], fixture["pattern_b"])] = cell["b"]
    report = reproduce_table(1)
    computed = {
        _cache_key(record.shape, (record.content,), record.patterns): record.count
        for record in report.records
    }
    assert computed.keys() == published.keys() and len(computed) == 40

    recounted = {
        key: _recount_by_subsequences(parse_shape(key[0]).rows, parse_composition(key[1]),
                                      parse_word(key[2]))
        for key in computed
    }
    disagreeing = {key for key in computed if computed[key] != recounted[key]}
    differing = {key for key in computed if computed[key] != published[key]}
    errata = {key: (published[key], computed[key]) for key in TABLE_1_ERRATA}
    ok = not disagreeing and differing == TABLE_1_ERRATA.keys() and errata == TABLE_1_ERRATA
    detail = (
        "39 of 40 table-1 counts match the published values, the misprinted "
        "cell recounts to 25, and the subsequence recount agrees on all 40"
        if ok else
        f"engine vs recount differ on {sorted(disagreeing)}; "
        f"engine vs published differ on {sorted(differing)}; "
        f"errata (printed, computed) {errata}"
    )
    _line(1, ok, time.time() - start, detail)
    assert ok, detail


def test_criterion_2_tables_2_and_3_reproduction():
    start = time.time()
    mismatches = []
    for table_id in (2, 3):
        mismatches += reproduce_table(table_id).mismatches
    ok = not mismatches
    _line(2, ok, time.time() - start,
          "all 44 cells of tables 2 and 3 match" if ok else f"{mismatches}")
    assert ok, mismatches


def test_criterion_3_word_counts():
    start = time.time()
    expected = {
        (7, 5, "2314"): 67853,
        (7, 5, "3124"): 67854,
        (8, 5, "2314"): 310540,
        (8, 5, "3124"): 310563,
        (8, 6, "23145"): 1640298,
        (8, 6, "23154"): 1640298,
        (8, 6, "31245"): 1640299,
        (8, 6, "31254"): 1640299,
    }
    got = {
        (n, m, pat): count_words(n, m, [tuple(int(c) for c in pat)])
        for (n, m, pat) in expected
    }
    ok = got == expected
    _line(3, ok, time.time() - start,
          "all 8 word counts exact" if ok else f"got {got}")
    assert got == expected


def test_criterion_4_table_4_reproduction_and_inequality():
    start = time.time()
    report = reproduce_table(4)
    ok = report.verdict == "equal"
    records = list(report.records)
    pairs = list(zip(records[::2], records[1::2]))
    monotone = all(a.count <= b.count for a, b in pairs)
    ok = ok and monotone and len(pairs) == 18
    _line(4, ok, time.time() - start,
          "all 18 shape pairs match and satisfy <=" if ok
          else f"mismatches={report.mismatches} monotone={monotone}")
    assert ok


def test_criterion_5_worked_example_vectors():
    start = time.time()
    blown = blowup(Filling(SHAPE, FILLING), CONTENT, Direction.INCREASING)
    iseq = i_sequence(blown)
    aseq = tuple(0 if i == 0 else n - i + 1 for i, n in zip(iseq, n_sequence(blown)))
    image = VARIANTS["11"].forward(Filling(SHAPE, FILLING), CONTENT)
    ok = iseq == CHAIN_SEQ and aseq == FLIPPED_SEQ and image.col_to_row == IMAGE_FILLING
    _line(5, ok, time.time() - start,
          "border sequences and mapped filling match the transcribed vectors" if ok
          else f"I={iseq} flipped={aseq} image={image.col_to_row}")
    assert ok


def test_criterion_6_equivalence_map_suite():
    start = time.time()
    n_maps = 0
    for shape in iter_shapes(5, 4):
        for content in compositions(shape.width, shape.n_rows):
            for variant in VARIANTS.values():
                sources = list(enumerate_fillings(shape, variant.source, content=content))
                targets = {f.col_to_row
                           for f in enumerate_fillings(shape, variant.target, content=content)}
                # independent cardinality equality through the counting engine
                assert count_fillings(shape, content, variant.source) == len(sources)
                assert count_fillings(shape, content, variant.target) == len(targets)
                assert len(sources) == len(targets), (shape, content, variant.name)
                images = set()
                for filling in sources:
                    image = variant.forward(filling, content)
                    assert filling_content(image) == tuple(content)
                    assert avoids_all(image, variant.target)
                    round_trip = variant.inverse(image, content)
                    assert round_trip.col_to_row == filling.col_to_row
                    images.add(image.col_to_row)
                    n_maps += 1
                assert images == targets, (shape, content, variant.name)
    _line(6, True, time.time() - start,
          f"both equivalence maps bijective on every (shape, content); {n_maps} round trips")


def _band_ranges(content):
    """The first and last blown-up row of each band, bottom up."""
    ranges, last = [], 0
    for size in content:
        ranges.append((last + 1, last + size))
        last += size
    return ranges


def _band_right_border_vertices(placement, content):
    """Vertex indices u_0..u_{a_i} along each band's right border."""
    index_of = {v: i for i, v in enumerate(border_path(placement.shape))}
    out = []
    for first, last in _band_ranges(content):
        length = placement.shape.rows[first - 1]
        out.append([index_of[(length, y)] for y in range(first - 1, last + 1)])
    return out


def test_criterion_7_alpha_suite():
    start = time.time()
    n_placements = 0
    for shape in iter_shapes(5, 5):
        if shape.n_rows != shape.width:
            continue
        ones = (1,) * shape.n_rows
        av231 = [FullRookPlacement(f) for f in enumerate_fillings(shape, [P231], content=ones)]
        av312 = [FullRookPlacement(f) for f in enumerate_fillings(shape, [P312], content=ones)]
        assert len(av231) == len(av312), shape
        seqs231 = {i_sequence(r) for r in av231}
        seqs312 = {i_sequence(r) for r in av312}
        assert len(seqs231) == len(av231), shape  # I determines the placement
        assert len(seqs312) == len(av312), shape
        images = set()
        for rook in av231:
            image = alpha(rook)
            assert avoids_all(image.filling, [P312])
            assert n_sequence(image) == n_sequence(rook)
            assert alpha_inverse(image).col_to_row == rook.col_to_row
            images.add(image.col_to_row)
            n_placements += 1
        assert images == {r.col_to_row for r in av312}, shape

    n_blowups = 0
    for shape in iter_shapes(5, 4):
        for content in compositions(shape.width, shape.n_rows):
            for filling in enumerate_fillings(shape, [P231, P221], content=content):
                blown = blowup(filling, content, Direction.INCREASING)
                iseq = i_sequence(blown)
                image = alpha(blown)
                imseq = i_sequence(image)
                for verts in _band_right_border_vertices(blown, content):
                    for j in range(1, len(verts) - 1):
                        assert iseq[verts[j + 1]] == iseq[verts[j]] + 1  # chain growth in bands
                        assert imseq[verts[j + 1]] == imseq[verts[j]]  # flat in the image
                for first, last in _band_ranges(content):  # each band stacked downwards
                    rows = [row for row in image.col_to_row if first <= row <= last]
                    assert rows == sorted(rows, reverse=True)
                n_blowups += 1
            for filling in enumerate_fillings(shape, [P312, P212], content=content):
                blown = blowup(filling, content, Direction.DECREASING)
                pre = alpha_inverse(blown)
                for first, last in _band_ranges(content):  # each band stacked upwards
                    rows = [row for row in pre.col_to_row if first <= row <= last]
                    assert rows == sorted(rows)
    _line(7, True, time.time() - start,
          f"alpha bijective with injective I on {n_placements} placements; "
          f"band equations and monotonicity hold on {n_blowups} blowups")


def test_criterion_8_oracle_equivalence():
    start = time.time()
    universe = [P231, P312, P221, P212, P121, P211, (1, 2), (2, 1)]
    subsets = [(p,) for p in universe] + list(combinations(universe, 2))
    deep_subsets = [(p,) for p in universe] + [
        (P231, P221), (P312, P212), (P231, P121), (P312, P211),
    ]
    n_checked = 0
    for shape in iter_shapes(5, 4):
        fillings = list(product(*(range(1, h + 1) for h in shape.heights)))
        masks = []
        contents = []
        for cols in fillings:
            filling = Filling(shape, cols)
            mask = 0
            for bit, pattern in enumerate(universe):
                if contains(filling, pattern):
                    mask |= 1 << bit
            masks.append(mask)
            counts = [0] * shape.n_rows
            for row in cols:
                counts[row - 1] += 1
            contents.append(tuple(counts))
        bits_of = {pattern: 1 << bit for bit, pattern in enumerate(universe)}
        for subset in subsets:
            bits = 0
            for pattern in subset:
                bits |= bits_of[pattern]
            naive = sum(1 for mask in masks if not mask & bits)
            assert count_all_fillings(shape, subset) == naive, (shape, subset)
            n_checked += 1
        for subset in deep_subsets:
            bits = 0
            for pattern in subset:
                bits |= bits_of[pattern]
            naive_positive = sum(
                1 for mask, c in zip(masks, contents) if not mask & bits and all(c)
            )
            assert count_positive_fillings(shape, subset) == naive_positive
            for comp in compositions(shape.width, shape.n_rows):
                naive_fixed = sum(
                    1 for mask, c in zip(masks, contents) if not mask & bits and c == comp
                )
                assert count_fillings(shape, comp, subset) == naive_fixed, (shape, comp, subset)
                n_checked += 1
    _line(8, True, time.time() - start,
          f"pruned engine equals filter counting on {n_checked} (shape, pattern-set) cases")


def test_criterion_9_monotone_pattern_equalities():
    start = time.time()
    pairs = [
        ((1, 2), (2, 1)),
        ((1, 2, 3), (3, 2, 1)),
        ((1, 2, 3), (2, 1, 3)),        # direct sums of 12 / 21 with a single letter
        ((1, 2, 3, 4), (3, 2, 1, 4)),  # and of 123 / 321 with a single letter
    ]
    n_checked = 0
    for shape in iter_shapes(5, 5):
        for content in compositions(shape.width, shape.n_rows):
            for x, y in pairs:
                assert count_fillings(shape, content, [x]) == count_fillings(shape, content, [y]), (
                    shape, content, x, y,
                )
                n_checked += 1
    _line(9, True, time.time() - start,
          f"increasing/decreasing run equalities hold on {n_checked} (shape, content) cases")
