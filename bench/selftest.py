"""Each output check of the benchmark rejects a planted wrong answer.

    python3 bench/selftest.py        (or: python -m pytest bench/selftest.py)

Every test first shows that a check passes a right answer (the published
value, a hand-checked one, or a small program output) and then that it
reports an error once one value in that answer is made wrong.
"""

import contextlib
import copy
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import shapewilf.cli  # noqa: E402


def _planted(check, good, plant):
    """check(good) passes and check(plant(copy of good)) fails."""
    assert check(good) == [], check(good)
    bad = copy.deepcopy(good)
    plant(bad)
    assert check(bad) != [], "planted error was not reported"


def _report(report):
    return report.to_json_dict()


def test_containment_reference():
    assert checks.contains((3, 3, 3), (2, 3, 1), (2, 3, 1))
    assert not checks.contains((3, 3, 3), (1, 2, 3), (2, 3, 1))
    # The window of an occurrence must fit: row 3 of (3, 3, 2) stops at column 2.
    assert not checks.contains((3, 3, 2), (2, 3, 1), (2, 3, 1))
    assert checks.contains((3, 3, 2), (2, 1, 1), (2, 1, 1))


def test_tables_check():
    cells = {c[:4]: checks.expected_cell(*c) for c in checks.table_cells()}
    words = {w[:3]: w[3] for w in checks.word_counts()}
    check = lambda answer: checks.check_tables(*answer)  # noqa: E731
    erratum = next(iter(checks.erratum_recounts()))
    _planted(check, (cells, words), lambda a: a[0].__setitem__((2, "7,7,7,7,7", "3,1,1,1,1", "2314"), 641))
    _planted(check, (cells, words), lambda a: a[0].__setitem__(erratum, 26))
    _planted(check, (cells, words), lambda a: a[1].__setitem__((8, 6, "23145"), 1640299))


def test_erratum_recount():
    assert checks.check_erratum() == []
    printed, recount = checks.erratum_recounts()[(1, "5,5,5,4", "1,2,1,1", "231")]
    assert (printed, recount) == (26, 25)


def test_table_report_check():
    report = _report(shapewilf.reproduce_table(2))
    _planted(lambda r: checks.check_table_report(r, 2), report, lambda r: r["records"][3].__setitem__("count", 1))
    _planted(lambda r: checks.check_table_report(r, 2), report, lambda r: r["records"].pop())


def test_equivalence_check():
    theorem = _report(shapewilf.check_equivalence([(2, 3, 1), (2, 2, 1)], [(3, 1, 2), (2, 1, 2)], 4, 4))
    check = lambda r: checks.check_equivalence(r, 4, 4, expect="equal")  # noqa: E731
    _planted(check, theorem, lambda r: r["records"][7].__setitem__("count", r["records"][7]["count"] + 1))
    _planted(check, theorem, lambda r: r["records"].__delitem__(slice(-2, None)))
    _planted(check, theorem, lambda r: r.__setitem__("verdict", "unequal"))
    plain = _report(shapewilf.check_equivalence([(2, 3, 1)], [(3, 1, 2)], 5, 4))
    cell = next(i for i, r in enumerate(plain["records"]) if (r["shape"], r["content"]) == ("5,5,5,4", "1,2,1,1"))
    _planted(lambda r: checks.check_equivalence(r, 5, 4), plain, lambda r: r["records"][cell].__setitem__("count", 26))


def test_conjecture_checks():
    scan1 = _report(shapewilf.scan_conjecture1(6, 4))
    shape = next(i for i, r in enumerate(scan1["records"]) if r["shape"] == "6,6,6,4")
    _planted(lambda r: checks.check_conjecture1(r, 6, 4), scan1, lambda r: r["records"][shape].__setitem__("count", 424))
    _planted(lambda r: checks.check_conjecture1(r, 6, 4), scan1, lambda r: r["records"][0].__setitem__("count", 10**6))
    scan2 = _report(shapewilf.scan_conjecture2((1,), 7, 5))
    _planted(lambda r: checks.check_conjecture2(r, (1,), 7, 5), scan2, lambda r: r["mismatches"][0].__setitem__("b", 67855))
    _planted(lambda r: checks.check_conjecture2(r, (1,), 7, 5), scan2, lambda r: r["records"][5].__setitem__("count", 0))
    empty = _report(shapewilf.scan_conjecture2((), 5, 4))
    _planted(lambda r: checks.check_conjecture2(r, (), 5, 4), empty, lambda r: r["records"][-1].__setitem__("count", 1))


def test_sample_recount():
    records = _report(shapewilf.check_equivalence([(2, 3, 1)], [(3, 1, 2)], 4, 3))["records"]
    check = lambda rs: checks.check_sample_recount(rs, 0, len(rs), 10**4)  # noqa: E731
    _planted(check, records, lambda rs: rs[11].__setitem__("count", rs[11]["count"] + 1))


def test_round_trip_checks():
    rows, content = (10, 10, 10, 7, 4, 4), (2, 2, 3, 1, 1, 1)
    source, image = checks.word("1465213233"), checks.word(run.WORKED_IMAGE)
    targets = run.VARIANT_PATTERNS["11"][1]
    check = lambda a: checks.check_round_trip(rows, content, targets, *a)  # noqa: E731
    _planted(check, [source, image, source], lambda a: a.__setitem__(1, (5, 1, 1, 6, 2, 4, 2, 3, 3, 2)))  # content
    _planted(check, [source, image, source], lambda a: a.__setitem__(1, (5, 1, 1, 6, 2, 4, 3, 2, 3, 3)))  # contains 212
    _planted(check, [source, image, source], lambda a: a.__setitem__(2, image))  # inverse
    _planted(lambda a: checks.check_distinct(*a), [[(1, 2), (2, 1)], [(1, 2), (2, 1)]], lambda a: a[1].__setitem__(1, (1, 2)))


def test_cli_checks():
    outputs = {}
    for name, argv in [
        ("table1", ["table", "1"]),
        ("equiv_cold", ["check-equiv", "231+221", "312+212", "--max-cols", "5", "--max-rows", "4", "--out", "json"]),
        ("enumerate", ["enumerate", "--shape", run.ENUMERATED[0], "--patterns", run.ENUMERATED[1]]),
        ("bijection", ["bijection", "--theorem", "11", "--shape", run.WORKED_EXAMPLE[0], "--content", run.WORKED_EXAMPLE[1], "--filling", run.WORKED_EXAMPLE[2]]),
        ("count_jobs2", ["count", "--shape", "5,5,4", "--content", "2,2,1", "--patterns", "231"]),
    ]:
        outputs[name] = _stdout(argv)
    outputs["equiv_warm"] = outputs["equiv_cold"]
    outputs["count_words"] = "310540\n"
    cold = outputs["equiv_cold"]
    for name, stdout in outputs.items():
        assert run.check_cli_output(name, stdout, cold) == [], name
    plants = {
        "table1": outputs["table1"].replace("25 vs 26", "26 vs 26"),
        "equiv_warm": cold.replace('"verdict": "equal"', '"verdict": "unequal"'),
        "enumerate": outputs["enumerate"].replace("111111\n", ""),
        "bijection": outputs["bijection"].replace('"image": "5116242333"', '"image": "5116242332"'),
        "count_jobs2": "19\n",
        "count_words": "310541\n",
    }
    for name, stdout in plants.items():
        assert stdout != outputs[name] and run.check_cli_output(name, stdout, cold) != [], name


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        shapewilf.cli.main(argv)
    return buffer.getvalue()


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} checks reject their planted errors")
