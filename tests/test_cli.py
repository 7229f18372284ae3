import csv
import errno
import io
import json
import os
import subprocess
import sys

import pytest

import shapewilf
from shapewilf import (
    POSITIVE_ROWS,
    Mismatch,
    NoSuchPlacement,
    ScanReport,
    bijection,
    check_equivalence,
    cli,
    enumeration,
    format_patterns,
    format_shape,
    harness,
    make_shape,
    parse_patterns,
    parse_shape,
    reproduce_table,
    scan_conjecture1,
    scan_conjecture2,
)
from shapewilf.cli import main
from worked_example import CHAIN_SEQ, FLIPPED_SEQ


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_count(capsys):
    status, out, _ = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                         "--patterns", "231")
    assert status == 0
    assert out.strip() == "18"


def test_count_positive_and_json(capsys):
    status, out, _ = run(capsys, "count", "--shape", "6,6,6,4", "--content", "positive",
                         "--patterns", "312", "--out", "json")
    assert status == 0
    assert json.loads(out) == {
        "shape": "6,6,6,4", "content": "positive-rows", "patterns": "312", "count": 429,
    }


def test_count_usage_errors(capsys):
    status, _, err = run(capsys, "count", "--shape", "4,5", "--patterns", "231")
    assert status == 2
    assert "row lengths" in err
    status, _, err = run(capsys, "count", "--shape", "3,2", "--patterns", "13")
    assert status == 2
    status, _, err = run(capsys, "count", "--shape", "3,2", "--content", "2,2", "--patterns", "21")
    assert status == 2


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_a_content_that_does_not_fit_is_reported_before_the_patterns(capsys, command):
    # the same order as the engine entries: the content first, then the patterns
    argv = [command, "--shape", "3,3", "--patterns", "13", "--content"]
    status, out, err = run(capsys, *argv, "1,1")
    assert (status, out) == (2, "")
    assert err == "error: composition sums to 2 but the shape has 3 columns\n"
    status, out, err = run(capsys, *argv, "1,2")
    assert (status, out) == (2, "")
    assert err == "error: pattern 13 skips letter value(s) [2]\n"


def test_count_words(capsys):
    status, out, _ = run(capsys, "count-words", "--length", "5", "--alphabet", "1",
                         "--patterns", "12")
    assert status == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("length, alphabet", [("3", "0"), ("0", "3")])
def test_count_words_rejects_a_non_positive_size(capsys, length, alphabet):
    status, out, err = run(capsys, "count-words", "--length", length, "--alphabet", alphabet)
    assert (status, out) == (2, "")
    assert err == f"error: need positive length and alphabet size, got {length}, {alphabet}\n"


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["check-equiv", "231", "312", "--max-cols", "3", "--max-rows", "-2", "--expect", "equal"],
         "max_rows"),
        (["check-equiv", "231", "312", "--max-cols", "0", "--max-rows", "2"], "max_cols"),
        (["scan-conj1", "--max-cols", "-1", "--max-rows", "2"], "max_cols"),
        (["scan-conj2", "--max-length", "0", "--max-alphabet", "3"], "max_length"),
        (["scan-conj2", "--max-length", "3", "--max-alphabet", "0"], "max_alphabet"),
    ],
    ids=["check-equiv-rows", "check-equiv-cols", "scan-conj1", "scan-conj2-length",
         "scan-conj2-alphabet"],
)
def test_non_positive_scan_bounds_are_usage_errors(capsys, argv, bound):
    # a scan over no shape or word would pass vacuously
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: scan bound {bound} must be positive, got ")


def test_enumerate(capsys):
    status, out, _ = run(capsys, "enumerate", "--shape", "2,2", "--content", "1,1",
                         "--patterns", "12")
    assert status == 0
    assert out.splitlines() == ["21"]


@pytest.mark.parametrize(
    "shape, content, patterns",
    [("2,2", "all", "1"), ("4,3,2", "positive", "312"), ("4,4,2", "2,1,1", "231")],
    ids=["no-avoider", "positive-rows", "fixed-content"],
)
def test_enumerate_json_is_the_bytes_of_the_whole_list(capsys, shape, content, patterns):
    status, out, _ = run(capsys, "enumerate", "--shape", shape, "--content", content,
                         "--patterns", patterns, "--out", "json")
    parsed = parse_shape(shape)
    fillings = shapewilf.enumerate_fillings(
        parsed, parse_patterns(patterns), enumeration.parse_content(content)
    )
    document = json.dumps([list(f.col_to_row) for f in fillings])
    assert (status, out) == (0, document + "\n")
    assert (document == "[]") == (patterns == "1")


def test_bijection_forward(capsys):
    status, out, _ = run(
        capsys, "bijection", "--theorem", "11", "--shape", "10,10,10,7,4,4",
        "--content", "2,2,3,1,1,1", "--filling", "1465213233",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["blowup"]["shape"] == "10,10,10,10,10,10,10,7,4,4"
    assert doc["blowup"]["placement"] == "1,8,10,9,3,2,5,4,6,7"
    assert doc["i_sequence"] == list(CHAIN_SEQ)
    assert doc["transformed_sequence"] == list(FLIPPED_SEQ)
    assert doc["image"] == "5116242333"


def test_bijection_echoes_the_shape_and_content_in_canonical_text(capsys):
    status, out, err = run(
        capsys, "bijection", "--theorem", "11", "--shape", " 10, 10,10,7,4,4",
        "--content", "2, 2,3,1,1,1 ", "--filling", "1465213233",
    )
    document = json.loads(out)
    assert (status, err) == (0, "")
    assert (document["shape"], document["content"]) == ("10,10,10,7,4,4", "2,2,3,1,1,1")


def test_an_unrealizable_partner_sequence_is_an_internal_error(capsys, monkeypatch):
    def unrealizable(*args):
        raise NoSuchPlacement("planted")

    monkeypatch.setattr(bijection, "reconstruct", unrealizable)
    status, out, err = run(
        capsys, "bijection", "--theorem", "11", "--shape", "10,10,10,7,4,4",
        "--content", "2,2,3,1,1,1", "--filling", "1465213233",
    )
    assert (status, out) == (4, "")
    assert "Traceback" in err and "NoSuchPlacement: planted" in err
    assert err.splitlines()[-1].startswith(
        "internal error: BijectionFailure('alpha produced an unrealizable sequence; "
    )


def test_bijection_round_trip(capsys):
    status, out, _ = run(
        capsys, "bijection", "--theorem", "11", "--shape", "10,10,10,7,4,4",
        "--content", "2,2,3,1,1,1", "--filling", "5116242333", "--inverse",
    )
    assert status == 0
    assert json.loads(out)["image"] == "1465213233"


# N-sequence of the worked example's blowup; partners share it.
WORKED_N_SEQ = [0, 1, 2, 3, 4, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 0]


@pytest.mark.parametrize("inverse", [False, True])
def test_bijection_document_on_the_worked_example(capsys, inverse):
    # The whole document, keys in order, for both directions of theorem 11.
    source, image = ("5116242333", "1465213233") if inverse else ("1465213233", "5116242333")
    blown = ["9,2,1,10,4,8,3,7,6,5", "1,8,10,9,3,2,5,4,6,7"]
    sequences = [list(CHAIN_SEQ), list(FLIPPED_SEQ)]
    if inverse:
        blown.reverse()
        sequences.reverse()
    status, out, err = run(
        capsys, "bijection", "--theorem", "11", "--shape", "10,10,10,7,4,4",
        "--content", "2,2,3,1,1,1", "--filling", source, *(["--inverse"] if inverse else []),
    )
    expected = {
        "variant": "11",
        "direction": "inverse" if inverse else "forward",
        "avoids": ["312", "212"] if inverse else ["231", "221"],
        "shape": "10,10,10,7,4,4",
        "content": "2,2,3,1,1,1",
        "filling": source,
        "blowup": {
            "shape": "10,10,10,10,10,10,10,7,4,4",
            "placement": blown[1],
            "stacking": "decreasing" if inverse else "increasing",
        },
        "i_sequence": sequences[0],
        "n_sequence": WORKED_N_SEQ,
        "transformed_sequence": sequences[1],
        "alpha_inverse" if inverse else "alpha": blown[0],
        "image": image,
    }
    assert (status, err) == (0, "")
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("shape, content, filling, message", [
    ("2,2", "2", "11", "composition has 1 parts but the shape 2 rows"),
    ("3,3", "1,1", "121", "composition sums to 2 but the shape has 3 columns"),
], ids=["rows", "columns"])
def test_bijection_reports_a_content_that_does_not_fit_as_enumerate_does(capsys, shape, content,
                                                                         filling, message):
    argv = ["--shape", shape, "--content", content]
    status, out, err = run(capsys, "bijection", "--theorem", "11", *argv, "--filling", filling)
    assert (status, out, err) == (2, "", f"error: {message}\n")
    assert run(capsys, "enumerate", *argv, "--patterns", "231") == (status, out, err)


def test_bijection_rejects_a_content_that_fits_the_shape_but_not_the_filling(capsys):
    status, out, err = run(capsys, "bijection", "--theorem", "11", "--shape", "3,3",
                           "--content", "1,2", "--filling", "121")
    assert (status, out, err) == (2, "", "error: filling has content (2, 1), expected (1, 2)\n")


def test_bijection_rejects_non_avoiding_input(capsys):
    status, _, err = run(
        capsys, "bijection", "--theorem", "11", "--shape", "3,3,3",
        "--content", "1,1,1", "--filling", "231",
    )
    assert status == 2
    assert "contains" in err


def test_table_4_verifies(capsys):
    status, out, _ = run(capsys, "table", "4")
    assert status == 0
    assert "verdict: equal" in out


def test_table_1_reports_the_known_anomaly(capsys):
    status, out, _ = run(capsys, "table", "1")
    assert status == 1
    assert "MISMATCH shape=5,5,5,4 content=1,2,1,1 25 vs 26" in out


# --- streamed reports: the bytes of a document rendered whole -------------

# command line, the library call it makes, its exit status
STREAMED = {
    "check-equiv": (
        ["check-equiv", "231", "312", "--max-cols", "5", "--max-rows", "4"],
        lambda: check_equivalence([(2, 3, 1)], [(3, 1, 2)], 5, 4), 0,
    ),
    "scan-conj1": (
        ["scan-conj1", "--max-cols", "6", "--max-rows", "4"], lambda: scan_conjecture1(6, 4), 0,
    ),
    "scan-conj2": (
        ["scan-conj2", "--beta", "1", "--max-length", "7", "--max-alphabet", "5"],
        lambda: scan_conjecture2((1,), 7, 5), 0,
    ),
    "table": (["table", "1"], lambda: reproduce_table(1), 1),
    "table-4": (["table", "4"], lambda: reproduce_table(4), 0),
}


def rendered_whole(report, out: str) -> str:
    """What the command prints, from a whole document and the records' own ``to_json``."""
    if out == "json":
        doc = report.to_json_dict()
        assert doc["records"] == [record.to_json() for record in report.records]
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    if out == "csv" and report.scope.startswith("table"):
        by_shape = {}
        for record in report.records:
            row = record.to_json()
            cols = by_shape.setdefault(row["shape"], {})
            cols.setdefault(row["content"], {})[row["patterns"]] = row["count"]
        for shape_text, cols in by_shape.items():
            writer.writerow(["shape " + shape_text] + list(cols))
            for pattern in sorted({p for counts in cols.values() for p in counts}):
                writer.writerow([pattern] + [cols[c].get(pattern, "") for c in cols])
            writer.writerow([])
        return buf.getvalue()
    if out == "csv":
        writer.writerow(["shape", "content", "patterns", "count"])
        writer.writerows(record.to_json().values() for record in report.records)
        return buf.getvalue()
    lines = []
    if report.scope.startswith("conjecture1"):
        records = list(report.records)
        for rec_a, rec_b in zip(records[::2], records[1::2]):
            if rec_a.count < rec_b.count:
                lines.append(f"strict: {format_shape(rec_a.shape)}: {rec_a.count} < {rec_b.count}")
    for m in report.mismatches:
        note = f" ({m.note})" if m.note else ""
        lines.append(f"MISMATCH shape={m.shape} content={m.content} {m.a} vs {m.b}{note}")
    lines.append(f"verdict: {report.verdict} ({len(list(report.records))} counts)")
    if report.scope.startswith("conjecture2") and report.verdict == "unequal":
        m = report.mismatches[0]
        lines.append(f"witness: {m.note}: {m.a} vs {m.b}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("out", ["plain", "json", "csv"])
@pytest.mark.parametrize("command", sorted(STREAMED))
def test_streamed_reports_print_the_bytes_of_a_whole_document(tmp_path, capsys, command, out):
    argv, scan, status = STREAMED[command]
    want = rendered_whole(scan(), out)
    cache = tmp_path / "c.jsonl"
    cached = ["--cache", str(cache)]
    assert run(capsys, *argv, "--out", out) == (status, want, "")
    assert run(capsys, *argv, "--out", out, *cached) == (status, want, "")  # cold
    assert run(capsys, *argv, "--out", out, *cached) == (status, want, "")  # warm
    whole = cache.read_bytes()
    cut = whole.index(b"\n", len(whole) // 2) + 1
    cache.write_bytes(whole[:cut] + b'{"shape": "1')  # torn last line
    printed, stdout, stderr = run(capsys, *argv, "--out", out, *cached)
    assert (printed, stdout) == (status, want) and "skipped torn last line" in stderr
    assert cache.read_bytes() == whole


def test_check_equiv_with_expectation(capsys):
    status, out, _ = run(capsys, "check-equiv", "12", "21", "--max-cols", "3",
                         "--max-rows", "3", "--expect", "equal")
    assert status == 0
    assert "verdict: equal" in out
    status, _, err = run(capsys, "check-equiv", "12", "21", "--max-cols", "3",
                         "--max-rows", "3", "--expect", "unequal")
    assert status == 1


def test_scan_conj1_json(capsys):
    status, out, _ = run(capsys, "scan-conj1", "--max-cols", "3", "--max-rows", "3",
                         "--out", "json")
    assert status == 0
    assert json.loads(out)["verdict"] == "conjecture-consistent"


def test_scan_conj2(capsys):
    status, out, _ = run(capsys, "scan-conj2", "--beta", "1", "--max-length", "7",
                         "--max-alphabet", "5")
    assert status == 0
    assert "witness: first witness at length 7, alphabet 5: 67853 vs 67854" in out


def test_cache_flag(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    for _ in range(2):
        status, out, _ = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                             "--patterns", "231", "--cache", cache)
        assert status == 0 and out.strip() == "18"
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1


def test_jobs_flag(capsys):
    status, out, _ = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                         "--patterns", "231", "--jobs", "2")
    assert status == 0
    assert out.strip() == "18"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "4", "--patterns", "231"],
        ["check-equiv", "12", "21", "--max-cols", "2", "--max-rows", "2", "--patterns", "231"],
        ["scan-conj1", "--max-cols", "2", "--max-rows", "2", "--patterns", "231"],
        ["scan-conj2", "--max-length", "3", "--max-alphabet", "2", "--patterns", "999"],
        ["enumerate", "--shape", "2,2", "--cache", "c.jsonl"],
        ["count", "--shape", "2,2", "--out", "csv"],
        ["count-words", "--length", "2", "--alphabet", "2", "--out", "csv"],
        ["enumerate", "--shape", "2,2", "--out", "csv"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2][2:]}",
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert argv[-2] in err


def test_commands_keep_the_options_they_read():
    parser = cli.build_parser()
    for argv in (
        ["count", "--shape", "2,2", "--content", "1,1", "--patterns", "21", "--jobs", "2",
         "--cache", "c.jsonl", "--out", "json"],
        ["count-words", "--length", "2", "--alphabet", "2", "--patterns", "21", "--jobs", "2",
         "--cache", "c.jsonl", "--out", "json"],
        ["enumerate", "--shape", "2,2", "--content", "1,1", "--patterns", "21", "--jobs", "2",
         "--out", "json"],
        ["table", "2", "--jobs", "2", "--cache", "c.jsonl", "--out", "csv"],
        ["check-equiv", "12", "21", "--max-cols", "2", "--max-rows", "2", "--expect", "equal",
         "--jobs", "2", "--cache", "c.jsonl", "--out", "csv"],
        ["scan-conj1", "--max-cols", "2", "--max-rows", "2", "--jobs", "2", "--cache", "c.jsonl",
         "--out", "csv"],
        ["scan-conj2", "--beta", "1", "--max-length", "3", "--max-alphabet", "2", "--jobs", "2",
         "--cache", "c.jsonl", "--out", "csv"],
    ):
        parser.parse_args(argv)


def test_parse_errors_are_usage_errors(capsys):
    status, _, err = run(capsys, "count", "--shape", "5,x", "--patterns", "231")
    assert status == 2
    assert "cannot parse shape" in err
    status, _, err = run(capsys, "scan-conj2", "--beta", "11", "--max-length", "3",
                         "--max-alphabet", "3")
    assert status == 2
    assert "permutation" in err


def test_torn_cache_line_is_skipped(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    status, cold, _ = run(capsys, "table", "4", "--cache", str(cache), "--out", "json")
    assert status == 0
    whole = cache.read_bytes().splitlines(keepends=True)
    cache.write_bytes(b"".join(whole[:-1]) + whole[-1][: len(whole[-1]) // 2])
    status, out, err = run(capsys, "table", "4", "--cache", str(cache), "--out", "json")
    assert status == 0
    assert out == cold
    assert f"skipped torn last line {len(whole)}" in err
    assert cache.read_bytes() == b"".join(whole)


@pytest.mark.parametrize(
    "name, reason",
    [(".", "Is a directory"), ("missing/c.jsonl", "No such file or directory")],
    ids=["directory", "missing-directory"],
)
def test_unusable_cache_path_fails_before_counting(tmp_path, capsys, monkeypatch, name, reason):
    def no_count(*args, **kwargs):
        raise AssertionError("counted before the cache path was checked")

    monkeypatch.setattr(cli, "counted", no_count)
    path = str(tmp_path / name)
    status, out, err = run(capsys, "count", "--shape", "3,3", "--cache", path)
    assert (status, out) == (2, "")
    assert err == f"error: cannot use cache {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_empty_cache_path_fails_before_counting(tmp_path, capsys, monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("counted although --cache names no file")

    monkeypatch.setattr(cli, "counted", no_count)
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, "count", "--shape", "3,3", "--cache", "")
    assert (status, out) == (2, "")
    assert err == "error: cannot use cache : No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def fail_appends(monkeypatch):
    """Make every append to a cache fail as on a read-only file (root ignores ``chmod``)."""

    def guarded_open(file, mode="r", *args, **kwargs):
        if "a" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(enumeration, "open", guarded_open, raising=False)


# Malformed input for every command; {cache} is a cache path whose appends
# fail, {missing} one in a directory that does not exist.
MALFORMED = {
    "count-not-ferrers": ["count", "--shape", "4,5"],
    "count-shape-text": ["count", "--shape", "5,x"],
    "count-shape-underscore": ["count", "--shape", "1_0"],
    "count-content-underscore": ["count", "--shape", "21", "--content", "2_1"],
    "count-superscript-pattern": ["count", "--shape", "5,5,4", "--patterns", "\u00b231"],
    "count-full-width-shape": ["count", "--shape", "\uff13,\uff12", "--patterns", "231"],
    "count-full-width-pattern": ["count", "--shape", "3,2", "--patterns", "\uff12\uff13\uff11"],
    "count-gap-pattern": ["count", "--shape", "3,2", "--patterns", "13"],
    "count-content": ["count", "--shape", "5,5,4", "--content", "2,2"],
    "count-cache-append": ["count", "--shape", "3,3", "--cache", "{cache}"],
    "count-cache-missing": ["count", "--shape", "3,3", "--cache", "{missing}"],
    "count-words-size": ["count-words", "--length", "0", "--alphabet", "3"],
    "count-words-superscript-pattern":
        ["count-words", "--length", "3", "--alphabet", "2", "--patterns", "2\u00b9"],
    "count-words-cache-append":
        ["count-words", "--length", "3", "--alphabet", "2", "--cache", "{cache}"],
    "enumerate-content": ["enumerate", "--shape", "3,3", "--content", "1,1,1"],
    "enumerate-superscript-pattern": ["enumerate", "--shape", "3,3", "--patterns", "1\u00b3"],
    "bijection-not-avoiding":
        ["bijection", "--theorem", "11", "--shape", "3,3,3", "--content", "1,1,1",
         "--filling", "231"],
    "bijection-content":
        ["bijection", "--theorem", "11", "--shape", "3,3,3", "--content", "1,2",
         "--filling", "123"],
    "bijection-superscript-filling":
        ["bijection", "--theorem", "11", "--shape", "3,3,3", "--content", "1,1,1",
         "--filling", "1\u00b23"],
    "bijection-outside-shape":
        ["bijection", "--theorem", "11", "--shape", "2,2", "--content", "1,1", "--filling", "13"],
    "table-cache-append": ["table", "4", "--cache", "{cache}"],
    "table-cache-missing": ["table", "4", "--cache", "{missing}"],
    "check-equiv-superscript-pattern":
        ["check-equiv", "\u00b231", "312", "--max-cols", "2", "--max-rows", "2"],
    "check-equiv-bound": ["check-equiv", "231", "312", "--max-cols", "0", "--max-rows", "2"],
    "check-equiv-cache-append":
        ["check-equiv", "231", "312", "--max-cols", "2", "--max-rows", "2", "--cache", "{cache}"],
    "scan-conj1-bound": ["scan-conj1", "--max-cols", "2", "--max-rows", "0"],
    "scan-conj1-cache-append":
        ["scan-conj1", "--max-cols", "2", "--max-rows", "2", "--cache", "{cache}"],
    "scan-conj2-superscript-beta":
        ["scan-conj2", "--beta", "\u00b2", "--max-length", "3", "--max-alphabet", "2"],
    "scan-conj2-beta": ["scan-conj2", "--beta", "11", "--max-length", "3", "--max-alphabet", "2"],
    "scan-conj2-bound": ["scan-conj2", "--max-length", "0", "--max-alphabet", "2"],
    "scan-conj2-cache-append":
        ["scan-conj2", "--max-length", "3", "--max-alphabet", "2", "--cache", "{cache}"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["count-words", "--alphabet", "2", "--length", "1_0"],
        ["count-words", "--length", "3", "--alphabet", "\uff12"],
        ["count", "--shape", "3,2", "--jobs", "\uff12"],
        ["table", "\uff12"],
        ["scan-conj1", "--max-cols", "3", "--max-rows", "2_0"],
        ["check-equiv", "21", "12", "--max-rows", "2", "--max-cols", "\u0663"],
        ["scan-conj2", "--max-length", "3", "--max-alphabet", "1_0"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2][2:] if argv[-2].startswith('--') else 'id'}",
)
def test_integer_options_read_only_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"invalid int value: {argv[-1]!r}" in err


def test_integer_options_keep_signs_and_spaces(capsys):
    status, out, _ = run(capsys, "count-words", "--length", " 4 ", "--alphabet", "+2",
                         "--patterns", "21")
    assert (status, out) == (0, "5\n")


def test_malformed_input_reaches_every_command():
    usage = cli.build_parser().format_usage()  # "usage: shapewilf [-h] {count,...} ..."
    commands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert {argv[0] for argv in MALFORMED.values()} == set(commands)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_is_a_usage_error_on_one_line(tmp_path, capsys, monkeypatch, name):
    # exit 2 with one ``error:`` line, never 4 with a traceback
    fail_appends(monkeypatch)
    paths = {"cache": str(tmp_path / "c.jsonl"), "missing": str(tmp_path / "missing" / "c.jsonl")}
    argv = [arg.format(**paths) for arg in MALFORMED[name]]
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if "--cache" in argv:
        missing = "{missing}" in MALFORMED[name]
        reason = "No such file or directory" if missing else "Permission denied"
        assert err == f"error: cannot use cache {argv[-1]}: {reason}\n"
        assert list(tmp_path.iterdir()) == []


def test_damaged_cache_has_its_own_exit_status(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"shape": "5,5,4", "content": \n{"shape": "3,3", "content": "2,1"}\n')
    status, out, err = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                           "--patterns", "231", "--cache", str(cache))
    assert status == 3
    assert out == ""
    assert "line 1 is not a count record" in err


def test_a_negative_cached_count_is_a_damaged_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text(
        '{"shape": "3,3", "content": "unconstrained", "patterns": "231", "count": -5}\n'
    )
    status, out, err = run(capsys, "count", "--shape", "3,3", "--patterns", "231",
                           "--cache", str(cache))
    assert (status, out) == (3, "")
    assert "line 1 is not a count record (count -5 is negative)" in err


def test_conflicting_cache_records_are_a_damaged_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    record = {"shape": "5,5,4", "content": "2,2,1", "patterns": "231"}
    cache.write_text("".join(json.dumps({**record, "count": n}) + "\n" for n in (99, 18)))
    status, out, err = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                           "--patterns", "231", "--cache", str(cache))
    assert (status, out) == (3, "")
    assert err == (
        f"error: damaged cache: {cache}: lines 1 and 2 give one record the counts 99 and 18\n"
    )


@pytest.mark.parametrize("command", [
    ["count", "--shape", "3,3", "--content", "1,2", "--patterns", "231"],
    ["check-equiv", "231", "312", "--max-cols", "3", "--max-rows", "2"],
], ids=["count", "check-equiv"])
def test_a_record_that_its_contents_line_counts_otherwise_is_a_damaged_cache(
    tmp_path, capsys, command
):
    # Without the check, count would print 99 and check-equiv read 3 from this file.
    cache = tmp_path / "c.jsonl"
    text = (
        '{"shape": "3,3", "content": "contents", "patterns": "231", "count": [3, 3]}\n'
        '{"shape": "3,3", "content": "1,2", "patterns": "231", "count": 99}\n'
    )
    cache.write_text(text)
    status, out, err = run(capsys, *command, "--cache", str(cache))
    assert (status, out) == (3, "")
    message = "line 2 counts 1,2 on shape 3,3 as 99 and line 1 as 3"
    assert err == f"error: damaged cache: {cache}: {message}\n"
    assert cache.read_text() == text


def contents_line(count, shape="4,4,3", content="contents"):
    """A cache line of 231's counts on a shape, by default of 4,4,3's three positive contents."""
    return {"shape": shape, "content": content, "patterns": "231", "count": count}


# Cache lines that are neither a count record nor a contents line, or two
# contents lines that give one shape different counts.
DAMAGED_CONTENTS = {
    "an-int": ([contents_line(5)], "line 1 is not a count record ("),
    "a-negative": ([contents_line([1, -2, 3])], "line 1 is not a count record (count -2 is"),
    "a-bool": ([contents_line([1, True, 3])], "line 1 is not a count record ("),
    "a-float": ([contents_line([1, 2.0, 3])], "line 1 is not a count record ("),
    "a-string": ([contents_line("1,2,3")], "line 1 is not a count record ("),
    "a-record-list": ([contents_line([1], content="2,1,1")], "line 1 is not a count record ("),
    "too-short": ([contents_line([1, 2])], "line 1 is not a count record (2 counts for the"),
    "too-long": ([contents_line([1, 2, 3, 4])], "line 1 is not a count record (4 counts for"),
    "no-shape": ([contents_line([1, 2, 3], shape="x")], "line 1 is not a count record ("),
    "conflicting": ([contents_line([1, 2, 3]), contents_line([1, 2, 4])],
                    "lines 1 and 2 give one record the counts [1, 2, 3] and [1, 2, 4]\n"),
}


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "whole-last-line"])
@pytest.mark.parametrize("name", DAMAGED_CONTENTS)
def test_a_damaged_contents_line_is_a_damaged_cache(tmp_path, capsys, monkeypatch, name, end):
    lines, message = DAMAGED_CONTENTS[name]
    cache = tmp_path / "c.jsonl"
    text = "\n".join(map(json.dumps, lines)) + end
    cache.write_text(text)

    def no_walk(*args, **kwargs):
        raise AssertionError("walked although the cache is damaged")

    monkeypatch.setattr(harness, "walk_shapes", no_walk)
    status, out, err = run(capsys, "check-equiv", "231", "312", "--max-cols", "4",
                           "--max-rows", "3", "--out", "json", "--cache", str(cache))
    assert (status, out) == (3, "")
    assert err.startswith(f"error: damaged cache: {cache}: {message}")
    assert err.count("\n") == 1
    assert cache.read_text() == text


def test_a_cache_of_one_record_per_cell_still_serves_a_scan(tmp_path, capsys, monkeypatch):
    # A check-equiv cache as earlier versions wrote it, one count record per
    # (shape, content, pattern set): its records serve the shapes with one
    # content, and each shape with several gets one contents line per pattern set.
    argv = ["check-equiv", "231+221", "312+212", "--max-cols", "5", "--max-rows", "4",
            "--out", "json"]
    plain = run(capsys, *argv)
    report = check_equivalence([(2, 3, 1), (2, 2, 1)], [(3, 1, 2), (2, 1, 2)], 5, 4)
    old = "".join(json.dumps(record.to_json()) + "\n" for record in report.records)
    cache = tmp_path / "c.jsonl"
    cache.write_text(old)
    assert run(capsys, *argv, "--cache", str(cache)) == plain
    text = cache.read_text()
    assert text.startswith(old)  # the old lines come first, untouched
    added = [
        {"shape": format_shape(shape), "content": "contents", "patterns": format_patterns(p),
         "count": list(counts)}
        for shape, contents, pattern_sets, histograms in report.counts if len(contents) > 1
        for p, counts in zip(pattern_sets, histograms)
    ]
    assert [json.loads(line) for line in text[len(old):].splitlines()] == added
    assert len(added) == 2 * sum(len(contents) > 1 for _, contents, _, _ in report.counts) > 0

    def no_walk(*args, **kwargs):
        raise AssertionError("walked although every count was cached")

    monkeypatch.setattr(harness, "walk_shapes", no_walk)
    assert run(capsys, *argv, "--cache", str(cache)) == plain
    assert cache.read_text() == text


GOOD_LINE = json.dumps({"shape": "5,5,4", "content": "2,2,1", "patterns": "231", "count": 18})
NESTED_LINE = "[" * 100000  # json.loads gives up on it with a RecursionError


def test_a_deeply_nested_cache_line_before_the_last_is_a_damaged_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    text = f"{NESTED_LINE}\n{GOOD_LINE}\n"
    cache.write_text(text)
    status, out, err = run(capsys, "count", "--shape", "3,3", "--patterns", "231",
                           "--cache", str(cache))
    assert (status, out) == (3, "")
    assert err.startswith(f"error: damaged cache: {cache}: line 1 is not a count record (")
    assert err.count("\n") == 1
    assert cache.read_text() == text


def test_a_deeply_nested_last_line_without_its_newline_is_torn(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text(f"{GOOD_LINE}\n{NESTED_LINE}")
    status, out, err = run(capsys, "count", "--shape", "3,3", "--patterns", "231",
                           "--cache", str(cache))
    assert (status, out, err) == (0, "8\n", f"warning: {cache}: skipped torn last line 2\n")
    record = {"shape": "3,3", "content": "unconstrained", "patterns": "231", "count": 8}
    assert cache.read_text() == f"{GOOD_LINE}\n{json.dumps(record)}\n"


# A usage error in each scan command's own arguments, the pattern, the bound
# and beta, each reported before the cache file is read.
USAGE_ERRORS = {
    "check-equiv-pattern": ["check-equiv", "23x", "312", "--max-cols", "2", "--max-rows", "2"],
    "scan-conj1-bound": ["scan-conj1", "--max-cols", "0", "--max-rows", "2"],
    "scan-conj2-beta": ["scan-conj2", "--beta", "11", "--max-length", "3", "--max-alphabet", "3"],
}


@pytest.mark.parametrize("lines", [f"{GOOD_LINE}\n{GOOD_LINE[:30]}", f"[1, 2]\n{GOOD_LINE}\n"],
                         ids=["torn", "damaged"])
@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_a_usage_error_is_reported_before_the_cache_is_read(tmp_path, capsys, name, lines):
    cache = tmp_path / "c.jsonl"
    cache.write_text(lines)
    status, out, err = run(capsys, *USAGE_ERRORS[name], "--cache", str(cache))
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "damaged" not in err
    assert cache.read_text() == lines  # a torn last line is not cut off


def test_scan_conj1_prints_only_the_strict_inequalities_that_hold(capsys, monkeypatch):
    # a counterexample shape (5 > 3) beside one strict pair (2 < 4)
    pairs = {(3, 2): (5, 3), (2, 2): (2, 4), (1,): (1, 1)}
    counts = [
        (make_shape(rows), (POSITIVE_ROWS,), (((2, 3, 1),), ((3, 1, 2),)), ((a,), (b,)))
        for rows, (a, b) in pairs.items()
    ]
    report = ScanReport(
        "conjecture1 planted", counts, [Mismatch("3,2", POSITIVE_ROWS, 5, 3)],
        "counterexample-found",
    )
    monkeypatch.setattr(cli, "scan_conjecture1", lambda *args, **kwargs: report)
    status, out, err = run(capsys, "scan-conj1", "--max-cols", "3", "--max-rows", "2")
    assert (status, err) == (0, "")
    assert out.splitlines() == [
        "strict: 2,2: 2 < 4",
        "MISMATCH shape=3,2 content=positive-rows 5 vs 3",
        "verdict: counterexample-found (6 counts)",
    ]


def test_internal_errors_have_their_own_exit_status(tmp_path, capsys, monkeypatch):
    def broken_count(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "counted", broken_count)
    status, out, err = run(capsys, "count", "--shape", "3,3", "--patterns", "21")
    assert (status, out) == (4, "")
    assert "Traceback" in err and "broken_count" in err
    assert err.endswith("internal error: RuntimeError('planted')\n")
    # a mismatch, a usage error and a damaged cache keep their own statuses
    cache = tmp_path / "c.jsonl"
    cache.write_text("not a record\n\n")
    statuses = [
        run(capsys, "table", "1")[0],
        run(capsys, "count", "--shape", "4,5")[0],
        run(capsys, "count", "--shape", "3,3", "--cache", str(cache))[0],
    ]
    assert statuses == [1, 2, 3]


def test_a_reader_that_stops_early_ends_the_command_quietly():
    # 24,250 lines, far more than a pipe holds, so writes go on after the
    # reader closes its end
    src = os.path.dirname(os.path.dirname(shapewilf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "shapewilf", "enumerate", "--shape", "7,7,7,7,7",
         "--patterns", "231"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    ) as command:
        assert command.stdout.readline() == b"1111111\n"
        command.stdout.close()
        err = command.stderr.read()
        status = command.wait(timeout=60)
    assert (status, err) == (141, b"")


@pytest.mark.parametrize(
    "argv",
    [["count", "--shape", "5,5,4", "--patterns", "231"], ["table", "4"]],
    ids=["count", "table"],
)
def test_a_reader_that_closes_before_reading_ends_the_command_quietly(argv):
    # Without PYTHONUNBUFFERED the short output stays in stdout's buffer until
    # the command returns, so the broken pipe shows when that buffer is flushed.
    src = os.path.dirname(os.path.dirname(shapewilf.__file__))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "shapewilf", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as command:
        command.stdout.close()
        err = command.stderr.read()
        status = command.wait(timeout=60)
    assert (status, err) == (141, b"")
