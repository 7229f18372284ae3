import json

import pytest

from shapewilf import cli
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


def test_enumerate(capsys):
    status, out, _ = run(capsys, "enumerate", "--shape", "2,2", "--content", "1,1",
                         "--patterns", "12")
    assert status == 0
    assert out.splitlines() == ["21"]


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


def test_damaged_cache_has_its_own_exit_status(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"shape": "5,5,4", "content": \n{"shape": "3,3", "content": "2,1"}\n')
    status, out, err = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                           "--patterns", "231", "--cache", str(cache))
    assert status == 3
    assert out == ""
    assert "line 1 is not a count record" in err
