import json

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


def test_damaged_cache_has_its_own_exit_status(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"shape": "5,5,4", "content": \n{"shape": "3,3", "content": "2,1"}\n')
    status, out, err = run(capsys, "count", "--shape", "5,5,4", "--content", "2,2,1",
                           "--patterns", "231", "--cache", str(cache))
    assert status == 3
    assert out == ""
    assert "line 1 is not a count record" in err
