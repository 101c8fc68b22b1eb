"""CLI: commands, formats, exit codes."""

import csv
import io
import json

import pytest

from pellucas import cli, fixtures, kernels


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def jsonl_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_lucas_test_table(capsys):
    code, out = run(capsys, "lucas-test", "21", "--p", "3", "--q", "1")
    assert code == 0
    assert "Pseudoprime" in out


def test_lucas_test_jsonl_roundtrip(capsys):
    code, out = run(capsys, "lucas-test", "21", "--p", "3", "--q", "1", "--format", "jsonl")
    assert code == 0
    (rec,) = jsonl_records(out)
    assert rec["schema"] == 1
    assert rec["command"] == "lucas-test"
    assert rec["status"] == "Pseudoprime"
    assert rec["witnesses"] == {"u": 0, "k": 20}
    # parsing and re-serializing yields an equivalent record
    assert json.loads(json.dumps(rec)) == rec


def test_lucas_test_prime(capsys):
    code, out = run(capsys, "lucas-test", "13", "--p", "3", "--q", "1", "--format", "jsonl")
    assert code == 0
    assert jsonl_records(out)[0]["status"] == "Prime"


def test_single_test_jsonl_bytes(capsys):
    # exact lines, so witness and key order are pinned as well as values
    cases = [
        (["lucas-test", "21", "--p", "3"],
         '{"schema": 1, "command": "lucas-test", "n": 21, "p": 3, "q": 1, "strong": false, '
         '"status": "Pseudoprime", "reason": "congruence-holds", '
         '"witnesses": {"u": 0, "k": 20}}'),
        (["lucas-test", "323", "--p", "3", "--strong"],
         '{"schema": 1, "command": "lucas-test", "n": 323, "p": 3, "q": 1, "strong": true, '
         '"status": "Pseudoprime", "reason": "congruence-holds", '
         '"witnesses": {"u": 0, "u_next": 1, "k": 324}}'),
        (["pell-test", "85", "--d", "3", "--a", "4", "--strong"],
         '{"schema": 1, "command": "pell-test", "n": 85, "d": 3, "a": 4, "strong": true, '
         '"status": "Pseudoprime", "reason": "congruence-holds", '
         '"witnesses": {"x": 1, "y": 0, "k": 84}}'),
        (["pell-test", "21", "--d", "5", "--x", "163", "--y", "162"],
         '{"schema": 1, "command": "pell-test", "n": 21, "d": 5, "x": 163, "y": 162, '
         '"strong": false, "status": "NotApplicable", "reason": "point-not-on-conic", '
         '"witnesses": {}}'),
    ]
    for argv, line in cases:
        assert run(capsys, *argv, "--format", "jsonl") == (0, line + "\n")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "lucas-test", "20", "--p", "3")[0] == 2  # even n
    assert run(capsys, "lucas-test", "21", "--p", "2", "--q", "1")[0] == 2  # D = 0
    assert run(capsys, "pell-test", "21", "--d", "5", "--x", "12")[0] == 2
    assert run(capsys, "pell-test", "21", "--d", "5", "--x", "1", "--y", "0", "--a", "3")[0] == 2
    assert run(capsys, "pell-test", "21", "--d", "5")[0] == 2
    assert run(capsys, "enumerate", "lucas", "--p", "3", "--from", "5", "--to", "3")[0] == 2
    assert run(capsys, "bridge", "21", "--from-lucas", "--p", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    # at or above the Miller-Rabin bound no verdict is deterministic
    bound = kernels.MR_DETERMINISTIC_BOUND
    above = [
        ["lucas-test", str(bound + 2), "--p", "3"],
        ["pell-test", str(bound + 2), "--d", "5", "--a", "3"],
        ["bridge", str(bound + 2), "--from-lucas", "--p", "3"],
    ] + [
        ["enumerate", "lucas", "--p", "3", "--from", str(bound), "--to", str(bound + 18),
         "--workers", workers]
        for workers in ("1", "2")
    ]
    for argv in above:
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "deterministic primality bound" in captured.err


def test_pell_test_variants(capsys):
    code, out = run(capsys, "pell-test", "21", "--d", "5", "--x", "12", "--y", "11",
                    "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert rec["status"] == "Pseudoprime"
    assert rec["witnesses"]["x"] == 13

    code, out = run(capsys, "pell-test", "85", "--d", "3", "--x", "7", "--y", "4",
                    "--format", "jsonl")
    assert code == 0  # a composite verdict is still a successful run
    assert jsonl_records(out)[0]["status"] == "CompositeDetected"

    code, out = run(capsys, "pell-test", "85", "--d", "3", "--a", "4", "--format", "jsonl")
    assert code == 0
    assert jsonl_records(out)[0]["status"] == "Pseudoprime"

    # hypothesis failures are verdicts, not errors
    code, out = run(capsys, "pell-test", "21", "--d", "5", "--x", "163", "--y", "162",
                    "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert rec["status"] == "NotApplicable"
    assert rec["reason"] == "point-not-on-conic"


def test_strong_flag(capsys):
    code, out = run(capsys, "pell-test", "21", "--d", "5", "--x", "12", "--y", "11",
                    "--strong", "--format", "jsonl")
    assert code == 0
    assert jsonl_records(out)[0]["status"] == "CompositeDetected"


def test_enumerate_lucas(capsys):
    code, out = run(capsys, "enumerate", "lucas", "--p", "3", "--q", "1", "--to", "5000",
                    "--workers", "1", "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert rec["pseudoprimes"] == [
        21, 323, 329, 377, 451, 861, 1081, 1819, 1891, 2033, 2211, 3653, 3827, 4089, 4181,
    ]
    assert rec["counts"]["Pseudoprime"] == 15
    assert json.loads(json.dumps(rec)) == rec


def test_enumerate_pell_seed(capsys):
    code, out = run(capsys, "enumerate", "pell", "--d", "6", "--a", "4", "--to", "3000",
                    "--workers", "1", "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert rec["pseudoprimes"] == [77, 187, 217, 323, 341, 377, 1763, 2387]
    assert any(s["reason"] == "parametrization-undefined" for s in rec["skipped"])


def test_enumerate_csv(capsys):
    code, out = run(capsys, "enumerate", "pell", "--d", "6", "--a", "4", "--to", "3000",
                    "--workers", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [77, 187, 217, 323, 341, 377, 1763, 2387]


def test_bridge_from_lucas(capsys):
    code, out = run(capsys, "bridge", "21", "--from-lucas", "--p", "3", "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert (rec["d"], rec["x"], rec["y"]) == (5, 12, 11)
    assert rec["agreement"] is True
    assert rec["recovered_p"] == 3


def test_bridge_from_pell(capsys):
    code, out = run(capsys, "bridge", "85", "--from-pell", "--d", "3", "--x", "8",
                    "--y", "66", "--format", "jsonl")
    assert code == 0
    rec = jsonl_records(out)[0]
    assert rec["p"] == 16
    assert rec["agreement"] is True


def test_reproduce_flags_known_divergences(capsys):
    code, out = run(capsys, "reproduce", "--workers", "1")
    assert code == 3  # two bundled reference lists diverge, by design
    assert out.count("FAIL") == 2
    assert "8/10 fixtures passed" in out


def test_reproduce_only_filters(capsys):
    code, out = run(capsys, "reproduce", "--only", "pell-value", "--workers", "1")
    assert code == 0
    assert out.count("PASS") == 2

    code, out = run(capsys, "reproduce", "--only", "pell", "--workers", "1", "--format", "jsonl")
    assert code == 3
    recs = jsonl_records(out)
    assert len(recs) == 4
    assert sum(not r["passed"] for r in recs) == 1


def test_reproduce_corrupted_fixture_harness(capsys, monkeypatch):
    sane = "pell-value D=5 x=12 y=11 n=21 e=20 expect=13,0"
    corrupt = "lucas-value P=14 Q=1 k=84 n=85 expect=24"
    monkeypatch.setattr(
        fixtures, "load_fixtures", lambda: fixtures.parse_fixtures(f"{sane}\n{corrupt}\n")
    )
    code, out = run(capsys, "reproduce", "--workers", "1", "--format", "jsonl")
    assert code == 3
    recs = jsonl_records(out)
    assert [r["passed"] for r in recs] == [True, False]
    assert recs[1]["actual"] == [25]


def test_reproduce_csv(capsys):
    code, out = run(capsys, "reproduce", "--only", "lucas-value", "--workers", "1",
                    "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["passed"] == "True"
    assert rows[0]["actual"] == "25"
