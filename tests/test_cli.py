"""CLI: commands, formats, exit codes."""

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pellucas
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


def test_lucas_test_above_2_63_is_not_called_prime(capsys):
    # psi_12, a strong pseudoprime to the twelve prime bases up to 37
    code, out = run(capsys, "lucas-test", "318665857834031151167461", "--p", "3")
    assert code == 0
    assert "-> Pseudoprime (congruence-holds)" in out


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
    # exact output, so witness and key order are pinned as well as values,
    # and so are the table's P=, Q= and D= labels
    cases = [
        (["lucas-test", "21", "--p", "3"], {
            "jsonl": '{"schema": 1, "command": "lucas-test", "n": 21, "p": 3, "q": 1, '
                     '"strong": false, "status": "Pseudoprime", "reason": "congruence-holds", '
                     '"witnesses": {"u": 0, "k": 20}}\n',
            "table": "n=21 P=3 Q=1 -> Pseudoprime (congruence-holds) u=0 k=20\n",
            "csv": "schema,command,n,p,q,strong,status,reason,witnesses\r\n"
                   "1,lucas-test,21,3,1,False,Pseudoprime,congruence-holds,u=0;k=20\r\n",
        }),
        (["lucas-test", "323", "--p", "3", "--strong"], {
            "jsonl": '{"schema": 1, "command": "lucas-test", "n": 323, "p": 3, "q": 1, '
                     '"strong": true, "status": "Pseudoprime", "reason": "congruence-holds", '
                     '"witnesses": {"u": 0, "u_next": 1, "k": 324}}\n',
            "table": "n=323 P=3 Q=1 strong -> Pseudoprime (congruence-holds) u=0 u_next=1 k=324\n",
            "csv": "schema,command,n,p,q,strong,status,reason,witnesses\r\n"
                   "1,lucas-test,323,3,1,True,Pseudoprime,congruence-holds,u=0;u_next=1;k=324\r\n",
        }),
        (["pell-test", "85", "--d", "3", "--a", "4", "--strong"], {
            "jsonl": '{"schema": 1, "command": "pell-test", "n": 85, "d": 3, "a": 4, '
                     '"strong": true, "status": "Pseudoprime", "reason": "congruence-holds", '
                     '"witnesses": {"x": 1, "y": 0, "k": 84}}\n',
            "table": "n=85 D=3 a=4 strong -> Pseudoprime (congruence-holds) x=1 y=0 k=84\n",
            "csv": "schema,command,n,d,a,strong,status,reason,witnesses\r\n"
                   "1,pell-test,85,3,4,True,Pseudoprime,congruence-holds,x=1;y=0;k=84\r\n",
        }),
        (["pell-test", "21", "--d", "5", "--x", "163", "--y", "162"], {
            "jsonl": '{"schema": 1, "command": "pell-test", "n": 21, "d": 5, "x": 163, '
                     '"y": 162, "strong": false, "status": "NotApplicable", '
                     '"reason": "point-not-on-conic", "witnesses": {}}\n',
            "table": "n=21 D=5 x=163 y=162 -> NotApplicable (point-not-on-conic)\n",
            "csv": "schema,command,n,d,x,y,strong,status,reason,witnesses\r\n"
                   "1,pell-test,21,5,163,162,False,NotApplicable,point-not-on-conic,\r\n",
        }),
    ]
    for argv, outputs in cases:
        for fmt, out in outputs.items():
            assert run(capsys, *argv, "--format", fmt) == (0, out)


def test_single_tests_call_the_module_level_functions(capsys, monkeypatch):
    # perfbench's traced run counts these calls by rebinding the module
    # attributes, so each command must look its test up there when it runs
    names = ["lucas_test", "strong_lucas_test", "pell_test", "strong_pell_test"]
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _test=getattr(cli, name)):
            calls[_name] += 1
            return _test(*args)
        monkeypatch.setattr(cli, name, counted)
    for argv in (["lucas-test", "21", "--p", "3"],
                 ["lucas-test", "21", "--p", "3", "--strong"],
                 ["pell-test", "85", "--d", "3", "--a", "4"],
                 ["pell-test", "85", "--d", "3", "--a", "4", "--strong"]):
        assert run(capsys, *argv)[0] == 0
    assert calls == dict.fromkeys(names, 1)


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "lucas-test", "20", "--p", "3")[0] == 2  # even n
    assert run(capsys, "lucas-test", "21", "--p", "2", "--q", "1")[0] == 2  # D = 0
    assert run(capsys, "pell-test", "21", "--d", "5", "--x", "12")[0] == 2
    assert run(capsys, "pell-test", "21", "--d", "5", "--x", "1", "--y", "0", "--a", "3")[0] == 2
    assert run(capsys, "pell-test", "21", "--d", "5")[0] == 2
    assert run(capsys, "enumerate", "lucas", "--p", "3", "--from", "5", "--to", "3")[0] == 2
    assert run(capsys, "bridge", "21", "--from-lucas", "--p", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    for workers in ("0", "-3"):
        assert run(capsys, "enumerate", "lucas", "--p", "3", "--to", "99",
                   "--workers", workers)[0] == 2
    # reproduce checks --workers whether or not the selected fixtures search
    assert run(capsys, "reproduce", "--only", "pell-value", "--workers", "0")[0] == 2
    assert run(capsys, "reproduce", "--only", "lucas-value", "--workers", "-3")[0] == 2
    # at or above the Miller-Rabin bound no verdict is deterministic
    bound = kernels.MR_DETERMINISTIC_BOUND
    above = [
        ["lucas-test", str(bound + 2), "--p", "3"],
        ["pell-test", str(bound + 2), "--d", "5", "--a", "3"],
        ["bridge", str(bound + 2), "--from-lucas", "--p", "3"],
        # 5 divides bound + 4, so a gate would skip it before its primality
        ["lucas-test", str(bound + 4), "--p", "3"],
        ["pell-test", str(bound + 4), "--d", "5", "--a", "1"],
        ["bridge", str(bound + 4), "--from-lucas", "--p", "3"],
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


@pytest.mark.parametrize("argv,header,ns", [
    (["pell", "--d", "6", "--a", "4", "--to", "3000"], "schema,command,kind,d,a,n",
     [77, 187, 217, 323, 341, 377, 1763, 2387]),
    # no hits: the header alone
    (["lucas", "--p", "3", "--to", "20"], "schema,command,kind,p,q,n", []),
])
def test_enumerate_csv(capsys, argv, header, ns):
    code, out = run(capsys, "enumerate", *argv, "--workers", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == header
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == ns


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


# sha256 of cli.main stdout; equal for every worker count and on both
# kernel backends, so any change to enumerate's output bytes shows here.
OUTPUT_DIGESTS = [
    (["enumerate", "pell", "--d", "3", "--x", "8", "--y", "66", "--to", "20000"],
     0, "f8cf6558353871ba6ff10039266261c1ed75155d8d9a292790ac86eafe4d55be"),
    (["enumerate", "lucas", "--p", "3", "--to", "20000", "--strong"],
     0, "0697e5d35a44e9487f838ee2e438758eb3d721241a18f2881ef8dee91029c2c1"),
    (["reproduce"],
     3, "c04a1ea74fe38ee8c3d13baf0660da3ed162c19be49945a4cc617a149f8d3512"),
    # four runs of blocks, so --workers 2 starts two threads (none on the pure scan)
    (["enumerate", "pell", "--d", "6", "--a", "4", "--to", "100000"],
     0, "cf96f8a083aa0b6c30de994119d2ed979de613f929d1a1a1341cafb07e6950ae"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv,exit_code,digest", OUTPUT_DIGESTS)
def test_output_bytes_pinned(capsys, argv, exit_code, digest, workers):
    code, out = run(capsys, *argv, "--format", "jsonl", "--workers", workers)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SPARSE = ["enumerate", "pell", "--d", "3", "--x", "8", "--y", "66", "--to", "100000"]
SEED = ["enumerate", "pell", "--d", "6", "--a", "4", "--to", "100000"]
# sha256 of the table and CSV stdout of enumerate, equal for every worker
# count and on both kernel backends: the table's counts and its skips per
# reason, which no JSONL digest covers.  Four runs of blocks each, so
# --workers 2 starts two threads for the seed (none for the point, nor on
# the pure scan).
TABLE_CSV_DIGESTS = [
    pytest.param(SPARSE, "table", "c721bca8cfe3a92c406ae9b5383a6c87feaedf28085105f5d5f6b18446b5611c",
                 id="point-table"),
    pytest.param(SPARSE, "csv", "b280c0e6e6ad85b5eae2bb1764dee73a3af02c3ca3f4b5c6adafe7478851520d",
                 id="point-csv"),
    pytest.param(SEED, "table", "58548e343fc4d4f5484c91cd2c571d3a7932bbbd851e4f2812077033f7a8b057",
                 id="seed-table"),
    pytest.param(SEED, "csv", "c71a04e6cbe97ac97b561353e8e58c58a126d0fcfa3e3cb7da40d2f658d3aaba",
                 id="seed-csv"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv,fmt,digest", TABLE_CSV_DIGESTS)
def test_table_and_csv_bytes_pinned(capsys, argv, fmt, digest, workers):
    code, out = run(capsys, *argv, "--format", fmt, "--workers", workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_output_pipe_exits_141():
    # about 600 kB of JSONL, more than a pipe holds; the reader stops at 50 bytes
    src = os.path.dirname(os.path.dirname(pellucas.__file__))
    argv = ["enumerate", "pell", "--d", "3", "--x", "8", "--y", "66", "--to", "20000",
            "--workers", "1", "--format", "jsonl"]
    proc = subprocess.Popen([sys.executable, "-m", "pellucas.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(50).startswith(b'{"schema": 1, "command": "enumerate"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_ctrl_c_exits_130(capsys, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted)
    previous = signal.getsignal(signal.SIGINT)
    try:
        with pytest.raises(SystemExit) as exit:
            cli.console_main()
        # a second Ctrl-C is ignored from the first one's handler on
        assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)
    assert exit.value.code == 130
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(kernels.BACKEND != "compiled",
                    reason="compiled backend not built; run python setup.py build_ext --inplace")
@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc to see the search's threads, and two cores for them")
@pytest.mark.parametrize("gap_ms", [1, 2, 5, 10])
def test_second_ctrl_c_exits_130_without_a_traceback(gap_ms):
    # a dense search at --workers 2 runs on two pool threads; the first
    # SIGINT lands once they have started, the second while the search joins
    # them or the interpreter ends
    src = os.path.dirname(os.path.dirname(pellucas.__file__))
    argv = ["enumerate", "lucas", "--p", "3", "--from", "4000000000000000000",
            "--to", "4000000000400000000", "--workers", "2", "--format", "jsonl"]
    proc = subprocess.Popen([sys.executable, "-m", "pellucas.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(f"/proc/{proc.pid}/task")) < 3:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        time.sleep(gap_ms / 1000)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err.decode()
    assert b"Exception ignored" not in err and b"Traceback" not in err, err.decode()


class Sink(io.TextIOBase):
    """A text stdout that discards what it is given."""

    def write(self, text):
        return len(text)


def enumerate_peak(search, to):
    """tracemalloc peak, in bytes, of a JSONL search up to ``to``, in every thread."""
    argv = [*search, "--to", str(to), "--format", "jsonl"]
    tracemalloc.start()
    try:
        with redirect_stdout(Sink()):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_memory_does_not_grow_with_the_range():
    point = ["enumerate", "pell", "--d", "3", "--x", "8", "--y", "66", "--workers", "1"]
    enumerate_peak(point, 3000)  # imports and caches are not part of the search
    assert enumerate_peak(point, 240_000) <= 1.2 * enumerate_peak(point, 60_000)


@pytest.mark.skipif(kernels.BACKEND != "compiled",
                    reason="compiled backend not built; run python setup.py build_ext --inplace")
def test_threaded_enumerate_memory_does_not_grow_with_the_range():
    # threads scan the seed.  How many scanned runs wait for the merge at
    # once depends on timing, so the short range has 30 runs, enough to
    # meet the pool's bound: its peak read 1.5-2.2 MB over 6 runs, and
    # 2.0-2.1 MB over 30.  The pure scan keeps it to one thread, and is slow.
    seed = ["enumerate", "pell", "--d", "6", "--a", "4", "--workers", "2"]
    enumerate_peak(seed, 3000)
    assert enumerate_peak(seed, 4_000_000) <= 1.2 * enumerate_peak(seed, 1_000_000)


def test_cli_import_leaves_out_the_process_pool():
    # a search's workers are threads, whose pool only such a search imports
    src = os.path.dirname(os.path.dirname(pellucas.__file__))
    unwanted = ("concurrent.futures.process", "concurrent.futures.thread", "dataclasses",
                "queue", "pickle")
    code = f"import sys, pellucas.cli; print([m in sys.modules for m in {unwanted}])"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[False, False, False, False, False]\n"


# ------------------------------------------------------------------ fuzz

BOUND = kernels.MR_DETERMINISTIC_BOUND
FUZZ_INTS = st.sampled_from([
    -(1 << 64), -21, -3, -1, 0, 1, 2, 4, 12, 1000,
    3, 5, 7, 9, 15, 21, 25, 85, 163, 323, 341, 1891, 10**12 + 39, (1 << 61) - 1,
    (1 << 63) - 1, (1 << 63) + 1, BOUND - 2, BOUND + 2,
])
# (command words, flags always given, flags given or not); some entries
# can leave out a flag that the command needs
FUZZ_COMMANDS = [
    (["lucas-test"], ["--p"], ["--q"]),
    (["pell-test"], ["--d", "--a"], ["--x"]),
    (["pell-test"], ["--d", "--x", "--y"], []),
    (["enumerate", "lucas"], ["--p"], ["--q", "--d"]),
    (["enumerate", "pell"], ["--d", "--a"], ["--p"]),
    (["enumerate", "pell"], ["--d", "--x", "--y"], ["--a"]),
    (["enumerate", "pell"], [], ["--x", "--a"]),
    (["bridge", "--from-lucas"], ["--p"], ["--d"]),
    (["bridge", "--from-pell"], ["--d", "--x", "--y"], ["--p"]),
    (["bridge", "--from-pell"], ["--d"], ["--x"]),
]


@st.composite
def cli_argv(draw):
    words, always, maybe = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(words)
    if words[0] == "enumerate":
        lo = draw(FUZZ_INTS)
        hi = lo + draw(st.integers(-2, 200))
        argv += ["--from", str(lo), "--to", str(hi), "--workers", "1"]
    else:
        argv.insert(1, str(draw(FUZZ_INTS)))
    for flag in always + [f for f in maybe if draw(st.booleans())]:
        argv += [flag, str(draw(FUZZ_INTS))]
    if draw(st.booleans()):
        argv.append("--strong")
    return argv + ["--format", draw(st.sampled_from(["table", "jsonl", "csv"]))]


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_fuzz_gives_a_verdict_or_exit_2(argv):
    # every input gets output and exit 0, or a usage message and exit 2
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()
    else:
        assert code == 0 and out.getvalue() and not err.getvalue()
