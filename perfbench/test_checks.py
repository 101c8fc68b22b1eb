"""Tests of the benchmark's own checks, without running any workload.

    python -m pytest perfbench

Each check is fed an honest result, which it must accept, and tampered
copies, which it must reject.  The honest results are built here from the
oracle's definitions; the last test also feeds the checks real pellucas
output when the package is importable.
"""

import copy
import json
import os
import sys
import types

import pytest

import inputs
import oracle
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "src", "pellucas", "data", "fixtures.txt")


def honest(search):
    """The report pellucas must print for ``search``, from the definitions."""
    report = {"pseudoprimes": [], "skipped": [], "counts": dict.fromkeys(oracle.STATUSES, 0)}
    for n in oracle.odd_range(search["lo"], search["hi"]):
        status, reason, wit = oracle.verdict_for(search, n)
        report["counts"][status] += 1
        if status == oracle.PSEUDOPRIME:
            report["pseudoprimes"].append(n)
        elif status == oracle.NOT_APPLICABLE:
            report["skipped"].append([n, reason, wit.get("gcd")])
    return report


def check(search, report):
    facs = oracle.factor_odd_range(search["lo"], search["hi"])
    return oracle.check_search(search, report, facs)


LUCAS = dict(inputs.LUCAS_P3, name="lucas", lo=3, hi=3001)
PELL = dict(inputs.PELL_D6, name="pell", lo=3, hi=3001)
SPARSE = {"kind": "pell", "d": 3, "x": 8, "y": 66, "strong": False, "name": "sparse",
          "lo": 3, "hi": 4001}


def move(report, n, src, dst):
    report["counts"][src] -= 1
    report["counts"][dst] += 1


@pytest.mark.parametrize("search", [LUCAS, PELL, SPARSE], ids=["lucas", "pell", "sparse"])
def test_honest_reports_pass(search):
    assert check(search, honest(search)) == []


def test_added_pseudoprime_is_rejected():
    report = honest(LUCAS)
    n = 1001  # 7 * 11 * 13; U_1000(3, 1) != 0 mod 1001
    assert oracle.lucas_verdict(n, 3, 1)[0] == oracle.COMPOSITE
    report["pseudoprimes"] = sorted(report["pseudoprimes"] + [n])
    move(report, n, oracle.COMPOSITE, oracle.PSEUDOPRIME)
    assert any("1001" in e for e in check(LUCAS, report))


@pytest.mark.parametrize("search", [LUCAS, PELL], ids=["lucas", "pell"])
def test_dropped_pseudoprime_is_rejected(search):
    # the first and the last pseudoprime of the range
    for n in (honest(search)["pseudoprimes"][0], honest(search)["pseudoprimes"][-1]):
        report = honest(search)
        report["pseudoprimes"].remove(n)
        move(report, n, oracle.PSEUDOPRIME, oracle.COMPOSITE)
        assert any(str(n) in e and "not reported" in e for e in check(search, report))


def test_prime_reported_composite_is_rejected():
    report = honest(LUCAS)
    move(report, 2999, oracle.PRIME, oracle.COMPOSITE)
    assert any("Prime count" in e for e in check(LUCAS, report))


def test_dropped_not_on_conic_skip_is_rejected():
    report = honest(SPARSE)
    dropped = next(s for s in report["skipped"] if s[1] == "point-not-on-conic")
    report["skipped"].remove(dropped)
    move(report, dropped[0], oracle.NOT_APPLICABLE, oracle.COMPOSITE)
    assert check(SPARSE, report)
    assert oracle.check_sparse_support(report, SPARSE["lo"], SPARSE["hi"])


def test_sparse_support_is_the_odd_divisors_of_13005():
    report = honest(SPARSE)
    assert oracle.check_sparse_support(report, 3, 4001) == []
    tested = [n for n in oracle.odd_range(3, 4001)
              if n not in {s[0] for s in report["skipped"] if s[1] == "point-not-on-conic"}]
    assert tested == [3, 5, 9, 15, 17, 45, 51, 85, 153, 255, 289, 765, 867, 1445, 2601]


def test_wrong_skip_reason_and_bad_counts_are_rejected():
    report = honest(PELL)
    skip = report["skipped"][0]
    skip[1] = "gcd-failure" if skip[1] != "gcd-failure" else "jacobi-zero"
    assert check(PELL, report)
    report = honest(PELL)
    report["counts"][oracle.COMPOSITE] += 1
    assert any("do not sum" in e for e in check(PELL, report))


def test_reference_prefix():
    text = open(FIXTURES).read()
    hits = honest(dict(LUCAS, hi=5001))["pseudoprimes"]
    assert oracle.check_reference_prefix(hits, text) == []
    assert oracle.check_reference_prefix([n for n in hits if n != 1891], text)


def _reproduce_records(expectation):
    return [
        {"fixture": label, "expected": expected, "actual": actual, "passed": actual == expected}
        for label, (expected, actual) in expectation.items()
    ]


def test_reproduce_check():
    expectation = oracle.reproduce_expectation(open(FIXTURES).read())
    records = _reproduce_records(expectation)
    assert oracle.check_reproduce(3, records, expectation) == []
    assert oracle.check_reproduce(0, records, expectation)  # wrong exit code
    tampered = copy.deepcopy(records)
    tampered[0]["actual"].remove(1891)
    tampered[0]["passed"] = True
    assert oracle.check_reproduce(3, tampered, expectation)
    assert oracle.check_reproduce(3, records[1:], expectation)


def _record(argv):
    code, want = oracle.expect_call(argv)
    return code, json.dumps(dict(want, schema=1, command=argv[0])) if want else ""


@pytest.mark.parametrize("argv", [
    ["lucas-test", "21", "--p", "3", "--format", "jsonl"],
    ["pell-test", "85", "--d", "3", "--a", "4", "--strong", "--format", "jsonl"],
    ["bridge", "85", "--from-pell", "--d", "3", "--x", "8", "--y", "66", "--format", "jsonl"],
    ["lucas-test", "20", "--p", "3", "--format", "jsonl"],
])
def test_single_call_check(argv):
    expected = oracle.expect_call(argv)
    code, out = _record(argv)
    assert oracle.check_call(argv, code, out, "", expected) == (False, [])
    # a wrong exit code, or a traceback, fails the operation
    assert oracle.check_call(argv, 1, out, "", expected)[0]
    assert oracle.check_call(argv, code, out, "Traceback (most recent call last)", expected)[0]
    if expected[1] is not None:
        rec = json.loads(out)
        key = "status" if "status" in rec else "pell_status"
        rec[key] = oracle.PRIME if rec[key] != oracle.PRIME else oracle.COMPOSITE
        assert oracle.check_call(argv, code, json.dumps(rec), "", expected)[1]


def test_known_values():
    assert oracle.lucas_verdict(21, 3, 1)[0] == oracle.PSEUDOPRIME
    assert oracle.lucas_u(14, 1, 84, 85)[0] == 25
    assert oracle.brahmagupta_pow(12, 11, 5, 20, 21) == (13, 0)
    assert oracle.expect_call(inputs.MR_CALL) == (2, None)


def test_rounds_have_the_same_operations_for_every_seed():
    for name in inputs.WORKLOADS:
        shapes = {
            (len(w["chunks"]), len(w["calls"]), bool(w["sparse"]))
            for w in (inputs.workload(name, seed) for seed in range(20))
        }
        assert len(shapes) == 1, name
        assert inputs.workload(name, 7) == inputs.workload(name, 7)


def test_tracer_self_time():
    toy = types.ModuleType("pellucas_toy")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n", toy.__dict__)
    sys.modules[toy.__name__] = toy
    try:
        tracer = spans.Tracer()
        tracer.instrument(toy, "inner", "toy.inner")
        tracer.instrument(toy, "outer", "toy.outer")
        assert toy.outer(1) == 4
        totals = tracer.totals()
        assert totals["toy.inner"][0] == totals["toy.outer"][0] == 1
        assert totals["toy.outer"][2] == pytest.approx(totals["toy.outer"][1] - totals["toy.inner"][1])
        tracer.restore()
        assert toy.outer(1) == 4 and len(tracer.start) == 2
    finally:
        del sys.modules[toy.__name__]


def test_checks_accept_real_output():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pellucas = pytest.importorskip("pellucas")
    from worker import _params, report_data

    for search in (LUCAS, PELL, SPARSE):
        spec = pellucas.SearchSpec(search["kind"], _params(search), search["lo"], search["hi"])
        assert check(search, report_data(pellucas.enumerate_range(spec))) == []
