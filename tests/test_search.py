"""Range enumeration, skip reporting, fixtures, parallel determinism."""

import hashlib
import json
import os
import pickle
import signal
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pellucas
from pellucas import (
    LucasParams,
    PellParams,
    SearchSpec,
    Skip,
    Status,
    _kernels_py,
    enumerate_range,
    kernels,
    load_fixtures,
    lucas_test,
    lucas_to_phi_params,
    pell_test,
    reproduce,
    search,
    strong_lucas_test,
    strong_pell_test,
)
from pellucas.fixtures import parse_fixtures, run_fixture
from pellucas.kernels import MR_DETERMINISTIC_BOUND

BACKENDS = kernels.backends()
ONE_THREAD = search._one_thread


def trial_division_composite(n):
    """Independent compositeness re-check for report auditing."""
    if n < 4:
        return False
    return any(n % d == 0 for d in range(2, int(n**0.5) + 1))


def test_spec_validation():
    params = LucasParams(3, 1)
    with pytest.raises(ValueError):
        SearchSpec("lucas", params, 5, 3)  # empty range
    with pytest.raises(ValueError):
        SearchSpec("lucas", params, 1, 100)  # below 3
    with pytest.raises(ValueError):
        SearchSpec("other", params, 3, 100)
    with pytest.raises(ValueError):
        SearchSpec("pell", params, 3, 100)  # wrong params type
    with pytest.raises(ValueError):
        SearchSpec("lucas", params, 3, MR_DETERMINISTIC_BOUND)  # answer not deterministic
    SearchSpec("lucas", params, 3, MR_DETERMINISTIC_BOUND - 1)


def test_lucas_enumeration_small():
    spec = SearchSpec("lucas", LucasParams(3, 1), 3, 100)
    report = enumerate_range(spec)
    assert report.pseudoprimes == (21,)
    # multiples of 5 have jacobi(5, n) = 0
    assert set(report.skipped_ns("jacobi-zero")) == set(range(5, 101, 10))
    assert report.counts["Pseudoprime"] == 1
    assert report.counts["NotApplicable"] == len(report.skipped)


def test_pell_enumeration_with_fixed_point():
    # the fixed integer point (8, 66) only lies on the conic for odd n
    # dividing structure of 8^2 - 3*66^2 - 1; within [3, 100] that is
    # exactly {3, 5, 9, 15, 17, 45, 51, 85}
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 100)
    report = enumerate_range(spec)
    off = set(report.skipped_ns("point-not-on-conic"))
    testable = [n for n in range(3, 101, 2) if n not in off]
    assert testable == [3, 5, 9, 15, 17, 45, 51, 85]
    assert report.pseudoprimes == (85,)
    # of the testable ones, those sharing a factor with y = 66 drop out
    assert set(report.skipped_ns("gcd-failure")) == {3, 9, 15, 45, 51}
    assert report.counts["Prime"] == 2  # 5 and 17


def test_pseudoprimes_are_composite_by_independent_check():
    specs = [
        SearchSpec("lucas", LucasParams(4, 1), 3, 2000),
        SearchSpec("pell", PellParams.from_seed(6, 4), 3, 2000),
    ]
    for spec in specs:
        for n in enumerate_range(spec).pseudoprimes:
            assert trial_division_composite(n)


def test_strong_enumeration_is_subset():
    plain = enumerate_range(SearchSpec("lucas", LucasParams(3, 1), 3, 2500))
    strong = enumerate_range(SearchSpec("lucas", LucasParams(3, 1), 3, 2500, strong=True))
    assert set(strong.pseudoprimes) <= set(plain.pseudoprimes)
    assert 21 in plain.pseudoprimes and 21 not in strong.pseudoprimes


def test_equivalence_sweep_via_parametrization():
    # the seed (p^2 - 4, p + 2) runs the same test as the Lucas one; the
    # moduli it skips are exactly those the Lucas side gates on jacobi
    for p in (3, 4):
        d, a = lucas_to_phi_params(p)
        lucas_rep = enumerate_range(SearchSpec("lucas", LucasParams(p, 1), 3, 5000))
        pell_rep = enumerate_range(SearchSpec("pell", PellParams.from_seed(d, a), 3, 5000))
        skipped = set(pell_rep.skipped_ns())
        assert not (set(lucas_rep.pseudoprimes) & skipped)
        assert pell_rep.pseudoprimes == lucas_rep.pseudoprimes


def test_parallel_determinism():
    specs = [
        SearchSpec("pell", PellParams.from_seed(23, 32), 3, 3000),
        # four runs of blocks, so up to four worker threads
        SearchSpec("pell", PellParams.from_seed(6, 4), 3, 100_000),
    ]
    for spec in specs:
        baseline = enumerate_range(spec, workers=1)
        for workers in (2, 8):
            report = enumerate_range(spec, workers=workers)
            assert report == baseline


# sha256 of repr(enumerate_range(spec, workers)); equal for every worker
# count and on both kernel backends, so any change to the library report
# (its skips' repr included) shows here.  Over 3..100000 there are four runs
# of blocks, so workers 2 starts two threads (none for the point, nor on
# the pure scan).
REPORT_DIGESTS = [
    (SearchSpec("lucas", LucasParams(3, 1), 3, 100_000),
     "e1f3c051af3a66b0892acf1fe59e57e921aa6bdd26d5427ed0cd6194091afdb0"),
    (SearchSpec("pell", PellParams.from_seed(6, 4), 3, 100_000, strong=True),
     "d607dfabbb368a6e42a7e22dc741a6f54da6831af8c139eeeeab7966bb625baa"),
    (SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 100_000),
     "cde4c4f0b71249603d784a709e4956bee4e0b311aed3f05842656919bd7bb931"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec,digest", REPORT_DIGESTS)
def test_report_bytes_pinned(spec, digest, workers):
    report = enumerate_range(spec, workers)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest


def test_skip_is_a_plain_record():
    skip = Skip(15, "gcd-failure", 3)
    n, reason, factor = skip
    assert (n, reason, factor) == (15, "gcd-failure", 3)
    assert skip == (15, "gcd-failure", 3)
    assert Skip(7, "point-not-on-conic").factor is None
    assert pickle.loads(pickle.dumps(skip)) == skip
    assert repr(skip) == "Skip(n=15, reason='gcd-failure', factor=3)"
    assert repr(Skip(7, "jacobi-zero")) == "Skip(n=7, reason='jacobi-zero', factor=None)"


def test_skip_is_one_record_everywhere():
    assert pellucas.Skip is search.Skip is _kernels_py.Skip
    assert Skip.__module__ == "pellucas._kernels_py"
    # a Skip pickled while the record lived in ``search`` still loads
    old = (
        b"\x80\x04\x952\x00\x00\x00\x00\x00\x00\x00\x8c\x0fpellucas.search\x94\x8c\x04Skip"
        b"\x94\x93\x94K\x0f\x8c\x0bgcd-failure\x94K\x03\x87\x94\x81\x94."
    )
    skip = pickle.loads(old)
    assert type(skip) is Skip and skip == (15, "gcd-failure", 3)


def test_fixture_parsing_and_labels():
    fixtures = load_fixtures()
    kinds = [f.kind for f in fixtures]
    assert kinds.count("lucas") == 2
    assert kinds.count("pell") == 4
    assert kinds.count("pell-membership") == 1
    assert kinds.count("pell-value") == 2
    assert kinds.count("lucas-value") == 1
    lucas3 = fixtures[0]
    assert lucas3.label == "lucas P=3 Q=1 range=3..5000"
    assert lucas3.expected[0] == 21


def test_reproduce_reports_known_divergences():
    results = {r.fixture.label: r for r in reproduce(workers=1)}
    # the two reference lists that conflict with the gcd/jacobi hypotheses
    bad3 = results["lucas P=3 Q=1 range=3..5000"]
    assert not bad3.passed
    assert "extra [1891]" in bad3.note
    bad29 = results["pell D=29 a=48 range=3..3000"]
    assert not bad29.passed
    assert "missing [1101, 2679]" in bad29.note
    # every other fixture reproduces bit-exactly
    for label, res in results.items():
        if label not in (bad3.fixture.label, bad29.fixture.label):
            assert res.passed, f"{label}: {res.note}"


def test_reproduce_filtering():
    assert len(reproduce(only="lucas", workers=1)) == 2
    assert len(reproduce(only="pell", workers=1)) == 4
    assert len(reproduce(only="pell-value", workers=1)) == 2


@pytest.mark.parametrize("workers", [0, -3])
def test_reproduce_rejects_workers_below_one(workers):
    # pell-value fixtures never search, so the check must come first
    with pytest.raises(ValueError, match=f"workers must be 1 or more, got {workers}"):
        reproduce(only="pell-value", workers=workers)


def test_corrupted_fixture_is_flagged():
    fixtures = parse_fixtures(
        "pell-value D=5 x=12 y=11 n=21 e=20 expect=13,1\n"
        "lucas-value P=14 Q=1 k=84 n=85 expect=25\n"
    )
    first = run_fixture(fixtures[0])
    assert not first.passed
    assert first.actual == (13, 0)
    assert run_fixture(fixtures[1]).passed


def test_fixture_parse_errors():
    with pytest.raises(ValueError):
        parse_fixtures("unknown-kind P=3 expect=1\n")
    with pytest.raises(ValueError):
        parse_fixtures("lucas P=3 Q=1 range=3..50\n")  # no expect


def time_out(signum, frame):
    raise TimeoutError("the threaded search did not end")


def search_threads():
    """The worker threads of a search that are alive."""
    return [t for t in threading.enumerate() if t.name.startswith("pellucas")]


@contextmanager
def first_scans_meet(monkeypatch, threads):
    """Hold each thread's first ``kernels.scan`` call until ``threads`` threads have made one.

    A pool hands a run to a thread that has finished one before it starts
    another, so a quick run could leave a thread unstarted; here each of the
    ``threads`` must start.  If fewer begin, the barrier breaks, and the
    search raises ``BrokenBarrierError``.
    """
    barrier, begun, scan = threading.Barrier(threads, timeout=10), set(), kernels.scan

    def meet(*args):
        if threading.current_thread() not in begun:
            begun.add(threading.current_thread())
            barrier.wait()
        return scan(*args)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "scan", meet)
        yield


@pytest.fixture
def started(monkeypatch):
    """The names of the threads a search starts, through a wrapper around ``Thread.start``.

    Fails the test if it leaves a worker alive, or runs over a minute.
    """
    names = []
    real_start = threading.Thread.start

    def start(thread):
        names.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    # many cores, so that only the tests that lower it meet the core cap
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # the thread tests run the point search, quick on either backend: it
    # gets the threads that iter_blocks gives no sparse or pure search
    monkeypatch.setattr(search, "_one_thread", lambda spec: False)
    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(60)
    try:
        yield names
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert search_threads() == []


def test_workers_capped_at_block_count(started, monkeypatch):
    # never more workers than runs of blocks, so a huge worker count has
    # three threads
    point = PellParams.from_point(3, 8, 66)
    spec = SearchSpec("pell", point, 3, 3 + 3 * search.RUN_SPAN - 1)
    baseline = enumerate_range(spec, workers=1)
    assert started == []
    with first_scans_meet(monkeypatch, 3):
        assert enumerate_range(spec, workers=10**6) == baseline
    assert started == ["pellucas-search_0", "pellucas-search_1", "pellucas-search_2"]
    # a search of one run stays in the caller's thread
    enumerate_range(SearchSpec("pell", point, 3, 3 + search.RUN_SPAN - 1), workers=2)
    assert len(started) == 3
    # so does a point off the integer conic, whose gates pass only the
    # divisors of x^2 - d y^2 - 1 (-13005 here); not one on it, as (3, 2) is,
    # unless the pure scan runs it
    monkeypatch.setattr(search, "_one_thread", ONE_THREAD)
    assert enumerate_range(spec, workers=10**6) == baseline
    on_conic = spec._replace(params=PellParams.from_point(2, 3, 2))
    assert len(started) == 3 and ONE_THREAD(on_conic) == (kernels.BACKEND == "pure")


def test_a_search_the_pure_scan_runs_keeps_to_one_thread(started, monkeypatch):
    # the pure scan holds the GIL, so threads would only cost: above 2^63,
    # with a parameter outside signed 64-bit, or with no compiled extension
    monkeypatch.setattr(search, "_one_thread", ONE_THREAD)
    lo = (1 << 63) + 1
    spec = SearchSpec("lucas", LucasParams(3, 1), lo, lo + 3 * search.RUN_SPAN - 1)
    assert enumerate_range(spec, workers=2) == enumerate_range(spec, workers=1)
    assert started == []
    assert ONE_THREAD(SearchSpec("lucas", LucasParams(3, -(1 << 63) - 1), 3, 10**6))
    assert ONE_THREAD(spec._replace(lo=3, hi=10**6)) == (kernels.BACKEND == "pure")


def test_workers_capped_at_core_count(started, monkeypatch):
    # never more workers than cores, whose threads the scans would share;
    # the workers are threads, which need no os.fork
    monkeypatch.delattr(os, "fork")
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    baseline = enumerate_range(spec, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with first_scans_meet(monkeypatch, 2):
        assert enumerate_range(spec, workers=10**6) == baseline
        assert enumerate_range(spec, workers=None) == baseline
    assert started == ["pellucas-search_0", "pellucas-search_1"] * 2
    # an unknown core count means one: the search stays in the caller's thread
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert enumerate_range(spec, workers=10**6) == baseline
    assert len(started) == 4


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(started, workers):
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises(ValueError, match="workers"):
        enumerate_range(spec, workers=workers)
    assert started == []


def scanned_by(monkeypatch):
    """(thread name, lo) of each ``kernels.scan`` call, through a wrapper around it."""
    calls, scan = [], kernels.scan

    def traced(*args):
        calls.append((threading.current_thread().name, args[3]))
        return scan(*args)

    monkeypatch.setattr(kernels, "scan", traced)
    return calls


def test_blocks_are_scanned_in_the_workers(started, monkeypatch):
    spec = SearchSpec("pell", PellParams.from_seed(6, 4), 3, 3 + 3 * search.RUN_SPAN - 1)
    assert ONE_THREAD(spec) == (kernels.BACKEND == "pure")
    inline = list(search.iter_blocks(spec, 1, "reasons"))
    calls = scanned_by(monkeypatch)
    with first_scans_meet(monkeypatch, 2):
        assert list(search.iter_blocks(spec, 2, "reasons")) == inline
    # each block is scanned once, in one of the two threads the search
    # starts; the caller's thread only merges
    assert started == ["pellucas-search_0", "pellucas-search_1"]
    assert sorted(lo for _, lo in calls) == list(range(spec.lo, spec.hi + 1, search.BLOCK_SPAN))
    assert all(name in started for name, _ in calls)


def test_closing_the_generator_stops_the_workers(started, monkeypatch):
    # seven runs of sparse blocks, more than the pool scans ahead: closing
    # cancels the runs not begun and joins the threads
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 7 * search.RUN_SPAN - 1)
    first = next(search.iter_blocks(spec, 1))
    with first_scans_meet(monkeypatch, 2):
        blocks = search.iter_blocks(spec, 2)
        assert next(blocks) == first
        blocks.close()
    assert len(started) == 2
    assert search_threads() == []


def test_ctrl_c_stops_the_workers(started, monkeypatch):
    # SIGINT reaches the caller's thread, which only merges the blocks
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 7 * search.RUN_SPAN - 1)
    with pytest.raises(KeyboardInterrupt), first_scans_meet(monkeypatch, 2):
        for _ in search.iter_blocks(spec, 2):
            os.kill(os.getpid(), signal.SIGINT)
    assert len(started) == 2
    assert search_threads() == []


def test_a_workers_exception_is_raised_in_the_caller(started, monkeypatch):
    scan = kernels.scan

    def refuse(*args):
        if threading.current_thread() is not threading.main_thread():
            raise LookupError("no scan in a worker")
        return scan(*args)

    monkeypatch.setattr(kernels, "scan", refuse)
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises(LookupError, match="^no scan in a worker$") as raised:
        with first_scans_meet(monkeypatch, 2):
            list(search.iter_blocks(spec, 2))
    assert type(raised.value) is LookupError
    assert len(started) == 2


def test_blocks_in_flight_stay_bounded(started, monkeypatch):
    # the pool scans the caller's first run and one more for each of the
    # two threads and for QUEUE_RUNS - 1 ready runs; unbounded, it would
    # scan all 320 blocks
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 20 * search.RUN_SPAN - 1)
    calls = scanned_by(monkeypatch)
    blocks = search.iter_blocks(spec, 2)
    next(blocks)
    time.sleep(0.5)
    in_flight = len(calls)
    time.sleep(0.2)
    assert len(calls) == in_flight <= (1 + search.QUEUE_RUNS + 1) * search.RUN_BLOCKS
    blocks.close()


def test_blocks_are_made_lazily():
    # 10^6 blocks: the first arrives without the others being built
    lo = 10**15 + 1
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), lo, lo + 2 * 10**9)
    hits, skips, counts = next(search.iter_blocks(spec, workers=1))
    assert sum(counts) == search.BLOCK_SPAN // 2


# ------------------------------------------------------------- scan parity

PER_N = {
    ("lucas", False): lucas_test,
    ("lucas", True): strong_lucas_test,
    ("pell", False): pell_test,
    ("pell", True): strong_pell_test,
}


def per_n_scan(kind, strong, params, lo, hi):
    """The scan's (hits, skips, counts), built from the per-n tests."""
    test = PER_N[kind, strong]
    hits, skips, counts = [], [], dict.fromkeys(Status, 0)
    for n in range(lo | 1, hi + 1, 2):
        verdict = test(n, params)
        counts[verdict.status] += 1
        if verdict.status is Status.PSEUDOPRIME:
            hits.append(n)
        elif verdict.status is Status.NOT_APPLICABLE:
            skips.append((n, verdict.reason, verdict.witnesses.get("gcd")))
    return hits, skips, tuple(counts[status] for status in Status)


def backend_scan(name, kind, strong, params, lo, hi):
    hits, skips, counts = BACKENDS[name].scan(kind, strong, params, lo, hi)
    return list(hits), list(skips), tuple(counts)


# Signed 64-bit parameters: the compiled scan's whole range.
I64 = st.integers(-(2**63), 2**63 - 1)
SMALL = st.integers(-50, 50)

# (d, x, y) on x^2 - d y^2 = 1 over the integers, so on the conic mod every n
SOLUTIONS = [(2, 3, 2), (2, 17, 12), (3, 2, 1), (3, 7, 4), (3, 26, 15), (5, 9, 4), (6, 5, 2),
             (29, 9801, 1820), (-3, 1, 0), (7, -1, 0)]


@st.composite
def windows(draw):
    """[lo, hi] of about 40 odd n at 3, around 2**32, at 10**12 or ending at 2**63 - 1."""
    width = draw(st.integers(1, 80))
    anchor = draw(st.sampled_from(["3", "2**32", "1e12", "2**63"]))
    if anchor == "3":
        return 3, 3 + width
    if anchor == "2**63":
        return 2**63 - 1 - width, 2**63 - 1
    lo = {"2**32": 2**32 - 60, "1e12": 10**12}[anchor] + draw(st.integers(0, 120))
    return lo, lo + width


@st.composite
def lucas_params(draw):
    p = draw(st.integers(1, 2**63 - 1) | st.integers(1, 30))
    q = draw(I64 | SMALL)
    return LucasParams(p, q) if p * p != 4 * q else LucasParams(p, q + 1)


@st.composite
def seed_params(draw):
    d = draw(I64 | SMALL)
    return PellParams.from_seed(d or 1, draw(I64 | SMALL))


@st.composite
def point_params(draw):
    d, x, y = draw(st.sampled_from(SOLUTIONS))
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    on_conic = (d, sx * x, sy * y)
    off_conic = (draw(I64 | SMALL) or 1, draw(I64 | SMALL), draw(I64 | SMALL))
    point = draw(st.sampled_from([on_conic, off_conic, (3, 8, 66), (-3, -8, -66)]))
    return PellParams.from_point(*point)


SCAN_CASES = st.one_of(
    st.tuples(st.just("lucas"), lucas_params()),
    st.tuples(st.just("pell"), seed_params()),
    st.tuples(st.just("pell"), point_params()),
)


@pytest.mark.parametrize("name", sorted(BACKENDS))
@settings(max_examples=150, deadline=None)
@given(case=SCAN_CASES, strong=st.booleans(), window=windows())
def test_scan_matches_per_n_tests(name, case, strong, window):
    kind, params = case
    lo, hi = window
    expected = per_n_scan(kind, strong, params, lo, hi)
    assert backend_scan(name, kind, strong, params, lo, hi) == expected


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_scan_matches_per_n_tests_on_fixtures(name):
    for fixture in load_fixtures():
        if fixture.kind == "lucas":
            kind, params = "lucas", LucasParams(fixture.get("P"), fixture.get("Q"))
        elif fixture.kind == "pell":
            kind, params = "pell", PellParams.from_seed(fixture.get("D"), fixture.get("a"))
        elif fixture.kind == "pell-membership":
            kind = "pell"
            params = PellParams.from_point(fixture.get("D"), fixture.get("x"), fixture.get("y"))
        else:
            continue
        lo, hi = fixture.get("lo"), fixture.get("hi")
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, lo, hi)
            assert backend_scan(name, kind, strong, params, lo, hi) == expected, fixture.label


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_scan_finds_pseudoprimes_above_2_32(name):
    # the hypothesis windows almost never hold a pseudoprime this large
    lucas_n, pell_n = 1000010665601, 1000000200577
    assert lucas_n == 774601 * 1291001 and pell_n == 7 * 1249 * 6967 * 16417
    for kind, params, n in (("lucas", LucasParams(3, 1), lucas_n),
                            ("pell", PellParams.from_seed(6, 4), pell_n)):
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, n - 80, n + 80)
            assert n in expected[0]
            assert backend_scan(name, kind, strong, params, n - 80, n + 80) == expected


# The compiled scan ladders its tested n in groups of four.  Lucas (4, 3)
# has D = 4, a square; (5, -1) has D = 29.
LANE_CASES = [("lucas", LucasParams(3, 1)), ("lucas", LucasParams(5, -1)),
              ("lucas", LucasParams(4, 3)), ("pell", PellParams.from_seed(6, 4)),
              ("pell", PellParams.from_point(3, 7, 4))]


@pytest.mark.parametrize("j", [20, 32, 40, 62])
def test_scan_groups_across_a_power_of_two(j):
    # about 300 odd n, so many groups; those across 2**j hold k of j and of
    # j + 1 bits.  Lucas (4, n0 + 1) has Q = 1 mod n0 alone, so a scan
    # from n0 puts a lane with Q = 1 first in a group that tracks Q^j for
    # the lanes after it; 100 such n0 put primes in those lanes.
    cases = [(kind, params, 2**j - 300, 2**j + 300) for kind, params in LANE_CASES]
    cases += [("lucas", LucasParams(4, n0 + 1), n0, n0 + 12)
              for n0 in range(2**j + 1, 2**j + 201, 2)]
    for kind, params, lo, hi in cases:
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, lo, hi)
            for name in BACKENDS:
                assert backend_scan(name, kind, strong, params, lo, hi) == expected, name


@pytest.mark.parametrize("odd_count", [1, 3, 5, 7])
def test_scan_short_ranges(odd_count):
    # fewer odd n than a group, or one group and a partial one
    for lo in (3, 2**20 - 5, 2**32 - 5, 10**12 + 39, 2**62 - 5, 2**63 - 2 * odd_count + 1):
        hi = lo + 2 * (odd_count - 1)
        for kind, params in LANE_CASES:
            for strong in (False, True):
                expected = per_n_scan(kind, strong, params, lo, hi)
                assert sum(expected[2]) == odd_count
                for name in BACKENDS:
                    assert backend_scan(name, kind, strong, params, lo, hi) == expected, name


# Below 2^40 the compiled scan counts an n with no factor up to isqrt(hi)
# as prime.  512^2 was the bound of a narrower sieve, and 521^2, the least
# odd composite with no factor below 512, needs 521.  Then calls that end
# at 2^32 - 1 and 2^32 + 1 and one across 2^32, where a narrower exact
# sieve stopped; 65519 is the largest prime up to isqrt(65519 * 65521) =
# 65519, and 65521 the largest below 2^16, the least factor of
# 65521 * 65537 < 2^32; 65537^2 is the least odd composite with no factor
# below 2^16.  Composites whose least factor is 4093, the largest of the
# rank primes below 2^12, or 4099, the first prime above, which waits in
# the buckets.  Then the same at 2^40: calls that end at 2^40 - 1 and
# 2^40 + 1 and one across 2^40; 1048571 * 1048573 < 2^40, the two largest
# primes below 2^20, and 1048573^2 < 2^40; 1048583^2 > 2^40, the least odd
# composite with no factor below 2^20.  Last, composites near 10^12 whose
# least factor is 65521, the last prime held in 16 bits, or 65537, the
# first past it.
EXACT_SIEVE_EDGES = [(512**2 - 401, 512**2 - 1), (512**2 - 399, 512**2 + 1),
                     (521**2 - 200, 521**2 + 200), (2**32 - 401, 2**32 - 1),
                     (2**32 - 399, 2**32 + 1), (2**32 - 2001, 2**32 + 2001),
                     (65537**2 - 200, 65537**2 + 200), (2**40 - 401, 2**40 - 1),
                     (2**40 - 399, 2**40 + 1), (2**40 - 2001, 2**40 + 2001)]
EXACT_SIEVE_EDGES += [(n - 400, n) for n in (65519 * 65521, 65521 * 65537, 1048571 * 1048573)]
EXACT_SIEVE_EDGES += [(n - 300, n + 300) for n in (65519 * 65521, 65521 * 65537, 4093**2,
                                                    4093 * 4099, 4099**2, 4093 * 1049387,
                                                    4099 * 1047821, 1048571 * 1048573,
                                                    1048573**2, 1048583**2, 65521 * 15262283,
                                                    65537 * 15258557)]


@pytest.mark.parametrize("lo, hi", EXACT_SIEVE_EDGES)
def test_scan_at_the_edge_of_the_exact_sieve(lo, hi):
    for kind, params in LANE_CASES:
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, lo, hi)
            for name in BACKENDS:
                assert backend_scan(name, kind, strong, params, lo, hi) == expected, name


@pytest.mark.parametrize("lo", [3, 2**32 - 2001, 10**12 + 7, 2**63 - 4201])
def test_scan_across_sieve_windows(lo):
    # the compiled scan sieves windows of 1024 odd n: 2,100 odd n from lo
    # fill two windows and part of a third.  kernels.scan runs it when it
    # is built; the pure scan of this many n is slow near 2**63.
    hi = lo + 2 * 2099
    for kind, params in LANE_CASES:
        for strong in (False, True):
            hits, skips, counts = kernels.scan(kind, strong, params, lo, hi)
            assert (list(hits), list(skips), tuple(counts)) == per_n_scan(kind, strong, params, lo, hi)


def test_scan_ranks_follow_the_test():
    # the compiled scan keeps the ranks of its last eight tests; Lucas
    # (3, 8) and the seed d = 3, a = 8 share their raw parameters, not their
    # ranks.  A scan copies them before it lets other threads run: eight
    # threads scanning two tests at once, handing the GIL over as often as
    # they can, agree
    for kind, params in (("lucas", LucasParams(3, 8)), ("pell", PellParams.from_seed(3, 8)),
                         ("lucas", LucasParams(3, 8))):
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, 3, 4001)
            for name in BACKENDS:
                assert backend_scan(name, kind, strong, params, 3, 4001) == expected, name
    def scan(case):
        return kernels.scan(case[0], False, case[1], 3, 40_001)

    cases = [("lucas", LucasParams(3, 1)), ("pell", PellParams.from_seed(6, 4))] * 32
    expected = list(map(scan, cases))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            assert list(pool.map(scan, cases)) == expected
    finally:
        sys.setswitchinterval(previous)


# Lucas P=3 pseudoprimes with a prime factor in (512, 2^12), found with the
# pure scan over 3..2*10^6.  Every prime factor p of such an n has a rank
# that divides n - (5/n); a rank left a multiple of the true one (a prime
# factor of p - (D/p) not struck) would call n CompositeDetected.
RANKED_PSEUDOPRIMES = [25369, 36143, 45381, 52701, 53663, 78151, 103729, 118441, 124681,
                       148849, 162133, 239257, 994517, 1081649, 1353451, 1949281]


def test_scan_finds_pseudoprimes_with_a_factor_of_rank():
    lucas = LucasParams(3, 1)
    for n in RANKED_PSEUDOPRIMES:
        expected = per_n_scan("lucas", False, lucas, n - 100, n + 100)
        assert n in expected[0]
        for name in BACKENDS:
            assert backend_scan(name, "lucas", False, lucas, n - 100, n + 100) == expected, n


def blocks(lo, count, span=2048):
    return [(b, b + span - 1) for b in range(lo, lo + count * span, span)]


L3, SEED64 = ("lucas", LucasParams(3, 1)), ("pell", PellParams.from_seed(6, 4))
# (test, strong, lo, hi) calls, in the order one thread makes them
CALL_SEQUENCES = {
    # the small-n pattern: the sieve's primes grow with hi, call by call
    "consecutive blocks from 3": [(*L3, False, lo, hi) for lo, hi in blocks(3, 12)],
    # exact calls, then calls above 2^32, where the small-factor bit stops
    "consecutive blocks across 2^32": [(*SEED64, False, lo, hi)
                                       for lo, hi in blocks(2**32 - 5 * 2048, 9)],
    "consecutive odd-sized calls": [(*L3, False, lo, hi)
                                    for lo, hi in blocks(10**12 + 1, 6, span=1234)],
    "two searches interleaved": [(*test, False, lo, hi) for lo, hi in blocks(2**32 - 8192, 4)
                                 for test in (L3, SEED64)],
    # each call starts at the odd n where the other test's call ended; a
    # sieve state of the wrong test could only hide a pseudoprime, and
    # these blocks hold dozens
    "two searches taking turns block by block": [(*(L3, SEED64)[i % 2], False, lo, hi)
                                                 for i, (lo, hi) in enumerate(blocks(3, 40))],
    "a gap": [(*L3, False, lo, hi) for lo, hi in blocks(10**12 + 1, 6)[::2]],
    "a step backwards": [(*L3, False, lo, hi) for lo, hi in blocks(2**32 - 8192, 4)[::-1]],
    "strong flipped": [(*SEED64, i % 2 == 1, lo, hi)
                       for i, (lo, hi) in enumerate(blocks(10**12 + 1, 4))],
    # Q = 1009 gives the prime 1009 rank 0, so it marks nothing; isqrt(hi)
    # passes it between these blocks, which must still agree
    "a rank-0 prime entering the small factors": [
        ("lucas", LucasParams(3, 1009), False, lo, hi) for lo, hi in blocks(1009**2 - 4095, 4)],
    # at 10^12 the primes above 2^12 up to 10^6 wait in buckets, each for
    # the block of its next odd multiple, and carry over with the rest
    "consecutive blocks at 10^12": [(*L3, False, lo, hi) for lo, hi in blocks(10**12 + 1, 6)],
    "a gap at 10^12": [(*SEED64, False, lo, hi) for lo, hi in blocks(10**12 + 1, 7)[::3]],
    "a step backwards at 10^12": [(*L3, False, lo, hi) for lo, hi in blocks(10**12 + 1, 4)[::-1]],
    "two searches taking turns at 10^12": [(*(L3, SEED64)[i % 2], False, lo, hi)
                                           for i, (lo, hi) in enumerate(blocks(10**12 + 1, 6))],
    # the exact calls below 2^40, then calls past it, which keep no buckets
    "consecutive blocks across 2^40": [(*L3, False, lo, hi)
                                       for lo, hi in blocks(2**40 - 3 * 2048, 5)],
}


@pytest.mark.parametrize("sequence", sorted(CALL_SEQUENCES))
def test_scan_call_sequences_in_one_thread(sequence):
    # the compiled scan carries its sieve's offsets from one call to the
    # next in each thread, for the same test and the next odd n; each call
    # must still give what the pure scan gives
    for kind, params, strong, lo, hi in CALL_SEQUENCES[sequence]:
        case = f"scan({kind!r}, {strong}, {params}, {lo}, {hi})"
        assert kernels.scan(kind, strong, params, lo, hi) == \
            _kernels_py.scan(kind, strong, params, lo, hi), case


@pytest.mark.skipif(kernels.BACKEND != "compiled",
                    reason="compiled backend not built; run python setup.py build_ext --inplace")
def test_scan_carries_per_thread():
    # four threads scan consecutive blocks of four searches at once, each
    # carrying its own sieve state, and agree with one thread's scans; the
    # pure scan keeps no state, and would take seconds
    starts = (2**32 - 8 * 4096, 10**12 + 1)

    def run(case):
        (kind, params), start = case
        return [kernels.scan(kind, False, params, lo, hi, "reasons")
                for lo, hi in blocks(start, 8, span=4096)]

    cases = [(test, start) for test in (L3, SEED64) for start in starts]
    expected = list(map(run, cases))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(run, cases * 4)) == expected * 4
    finally:
        sys.setswitchinterval(previous)


# Each gate reads a constant of the search: Lucas D = P^2 - 4Q and Q; a
# seed's a^2 - d, 2a and d; a point's x^2 - d y^2 - 1, y and d.  The
# compiled scan steps n mod c' with n for the odd part c' of each, unless
# c = 0 or c' >= 2^63.  Lucas (1, Q) has D = 1 - 4Q, a seed (d, 1) has
# a^2 - d = 1 - d, and the point (m^2 + 1, 2m^2 + 1, 2m) is on the conic.
GATE_CONSTANT_CASES = [
    # zero: D = 0 (a raw pair, which LucasParams refuses), a^2 = d, a = 0, y = 0
    ("lucas", (6, 9), 3, 401),
    ("pell", PellParams.from_seed(9, 3), 3, 401),
    ("pell", PellParams.from_seed(5, 0), 3, 401),
    ("pell", PellParams.from_point(3, 5, 0), 3, 401),
    ("pell", PellParams.from_point(2, -1, 0), 3, 401),
    # negative or even: D = 8, D = -4 * 5, d = -2
    ("lucas", LucasParams(2, -1), 3, 401),
    ("lucas", LucasParams(2, 6), 3, 401),
    ("pell", PellParams.from_seed(-2, 3), 3, 401),
    ("pell", PellParams.from_point(-2, 3, 5), 3, 401),
    # odd parts either side of 64: D = 61 and 65 (Q = -15, -16), d = 63 and 65
    ("lucas", LucasParams(1, -15), 3, 401),
    ("lucas", LucasParams(1, -16), 3, 401),
    ("pell", PellParams.from_seed(63, 2), 3, 401),
    ("pell", PellParams.from_point(65, 8, 1), 3, 401),
    # crossed by one call of 2,100 odd n: D = 3001 and Q = -750; a^2 - d =
    # -2995 and d = 2999; y = 2 * 3003 and d = 3003^2 + 1
    ("lucas", LucasParams(1, -750), 3, 4201),
    ("pell", PellParams.from_seed(2999, 2), 3, 4201),
    ("pell", PellParams.from_point(3003**2 + 1, 2 * 3003**2 + 1, 2 * 3003), 3, 4201),
    # two gates fail on one n, so the first in gate order names the skip:
    # D = -51 and Q = 15 (n = 15 jacobi-zero 3, n = 35 gcd-failure 5);
    # a^2 - d = 18, 2a = 10 and d = 7 (n = 15 and 45 parametrization-undefined
    # 3 and 9, n = 35 gcd-failure 5); y = 72 and d = 5 on 161^2 - 5 * 72^2 = 1
    # (n = 15 gcd-failure 3, n = 35 jacobi-zero 5)
    ("lucas", LucasParams(3, 15), 3, 401),
    ("pell", PellParams.from_seed(7, 5), 3, 401),
    ("pell", PellParams.from_point(5, 161, 72), 3, 401),
] + [
    # odd parts just below and just above 2^63: D = 2^63 - 3 and 2^63 + 1,
    # a^2 - d = 2^63 - 1 and 2^63 + 1, at 3 and across n = 2^63 - 3, 2^63 - 1;
    # and above 2^64, which a 64-bit word cannot hold: D = a^2 - d = 2^64 + 1
    (kind, params, lo, hi)
    for kind, params in (("lucas", LucasParams(1, 1 - 2**61)), ("lucas", LucasParams(1, -(2**61))),
                         ("pell", PellParams.from_seed(2 - 2**63, 1)),
                         ("pell", PellParams.from_seed(-(2**63), 1)),
                         ("lucas", LucasParams(1, -(2**62))), ("pell", PellParams.from_seed(-1, 2**32)))
    for lo, hi in ((3, 401), (2**63 - 201, 2**63 - 1))
]


@pytest.mark.parametrize("kind, params, lo, hi", GATE_CONSTANT_CASES)
def test_scan_gate_constants_at_their_edges(kind, params, lo, hi):
    for strong in (False, True):
        expected = per_n_scan(kind, strong, params, lo, hi)
        for name in BACKENDS:
            assert backend_scan(name, kind, strong, params, lo, hi) == expected, name


def json_items(rows):
    """Skip rows as the JSONL record lists them: each ``json.dumps``'s item after ", "."""
    items = (dict(zip(Skip._fields, row)) for row in rows)
    return "".join(", " + json.dumps(item, separators=(", ", ": ")) for item in items)


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("kind, params, lo, hi",
                         [(kind, params, lo, lo + 4198) for kind, params in LANE_CASES
                          for lo in (3, 10**12 - 2001)] + GATE_CONSTANT_CASES)
def test_scan_shapes_are_made_from_the_rows(name, kind, params, lo, hi):
    # the table's and JSONL's shapes are the rows' own, with the same hits and counts
    scan = BACKENDS[name].scan
    for strong in (False, True):
        hits, rows, counts = scan(kind, strong, params, lo, hi, "rows")
        tally = Counter(row.reason for row in rows)
        reasons = tuple(tally[reason] for reason in _kernels_py.REASONS)
        assert scan(kind, strong, params, lo, hi, "reasons") == (hits, reasons, counts)
        assert scan(kind, strong, params, lo, hi, "json") == (hits, json_items(rows), counts)


def test_json_shape_of_a_factor_above_2_63():
    # the pure scan's factors have no bound: Lucas Q = p, a prime above 2^64, at n = p
    p = next(n for n in range(2**64 + 1, 2**64 + 1000, 2) if _kernels_py.is_prime(n))
    rows, text = (kernels.scan("lucas", False, LucasParams(3, p), p - 6, p + 6, keep)[1]
                  for keep in ("rows", "json"))
    assert Skip(p, "gcd-failure", p) in rows and text == json_items(rows)


def test_scan_of_a_zero_discriminant_skips_every_n():
    # (P, Q) with P^2 = 4Q: (0/n) = 0 and gcd(0, n) = n for every n
    for p, q in ((6, 9), (-2, 1), (2 * 3**19, 3**38)):
        hits, skips, counts = kernels.scan("lucas", False, (p, q), 3, 4201)
        assert skips == [(n, "jacobi-zero", n) for n in range(3, 4202, 2)]
        assert (hits, tuple(counts)) == ([], (0, 0, 0, 2100))


def test_scan_dispatch_either_side_of_the_compiled_limit():
    # hi and the parameters just inside the signed 64-bit range take the
    # compiled scan when it is built; one past it, the pure scan
    limit = kernels._C_LIMIT
    cases = [
        ("lucas", LucasParams(3, -limit), limit - 61, limit - 1),
        ("lucas", LucasParams(3, -limit - 1), limit - 61, limit - 1),
        ("lucas", LucasParams(3, 1), limit - 61, limit + 61),
        ("pell", PellParams.from_seed(limit - 1, -limit), limit - 61, limit - 1),
        ("pell", PellParams.from_seed(limit, 4), 10**12, 10**12 + 60),
        ("pell", PellParams.from_point(3, -limit, 66), 3, 200),
        ("pell", PellParams.from_point(3, 8, -limit - 1), 3, 200),
    ]
    for kind, params, lo, hi in cases:
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, lo, hi)
            hits, skips, counts = kernels.scan(kind, strong, params, lo, hi)
            assert (list(hits), list(skips), tuple(counts)) == expected
    with pytest.raises(ValueError):
        kernels.scan("lucas", False, LucasParams(3, 1), 1, 100)


@pytest.mark.parametrize("kind", ["bogus", "seed", "point", "Pell", "pell ", b"pell", None, 1])
def test_scans_reject_other_kinds(kind):
    # "lucas" and "pell" are the only kinds, on both scans, below 2**63
    # (compiled when built) and above it (always pure)
    params = PellParams.from_point(3, 8, 66)
    for backend in BACKENDS.values():
        with pytest.raises(ValueError, match="kind must be"):
            backend.scan(kind, False, params, 3, 50)
        with pytest.raises(ValueError, match="keep must be"):  # nor a shape of the skips
            backend.scan("pell", False, params, 3, 50, kind)
    for lo in (3, 2**63 + 1):
        with pytest.raises(ValueError, match="kind must be"):
            kernels.scan(kind, False, params, lo, lo + 40)
    with pytest.raises(ValueError, match="kind must be"):
        _kernels_py.decide(kind, False, params, [85], _kernels_py)


@pytest.mark.parametrize("kind,params", [
    ("lucas", PellParams.from_point(3, 8, 66)),
    ("lucas", PellParams.from_seed(3, 4)),
    ("pell", LucasParams(3, 1)),
])
def test_scans_reject_the_other_kinds_record(kind, params):
    # a TypeError on both sides of 2**63: from the compiled scan below it
    # when it is built, and from the pure scan
    for lo in (3, 2**63 + 1):
        with pytest.raises(TypeError):
            kernels.scan(kind, False, params, lo, lo + 40)
    for backend in BACKENDS.values():
        with pytest.raises(TypeError):
            backend.scan(kind, False, params, 3, 50)


def test_per_n_tests_reject_the_other_kinds_record():
    # the test names the kind, and a record of the other kind does not
    # unpack as its parameters, so no test answers for the wrong ones
    for test in (lucas_test, strong_lucas_test):
        for params in (PellParams.from_point(3, 8, 66), PellParams.from_seed(3, 4)):
            with pytest.raises(ValueError):
                test(85, params)
    for test in (pell_test, strong_pell_test):
        with pytest.raises(ValueError):
            test(85, LucasParams(3, 1))


@pytest.mark.parametrize("kind,params", [
    ("lucas", (None, 1)),
    ("lucas", (3, None)),
    ("pell", (None, 8, 66, None)),
    ("pell", (3, None, 66, None)),
    ("pell", (3, 8, None, None)),
    ("pell", (3, None, None, None)),
    ("pell", (None, None, None, 4)),
])
def test_scans_reject_none_in_a_used_field(kind, params):
    # a point leaves a None and a seed x and y; a None in a field that the
    # form reads is a TypeError on both scans, as a non-int is
    for backend in BACKENDS.values():
        with pytest.raises(TypeError):
            backend.scan(kind, False, params, 3, 50)
    with pytest.raises(TypeError):
        kernels.scan(kind, False, params, 3, 50)


@settings(max_examples=300, deadline=None)
@given(a=I64 | SMALL, d=I64 | SMALL)
def test_phi_image_is_on_the_conic(a, d):
    # phi(a) = ((a^2 + d)/t, 2a/t) with t = a^2 - d, so x^2 - d y^2 =
    # ((a^2 + d)^2 - d (2a)^2)/t^2 = 1 mod every n where t is invertible:
    # the scans make no conic check for a seed
    assert (a * a + d) ** 2 - d * (2 * a) ** 2 == (a * a - d) ** 2


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_seed_scans_never_find_the_point_off_the_conic(name):
    limit = kernels._C_LIMIT
    seeds = [(6, 4), (3, 4), (-7, 2), (limit - 1, -limit), (-limit, limit - 1), (5, 0)]
    windows = [(3, 2001), (2**32 - 121, 2**32 + 121), (10**12, 10**12 + 241),
               (limit - 241, limit - 1)]
    for d, a in seeds:
        for lo, hi in windows:
            _, skips, _ = BACKENDS[name].scan("pell", False, PellParams.from_seed(d, a), lo, hi)
            assert _kernels_py.REASON_NOT_ON_CONIC not in {skip.reason for skip in skips}
