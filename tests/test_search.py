"""Range enumeration, skip reporting, fixtures, parallel determinism."""

import hashlib
import io
import os
import pickle
import signal

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
        # four runs of blocks, so up to four forked workers
        SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 100_000),
    ]
    for spec in specs:
        baseline = enumerate_range(spec, workers=1)
        for workers in (2, 8):
            report = enumerate_range(spec, workers=workers)
            assert report == baseline


# sha256 of repr(enumerate_range(spec, workers)); equal for every worker
# count and on both kernel backends, so any change to the library report
# (its skips' repr included) shows here.  Over 3..100000 there are four runs
# of blocks, so workers 2 forks two workers.
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
    raise TimeoutError("the forked search did not end")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers that ``iter_blocks`` forks, through a wrapper around ``os.fork``.

    The test fails, and does not hang, if a search does not end within a
    minute (a worker blocked on a pipe that is never closed, say).
    """
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    # many cores, so that only the tests that lower it meet the core cap
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_capped_at_block_count(forks):
    # never more workers than runs of blocks, so a huge worker count forks
    # no more than three
    point = PellParams.from_point(3, 8, 66)
    spec = SearchSpec("pell", point, 3, 3 + 3 * search.RUN_SPAN - 1)
    baseline = enumerate_range(spec, workers=1)
    assert forks == []
    assert enumerate_range(spec, workers=10**6) == baseline
    assert len(forks) == 3
    # a search of one run stays in-process
    enumerate_range(SearchSpec("pell", point, 3, 3 + search.RUN_SPAN - 1), workers=2)
    assert len(forks) == 3
    assert_no_child_left()


def test_workers_capped_at_core_count(forks, monkeypatch):
    # every worker runs to the end of the range, so never more than one per core
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    baseline = enumerate_range(spec, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert enumerate_range(spec, workers=10**6) == baseline
    assert enumerate_range(spec, workers=None) == baseline
    assert len(forks) == 4
    # an unknown core count means one: the search stays in-process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert enumerate_range(spec, workers=10**6) == baseline
    assert len(forks) == 4
    assert_no_child_left()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(forks, workers):
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises(ValueError, match="workers"):
        enumerate_range(spec, workers=workers)
    assert forks == []


def count_skips(block):
    """A render hook: the block with its skips replaced by their number, and the renderer's pid."""
    hits, skips, counts = block
    return (list(hits), len(skips), tuple(counts)), os.getpid()


def test_blocks_are_rendered_in_the_workers(forks):
    spec = SearchSpec("pell", PellParams.from_seed(6, 4), 3, 3 + 3 * search.RUN_SPAN - 1)
    inline = list(search.iter_blocks(spec, 1, count_skips))
    forked = list(search.iter_blocks(spec, 2, count_skips))
    assert [part for part, _ in forked] == [part for part, _ in inline]
    assert {pid for _, pid in inline} == {os.getpid()}
    # block i comes from worker i mod 2, which rendered it
    assert [pid for _, pid in forked] == [forks[i % 2] for i in range(len(forked))]
    assert len(forks) == 2 and os.getpid() not in forks
    assert_no_child_left()


def test_closing_the_generator_reaps_the_workers(forks):
    # seven runs of sparse blocks: the workers fill their pipes and block
    # on them, so only closing the read ends lets them end
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 7 * search.RUN_SPAN - 1)
    blocks = search.iter_blocks(spec, 2)
    assert next(blocks) == next(search.iter_blocks(spec, 1))
    blocks.close()
    assert len(forks) == 2
    assert_no_child_left()


def test_ctrl_c_reaps_the_workers(forks):
    # SIGINT reaches this process alone, between two blocks
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 7 * search.RUN_SPAN - 1)
    with pytest.raises(KeyboardInterrupt):
        for _ in search.iter_blocks(spec, 2):
            os.kill(os.getpid(), signal.SIGINT)
    assert len(forks) == 2
    assert_no_child_left()


def fail_to_render(block):
    """A render hook that raises."""
    raise LookupError("no renderer")


def test_a_workers_exception_is_raised_in_the_caller(forks):
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises(LookupError, match="no renderer"):
        list(search.iter_blocks(spec, 2, fail_to_render))
    assert len(forks) == 2
    assert_no_child_left()


PARENT = os.getpid()


def vanish_in_a_worker(block):
    """A render hook that ends a worker without a word, and passes blocks in this process."""
    if os.getpid() != PARENT:
        os._exit(0)
    return block


def test_a_worker_that_ends_early_is_an_error(forks):
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises(RuntimeError, match="ended before"):
        list(search.iter_blocks(spec, 2, vanish_in_a_worker))
    assert len(forks) == 2
    assert_no_child_left()


def test_a_signal_as_the_fork_returns_ends_the_worker(forks, monkeypatch, tmp_path):
    # Ctrl-C can raise in a worker as soon as os.fork() returns there: the
    # worker must still end, and not return into this test
    me, forked = os.getpid(), os.fork

    def fork():
        pid = forked()
        if pid == 0:
            raise KeyboardInterrupt
        return pid

    monkeypatch.setattr(os, "fork", fork)
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    try:
        list(search.iter_blocks(spec, 2))
    except BaseException as err:
        if os.getpid() != me:  # a worker that got here: leave a mark, end at once
            (tmp_path / str(os.getpid())).touch()
            os._exit(1)
        assert isinstance(err, RuntimeError) and "ended before" in str(err)
    else:
        raise AssertionError("the workers sent no blocks, yet no error")
    assert list(tmp_path.iterdir()) == []
    assert len(forks) == 2
    assert_no_child_left()


def refuse_to_load():
    raise AssertionError("the parent read part of a message that failed to pickle")


class LoadBomb:
    """Pickles, but raises when it is unpickled."""

    def __reduce__(self):
        return refuse_to_load, ()


def unpicklable(block):
    """A render hook whose result cannot be pickled, after a ``LoadBomb`` and 100 kB that can."""
    return LoadBomb(), bytes(100_000), lambda: None


def test_a_result_that_cannot_be_pickled_is_raised_in_the_caller(forks):
    # the pickle is built whole before the write: a pickler that wrote as it
    # went would have sent the bomb and the 100 kB, which the parent would
    # then unpickle
    spec = SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 3 + 3 * search.RUN_SPAN - 1)
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        list(search.iter_blocks(spec, 2, unpicklable))
    assert len(forks) == 2
    assert_no_child_left()


# a block of 10,000 skips: about 100 kB, so its pickle has two frames
SENT = pickle.dumps(
    ([], [(n, "point-not-on-conic", None) for n in range(3, 20003, 2)], [0, 0, 0, 10000]),
    pickle.HIGHEST_PROTOCOL,
)


@pytest.mark.parametrize("cut", [len(SENT), 1, 2, 9, 1000, len(SENT) // 2])
def test_a_pipe_that_ends_within_a_message_is_an_error(cut):
    # an empty pipe, or one that ends within the pickle's last frame or its first
    with pytest.raises(RuntimeError, match="ended before"):
        search._receive(io.BytesIO(SENT[:-cut]))


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


@pytest.mark.parametrize("lo, hi", [(512**2 - 401, 512**2 - 1), (512**2 - 399, 512**2 + 1),
                                    (521**2 - 200, 521**2 + 200)])
def test_scan_at_the_edge_of_the_exact_sieve(lo, hi):
    # the compiled scan counts an n with no factor below 512 as prime when
    # hi < 512**2, where every odd composite has such a factor; 521**2 is
    # the least odd composite with none
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
    # the compiled scan keeps the last test's ranks; Lucas (3, 8) and the
    # seed d = 3, a = 8 share their raw parameters, not their ranks
    for kind, params in (("lucas", LucasParams(3, 8)), ("pell", PellParams.from_seed(3, 8)),
                         ("lucas", LucasParams(3, 8))):
        for strong in (False, True):
            expected = per_n_scan(kind, strong, params, 3, 4001)
            for name in BACKENDS:
                assert backend_scan(name, kind, strong, params, 3, 4001) == expected, name


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
