"""Range enumeration, skip reporting, fixtures, parallel determinism."""

import pytest

from pellucas import (
    LucasParams,
    PellParams,
    SearchSpec,
    enumerate_range,
    load_fixtures,
    lucas_to_phi_params,
    reproduce,
)
from pellucas.fixtures import parse_fixtures, run_fixture
from pellucas.kernels import MR_DETERMINISTIC_BOUND


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
    spec = SearchSpec("pell", PellParams.from_seed(23, 32), 3, 3000)
    baseline = enumerate_range(spec, workers=1)
    for workers in (2, 8):
        report = enumerate_range(spec, workers=workers)
        assert report == baseline


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
