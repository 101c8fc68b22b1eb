"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1 asserts the six bundled reference lists exactly, apart from
the two documented divergences in ``TABLE_DIVERGENCES``: hypothesis-gated
enumeration also finds 1891 for (P=3, Q=1), and rejects 1101 and 2679 for
(D=29, a=48) because gcd(n, y) = 3 there.  The reference lists stay
verbatim in data/fixtures.txt; the test proves each divergence with plain
integer arithmetic that does not go through pellucas, and any other
difference is a failure.
"""

import time
from math import gcd

from pellucas import (
    LucasParams,
    PellParams,
    SearchSpec,
    Status,
    closed_form_sweep,
    conic_order,
    enumerate_range,
    is_composite,
    jacobi,
    kernels,
    load_fixtures,
    lucas_test,
    lucas_to_pell,
    lucas_uv_mod,
    pell_pow,
    pell_test,
    pell_to_lucas,
    phi,
    reproduce,
    strong_lucas_test,
    strong_pell_test,
)
from pellucas.conic import ConicPoint
from pellucas.errors import DegenerateDError, PhiUndefinedError, ZeroPError


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[ACCEPTANCE {num}] {name}: {tag}{suffix}")


def _table_fixtures():
    return [f for f in load_fixtures() if f.kind in ("lucas", "pell")]


def _spec_for(fixture, strong=False):
    if fixture.kind == "lucas":
        params = LucasParams(fixture.get("P"), fixture.get("Q"))
    else:
        params = PellParams.from_seed(fixture.get("D"), fixture.get("a"))
    return SearchSpec(fixture.kind, params, fixture.get("lo"), fixture.get("hi"), strong)


# Fixture label -> (extra, missing): values that hypothesis-gated
# enumeration adds to, or drops from, the verbatim reference list.
TABLE_DIVERGENCES = {
    "lucas P=3 Q=1 range=3..5000": ({1891}, set()),
    "pell D=29 a=48 range=3..3000": (set(), {1101, 2679}),
}


# The helpers below recompute the divergences from builtin integers only,
# so that the proofs do not depend on the code they judge.

def _plain_factors(n):
    factors = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def _plain_jacobi(a, n):
    """(a/n) for odd n: Euler's criterion over each prime factor of n."""
    result = 1
    for p in _plain_factors(n):
        r = pow(a, (p - 1) // 2, p)
        result *= -1 if r == p - 1 else r
    return result


def _plain_lucas_u(p, q, k, n):
    """U_k(p, q) mod n by the recurrence U_{j+1} = p U_j - q U_{j-1}."""
    u, u_next = 0, 1
    for _ in range(k):
        u, u_next = u_next, (p * u_next - q * u) % n
    return u


def _plain_pell_pow(x, y, d, k, n):
    """(x, y)^k mod n under the Brahmagupta product, by square-and-multiply."""
    rx, ry = 1, 0
    while k:
        if k & 1:
            rx, ry = (rx * x + d * ry * y) % n, (rx * y + ry * x) % n
        x, y = (x * x + d * y * y) % n, 2 * x * y % n
        k >>= 1
    return rx, ry


def _lucas_extra_claims(fixture, n):
    """n is composite, meets every hypothesis of the Lucas test and U
    vanishes: a pseudoprime the gated enumeration must report."""
    p, q = fixture.get("P"), fixture.get("Q")
    d = p * p - 4 * q
    eps = _plain_jacobi(d, n)
    factors = _plain_factors(n)
    return {
        f"{n} = {'*'.join(map(str, factors))} composite": len(factors) > 1,
        f"gcd({n}, 2*Q*D) = 1": gcd(n, 2 * q * d) == 1,
        f"jacobi({d}, {n}) = {eps} != 0": eps != 0,
        f"U_{n - eps}({p},{q}) = 0 mod {n}": _plain_lucas_u(p, q, n - eps, n) == 0,
    }


def _pell_missing_claims(fixture, n):
    """n fails only the gcd(n, y) = 1 hypothesis of the Pell test, and the
    ungated y-coordinate vanishes: why the reference lists it."""
    d, a = fixture.get("D"), fixture.get("a")
    t = a * a - d
    if gcd(n, t) != 1:
        return {f"gcd({n}, {t}) = 1": False}
    inv = pow(t, -1, n)
    x, y = (a * a + d) * inv % n, 2 * a * inv % n
    eps = _plain_jacobi(d, n)
    factors = _plain_factors(n)
    # t is a unit mod n, so the shared factor of n and y comes from 2a
    g = gcd(n, y)
    return {
        f"gcd({n}, {t}) = 1": True,
        f"{n} = {'*'.join(map(str, factors))} composite": len(factors) > 1,
        f"({x}, {y}) on x^2 - {d}y^2 = 1 mod {n}": (x * x - d * y * y) % n == 1,
        f"jacobi({d}, {n}) = {eps} != 0": eps != 0,
        f"gcd({n}, y) = gcd({n}, {2 * a}) = {g} > 1": g == gcd(n, 2 * a) > 1,
        f"ungated y of (x, y)^{n - eps} = 0 mod {n}":
            _plain_pell_pow(x, y, d, n - eps, n)[1] == 0,
    }


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    fixtures = {f.label: f for f in _table_fixtures()}
    failures = []
    for label, fixture in fixtures.items():
        extra, missing = TABLE_DIVERGENCES.get(label, (set(), set()))
        gated = (set(fixture.expected) | extra) - missing
        actual = enumerate_range(_spec_for(fixture), workers=1).pseudoprimes
        if actual != tuple(sorted(gated)):
            failures.append(f"{label}: missing={sorted(gated - set(actual))} "
                            f"extra={sorted(set(actual) - gated)}")
    elapsed = time.perf_counter() - start

    proven = []
    for label, (extra, missing) in TABLE_DIVERGENCES.items():
        fixture = fixtures[label]
        if extra & set(fixture.expected) or not missing <= set(fixture.expected):
            failures.append(f"{label}: reference list no longer matches the divergence table")
        claims = {}
        for n in sorted(extra):
            if fixture.kind != "lucas":
                failures.append(f"{label}: no proof for extra {n}")
                continue
            claims.update(_lucas_extra_claims(fixture, n))
        for n in sorted(missing):
            if fixture.kind != "pell":
                failures.append(f"{label}: no proof for missing {n}")
                continue
            claims.update(_pell_missing_claims(fixture, n))
        failures += [f"{label}: unproven {claim}" for claim, holds in claims.items() if not holds]
        proven.append(f"{label}: extra={sorted(extra)} missing={sorted(missing)}")

    flagged = {r.fixture.label for r in reproduce(workers=1) if not r.passed}
    if flagged != set(TABLE_DIVERGENCES):
        failures.append(f"reproduce flags {sorted(flagged)}")

    ok = not failures and elapsed < 10.0
    _line(1, "table reproduction (6 lists, exact up to 2 proven divergences)", ok,
          f"{elapsed:.2f}s; " + ("; ".join(failures) or "; ".join(proven)))
    assert elapsed < 10.0
    assert not failures, "; ".join(failures)


def test_criterion_2_point_congruences():
    power1 = pell_pow(ConicPoint(12, 11, 5, 21), 20).coords()
    power2 = pell_pow(ConicPoint(7, 4, 3, 85), 84).coords()
    u84 = lucas_uv_mod(LucasParams(14, 1), 84, 85).u
    u20 = lucas_uv_mod(LucasParams(3, 1), 20, 10**18 + 9).u  # exceeds the integer value
    ok = (
        power1 == (13, 0)
        and power2 == (76, 15)
        and u84 == 25
        and u20 == 102334155
    )
    _line(2, "point congruences (exact)", ok,
          f"(12,11)^20={power1} (7,4)^84={power2} U_84={u84} U_20={u20}")
    assert power1 == (13, 0)
    assert power2 == (76, 15)
    assert u84 == 25
    assert u20 == 102334155


def test_criterion_3_closed_form_sweep():
    start = time.perf_counter()
    checked, mismatches = closed_form_sweep(30, 30, 10, 40, 3, 99)
    elapsed = time.perf_counter() - start
    expected_checked = 31 * 31 * 20 * 41 * 49
    ok = checked == expected_checked and not mismatches and elapsed < 60.0
    _line(3, "closed-form equivalence sweep", ok,
          f"{checked} comparisons, {len(mismatches)} mismatches, {elapsed:.2f}s "
          f"({kernels.BACKEND} backend)")
    assert checked == expected_checked
    assert mismatches == []
    assert elapsed < 60.0


def test_criterion_4_bidirectional_agreement():
    mismatches = []
    for p in (3, 4, 5, 6):
        lucas_set = set()
        pell_set = set()
        for n in range(3, 5001, 2):
            if lucas_test(n, LucasParams(p, 1)).status is Status.PSEUDOPRIME:
                lucas_set.add(n)
            if pell_test(n, lucas_to_pell(p, n)).status is Status.PSEUDOPRIME:
                pell_set.add(n)
        if lucas_set != pell_set:
            mismatches.append(f"P={p}: {sorted(lucas_set ^ pell_set)}")
    backward_checked = 0
    unliftable = []
    for fixture in _table_fixtures():
        if fixture.kind != "pell":
            continue
        d, a = fixture.get("D"), fixture.get("a")
        spec = SearchSpec("pell", PellParams.from_seed(d, a), fixture.get("lo"), fixture.get("hi"))
        for n in enumerate_range(spec, workers=1).pseudoprimes:
            try:
                back = pell_to_lucas(phi(a, d, n))
            except (ZeroPError, DegenerateDError):
                # 2x has no valid positive lift (x = 0 mod n, e.g. n = 1047
                # for D=23, a=32 where n divides a^2 + D); such points are
                # excluded from the roundtrip sweep
                unliftable.append(n)
                continue
            assert back.q == 1
            if lucas_test(n, back).status is not Status.PSEUDOPRIME:
                mismatches.append(f"D={d} a={a} n={n} backward map failed")
            backward_checked += 1
    ok = not mismatches
    _line(4, "bidirectional agreement (P in 3..6, 4 seed fixtures)", ok,
          f"{backward_checked} backward maps, unliftable (2x=0) skipped: {unliftable}; "
          + ("; ".join(mismatches) or "zero mismatches"))
    assert backward_checked >= 20
    assert unliftable == [1047]
    assert not mismatches, "; ".join(mismatches)


def test_criterion_5_group_order_law():
    start = time.perf_counter()
    bad = []
    primes = [p for p in range(3, 201, 2) if not is_composite(p)]
    for p in primes:
        for d in range(1, 31):
            if d % p == 0:
                continue
            if conic_order(d, p) != p - jacobi(d, p):
                bad.append((d, p))
    elapsed = time.perf_counter() - start
    ok = not bad
    _line(5, "group-order law |C| = p - (d/p)", ok,
          f"{len(primes)} primes x 30 d in {elapsed:.2f}s; {len(bad)} mismatches")
    assert not bad, bad


def test_criterion_6_prime_guarantee():
    lucas_samples = [
        LucasParams(3, 1), LucasParams(4, 1), LucasParams(5, 1),
        LucasParams(6, 1), LucasParams(1, -1), LucasParams(2, -1),
        LucasParams(5, 2),
    ]
    pell_samples = [(6, 4), (23, 32), (21, 49), (29, 48), (5, 5), (12, 6)]
    primes = [p for p in range(3, 10_001, 2) if not is_composite(p)]
    lucas_checked = pell_checked = 0
    violations = []
    for p in primes:
        for params in lucas_samples:
            if p % abs(params.q or 1) == 0 and abs(params.q) > 1:
                continue
            verdict = lucas_test(p, params)
            if verdict.status is Status.NOT_APPLICABLE:
                continue
            lucas_checked += 1
            if verdict.status is not Status.PRIME or verdict.witnesses["u"] != 0:
                violations.append(f"lucas {params} p={p}")
        for d, a in pell_samples:
            try:
                point = phi(a, d, p)
            except PhiUndefinedError:
                continue
            verdict = pell_test(p, PellParams.from_seed(d, a))
            if verdict.status is Status.NOT_APPLICABLE:
                continue
            pell_checked += 1
            if verdict.status is not Status.PRIME or verdict.witnesses["y"] != 0:
                violations.append(f"pell d={d} a={a} p={p} point={point.coords()}")
    ok = not violations and lucas_checked > 5000 and pell_checked > 5000
    _line(6, "prime guarantee over odd primes <= 10^4", ok,
          f"{lucas_checked} lucas + {pell_checked} pell checks, {len(violations)} violations")
    assert lucas_checked > 5000 and pell_checked > 5000
    assert not violations, violations[:5]


def test_criterion_7_strong_test_strictness():
    problems = []
    for fixture in _table_fixtures():
        plain = enumerate_range(_spec_for(fixture), workers=1)
        strong = enumerate_range(_spec_for(fixture, strong=True), workers=1)
        if not set(strong.pseudoprimes) <= set(plain.pseudoprimes):
            problems.append(f"{fixture.label}: strong not a subset")
    lucas_plain = lucas_test(21, LucasParams(3, 1)).status
    lucas_strong = strong_lucas_test(21, LucasParams(3, 1)).status
    pell_plain = pell_test(21, PellParams.from_point(5, 12, 11)).status
    pell_strong = strong_pell_test(21, PellParams.from_point(5, 12, 11)).status
    if (lucas_plain, lucas_strong) != (Status.PSEUDOPRIME, Status.COMPOSITE_DETECTED):
        problems.append(f"lucas 21: {lucas_plain.value}/{lucas_strong.value}")
    if (pell_plain, pell_strong) != (Status.PSEUDOPRIME, Status.COMPOSITE_DETECTED):
        problems.append(f"pell 21: {pell_plain.value}/{pell_strong.value}")
    ok = not problems
    _line(7, "strong-test strictness", ok, "; ".join(problems) or
          "strong subset of ordinary on all fixtures; 21 separates the two")
    assert not problems, "; ".join(problems)


def test_criterion_8_parallel_determinism():
    specs = [_spec_for(f) for f in _table_fixtures()]
    specs.append(
        SearchSpec("pell", PellParams.from_point(3, 8, 66), 3, 100)
    )
    diffs = []
    for spec in specs:
        baseline = enumerate_range(spec, workers=1)
        for workers in (2, 8):
            if enumerate_range(spec, workers=workers) != baseline:
                diffs.append(f"{spec.kind} workers={workers}")
    ok = not diffs
    _line(8, "determinism under 1/2/8 workers", ok,
          "; ".join(diffs) or f"{len(specs)} fixtures identical across worker counts")
    assert not diffs, "; ".join(diffs)
