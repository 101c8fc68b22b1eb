"""Backend parity: the compiled kernels must agree with the pure ones."""

import gc
import random
import tracemalloc
from math import isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellucas import LucasParams, PellParams, kernels
from pellucas.verdict import Status

BACKENDS = kernels.backends()
PAIRED = pytest.mark.skipif(
    "compiled" not in BACKENDS,
    reason="compiled backend not built; run python setup.py build_ext --inplace",
)

rng = random.Random(20240817)

# The compiled kernels add two residues without widening, which is exact only
# for n < 2**63; these moduli sit just below that edge.
EDGE_MODULI = [2**63 - 1, 2**63 - 25]


def _random_cases(count, n_bits):
    return [max(rng.getrandbits(n_bits) | 1, 3) for _ in range(count)]


@PAIRED
def test_jacobi_parity():
    pure, fast = BACKENDS["pure"], BACKENDS["compiled"]
    for n in _random_cases(200, 40) + [3, 9, 21, 85, 2**62 + 1] + EDGE_MODULI:
        for _ in range(20):
            a = rng.randrange(n)
            assert pure.jacobi(a, n) == fast.jacobi(a, n)
        for a in range(n - 3, n):
            assert pure.jacobi(a, n) == fast.jacobi(a, n)


@PAIRED
def test_compiled_jacobi_rejects_a_zero_modulus():
    # the binary Jacobi loop never ends on an odd a over m = 0
    with pytest.raises(ZeroDivisionError):
        BACKENDS["compiled"].jacobi(3, 0)


@PAIRED
def test_lucas_uv_parity():
    pure, fast = BACKENDS["pure"], BACKENDS["compiled"]
    for n in _random_cases(60, 48):
        p = rng.randrange(n)
        q = rng.randrange(n)
        k = rng.randrange(1 << 40)
        assert pure.lucas_uv(p, q, k, n) == fast.lucas_uv(p, q, k, n)
    for n in EDGE_MODULI:
        for p, q in ((n - 1, n - 2), (n - 2, 1), (3, n - 1)):
            for k in (n - 1, n, (1 << 62) + 1, (1 << 64) - 1, rng.randrange(1 << 62)):
                assert pure.lucas_uv(p, q, k, n) == fast.lucas_uv(p, q, k, n)
    assert pure.lucas_uv(3, 1, 0, 21) == fast.lucas_uv(3, 1, 0, 21) == (0, 2)


@PAIRED
def test_pell_pow_parity():
    pure, fast = BACKENDS["pure"], BACKENDS["compiled"]
    for n in _random_cases(60, 48):
        x, y, d = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        e = rng.randrange(1 << 40)
        assert pure.pell_pow(x, y, d, e, n) == fast.pell_pow(x, y, d, e, n)
    for n in EDGE_MODULI:
        for x, y, d in ((n - 1, n - 1, n - 1), (n - 2, n - 3, 5), (n - 1, 1, n - 2)):
            for e in (n - 1, n + 1, (1 << 64) - 1, rng.randrange(1 << 62)):
                assert pure.pell_pow(x, y, d, e, n) == fast.pell_pow(x, y, d, e, n)


@PAIRED
def test_is_prime_parity():
    pure, fast = BACKENDS["pure"], BACKENDS["compiled"]
    for n in range(2, 2000):
        assert pure.is_prime(n) == fast.is_prime(n)
    # straddle 2**32 and every switch of the battery that a u64 reaches
    for edge in [2**32] + [bound for bound, _ in pure.MR_BATTERY if bound < 2**64]:
        for n in range(edge - 20, edge + 20):
            assert pure.is_prime(n) == fast.is_prime(n)
    # Montgomery products are exact for every odd n < 2**64
    for n in _random_cases(50, 60) + list(range(2**63 - 60, 2**63)) + list(range(2**64 - 60, 2**64)):
        assert pure.is_prime(n) == fast.is_prime(n)


def sieve_primes(lo, hi):
    """The primes in [lo, hi), by crossing out multiples of every p <= sqrt(hi)."""
    small = bytearray([1]) * (isqrt(hi) + 1)
    small[:2] = b"\0\0"
    flags = bytearray([1]) * (hi - lo)
    for p in range(2, len(small)):
        if small[p]:
            small[p * p :: p] = bytes(len(range(p * p, len(small), p)))
            start = max(p * p, (lo + p - 1) // p * p)
            flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    return {lo + i for i, f in enumerate(flags) if f and lo + i >= 2}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_is_prime_matches_trial_division(name):
    is_prime = BACKENDS[name].is_prime
    windows = [
        (0, 300_000, 1),
        (2**32 - 600_000 + 1, 2**32, 2),  # 300,000 odd n below 2**32
        (2**32 + 1, 2**32 + 1001, 1),
        # across the battery's switches from 2 to 3 bases and from 6 to 7
        (1373653 - 1000, 1373653 + 1000, 1),
        (3474749660383 - 1000, 3474749660383 + 1000, 1),
    ]
    for lo, hi, step in windows:
        primes = sieve_primes(lo, hi)
        assert [n for n in range(lo, hi, step) if is_prime(n)] == sorted(
            n for n in primes if (n - lo) % step == 0
        )
    # a base that n divides is no witness against n
    assert is_prime(2) and is_prime(7) and is_prime(61)
    # the first composite that passes the bases {2, 7, 61} (Jaeschke 1993)
    assert not is_prime(4759123141) and 4759123141 == 48781 * 97561


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_is_prime_above_2_32(name):
    is_prime = BACKENDS[name].is_prime
    # a strong pseudoprime to every prime base up to 31, below 2**63: only
    # the last base of the battery, 37, exposes it
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211 and n < 2**63
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        x = pow(a, d, n)
        assert x == 1 or n - 1 in [pow(x, 2**i, n) for i in range(s)]
    assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**63 - 25)


# Each MR_BATTERY bound as a product of primes (OEIS A014233).
BATTERY_FACTORS = {
    1373653: (829, 1657),
    4759123141: (48781, 97561),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def strong_probable_prime(n, a):
    """Whether odd n passes the Miller-Rabin round for base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or n - 1 in [pow(x, 2**i, n) for i in range(s)]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_battery_rows_end_at_their_first_pseudoprime(name):
    # each row's bound is composite and passes every base of its row, so
    # the row can reach no further; is_prime, which takes the next row
    # there, calls it composite.  The last bound is the battery's own.
    pure, backend = BACKENDS["pure"], BACKENDS[name]
    assert pure.MR_BATTERY[-1][0] == pure.MR_DETERMINISTIC_BOUND
    assert [bound for bound, _ in pure.MR_BATTERY] == sorted(BATTERY_FACTORS)
    limit = kernels._C_LIMIT if name == "compiled" else pure.MR_DETERMINISTIC_BOUND
    for bound, bases in pure.MR_BATTERY:
        factors = BATTERY_FACTORS[bound]
        assert prod(factors) == bound and min(factors) > 1
        assert all(strong_probable_prime(bound, a) for a in bases)
        if bound < limit:
            assert not backend.is_prime(bound)


@PAIRED
def test_sweep_parity():
    pure, fast = BACKENDS["pure"], BACKENDS["compiled"]
    assert pure.closed_form_sweep(6, 6, 3, 12, 3, 25) == fast.closed_form_sweep(
        6, 6, 3, 12, 3, 25
    )


def test_dispatcher_handles_huge_moduli():
    # beyond the compiled 2**63 window everything must fall back cleanly
    n = (1 << 70) + 3
    u, v = kernels.lucas_uv(3, 1, 20, n)
    assert (u, v) == (102334155, 228826127)
    x, y = kernels.pell_pow(2, 1, 3, 5, n)
    # (2 + sqrt(3))^5 = 362 + 209 sqrt(3)
    assert (x, y) == (362, 209)
    assert kernels.jacobi(4, n) == 1
    # on both sides of the compiled limit the dispatcher matches the reference
    pure = BACKENDS["pure"]
    for n in (kernels._C_LIMIT - 1, kernels._C_LIMIT + 1):
        p, q, x, y, d = n - 1, n - 2, n - 1, n - 3, n - 1
        for k in (n - 1, n + 1):
            assert kernels.lucas_uv(p, q, k, n) == pure.lucas_uv(p, q, k, n)
            assert kernels.pell_pow(x, y, d, k, n) == pure.pell_pow(x, y, d, k, n)
        assert kernels.jacobi(n - 2, n) == pure.jacobi(n - 2, n)
        assert kernels.is_prime(n) == pure.is_prime(n)
    assert kernels.is_prime(-5) is pure.is_prime(-5) is False


def test_backend_for_either_side_of_the_compiled_limit():
    # the per-n tests run backend_for(n)'s kernels on exponents n +- 1, so
    # it picks the compiled backend only while n + 1 < 2**63
    limit = kernels._C_LIMIT
    below = "compiled" if "compiled" in BACKENDS else "pure"
    assert kernels.backend_for(3).BACKEND == below
    assert kernels.backend_for(limit - 3).BACKEND == below
    for n in (limit - 1, limit + 1, kernels.MR_DETERMINISTIC_BOUND - 2):
        assert kernels.backend_for(n).BACKEND == "pure"
    pure = BACKENDS["pure"]
    for n in (limit - 3, limit - 1):
        backend = kernels.backend_for(n)
        for k in (n - 1, n + 1):
            assert backend.lucas_uv(n - 1, n - 2, k, n) == pure.lucas_uv(n - 1, n - 2, k, n)
        assert backend.jacobi(n - 2, n) == pure.jacobi(n - 2, n)


def test_dispatchers_reject_negative_exponents():
    # on k = -1 the pure kernels loop forever (pell_pow) or answer (8, 18)
    # mod 21 (lucas_uv), so both dispatchers refuse it on either side of
    # the compiled limit
    for n in (21, (1 << 63) + 3):
        with pytest.raises(ValueError):
            kernels.lucas_uv(3, 1, -1, n)
        with pytest.raises(ValueError):
            kernels.pell_pow(1, 1, 1, -1, n)


def test_dispatcher_reduces_inputs():
    # negative and oversized parameters are reduced before kernel entry
    assert kernels.lucas_uv(3 + 21, 1 - 21, 20, 21) == kernels.lucas_uv(3, 1, 20, 21)
    assert kernels.pell_pow(-9, 11, 5 - 21, 20, 21) == kernels.pell_pow(12, 11, 5, 20, 21)


def test_closed_form_sweep_rejects_small_moduli():
    # below 3 the backends disagree (96 comparisons compiled, 28 pure), so
    # the dispatcher itself refuses such a range
    for n_lo in (1, -3):
        with pytest.raises(ValueError):
            kernels.closed_form_sweep(1, 1, 1, 2, n_lo, 10)
    assert kernels.closed_form_sweep(1, 1, 1, 2, 3, 10)[1] == []


def test_decide_outcomes_index_status():
    pure = BACKENDS["pure"]
    statuses = list(Status)
    assert statuses[pure.PRIME] is Status.PRIME
    assert statuses[pure.PSEUDOPRIME] is Status.PSEUDOPRIME
    assert statuses[pure.DETECTED] is Status.COMPOSITE_DETECTED


def test_prime_comes_before_the_congruence():
    # strong Lucas (1, -1) at n = 7: U_8 = 0 but V_8 = 5, not 2; 7 is prime
    pure = BACKENDS["pure"]
    row = (7, pure.PRIME, 0, 5, 1, 8)
    assert pure.decide("lucas", True, LucasParams(1, -1), [7], pure) == ([], [row])
    for backend in BACKENDS.values():
        assert backend.scan("lucas", True, LucasParams(1, -1), 7, 7) == ([], [], (1, 0, 0, 0))


def test_primality_is_asked_only_where_u_vanishes():
    # a prime that passes the gates has U_k = 0, so decide asks is_prime
    # exactly on the tested n with U_k = 0, and its outcomes are those of
    # asking it on every tested n
    pure = BACKENDS["pure"]
    asked = []

    def is_prime(n):
        asked.append(n)
        return pure.is_prime(n)

    counting = SimpleNamespace(jacobi=pure.jacobi, lucas_uv=pure.lucas_uv, is_prime=is_prime)
    for kind, params in (("lucas", LucasParams(3, 1)), ("lucas", LucasParams(1, -1)),
                         ("pell", PellParams.from_seed(6, 4))):
        for strong in (False, True):
            for ns in (range(3, 4001, 2), range(10**12 + 1, 10**12 + 401, 2)):
                asked.clear()
                skips, tested = pure.decide(kind, strong, params, ns, counting)
                assert asked == [n for n, _, u, *_ in tested if u == 0]
                assert len(asked) < len(tested)
                for n, outcome, u, v, _, _ in tested:
                    held = u == 0 and (not strong or v == 2)
                    eager = pure.PSEUDOPRIME if held else pure.DETECTED
                    assert outcome == (pure.PRIME if pure.is_prime(n) else eager), n


# One search per gate, so that the rows carry all four skip reasons.
SKIPPING = (("lucas", LucasParams(3, 1)), ("lucas", LucasParams(3, 5)),
            ("pell", PellParams.from_seed(6, 4)), ("pell", PellParams.from_point(3, 8, 66)))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_scan_and_decide_return_skip_rows(name):
    pure, backend = BACKENDS["pure"], BACKENDS[name]
    reasons = set()
    for kind, params in SKIPPING:
        _, scanned, _ = backend.scan(kind, False, params, 3, 3001)
        decided, _ = pure.decide(kind, False, params, range(3, 3002, 2), backend)
        assert scanned == decided
        for row in scanned + decided:
            assert type(row) is pure.Skip, row
            reasons.add(row.reason)
    assert reasons == {pure.REASON_JACOBI_ZERO, pure.REASON_GCD,
                       pure.REASON_PHI_UNDEFINED, pure.REASON_NOT_ON_CONIC}


@PAIRED
def test_compiled_scan_rows_do_not_leak():
    # the C scan builds each skip row by hand: a lost reference would keep
    # every row of every call alive.  The Lucas Q gives gcd factors above
    # 256, which are not cached ints, so that a lost factor shows too.
    fast = BACKENDS["compiled"]
    cases = (("pell", PellParams.from_point(3, 8, 66)), ("pell", PellParams.from_seed(6, 4)),
             ("lucas", LucasParams(3, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)))

    def run():
        for kind, params in cases:
            fast.scan(kind, False, params, 3, 40_000)

    run()
    # no collection during the runs: one could run the finalizers of other
    # tests' garbage, whose allocations would be traced to the scan
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        first = tracemalloc.take_snapshot()
        for _ in range(20):
            run()
        last = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    # the snapshots themselves are not the scan's
    mine = [tracemalloc.Filter(False, tracemalloc.__file__)]
    diffs = last.filter_traces(mine).compare_to(first.filter_traces(mine), "filename")
    grown = sum(stat.size_diff for stat in diffs)
    assert grown <= 0, f"traced memory grew by {grown} bytes"


ODD_PRIMES_BELOW_512 = sorted(sieve_primes(3, 512))
# P and Q both small and across the signed 64-bit range of the compiled scan
SIGNED = st.integers(-50, 50) | st.integers(-(2**63), 2**63 - 1)


def rank_of_apparition(P, Q, p):
    """The least j >= 1 with p | U_j(P, Q), by the recurrence; None if none by j = 2p."""
    u0, u1 = 0, 1
    for j in range(1, 2 * p + 1):
        if u1 == 0:
            return j
        u0, u1 = u1, (P * u1 - Q * u0) % p
    return None


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(ODD_PRIMES_BELOW_512), P=SIGNED, Q=SIGNED, k=st.integers(0, 2**64))
def test_rank_of_apparition_decides_u(p, P, Q, k):
    # the compiled scan's sieve rests on two facts (Baillie and Wagstaff,
    # "Lucas pseudoprimes", 1980): for p not dividing Q, p | U_k exactly
    # when the rank w(p) divides k; for p not dividing 2QD, w(p) divides
    # p - (D/p)
    pure = BACKENDS["pure"]
    P, Q = P % p, Q % p
    if Q == 0:
        return
    w = rank_of_apparition(P, Q, p)
    assert w is not None
    for j in (k, w - 1, w, w + 1, 2 * w, 3 * w + 1, p - 1, p, p + 1):
        assert (pure.lucas_uv(P, Q, j, p)[0] == 0) == (j % w == 0), j
    D = (P * P - 4 * Q) % p
    if D:
        assert (p - pure.jacobi(D, p)) % w == 0


def test_mr_bound_exposed():
    assert kernels.MR_DETERMINISTIC_BOUND == 3317044064679887385961981
