"""Backend parity: the compiled kernels must agree with the pure ones."""

import random
from math import isqrt
from types import SimpleNamespace

import pytest

from pellucas import kernels
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
    # straddle the switch from bases {2, 7, 61} to the 12-base battery at 2**32
    for n in range(2**32 - 20, 2**32 + 20):
        assert pure.is_prime(n) == fast.is_prime(n)
    for n in _random_cases(50, 60) + list(range(2**63 - 60, 2**63)):
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
        (2**32 - 600_000 + 1, 2**32, 2),  # 300,000 odd n below the base switch
        (2**32 + 1, 2**32 + 1001, 1),
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
    assert pure.decide("lucas", True, (1, -1), [7], pure) == ([], [row])
    for backend in BACKENDS.values():
        assert backend.scan("lucas", True, (1, -1), 7, 7) == ([], [], (1, 0, 0, 0))


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
    for kind, params in (("lucas", (3, 1)), ("lucas", (1, -1)), ("seed", (6, 4))):
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


def test_mr_bound_exposed():
    assert kernels.MR_DETERMINISTIC_BOUND == 3317044064679887385961981
