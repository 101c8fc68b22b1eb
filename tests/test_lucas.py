"""Lucas sequences and tests against hand-checked and iterated oracles."""

import random

import pytest

from pellucas import (
    LucasParams,
    Modulus,
    Status,
    is_composite,
    lucas_test,
    lucas_uv_mod,
    strong_lucas_test,
)

rng = random.Random(0x5EED)


def uv_by_recurrence(p, q, k, n):
    """Independent oracle: step the recurrence k times."""
    u0, u1, v0, v1 = 0 % n, 1 % n, 2 % n, p % n
    if k == 0:
        return u0, v0
    for _ in range(k - 1):
        u0, u1 = u1, (p * u1 - q * u0) % n
        v0, v1 = v1, (p * v1 - q * v0) % n
    return u1, v1


def test_params_validation():
    with pytest.raises(ValueError):
        LucasParams(0, 1)
    with pytest.raises(ValueError):
        LucasParams(-3, 1)
    with pytest.raises(ValueError):
        LucasParams(2, 1)  # discriminant zero
    assert LucasParams(3, 1).d == 5
    assert LucasParams(1, -1).d == 5


def test_uv_known_values():
    pair = lucas_uv_mod(LucasParams(3, 1), 20, 21)
    assert (pair.u, pair.v) == (0, 5)
    pair = lucas_uv_mod(LucasParams(14, 1), 84, 85)
    assert pair.u == 25
    pair = lucas_uv_mod(LucasParams(7, -2), 0, 101)
    assert (pair.u, pair.v) == (0, 2)
    pair = lucas_uv_mod(LucasParams(3, 1), 1, 1001)
    assert (pair.u, pair.v) == (1, 3)


def test_u20_exact_integer():
    # modulus far above the value, so the residue is the integer itself
    big = Modulus(10**18 + 9)
    assert lucas_uv_mod(LucasParams(3, 1), 20, big).u == 102334155


def test_uv_matches_recurrence():
    for _ in range(250):
        p = rng.randrange(1, 21)
        q = rng.randrange(-20, 21)
        if p * p == 4 * q:
            continue
        n = rng.randrange(3, 10_001) | 1
        k = rng.randrange(0, 201)
        pair = lucas_uv_mod(LucasParams(p, q), k, n)
        assert (pair.u, pair.v) == uv_by_recurrence(p, q, k, n)


def test_uv_identity_self_check():
    # V_k^2 - D U_k^2 = 4 Q^k: (V_k/2, U_k/2) lies on the conic of norm Q^k
    for _ in range(200):
        p = rng.randrange(1, 30)
        q = rng.randrange(-15, 16)
        if p * p == 4 * q:
            continue
        params = LucasParams(p, q)
        n = rng.randrange(3, 5000) | 1
        k = rng.randrange(0, 500)
        pair = lucas_uv_mod(params, k, n)
        assert (pair.v * pair.v - params.d * pair.u * pair.u) % n == 4 * pow(q, k, n) % n


def test_lucas_test_verdicts():
    v = lucas_test(21, LucasParams(3, 1))
    assert v.status is Status.PSEUDOPRIME
    assert v.witnesses["u"] == 0

    v = lucas_test(85, LucasParams(14, 1))
    assert v.status is Status.COMPOSITE_DETECTED
    assert v.witnesses["u"] == 25

    v = lucas_test(13, LucasParams(3, 1))
    assert v.status is Status.PRIME

    v = lucas_test(65, LucasParams(4, 1))
    assert v.status is Status.PSEUDOPRIME


def test_lucas_test_not_applicable():
    # jacobi(5, 25) = 0, witnessed by gcd(5, 25)
    v = lucas_test(25, LucasParams(3, 1))
    assert v.status is Status.NOT_APPLICABLE
    assert v.reason == "jacobi-zero"
    assert v.witnesses["gcd"] == 5

    # gcd(n, Q) > 1 with a nonzero Jacobi symbol
    v = lucas_test(15, LucasParams(2, 5))
    assert v.status is Status.NOT_APPLICABLE
    assert v.reason == "gcd-failure"
    assert v.witnesses["gcd"] == 5


def test_prime_guarantee_sample():
    params = [LucasParams(3, 1), LucasParams(4, 1), LucasParams(1, -1), LucasParams(5, 2)]
    for p in range(3, 2000, 2):
        if is_composite(p):
            continue
        for pr in params:
            v = lucas_test(p, pr)
            if v.status is Status.NOT_APPLICABLE:
                continue
            assert v.status is Status.PRIME
            assert v.witnesses["u"] == 0


def test_strong_lucas_verdicts():
    # 21 passes the plain test but the full identity fails (U_21 = 13 != 1)
    v = strong_lucas_test(21, LucasParams(3, 1))
    assert v.status is Status.COMPOSITE_DETECTED
    assert v.witnesses["u"] == 0
    assert v.witnesses["u_next"] == 13

    v = strong_lucas_test(13, LucasParams(3, 1))
    assert v.status is Status.PRIME

    # 323: U_324 = 0 and U_325 = 1 mod 323 (verified by direct recurrence)
    assert uv_by_recurrence(3, 1, 324, 323)[0] == 0
    assert uv_by_recurrence(3, 1, 325, 323)[0] == 1
    v = strong_lucas_test(323, LucasParams(3, 1))
    assert v.status is Status.PSEUDOPRIME


def test_strong_implies_ordinary():
    for n in range(3, 2000, 2):
        for params in (LucasParams(3, 1), LucasParams(4, 1)):
            strong = strong_lucas_test(n, params)
            if strong.status is Status.PSEUDOPRIME:
                assert lucas_test(n, params).status is Status.PSEUDOPRIME

