"""modring: gcd, inverses, Jacobi symbols, compositeness baseline."""

import random

import pytest

from pellucas import ConicPoint, LucasParams, gcd, is_composite, jacobi, lucas_uv_mod, mod_inverse
from pellucas.modring import as_modulus
from pellucas.errors import NotInvertibleError

rng = random.Random(0xC0FFEE)


def test_gcd_values():
    assert gcd(21, 9) == 3
    assert gcd(85, 4) == 1
    assert gcd(0, 7) == 7
    assert gcd(0, 0) == 0
    assert gcd(-12, 18) == 6


def test_gcd_against_divisor_scan():
    for _ in range(200):
        a, b = rng.randrange(1, 500), rng.randrange(1, 500)
        expected = max(d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0)
        assert gcd(a, b) == expected


def test_modulus_validation():
    entry_points = (
        as_modulus,
        lambda n: jacobi(2, n),
        lambda n: lucas_uv_mod(LucasParams(3, 1), 5, n),
        lambda n: ConicPoint(1, 0, 3, n),
    )
    for bad in (20, 2, 1, 0, -7, 9.0, True):
        for call in entry_points:
            with pytest.raises(ValueError, match="modulus must be"):
                call(bad)
    assert as_modulus(21) == 21
    assert type(as_modulus(21)) is int
    assert ConicPoint(1, 0, 3, 21).n == 21


def test_mod_inverse_values():
    assert mod_inverse(2, 21) == 11
    assert mod_inverse(2, 323) == 162
    assert mod_inverse(1, 9) == 1
    assert type(mod_inverse(2, 21)) is int


def test_mod_inverse_failure_carries_gcd():
    with pytest.raises(NotInvertibleError) as excinfo:
        mod_inverse(6, 9)
    assert excinfo.value.gcd == 3


def test_mod_inverse_roundtrip():
    for _ in range(300):
        n = rng.randrange(3, 10_000) | 1
        a = rng.randrange(1, n)
        if gcd(a, n) != 1:
            continue
        assert a * mod_inverse(a, n) % n == 1


def test_jacobi_values():
    assert jacobi(5, 21) == 1
    assert jacobi(3, 85) == 1
    assert jacobi(252, 85) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(2, 9) == 1


def test_jacobi_squares_are_one():
    for _ in range(300):
        n = rng.randrange(3, 5000) | 1
        a = rng.randrange(1, n)
        if gcd(a, n) == 1:
            assert jacobi(a * a, n) == 1


def test_jacobi_multiplicative():
    for _ in range(300):
        n = rng.randrange(3, 5000) | 1
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_matches_euler_criterion_on_primes():
    primes = [p for p in range(3, 100, 2) if all(p % q for q in range(2, p))]
    for p in primes:
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = -1 if euler == p - 1 else euler
            assert jacobi(a, p) == expected


def test_jacobi_negative_arguments():
    for _ in range(200):
        n = rng.randrange(3, 3000) | 1
        a = rng.randrange(1, n)
        assert jacobi(-a, n) == jacobi(n - a, n)
    # explicit sign rule: (-1/n) = 1 iff n = 1 mod 4
    assert jacobi(-1, 13) == 1
    assert jacobi(-1, 19) == -1


def test_is_composite_matches_sieve_exhaustively():
    limit = 1_000_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(2, limit + 1):
        assert is_composite(n) == (not sieve[n])


def test_is_composite_known_values():
    assert is_composite(21)
    assert not is_composite(13)
    assert is_composite(323)
    assert is_composite(2**61 - 1) is False  # Mersenne prime, above 2**32
    with pytest.raises(ValueError):
        is_composite(1)
    with pytest.raises(ValueError):
        is_composite(10**25)  # beyond the deterministic bound
