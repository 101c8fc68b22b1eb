"""Conic group law, parametrization, point counting, Pell tests."""

import random

import pytest

from pellucas import (
    ConicPoint,
    PellParams,
    Status,
    brahmagupta_mul,
    conic_order,
    is_composite,
    jacobi,
    pell_pow,
    pell_test,
    phi,
    strong_pell_test,
)
from pellucas.errors import (
    EnumerationBoundError,
    MixedContextError,
    NotOnConicError,
    PhiUndefinedError,
)

rng = random.Random(0xD1CE)


def random_member_points(count):
    """Sample member points through phi with seeded randomness."""
    points = []
    while len(points) < count:
        n = rng.randrange(3, 2000) | 1
        d = rng.randrange(-30, 31)
        a = rng.randrange(0, 200)
        if d == 0:
            continue
        try:
            points.append(phi(a, d, n))
        except PhiUndefinedError:
            continue
    return points


def test_point_construction():
    n = 85
    pt = ConicPoint(8, 66, 3, n)
    assert pt.coords() == (8, 66)
    # coordinates reduce mod n
    assert ConicPoint(8 + 85, 66 - 85, 3, n).coords() == (8, 66)
    with pytest.raises(NotOnConicError):
        ConicPoint(8, 65, 3, n)
    # (163, 162) lies on the conic mod 323 but not mod 21
    ConicPoint(163, 162, 5, 323)
    with pytest.raises(NotOnConicError):
        ConicPoint(163, 162, 5, 21)


def test_point_takes_a_plain_int_modulus():
    pt = ConicPoint(8, 66, 3, 85)
    assert pt == phi(4, 3, 85)
    assert type(pt.n) is int
    assert repr(pt) == "ConicPoint(x=8, y=66, d=3, n=85)"


def test_identity_and_inverse():
    for pt in random_member_points(25):
        e = ConicPoint.identity(pt.d, pt.n)
        assert brahmagupta_mul(e, pt).coords() == pt.coords()
        assert brahmagupta_mul(pt, e).coords() == pt.coords()
        assert brahmagupta_mul(pt, pt.inverse()).coords() == (1, 0)


def test_associativity_and_closure():
    pts = random_member_points(60)
    for i in range(0, len(pts) - 2, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        if not (a.d == b.d == c.d and a.n == b.n == c.n):
            continue
        left = brahmagupta_mul(brahmagupta_mul(a, b), c)
        right = brahmagupta_mul(a, brahmagupta_mul(b, c))
        assert left.coords() == right.coords()
    # closure is enforced by construction: brahmagupta_mul returns a
    # validated ConicPoint, so reaching here means membership held
    for pt in random_member_points(20):
        brahmagupta_mul(pt, pt)


def test_mixed_context_rejected():
    a = ConicPoint(8, 66, 3, 85)
    b = ConicPoint(7, 4, 3, 87)
    with pytest.raises(MixedContextError):
        brahmagupta_mul(a, b)
    c = ConicPoint(1, 0, 5, 85)
    with pytest.raises(MixedContextError):
        brahmagupta_mul(a, c)


def test_square_by_hand():
    pt = ConicPoint(8, 66, 3, 85)
    sq = brahmagupta_mul(pt, pt)
    # (8*8 + 3*66*66, 2*8*66) = (13132, 1056) = (42, 36) mod 85
    assert sq.coords() == (42, 36)


def test_pow_known_values():
    pt = ConicPoint(12, 11, 5, 21)
    assert pell_pow(pt, 20).coords() == (13, 0)
    pt = ConicPoint(7, 4, 3, 85)
    assert pell_pow(pt, 84).coords() == (76, 15)
    assert pell_pow(pt, 0).coords() == (1, 0)


def test_pow_matches_iterated_multiplication():
    for pt in random_member_points(10):
        acc = ConicPoint.identity(pt.d, pt.n)
        for e in range(65):
            assert pell_pow(pt, e).coords() == acc.coords()
            acc = brahmagupta_mul(acc, pt)


def test_phi_known_values():
    for n in (5, 7, 11, 25, 35, 49, 55):  # moduli coprime to 6
        assert phi(3, 3, n).coords() == (2 % n, 1 % n)
    assert phi(4, 6, 77).coords() == (33, 47)
    assert phi(4, 3, 85).coords() == (8, 66)
    with pytest.raises(PhiUndefinedError) as excinfo:
        phi(4, 6, 35)  # gcd(4^2 - 6, 35) = 5
    assert excinfo.value.gcd == 5
    with pytest.raises(ValueError):
        phi(3, 0, 7)


def test_phi_membership_exhaustive():
    for n in (9, 15, 21, 25, 49, 77, 85, 91, 99):
        for d in range(-10, 11):
            if d == 0:
                continue
            for a in range(0, 120):
                try:
                    pt = phi(a, d, n)
                except PhiUndefinedError:
                    continue
                # ConicPoint construction re-checks membership; also check
                # the two coordinates explicitly
                assert (pt.x * pt.x - d * pt.y * pt.y) % n == 1


def test_phi_of_lucas_parameter_shift():
    # seed a = p + 2 with d = p^2 - 4 lands on (p/2, 1/2)
    for p in (1, 3, 4, 5, 6, 9):
        d = p * p - 4
        for n in (21, 85, 323, 1001):
            t = (p + 2) ** 2 - d
            if d == 0 or t % 3 == 0 and n % 3 == 0:
                continue
            try:
                pt = phi(p + 2, d, n)
            except PhiUndefinedError:
                continue
            inv2 = pow(2, -1, n)
            assert pt.coords() == (p * inv2 % n, inv2)


def test_pell_test_verdicts():
    v = pell_test(21, PellParams.from_point(5, 12, 11))
    assert v.status is Status.PSEUDOPRIME
    assert v.witnesses["x"] == 13 and v.witnesses["y"] == 0

    v = pell_test(85, PellParams.from_point(3, 7, 4))
    assert v.status is Status.COMPOSITE_DETECTED
    assert (v.witnesses["x"], v.witnesses["y"]) == (76, 15)

    v = pell_test(85, PellParams.from_point(3, 8, 66))
    assert v.status is Status.PSEUDOPRIME

    v = pell_test(13, PellParams.from_point(5, 9, 4))  # 81 - 5*16 = 1
    assert v.status is Status.PRIME
    assert v.witnesses["y"] == 0


def test_pell_test_not_applicable_reasons():
    v = pell_test(21, PellParams.from_point(5, 163, 162))
    assert v.status is Status.NOT_APPLICABLE
    assert v.reason == "point-not-on-conic"

    v = pell_test(21, PellParams.from_point(5, 1, 0))  # gcd(21, 0) = 21
    assert (v.status, v.reason) == (Status.NOT_APPLICABLE, "gcd-failure")

    v = pell_test(25, PellParams.from_point(5, 9, 1))  # jacobi(5, 25) = 0
    assert (v.status, v.reason) == (Status.NOT_APPLICABLE, "jacobi-zero")
    assert v.witnesses["gcd"] == 5

    v = pell_test(35, PellParams.from_seed(6, 4))  # phi denominator shares 5
    assert (v.status, v.reason) == (Status.NOT_APPLICABLE, "parametrization-undefined")
    assert v.witnesses["gcd"] == 5


def test_pell_test_from_seed():
    v = pell_test(85, PellParams.from_seed(3, 4))  # resolves to (8, 66)
    assert v.status is Status.PSEUDOPRIME
    v = pell_test(77, PellParams.from_seed(6, 4))
    assert v.status is Status.PSEUDOPRIME


def test_strong_pell_verdicts():
    v = strong_pell_test(21, PellParams.from_point(5, 12, 11))
    assert v.status is Status.COMPOSITE_DETECTED  # power is (13, 0), not (1, 0)
    v = strong_pell_test(13, PellParams.from_point(5, 9, 4))
    assert v.status is Status.PRIME
    # (163,162)^(x)324 = (1,0) mod 323: strong pseudoprime (oracle-checked)
    v = strong_pell_test(323, PellParams.from_point(5, 163, 162))
    assert v.status is Status.PSEUDOPRIME
    # strong implies ordinary on a sweep
    for n in range(3, 1500, 2):
        params = PellParams.from_seed(6, 4)
        if strong_pell_test(n, params).status is Status.PSEUDOPRIME:
            assert pell_test(n, params).status is Status.PSEUDOPRIME


def test_prime_guarantee_on_conic():
    count = 0
    for p in range(3, 2000, 2):
        if is_composite(p):
            continue
        for d, a in ((6, 4), (5, 5), (-3, 2), (12, 6)):
            if p % abs(d) == 0 or a % p == 0:
                continue
            try:
                pt = phi(a, d, p)
            except PhiUndefinedError:
                continue
            if pt.y == 0:
                continue
            eps = jacobi(d, p)
            assert pell_pow(pt, p - eps).coords() == (1, 0)
            count += 1
    assert count > 500  # the sweep actually exercised many primes


def test_conic_order_known_values():
    assert conic_order(5, 3) == 4
    assert conic_order(2, 7) == 6
    # squares give p - 1 points
    assert conic_order(4, 11) == 10
    assert conic_order(9, 13) == 12


def test_conic_order_matches_pair_enumeration():
    # oracle-of-oracle: literal scan over all p^2 pairs
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(1, 11):
            if d % p == 0:
                continue
            brute = sum(
                1 for x in range(p) for y in range(p) if (x * x - d * y * y) % p == 1
            )
            assert conic_order(d, p) == brute


def test_conic_order_group_law():
    primes = [p for p in range(3, 200, 2) if not is_composite(p)]
    for p in primes:
        for d in range(1, 31):
            if d % p == 0:
                continue
            assert conic_order(d, p) == p - jacobi(d, p)


def test_conic_order_validation():
    with pytest.raises(EnumerationBoundError):
        conic_order(2, 10_007)
    with pytest.raises(ValueError):
        conic_order(2, 9)  # composite
    with pytest.raises(ValueError):
        conic_order(7, 7)  # shared factor


def test_pell_params_validation():
    with pytest.raises(ValueError):
        PellParams(0, a=3)
    with pytest.raises(ValueError):
        PellParams(5, x=1)
    with pytest.raises(ValueError):
        PellParams(5, x=1, y=0, a=3)
    with pytest.raises(ValueError):
        PellParams(5)
