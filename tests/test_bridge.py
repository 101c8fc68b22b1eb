"""Parameter correspondence: maps, closed form, roundtrips."""

import random

import pytest

from pellucas import (
    ConicPoint,
    LucasParams,
    Status,
    check_closed_form,
    closed_form_sweep,
    from_pell,
    lucas_test,
    lucas_to_pell,
    lucas_to_phi_params,
    pell_test,
    pell_to_lucas,
    phi,
    roundtrip,
)
from pellucas.errors import DegenerateDError, MixedContextError, PhiUndefinedError, ZeroPError

rng = random.Random(0xB41D6E)


def test_lucas_to_pell_known_points():
    params = lucas_to_pell(3, 21)
    assert (params.d, params.x, params.y) == (5, 12, 11)
    params = lucas_to_pell(3, 323)
    assert (params.d, params.x, params.y) == (5, 163, 162)
    params = lucas_to_pell(4, 101)
    inv2 = pow(2, -1, 101)
    assert (params.d, params.x, params.y) == (12, 2, inv2)
    with pytest.raises(DegenerateDError):
        lucas_to_pell(2, 21)


def test_lucas_to_pell_point_is_member():
    for _ in range(100):
        p = rng.randrange(1, 60)
        if p == 2:
            continue
        n = rng.randrange(3, 5000) | 1
        params = lucas_to_pell(p, n)
        params.resolve(n)  # membership enforced at construction


def test_pell_to_lucas_known_values():
    n = 85
    assert pell_to_lucas(ConicPoint(8, 66, 3, n)) == LucasParams(16, 1)
    assert pell_to_lucas(ConicPoint(7, 4, 3, n)) == LucasParams(14, 1)
    # x = 0 cannot lift: (0, 1) lies on the d = -1 conic for every n
    with pytest.raises(ZeroPError):
        pell_to_lucas(ConicPoint(0, 1, -1, n))
    # the identity point substitutes to P = 2, whose discriminant is zero
    with pytest.raises(DegenerateDError):
        pell_to_lucas(ConicPoint(1, 0, 5, n))


def test_lucas_to_phi_params():
    assert lucas_to_phi_params(3) == (5, 5)
    assert lucas_to_phi_params(4) == (12, 6)
    assert lucas_to_phi_params(1) == (-3, 3)
    with pytest.raises(DegenerateDError):
        lucas_to_phi_params(2)


def test_phi_params_compose_to_explicit_point():
    for p in (1, 3, 4, 5, 6, 7, 10):
        d, a = lucas_to_phi_params(p)
        for n in range(3, 400, 2):
            try:
                via_phi = phi(a, d, n)
            except PhiUndefinedError:
                continue
            explicit = lucas_to_pell(p, n)
            assert via_phi.coords() == (explicit.x, explicit.y)


def test_closed_form_known_values():
    chk = check_closed_form(12, 11, 5, 20, 21)
    assert chk.equal and chk.power == (13, 0)
    chk = check_closed_form(7, 4, 3, 84, 85)
    assert chk.equal and chk.power == (76, 15)
    for x, y, d in ((5, 9, 7), (0, 3, -2), (30, 30, -10)):
        chk = check_closed_form(x, y, d, 0, 99)
        assert chk.equal and chk.power == (1, 0)


def test_closed_form_cross_check_by_recurrence():
    # V_84(14,1)/2 and 4 U_84(14,1) mod 85 via plain iteration
    u0, u1, v0, v1 = 0, 1, 2, 14
    for _ in range(83):
        u0, u1 = u1, (14 * u1 - u0) % 85
        v0, v1 = v1, (14 * v1 - v0) % 85
    inv2 = pow(2, -1, 85)
    assert (v1 * inv2 % 85, 4 * u1 % 85) == (76, 15)


def test_closed_form_off_conic_pairs():
    # the identity holds for arbitrary pairs, members or not
    for _ in range(200):
        n = rng.randrange(3, 3000) | 1
        x, y = rng.randrange(n), rng.randrange(n)
        d = rng.randrange(-20, 21)
        if d == 0:
            continue
        k = rng.randrange(0, 300)
        assert check_closed_form(x, y, d, k, n).equal


def test_closed_form_sweep_small():
    checked, bad = closed_form_sweep(8, 8, 4, 16, 3, 41)
    assert checked == 9 * 9 * 8 * 17 * 20
    assert bad == []
    # below 3 the identity x = 1 is unreduced mod 1: rejected, not mismatched
    with pytest.raises(ValueError, match="odd and >= 3"):
        closed_form_sweep(1, 1, 1, 2, 1, 3)
    with pytest.raises(ValueError, match="odd and >= 3"):
        closed_form_sweep(1, 1, 1, 2, -3, 3)


def test_roundtrip_reports():
    rep = roundtrip(21, 3)
    assert rep.agreement
    assert rep.lucas_verdict.status is Status.PSEUDOPRIME
    assert rep.pell_verdict.status is Status.PSEUDOPRIME
    assert rep.recovered_p == 3

    rep = roundtrip(85, 14)
    assert rep.agreement
    assert rep.lucas_verdict.status is Status.COMPOSITE_DETECTED
    assert rep.pell_verdict.status is Status.COMPOSITE_DETECTED
    assert rep.recovered_p == 14

    rep = roundtrip(13, 3)
    assert rep.agreement
    assert rep.lucas_verdict.status is Status.PRIME


def test_roundtrip_not_applicable_disagrees():
    # jacobi(5, 25) = 0 on both sides: surfaced, not hidden
    rep = roundtrip(25, 3)
    assert not rep.agreement
    assert rep.lucas_verdict.status is Status.NOT_APPLICABLE
    assert rep.pell_verdict.status is Status.NOT_APPLICABLE


def test_from_pell_report():
    rep = from_pell(85, ConicPoint(8, 66, 3, 85))
    assert rep.direction == "pell-to-lucas"
    assert rep.lucas_params == LucasParams(16, 1)
    assert rep.agreement
    assert rep.lucas_verdict.status is Status.PSEUDOPRIME


def test_from_pell_rejects_a_point_of_another_modulus():
    # both tests run mod 87, so a P recovered mod 85 would not belong to them
    with pytest.raises(MixedContextError):
        from_pell(87, ConicPoint(8, 66, 3, 85))


def test_correspondence_forward_and_backward_sample():
    # forward: Lucas pseudoprimes map to Pell pseudoprimes; backward: the
    # mapped-back parameters are Lucas pseudoprimes again
    for p in (3, 4):
        for n in range(3, 1500, 2):
            lv = lucas_test(n, LucasParams(p, 1))
            pv = pell_test(n, lucas_to_pell(p, n))
            if lv.status is Status.PSEUDOPRIME:
                assert pv.status is Status.PSEUDOPRIME
            if pv.status is Status.PSEUDOPRIME:
                point = lucas_to_pell(p, n).resolve(n)
                back = pell_to_lucas(point)
                assert lucas_test(n, back).status is Status.PSEUDOPRIME
