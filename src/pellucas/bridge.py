"""Translation between Lucas and Pell test parameters.

For Q = 1 the two tests are two views of one computation: the point
(P/2, 1/2) mod n lies on x^2 - (P^2 - 4) y^2 = 1, and its Brahmagupta
powers are (V_k / 2, U_k / 2).  The maps below make that correspondence
executable in both directions, and ``check_closed_form`` verifies the
underlying closed form

    (x, y)^(x)k = (V_k(P, Q) / 2, y * U_k(P, Q)),  P = 2x, Q = x^2 - d y^2

which holds for arbitrary integer pairs, members or not.
"""

from collections import namedtuple

from . import kernels
from .conic import ConicPoint, PellParams, pell_test, strong_pell_test
from .errors import DegenerateDError, MixedContextError, NotOnConicError, ZeroPError
from .lucas import LucasParams, lucas_test, strong_lucas_test
from .modring import as_modulus, mod_inverse


def lucas_to_pell(p, n):
    """Pell parameters equivalent to the Lucas test (P=p, Q=1) mod n.

    Returns d = p^2 - 4 with the explicit point (p/2, 1/2) mod n, which
    satisfies membership identically.  The point depends on n, so the
    result is tied to this modulus.
    """
    if p == 2:
        raise DegenerateDError("P = 2 gives d = P^2 - 4 = 0")
    if p <= 0:
        raise ValueError(f"P must be positive, got {p}")
    inv2 = mod_inverse(2, n)
    return PellParams.from_point(p * p - 4, p * inv2 % n, inv2)


def pell_to_lucas(point):
    """Lucas parameters (P = 2x lifted positive, Q = 1) for a member point.

    The least positive lift is taken because P must be positive; the U
    congruence only depends on P mod n, so the lift choice is harmless.
    Raises ``ZeroPError`` when 2x = 0 mod n, which has no positive lift
    below n, and ``DegenerateDError`` when the lift is 2 (x = 1, e.g. the
    identity point), since P = 2, Q = 1 has discriminant zero.
    """
    p = 2 * point.x % point.n
    if p == 0:
        raise ZeroPError(f"2x = 0 mod {point.n} for point ({point.x}, {point.y})")
    if p == 2:
        raise DegenerateDError(
            f"point ({point.x}, {point.y}) maps to P = 2, whose discriminant is zero"
        )
    return LucasParams(p, 1)


def lucas_to_phi_params(p):
    """Modulus-independent Pell parameters (d, a) = (p^2 - 4, p + 2).

    Feeding these to phi reproduces lucas_to_pell's explicit point for
    every modulus where a^2 - d = 4(p + 2) is invertible.
    """
    if p == 2:
        raise DegenerateDError("P = 2 gives d = P^2 - 4 = 0")
    if p < 1:
        raise ValueError(f"P must be positive, got {p}")
    return p * p - 4, p + 2


# Both sides of the power/closed-form identity, reduced mod n.
ClosedFormCheck = namedtuple("ClosedFormCheck", "equal power closed_form")


def check_closed_form(x, y, d, k, n):
    """Compare (x, y)^(x)k against (V_k/2, y U_k) with P = 2x, Q = x^2 - d y^2.

    The pair need not lie on the conic.  Returns both sides so callers
    can report the witnesses.
    """
    if d == 0:
        raise ValueError("conic parameter d must be nonzero")
    n = as_modulus(n)
    power = kernels.pell_pow(x, y, d, k, n)
    p, q = 2 * x, x * x - d * y * y
    u, v = kernels.lucas_uv(p, q, k, n)
    closed = (kernels.half(v, n), y * u % n)
    return ClosedFormCheck(power == closed, power, closed)


class BridgeReport(namedtuple("BridgeReport", (
    "direction n lucas_params pell_params lucas_verdict pell_verdict recovered_p strong"
))):
    """Verdicts on both sides of the parameter correspondence for one n.

    ``agreement`` is True only when both tests ran and returned the same
    status; a NotApplicable on either side means the correspondence
    hypotheses failed, which is surfaced rather than hidden.
    """

    __slots__ = ()

    @property
    def agreement(self):
        if not (self.lucas_verdict.applicable and self.pell_verdict.applicable):
            return False
        return self.lucas_verdict.status is self.pell_verdict.status


def roundtrip(n, p, strong=False):
    """Lucas -> Pell -> Lucas for one n.

    Runs the Lucas test for (P=p, Q=1), maps to Pell parameters, runs the
    Pell test on the image point, then maps the point back; the recovered
    P is the least positive lift of 2 (p/2) mod n, i.e. p itself whenever
    p < n.  NotApplicable reasons are recorded in the verdicts, never
    raised.
    """
    n = as_modulus(n)
    lucas_params = LucasParams(p, 1)
    pell_params = lucas_to_pell(p, n)
    ltest = strong_lucas_test if strong else lucas_test
    ptest = strong_pell_test if strong else pell_test
    lucas_verdict = ltest(n, lucas_params)
    pell_verdict = ptest(n, pell_params)
    recovered = None
    try:
        recovered = pell_to_lucas(pell_params.resolve(n)).p
    except (NotOnConicError, ZeroPError, DegenerateDError):
        # only reachable when p = 0 or 2 mod n; the report stays total
        pass
    return BridgeReport(
        "lucas-to-pell", n, lucas_params, pell_params,
        lucas_verdict, pell_verdict, recovered, strong,
    )


def from_pell(n, point, strong=False):
    """Pell -> Lucas for one explicit member point mod n."""
    n = as_modulus(n)
    if not isinstance(point, ConicPoint):
        raise TypeError("from_pell expects a ConicPoint")
    if point.n != n:
        raise MixedContextError(f"the point is taken mod {point.n}, not mod {n}")
    pell_params = PellParams.from_point(point.d, point.x, point.y)
    lucas_params = pell_to_lucas(point)
    ltest = strong_lucas_test if strong else lucas_test
    ptest = strong_pell_test if strong else pell_test
    return BridgeReport(
        "pell-to-lucas", n, lucas_params, pell_params,
        ltest(n, lucas_params), ptest(n, pell_params),
        lucas_params.p, strong,
    )
