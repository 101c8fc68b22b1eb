"""The conic x^2 - d y^2 = 1 over Z_n and the Pell pseudoprimality tests.

Points compose under the Brahmagupta product
(x1, y1) (x) (x2, y2) = (x1 x2 + d y1 y2, x1 y2 + x2 y1), with identity
(1, 0) and inverse (x, -y).  Over Z_p the group has p - (d/p) elements,
so a member point raised to n - (d/n) lands on (1, 0) whenever n is
prime; composites where the power's y-coordinate still vanishes are the
Pell pseudoprimes for d and that point.  The tests compute the power on
the Lucas core, (x, y)^k = (V_k/2, y U_k) with P = 2x, Q = 1
(``verdict.verdict``).
"""

from collections import namedtuple
from math import gcd

from . import kernels
from .errors import (
    EnumerationBoundError,
    MixedContextError,
    NotOnConicError,
    PhiUndefinedError,
)
from .modring import as_modulus, is_composite
from .verdict import verdict


def is_member(x, y, d, n):
    """Membership congruence x^2 - d y^2 = 1 mod n on raw integers."""
    return (x * x - d * y * y) % n == 1 % n


class ConicPoint(namedtuple("ConicPoint", "x y d n")):
    """A point on x^2 - d y^2 = 1 over Z_n; immutable once built.

    Coordinates are reduced into [0, n) and membership is checked at
    construction, so every ConicPoint in circulation is a member point.
    ``d`` stays a plain integer: the same parameters get reduced against
    many moduli during range searches.
    """

    __slots__ = ()

    def __new__(cls, x, y, d, n):
        n = as_modulus(n)
        if d == 0:
            raise ValueError("conic parameter d must be nonzero")
        x, y = x % n, y % n
        if not is_member(x, y, d, n):
            raise NotOnConicError(f"({x}, {y}) is not on x^2 - {d} y^2 = 1 mod {n}")
        return super().__new__(cls, x, y, d, n)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` calls it: validate there too
        return cls(*iterable)

    @classmethod
    def identity(cls, d, n):
        return cls(1, 0, d, n)

    def inverse(self):
        return ConicPoint(self.x, -self.y, self.d, self.n)

    def coords(self):
        return self.x, self.y


def brahmagupta_mul(p1, p2):
    """Compose two points; closure holds whenever the inputs are members."""
    if p1.d != p2.d or p1.n != p2.n:
        raise MixedContextError(
            f"cannot compose points with d={p1.d} mod {p1.n} and d={p2.d} mod {p2.n}"
        )
    n = p1.n
    x = (p1.x * p2.x + p1.d * p1.y * p2.y) % n
    y = (p1.x * p2.y + p2.x * p1.y) % n
    return ConicPoint(x, y, p1.d, n)


def pell_pow(point, e):
    """point^(x)e by square-and-multiply; e = 0 gives the identity."""
    x, y = kernels.pell_pow(point.x, point.y, point.d, e, point.n)
    return ConicPoint(x, y, point.d, point.n)


def phi(a, d, n):
    """Parametrization a -> ((a^2 + d)/(a^2 - d), 2a/(a^2 - d)) mod n.

    Defined exactly when a^2 - d is invertible mod n; the image always
    satisfies membership.  On failure raises ``PhiUndefinedError`` whose
    gcd may be a nontrivial factor of n.
    """
    if d == 0:
        raise ValueError("conic parameter d must be nonzero")
    n = as_modulus(n)
    t = (a * a - d) % n
    g = gcd(t, n)
    if g != 1:
        raise PhiUndefinedError(a, d, n, g)
    inv = pow(t, -1, n)
    return ConicPoint((a * a + d) * inv, 2 * a * inv, d, n)


class PellParams(namedtuple("PellParams", "d x y a")):
    """Test parameters: d plus either an explicit point or a seed for phi.

    An explicit (x, y) is interpreted mod each tested n; a seed a is fed
    to phi per n, which may fail for some moduli.  A point leaves ``a``
    None, a seed ``x`` and ``y``.  The field order is the kernels'
    parameter order: ``kernels.scan`` and ``_kernels_py.decide`` take the
    record as it is.
    """

    __slots__ = ()

    def __new__(cls, d, x=None, y=None, a=None):
        if d == 0:
            raise ValueError("conic parameter d must be nonzero")
        explicit = x is not None or y is not None
        if explicit and (x is None or y is None or a is not None):
            raise ValueError("give both --x and --y, or a seed a, not a mix")
        if not explicit and a is None:
            raise ValueError("either an explicit point (x, y) or a seed a is required")
        return super().__new__(cls, d, x, y, a)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` calls it: validate there too
        return cls(*iterable)

    @classmethod
    def from_point(cls, d, x, y):
        return cls(d, x=x, y=y)

    @classmethod
    def from_seed(cls, d, a):
        return cls(d, a=a)

    def resolve(self, n):
        """Concrete ConicPoint mod n; may raise NotOnConicError/PhiUndefinedError."""
        if self.a is not None:
            return phi(self.a, self.d, n)
        return ConicPoint(self.x, self.y, self.d, n)


def pell_test(n, params):
    """Pell test: does the y-coordinate of point^(x)(n - (d/n)) vanish?

    Hypothesis failures (point not on the conic, gcd(n, y) > 1, zero
    Jacobi symbol, phi undefined) become NotApplicable verdicts rather
    than exceptions so range searches can record and move on.
    """
    return verdict(n, "pell", params, strong=False)


def strong_pell_test(n, params):
    """Stronger variant: the full power must equal the identity (1, 0)."""
    return verdict(n, "pell", params, strong=True)


# The largest p that ``conic_order`` counts exhaustively.
ENUMERATION_BOUND = 10_000


def conic_order(d, p):
    """|{(x, y) in Z_p^2 : x^2 - d y^2 = 1}| for an odd prime p.

    Exhaustive count used as the oracle for the group-order law
    |C| = p - (d/p): a frequency table of y^2 over all y, then one pass
    over all x.  No Jacobi symbols involved.
    """
    if p > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"p = {p} exceeds the enumeration bound {ENUMERATION_BOUND}")
    if p < 3 or p % 2 == 0 or is_composite(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if gcd(d, p) != 1:
        raise ValueError(f"gcd(d, p) must be 1, got d={d} p={p}")
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    dinv = pow(d % p, -1, p)
    total = 0
    for x in range(p):
        total += squares[(x * x - 1) * dinv % p]
    return total
