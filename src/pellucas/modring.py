"""Exact modular arithmetic primitives shared by every test.

The residue ring is always Z_n for an odd modulus n >= 3; evenness and
tiny moduli are rejected once, at ``Modulus`` construction, so the
arithmetic itself never has to re-validate.
"""

from dataclasses import dataclass
from math import gcd, isqrt  # noqa: F401  (gcd is part of the public API)

from . import kernels
from .errors import NotInvertibleError


@dataclass(frozen=True)
class Modulus:
    """An odd integer n >= 3 defining the ring Z_n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"modulus must be an integer, got {self.n!r}")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"modulus must be odd and >= 3, got {self.n}")

    def __int__(self):
        return self.n


def as_modulus(n):
    """Accept an int or a Modulus, validating ints on the way in."""
    return n if isinstance(n, Modulus) else Modulus(n)


def mod_inverse(a, n):
    """The int r in [0, n) with a * r = 1 mod n.

    Raises ``NotInvertibleError`` carrying gcd(a, n) when no inverse
    exists; that gcd may be a nontrivial factor of n.
    """
    n = as_modulus(n)
    g = gcd(a, n.n)
    if g != 1:
        raise NotInvertibleError(a, n.n, g)
    return pow(a, -1, n.n)


def jacobi(a, n):
    """Jacobi symbol (a / n) in {-1, 0, +1}; zero iff gcd(a, n) > 1.

    Negative a is handled through (-1 / n) = (-1)^((n-1)/2).
    """
    n = as_modulus(n)
    if a < 0:
        sign = -1 if n.n % 4 == 3 else 1
        return sign * kernels.jacobi(-a % n.n, n.n)
    return kernels.jacobi(a % n.n, n.n)


def is_composite(n):
    """True iff n is composite; deterministic and exact.

    Below 2**32 this is trial division; above it, a fixed strong-probable-
    prime base battery with no composite counterexample below
    ``kernels.MR_DETERMINISTIC_BOUND``.  Larger inputs are rejected rather
    than answered probabilistically.
    """
    if n < 2:
        raise ValueError(f"compositeness is defined for n >= 2, got {n}")
    if n >= kernels.MR_DETERMINISTIC_BOUND:
        raise ValueError(
            f"n exceeds the deterministic primality bound {kernels.MR_DETERMINISTIC_BOUND}"
        )
    return not kernels.is_prime(n)


def smallest_factor(n):
    """Least prime factor of n by trial division, or None if n is prime.

    Intended as the optional witness companion to ``is_composite``; only
    factors up to min(sqrt(n), 2**16) are searched, so a large composite
    with no small factor also returns None.
    """
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    if n % 2 == 0:
        return 2 if n > 2 else None
    i = 3
    limit = min(isqrt(n), 1 << 16)
    while i <= limit:
        if n % i == 0:
            return i
        i += 2
    return None
