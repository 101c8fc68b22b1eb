"""Exact modular arithmetic primitives shared by every test.

The residue ring is always Z_n for an odd modulus n >= 3.  Evenness and
tiny moduli are rejected once per public call, when ``as_modulus`` turns
an int into a ``Modulus``; a ``Modulus`` passes through it unchecked, and
the kernels get the plain int ``n.n``, so nothing below re-validates.
"""

from dataclasses import dataclass
from math import gcd  # noqa: F401  (gcd is part of the public API)

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

    Any integer a is accepted: the symbol depends only on a mod n.
    """
    return kernels.jacobi(a, as_modulus(n).n)


def is_composite(n):
    """True iff n is composite; deterministic and exact.

    Below 2**32 the strong-probable-prime bases {2, 7, 61} decide it
    (Jaeschke 1993); at and above 2**32, a fixed 12-base battery with no
    composite counterexample below ``kernels.MR_DETERMINISTIC_BOUND``.
    Larger inputs are rejected rather than answered probabilistically.
    """
    if n < 2:
        raise ValueError(f"compositeness is defined for n >= 2, got {n}")
    if n >= kernels.MR_DETERMINISTIC_BOUND:
        raise ValueError(
            f"n exceeds the deterministic primality bound {kernels.MR_DETERMINISTIC_BOUND}"
        )
    return not kernels.is_prime(n)
