"""Exact modular arithmetic primitives shared by every test.

The residue ring is always Z_n for an odd modulus n >= 3, and n is a
plain int.  Evenness and tiny moduli are rejected by ``as_modulus`` in
each public call and each ``ConicPoint``; the kernels take n as it is and
re-validate nothing.
"""

from math import gcd  # noqa: F401  (gcd is part of the public API)

from . import kernels
from .errors import NotInvertibleError


def as_modulus(n):
    """n itself, once checked to be an int (not a bool), odd and >= 3."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"modulus must be an integer, got {n!r}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    return n


def mod_inverse(a, n):
    """The int r in [0, n) with a * r = 1 mod n.

    Raises ``NotInvertibleError`` carrying gcd(a, n) when no inverse
    exists; that gcd may be a nontrivial factor of n.
    """
    n = as_modulus(n)
    g = gcd(a, n)
    if g != 1:
        raise NotInvertibleError(a, n, g)
    return pow(a, -1, n)


def jacobi(a, n):
    """Jacobi symbol (a / n) in {-1, 0, +1}; zero iff gcd(a, n) > 1.

    Any integer a is accepted: the symbol depends only on a mod n.
    """
    return kernels.jacobi(a, as_modulus(n))


def is_composite(n):
    """True iff n is composite; deterministic and exact.

    Miller-Rabin with the bases that n's size needs: from {2, 3} below
    1373653 up to the 13 prime bases through 41, which no composite below
    ``kernels.MR_DETERMINISTIC_BOUND`` passes (Sorenson & Webster; the
    rows are ``_kernels_py.MR_BATTERY``).  Larger inputs are rejected
    rather than answered probabilistically.
    """
    if n < 2:
        raise ValueError(f"compositeness is defined for n >= 2, got {n}")
    if n >= kernels.MR_DETERMINISTIC_BOUND:
        raise ValueError(
            f"n exceeds the deterministic primality bound {kernels.MR_DETERMINISTIC_BOUND}"
        )
    return not kernels.is_prime(n)
