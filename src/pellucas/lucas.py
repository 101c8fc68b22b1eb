"""Lucas sequences mod n and the Lucas pseudoprimality tests.

The sequences are U_0 = 0, U_1 = 1, V_0 = 2, V_1 = P with the shared
recurrence X_k = P X_{k-1} - Q X_{k-2}; the basic test asks whether
U_{n - (D/n)} = 0 mod n for D = P^2 - 4Q.  Odd composite n passing it are
pseudoprimes for (P, Q).  The tests are ``verdict.verdict`` calls.
"""

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .modring import as_modulus
from .verdict import verdict


@dataclass(frozen=True)
class LucasParams:
    """Sequence parameters (P, Q) with discriminant D = P^2 - 4Q.

    P must be positive and D nonzero.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"P must be positive, got {self.p}")
        if self.d == 0:
            raise ValueError(f"P^2 - 4Q must be nonzero, got P={self.p} Q={self.q}")

    @property
    def d(self):
        return self.p * self.p - 4 * self.q

    @cached_property
    def kernel_args(self):
        """The kind and parameter tuple of ``kernels.scan``."""
        return "lucas", (self.p, self.q)


@dataclass(frozen=True)
class LucasPair:
    """(U_k, V_k) reduced mod n."""

    u: int
    v: int


def lucas_uv_mod(params, k, n):
    """Evaluate (U_k, V_k) mod n in O(log k) ring operations."""
    return LucasPair(*kernels.lucas_uv(params.p, params.q, k, as_modulus(n).n))


def lucas_test(n, params):
    """Lucas test: does U_{n - (D/n)} vanish mod n?

    Verdicts keep the proven-prime case apart from the pseudoprime case:
    a prime n reports Prime, a composite n reports Pseudoprime exactly
    when the congruence holds.  A zero Jacobi symbol or gcd(n, Q) > 1
    yields NotApplicable with the gcd as witness.
    """
    return verdict(n, params, strong=False)


def strong_lucas_test(n, params):
    """Stronger variant: U_{n-(D/n)} = 0 and U_{n-(D/n)+1} = 1 mod n.

    Equivalent to the full identity point on the conic side.  Both U
    values are always reported.
    """
    return verdict(n, params, strong=True)
