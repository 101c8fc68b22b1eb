"""Lucas sequences mod n and the Lucas pseudoprimality tests.

The sequences are U_0 = 0, U_1 = 1, V_0 = 2, V_1 = P with the shared
recurrence X_k = P X_{k-1} - Q X_{k-2}; the basic test asks whether
U_{n - (D/n)} = 0 mod n for D = P^2 - 4Q.  Odd composite n passing it are
pseudoprimes for (P, Q).  The tests are ``verdict.verdict`` calls.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

from . import kernels
from .errors import PerfectSquareError, SharedFactorError
from .modring import Modulus, as_modulus, jacobi
from .verdict import classify, verdict


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
    k: int
    n: Modulus

    def satisfies_identity(self, params):
        """Classical self-check: V_k^2 - D U_k^2 = 4 Q^k mod n."""
        n = self.n.n
        lhs = (self.v * self.v - params.d * self.u * self.u) % n
        return lhs == 4 * pow(params.q, self.k, n) % n


def lucas_uv_mod(params, k, n):
    """Evaluate (U_k, V_k) mod n in O(log k) ring operations."""
    n = as_modulus(n)
    u, v = kernels.lucas_uv(params.p, params.q, k, n.n)
    return LucasPair(u, v, k, n)


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


def selfridge_params(n):
    """First D in 5, -7, 9, -11, ... with (D/n) = -1, as LucasParams.

    Packaged as P = 1, Q = (1 - D)/4 (the division is exact because every
    D in the sequence is 1 mod 4).  Perfect squares are rejected up front
    since no D with (D/n) = -1 exists for them; a tried D sharing a
    nontrivial factor with n raises ``SharedFactorError``.
    """
    n = as_modulus(n)
    r = isqrt(n.n)
    if r * r == n.n:
        raise PerfectSquareError(f"{n.n} = {r}^2 has no D with (D/n) = -1")
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            assert (1 - d) % 4 == 0
            return LucasParams(1, (1 - d) // 4)
        if j == 0:
            g = gcd(abs(d), n.n)
            if 1 < g < n.n:
                raise SharedFactorError(n.n, g)
        d = -(d + 2) if d > 0 else -(d - 2)


def oeis_variant_test(n):
    """Variant on the Pell numbers U_k(2, -1): U_n = (2/n) mod n.

    Composites passing this are OEIS A099011; 169 is the first.
    """
    m = as_modulus(n).n
    u, _ = kernels.lucas_uv(2, -1, m, m)
    target = kernels.jacobi(2, m) % m
    return classify(m, u == target, {"u": u, "target": target})
