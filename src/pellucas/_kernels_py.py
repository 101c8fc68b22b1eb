"""Pure-Python modular kernels.

Reference implementation of the hot inner loops; exact for integers of any
size thanks to Python's arbitrary-precision arithmetic.  The compiled
backend in ``_kernels_c`` mirrors these functions for 64-bit moduli; the
two are cross-checked in the test suite.  ``decide`` holds the per-n
decisions and outcomes of both tests, for the scan and per-n tests alike.
The skip record ``Skip`` and its reasons live here too, so that both scans
return the rows that ``search`` reports.

All functions expect residues already reduced into ``[0, n)`` and an odd
modulus ``n >= 3`` unless noted otherwise.
"""

import sys
from collections import Counter, namedtuple
from math import gcd

BACKEND = "pure"

# Deterministic Miller-Rabin, sized to n: in each (bound, bases) row, no
# composite below bound is a strong probable prime to every base, and the
# bound itself is the first composite that is (OEIS A014233).  Pomerance,
# Selfridge & Wagstaff 1980 (2, 3); Jaeschke 1993 (2, 7, 61 and the first
# 6 and 7 primes); Jiang & Deng 2014 (9 primes); Sorenson & Webster 2017
# (12 and 13 primes).  ``is_prime`` takes the first row whose bound is above
# n; the compiled kernels mirror the rows that 64-bit moduli reach.
MR_BATTERY = (
    (1373653, (2, 3)),
    (4759123141, (2, 7, 61)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
MR_DETERMINISTIC_BOUND = MR_BATTERY[-1][0]

# An odd n a test did not apply to, with the machine-readable reason and,
# for a gcd gate, the common factor.  Both scans and ``decide`` return these.
Skip = namedtuple("Skip", "n reason factor", defaults=(None,))
# ``Skip(n, reason, factor)`` runs namedtuple's Python-level ``__new__``;
# ``_tuple_new(Skip, (n, reason, factor))`` builds the same row in half the time.
_tuple_new = tuple.__new__
REASON_JACOBI_ZERO = "jacobi-zero"
REASON_GCD = "gcd-failure"
REASON_PHI_UNDEFINED = "parametrization-undefined"
REASON_NOT_ON_CONIC = "point-not-on-conic"
# The order of a scan's counts per reason, and of the C scan's skip codes.
REASONS = (REASON_JACOBI_ZERO, REASON_GCD, REASON_PHI_UNDEFINED, REASON_NOT_ON_CONIC)
# Outcomes of a tested n: indices into ``verdict.Status`` (NotApplicable is a skip).
PRIME, PSEUDOPRIME, DETECTED = range(3)


def jacobi(a, n):
    """Jacobi symbol (a / n) for 0 <= a < n, n odd positive."""
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def half(a, n):
    """a / 2 mod odd n for 0 <= a < n; exact because 2 is invertible."""
    return a >> 1 if a % 2 == 0 else (a + n) >> 1


def lucas_uv(p, q, k, n):
    """(U_k, V_k) mod n for the sequences with parameters (p, q).

    Fast doubling: U_{2m} = U_m V_m and V_{2m} = V_m^2 - 2 q^m, with the
    index+1 step (U, V) -> ((pU + V)/2, (dU + pV)/2) applied per binary
    digit of k.  O(log k) multiplications.
    """
    if k == 0:
        return 0, 2 % n
    u, v, qk = 1, p, q
    d = (p * p - 4 * q) % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = half((p * u + v) % n, n), half((d * u + p * v) % n, n)
            qk = qk * q % n
    return u, v


def pell_pow(x, y, d, e, n):
    """(x, y) raised to the e-th Brahmagupta power mod n.

    Square-and-multiply over (x1, y1) * (x2, y2) =
    (x1 x2 + d y1 y2, x1 y2 + x2 y1).  No membership assumption.
    """
    rx, ry = 1, 0
    while e:
        if e & 1:
            rx, ry = (rx * x + d * ry * y) % n, (rx * y + ry * x) % n
        x, y = (x * x + d * y * y) % n, 2 * x * y % n
        e >>= 1
    return rx, ry


def _mr_witness(a, d, s, n):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n):
    """Deterministic primality for n < MR_DETERMINISTIC_BOUND.

    Runs the bases of the first ``MR_BATTERY`` row whose bound is above n.
    A base that n divides is no witness: n is then prime exactly when it
    equals the base.
    """
    if n < 2:
        return False
    for bound, bases in MR_BATTERY:
        if n < bound:
            break
    for a in bases:
        if n % a == 0:
            return n == a
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_witness(a, d, s, n) for a in bases)


def decide(kind, strong, params, ns, backend):
    """Decide one test for every odd n >= 3 of ``ns``; returns (skips, tested).

    The one Python copy of the per-n decisions: ``scan`` collects them,
    ``verdict.verdict`` turns one into a verdict, and the C ``scan``
    mirrors them.  ``backend`` is a module with ``jacobi``, ``lucas_uv``
    and ``is_prime``.  ``kind`` is "lucas" with a ``LucasParams`` (P, Q)
    or "pell" with a ``PellParams`` (d, x, y, a); any other kind raises
    ``ValueError``, and a record of another length ``TypeError``, as in
    the C scan.  The parameters are any integers.

    The gates read constants fixed for the call, computed once, as the C
    scan's one gate chain does, in the same order: for Lucas (D/n) = 0
    with D = P^2 - 4Q, then gcd(Q, n) > 1; for a seed gcd(t, n) > 1 with
    t = a^2 - d (phi undefined; its image is always on the conic), then
    gcd(2a, n) > 1, which is gcd(y, n) once t is a unit, as y = 2a/t, then
    (d/n) = 0; for a point n not dividing x^2 - d y^2 - 1 (off the conic),
    then gcd(y, n) > 1, then (d/n) = 0.  A gated n goes into ``skips`` as
    ``Skip(n, reason, factor or None)``.  The symbol is ``backend.jacobi``
    on the constant mod n, and P, Q and a seed's x = (a^2 + d)/t mod n are
    taken only for a tested n.

    Any other n runs the Lucas core for k = n - (D/n), Pell with P = 2x,
    Q = 1, where (x, y)^k = (V_k/2, y U_k).  The congruence holds iff
    U_k = 0 and, if strong, V_k = 2: for Lucas that is U_{k+1} =
    (P U_k + V_k)/2 = 1.  A prime n is PRIME whether or not it holds; a
    composite n is PSEUDOPRIME exactly when it holds, DETECTED otherwise.
    Primality is asked lazily, only where U_k = 0: a prime that passes the
    gates always has U_k = 0, so U_k != 0 proves n composite.  (A prime
    can still fail the strong V check, for Lucas with Q != 1 and
    (D/n) = -1, so U_k = 0 always asks.)  A tested n goes into ``tested``
    as (n, outcome, U_k, V_k, w, k), with w = P for Lucas and y for Pell.
    """
    lucas = kind == "lucas"
    if not lucas and kind != "pell":
        raise ValueError(f"kind must be 'lucas' or 'pell', got {kind!r}")
    want = 2 if lucas else 4
    if len(params) != want:  # the other kind's record, say
        raise TypeError(f"a {kind} test needs {want} parameters, got {len(params)}")
    # the constants the gates read, once per call, as in the C scan
    if lucas:
        P, Q = params
        D = P * P - 4 * Q
    else:
        d, x0, y0, a0 = params
        seed = a0 is not None
        if seed:
            t, two_a = a0 * a0 - d, 2 * a0
        else:
            C = x0 * x0 - d * y0 * y0 - 1
    skips = []
    tested = []
    for n in ns:
        if lucas:
            dn = D % n
            eps = backend.jacobi(dn, n)
            if eps == 0:
                skips.append(_tuple_new(Skip, (n, REASON_JACOBI_ZERO, gcd(dn, n))))
                continue
            g = gcd(Q, n)
            if g > 1:
                skips.append(_tuple_new(Skip, (n, REASON_GCD, g)))
                continue
            p, q = P % n, Q % n
            w = p
        else:
            if seed:
                g = gcd(t, n)
                if g > 1:
                    skips.append(_tuple_new(Skip, (n, REASON_PHI_UNDEFINED, g)))
                    continue
            elif C % n:
                skips.append(_tuple_new(Skip, (n, REASON_NOT_ON_CONIC, None)))
                continue
            # gcd(y, n): a seed's y = 2a/t, with t a unit past phi's gate
            g = gcd(two_a if seed else y0, n)
            if g > 1:
                skips.append(_tuple_new(Skip, (n, REASON_GCD, g)))
                continue
            dn = d % n
            eps = backend.jacobi(dn, n)
            if eps == 0:
                skips.append(_tuple_new(Skip, (n, REASON_JACOBI_ZERO, gcd(dn, n))))
                continue
            if seed:
                inv = pow(t, -1, n)
                x, y = (a0 * a0 + d) * inv % n, two_a * inv % n
            else:
                x, y = x0 % n, y0 % n
            p, q, w = 2 * x % n, 1, y
        k = n - eps
        u, v = backend.lucas_uv(p, q, k, n)
        if u:
            outcome = DETECTED
        elif backend.is_prime(n):
            outcome = PRIME
        else:
            outcome = PSEUDOPRIME if not strong or v == 2 else DETECTED
        tested.append((n, outcome, u, v, w, k))
    return skips, tested


def scan(kind, strong, params, lo, hi, keep="rows"):
    """Run one test on every odd n in [lo, hi] (the fused block scan).

    Collects ``decide`` on the pure kernels: the Pseudoprime n, the skips
    as ``keep`` asks (``Skip`` "rows", their number per reason in ``REASONS``
    order, or "json" list items, each after ", " with ``json.dumps``'s
    bytes), and the Prime, Pseudoprime, CompositeDetected and NotApplicable
    counts.
    """
    if keep not in ("rows", "reasons", "json"):
        raise ValueError(f"keep must be 'rows', 'reasons' or 'json', got {keep!r}")
    skips, tested = decide(kind, strong, params, range(lo | 1, hi + 1, 2), sys.modules[__name__])
    counts = [0, 0, 0, len(skips)]
    for row in tested:
        counts[row[1]] += 1
    hits = [row[0] for row in tested if row[1] == PSEUDOPRIME]
    if keep == "reasons":
        tally = Counter(row[1] for row in skips)
        skips = tuple(tally[reason] for reason in REASONS)
    elif keep == "json":
        skips = "".join([
            f', {{"n": {n}, "reason": "{reason}", "factor": {"null" if factor is None else factor}}}'
            for n, reason, factor in skips
        ])
    return hits, skips, tuple(counts)


def closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap=10):
    """Compare Brahmagupta powers against the Lucas closed form in bulk.

    For every seed pair (xs, ys) in [0, x_max] x [0, y_max], nonzero
    |d| <= d_abs, odd n in [n_lo, n_hi] and 0 <= k <= k_max, checks

        (xs, ys)^(x)k  ==  (V_k / 2, ys * U_k)   (mod n)

    with Lucas parameters p = 2 xs, q = xs^2 - d ys^2.  Both sides are
    advanced incrementally (one Brahmagupta product and one recurrence
    step per k).  Returns (comparisons, mismatches) where mismatches is a
    list of (xs, ys, d, k, n) tuples, at most ``cap`` long.
    """
    checked = 0
    bad = []
    start = n_lo if n_lo % 2 else n_lo + 1
    for n in range(start, n_hi + 1, 2):
        for d in range(-d_abs, d_abs + 1):
            if d == 0:
                continue
            dn = d % n
            for xi in range(x_max + 1):
                xs = xi % n
                p = 2 * xs % n
                for yi in range(y_max + 1):
                    ys = yi % n
                    q = (xs * xs - d * ys * ys) % n
                    xk, yk = 1, 0
                    ua, ub = 0, 1
                    va, vb = 2 % n, p
                    for k in range(k_max + 1):
                        checked += 1
                        if xk != half(va, n) or yk != ys * ua % n:
                            bad.append((xi, yi, d, k, n))
                            if len(bad) >= cap:
                                return checked, bad
                        xk, yk = (
                            (xk * xs + dn * yk * ys) % n,
                            (xk * ys + yk * xs) % n,
                        )
                        ua, ub = ub, (p * ub - q * ua) % n
                        va, vb = vb, (p * vb - q * va) % n
    return checked, bad
