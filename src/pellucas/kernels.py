"""Backend selection for the modular-arithmetic kernels.

One rule picks the backend: ``backend_for(n)`` gives the compiled
extension (``_kernels_c``) when it is importable and 0 <= n < 2**63 - 1,
and the pure-Python backend (``_kernels_py``), exact at any size,
otherwise.  ``jacobi`` and ``is_prime`` pass it the modulus; ``lucas_uv``
and ``pell_pow`` pass it max(n, k), so that the exponent fits as well.
Those two first reject a negative exponent, on which the kernels would
loop forever or answer wrongly.  ``backends()`` reaches either backend
directly.

Two calls keep checks of their own.  ``scan`` runs compiled only when hi
and every parameter fit signed 64-bit integers, because the C scan reads
the parameters as such before reducing them mod each n.
``closed_form_sweep`` runs compiled only below 2**31, so that the C loop
counters cannot overflow.

Callers pass plain integers; parameters are reduced mod n here so both
backends see residues in ``[0, n)``.
"""

from . import _kernels_py as _py

try:
    from . import _kernels_c as _c
except ImportError:
    _c = None

#: Name of the backend picked at import ("compiled" or "pure").
BACKEND = "compiled" if _c is not None else "pure"

MR_DETERMINISTIC_BOUND = _py.MR_DETERMINISTIC_BOUND

#: Exact halving mod odd n, for callers outside the kernels.
half = _py.half

# The compiled kernels hold residues in unsigned 64-bit words and add two
# of them without widening, so the modulus must stay below 2**63.
_C_LIMIT = 1 << 63
# backend_for's bound: 0 while the extension is missing, so it never picks it.
_C_MAX = _C_LIMIT - 1 if _c is not None else 0


def backend_for(n):
    """The backend whose kernels take modulus n and exponents up to n + 1.

    Its kernels take residues already reduced mod n, as
    ``_kernels_py.decide`` passes them.
    """
    return _c if 0 <= n < _C_MAX else _py


def jacobi(a, n):
    """Jacobi symbol (a / n); a any integer, n odd positive."""
    return backend_for(n).jacobi(a % n, n)


def lucas_uv(p, q, k, n):
    """(U_k mod n, V_k mod n) for Lucas parameters (p, q); n odd >= 3."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    return backend_for(max(n, k)).lucas_uv(p % n, q % n, k, n)


def pell_pow(x, y, d, e, n):
    """(x, y)^(x)e under the Brahmagupta product mod n; n odd >= 3."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    return backend_for(max(n, e)).pell_pow(x % n, y % n, d % n, e, n)


def is_prime(n):
    """Deterministic primality; exact below MR_DETERMINISTIC_BOUND."""
    return backend_for(n).is_prime(n)


def scan(kind, strong, params, lo, hi):
    """Run one test on every odd n in [lo, hi]; returns (hits, skips, counts).

    ``kind`` is "lucas" with params (P, Q), "seed" with (d, a) or "point"
    with (d, x, y), as the params' ``kernel_args``; the decisions are
    ``_kernels_py.decide``'s.  The compiled scan runs when hi and every
    parameter fit its 64-bit arithmetic, the pure one otherwise.
    """
    if lo < 3:
        raise ValueError(f"range must start at 3 or above, got {lo}")
    if _c is not None and hi < _C_LIMIT and all(-_C_LIMIT <= v < _C_LIMIT for v in params):
        return _c.scan(kind, strong, params, lo, hi)
    return _py.scan(kind, strong, params, lo, hi)


def closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap=10):
    """Exhaustive closed-form check over small parameter boxes.

    Compares Brahmagupta powers with the Lucas closed form
    (x, y)^k = (V_k/2, y U_k) for every box point, advancing both sides
    incrementally instead of re-exponentiating per k; see
    ``_kernels_py.closed_form_sweep``.  Returns (comparisons, mismatches).
    Every modulus must be at least 3, as for ``bridge.check_closed_form``.
    """
    if n_lo < 3:
        raise ValueError(f"modulus must be odd and >= 3, got {n_lo}")
    if _c is not None and n_hi < (1 << 31) and max(x_max, y_max, d_abs) < (1 << 31):
        return _c.closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap)
    return _py.closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap)


def backends():
    """Mapping of available backend name -> module, for benchmarks/tests."""
    found = {"pure": _py}
    if _c is not None:
        found["compiled"] = _c
    return found
