"""Backend selection for the modular-arithmetic kernels.

The compiled extension (``_kernels_c``) is used automatically when it is
importable and the operands fit its 64-bit arithmetic; everything else
runs on the pure-Python backend (``_kernels_py``), which is exact at any
size.  ``backends()`` reaches either backend directly.

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


def jacobi(a, n):
    """Jacobi symbol (a / n); a any integer, n odd positive."""
    a %= n
    if _c is not None and n < _C_LIMIT:
        return _c.jacobi(a, n)
    return _py.jacobi(a, n)


def lucas_uv(p, q, k, n):
    """(U_k mod n, V_k mod n) for Lucas parameters (p, q); n odd >= 3."""
    p %= n
    q %= n
    if _c is not None and n < _C_LIMIT and 0 <= k < _C_LIMIT:
        return _c.lucas_uv(p, q, k, n)
    return _py.lucas_uv(p, q, k, n)


def pell_pow(x, y, d, e, n):
    """(x, y)^(x)e under the Brahmagupta product mod n; n odd >= 3."""
    x %= n
    y %= n
    d %= n
    if _c is not None and n < _C_LIMIT and 0 <= e < _C_LIMIT:
        return _c.pell_pow(x, y, d, e, n)
    return _py.pell_pow(x, y, d, e, n)


def is_prime(n):
    """Deterministic primality; exact below MR_DETERMINISTIC_BOUND."""
    if _c is not None and 0 <= n < _C_LIMIT:
        return _c.is_prime(n)
    return _py.is_prime(n)


def closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap=10):
    """Bulk Brahmagupta-power vs Lucas-closed-form comparison."""
    if _c is not None and n_hi < (1 << 31) and max(x_max, y_max, d_abs) < (1 << 31):
        return _c.closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap)
    return _py.closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap)


def backends():
    """Mapping of available backend name -> module, for benchmarks/tests."""
    found = {"pure": _py}
    if _c is not None:
        found["compiled"] = _c
    return found
