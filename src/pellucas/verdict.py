"""Structured outcomes for the pseudoprimality tests."""

from collections import namedtuple
from enum import Enum

from . import kernels
from ._kernels_py import (  # noqa: F401  (the skip reasons are re-exported)
    MR_DETERMINISTIC_BOUND,
    REASON_GCD,
    REASON_JACOBI_ZERO,
    REASON_NOT_ON_CONIC,
    REASON_PHI_UNDEFINED,
    decide,
)
from .modring import as_modulus


class Status(str, Enum):
    PRIME = "Prime"
    PSEUDOPRIME = "Pseudoprime"
    COMPOSITE_DETECTED = "CompositeDetected"
    NOT_APPLICABLE = "NotApplicable"


# Machine-readable reasons of a tested n; a skip's come with its ``Skip`` row.
REASON_PRIME = "prime"
REASON_HOLDS = "congruence-holds"
REASON_FAILS = "congruence-fails"
# The status and reason of each outcome of ``_kernels_py.decide``, and the
# status of a skip, read once: reading an enum member takes about 120 ns.
_OUTCOMES = tuple(zip(Status, (REASON_PRIME, REASON_HOLDS, REASON_FAILS)))
_NOT_APPLICABLE = Status.NOT_APPLICABLE
# A per-n test builds its verdict with the C-level ``tuple.__new__``, in half
# the time of namedtuple's Python-level ``__new__``.
_tuple_new = tuple.__new__


class TestVerdict(namedtuple("TestVerdict", "status reason witnesses")):
    """Outcome of a single test run.

    ``witnesses`` maps names to the residues that determined the outcome
    (e.g. the U-value or the conic point coordinates), so callers can
    audit the congruence regardless of status.
    """

    __slots__ = ()

    @property
    def applicable(self):
        return self.status is not Status.NOT_APPLICABLE

    def to_dict(self):
        return {
            "status": self.status.value,
            "reason": self.reason,
            "witnesses": dict(self.witnesses),
        }


def verdict(n, kind, params, strong):
    """The per-n ``kind`` test, "lucas" or "pell", of ``params``: one ``decide`` row.

    Runs ``decide`` on the one backend that ``kernels.backend_for`` picks
    for n, whose kernels take the residues and the exponents n +- 1 that
    ``decide`` passes.  n at or above the deterministic primality bound is
    rejected before any gate.  Witnesses: U_k and k, plus U_{k+1} for
    strong Lucas; (x, y)^k and k for Pell.
    """
    m = as_modulus(n)
    if m >= MR_DETERMINISTIC_BOUND:
        raise ValueError(f"n exceeds the deterministic primality bound {MR_DETERMINISTIC_BOUND}")
    skips, tested = decide(kind, strong, params, (m,), kernels.backend_for(m))
    if skips:
        _, reason, factor = skips[0]
        witnesses = {} if factor is None else {"gcd": factor}
        return _tuple_new(TestVerdict, (_NOT_APPLICABLE, reason, witnesses))
    _, outcome, u, v, w, k = tested[0]
    if kind == "pell":
        witnesses = {"x": kernels.half(v, m), "y": w * u % m, "k": k}
    elif strong:
        witnesses = {"u": u, "u_next": kernels.half((w * u + v) % m, m), "k": k}
    else:
        witnesses = {"u": u, "k": k}
    return _tuple_new(TestVerdict, _OUTCOMES[outcome] + (witnesses,))
