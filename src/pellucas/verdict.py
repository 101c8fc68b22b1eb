"""Structured outcomes for the pseudoprimality tests."""

from dataclasses import dataclass, field
from enum import Enum

from . import kernels
from ._kernels_py import MR_DETERMINISTIC_BOUND, decide
from .modring import as_modulus


class Status(str, Enum):
    PRIME = "Prime"
    PSEUDOPRIME = "Pseudoprime"
    COMPOSITE_DETECTED = "CompositeDetected"
    NOT_APPLICABLE = "NotApplicable"


# Machine-readable reason codes.
REASON_PRIME = "prime"
REASON_HOLDS = "congruence-holds"
REASON_FAILS = "congruence-fails"
REASON_GCD = "gcd-failure"
REASON_NOT_ON_CONIC = "point-not-on-conic"
REASON_JACOBI_ZERO = "jacobi-zero"
REASON_PHI_UNDEFINED = "parametrization-undefined"

# The skip reason of each code of ``_kernels_py.decide`` and both scans.
SKIP_REASONS = (REASON_JACOBI_ZERO, REASON_GCD, REASON_PHI_UNDEFINED, REASON_NOT_ON_CONIC)
# The status and reason of each outcome of ``_kernels_py.decide``.
_OUTCOMES = tuple(zip(Status, (REASON_PRIME, REASON_HOLDS, REASON_FAILS)))


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of a single test run.

    ``witnesses`` maps names to the residues that determined the outcome
    (e.g. the U-value or the conic point coordinates), so callers can
    audit the congruence regardless of status.
    """

    status: Status
    reason: str
    witnesses: dict = field(default_factory=dict)

    @property
    def applicable(self):
        return self.status is not Status.NOT_APPLICABLE

    def to_dict(self):
        return {
            "status": self.status.value,
            "reason": self.reason,
            "witnesses": dict(self.witnesses),
        }


def verdict(n, params, strong):
    """The per-n Lucas or Pell test of ``params``: one ``decide`` row.

    Runs ``decide`` on the one backend that ``kernels.backend_for`` picks
    for n, whose kernels take the residues and the exponents n +- 1 that
    ``decide`` passes.  n at or above the deterministic primality bound is
    rejected before any gate.  Witnesses: U_k and k, plus U_{k+1} for
    strong Lucas; (x, y)^k and k for Pell.
    """
    m = as_modulus(n)
    if m >= MR_DETERMINISTIC_BOUND:
        raise ValueError(f"n exceeds the deterministic primality bound {MR_DETERMINISTIC_BOUND}")
    kind, args = params.kernel_args
    skips, tested = decide(kind, strong, args, (m,), kernels.backend_for(m))
    if skips:
        _, code, factor = skips[0]
        witnesses = {} if factor is None else {"gcd": factor}
        return TestVerdict(Status.NOT_APPLICABLE, SKIP_REASONS[code], witnesses)
    _, outcome, u, v, w, k = tested[0]
    if kind != "lucas":
        witnesses = {"x": kernels.half(v, m), "y": w * u % m, "k": k}
    elif strong:
        witnesses = {"u": u, "u_next": kernels.half((w * u + v) % m, m), "k": k}
    else:
        witnesses = {"u": u, "k": k}
    return TestVerdict(*_OUTCOMES[outcome], witnesses)
