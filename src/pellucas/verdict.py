"""Structured outcomes for the pseudoprimality tests."""

from dataclasses import dataclass, field
from enum import Enum

from .modring import is_composite


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


def classify(n, passed, witnesses):
    """Verdict of a test that ran on the plain int n.

    A prime n is Prime whatever ``passed`` says; a composite n is a
    Pseudoprime exactly when its congruence ``passed``.
    """
    if not is_composite(n):
        return TestVerdict(Status.PRIME, REASON_PRIME, witnesses)
    if passed:
        return TestVerdict(Status.PSEUDOPRIME, REASON_HOLDS, witnesses)
    return TestVerdict(Status.COMPOSITE_DETECTED, REASON_FAILS, witnesses)
