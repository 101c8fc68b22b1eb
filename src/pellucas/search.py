"""Range enumeration of Lucas and Pell pseudoprimes.

Every odd n in the requested range gets the configured test; Pseudoprime
hits and NotApplicable skips (with their reasons) are both first-class
output, since fixed Pell parameters typically apply only to a sparse set
of moduli.  Work is split into fixed-size blocks so reports are identical
for any worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .conic import PellParams, pell_test, strong_pell_test
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams, lucas_test, strong_lucas_test
from .verdict import Status

# Integers per work block; fixed so that block boundaries (and therefore
# merged output) never depend on scheduling.
BLOCK_SPAN = 2048


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: test kind, parameters, inclusive odd range."""

    kind: str
    params: object
    lo: int
    hi: int
    strong: bool = False

    def __post_init__(self):
        if self.kind not in ("lucas", "pell"):
            raise ValueError(f"kind must be 'lucas' or 'pell', got {self.kind!r}")
        expected = LucasParams if self.kind == "lucas" else PellParams
        if not isinstance(self.params, expected):
            raise ValueError(f"{self.kind} search needs {expected.__name__}")
        if self.lo < 3:
            raise ValueError(f"range must start at 3 or above, got {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")
        if self.hi >= MR_DETERMINISTIC_BOUND:
            raise ValueError(
                f"range must end below the deterministic primality bound {MR_DETERMINISTIC_BOUND}"
            )


@dataclass(frozen=True)
class Skip:
    """An odd n the test did not apply to, with the machine-readable reason."""

    n: int
    reason: str
    factor: int = None


@dataclass(frozen=True)
class SearchReport:
    """Deterministic enumeration outcome; equal specs give equal reports."""

    spec: SearchSpec
    pseudoprimes: tuple
    skipped: tuple
    counts: dict

    def skipped_ns(self, reason=None):
        return tuple(s.n for s in self.skipped if reason is None or s.reason == reason)


def _verdict_for(spec, n):
    if spec.kind == "lucas":
        test = strong_lucas_test if spec.strong else lucas_test
    else:
        test = strong_pell_test if spec.strong else pell_test
    return test(n, spec.params)


def _scan_block(spec, lo, hi):
    """Test every odd n in [lo, hi]; returns (hits, skips, counts)."""
    hits = []
    skips = []
    counts = {s.value: 0 for s in Status}
    start = lo if lo % 2 else lo + 1
    for n in range(start, hi + 1, 2):
        verdict = _verdict_for(spec, n)
        counts[verdict.status.value] += 1
        if verdict.status is Status.PSEUDOPRIME:
            hits.append(n)
        elif verdict.status is Status.NOT_APPLICABLE:
            skips.append(Skip(n, verdict.reason, verdict.witnesses.get("gcd")))
    return hits, skips, counts


def _blocks(lo, hi):
    lows = range(lo, hi + 1, BLOCK_SPAN)
    return [(b, min(b + BLOCK_SPAN - 1, hi)) for b in lows]


def enumerate_range(spec, workers=1):
    """Run the spec over its range, fanning blocks out to worker processes.

    Results are merged in block order, so the report is identical for any
    ``workers`` value.
    """
    blocks = _blocks(spec.lo, spec.hi)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(blocks) == 1:
        parts = [_scan_block(spec, lo, hi) for lo, hi in blocks]
    else:
        los = [b[0] for b in blocks]
        his = [b[1] for b in blocks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_block, repeat(spec), los, his))
    hits = []
    skips = []
    counts = {s.value: 0 for s in Status}
    for part_hits, part_skips, part_counts in parts:
        hits.extend(part_hits)
        skips.extend(part_skips)
        for key, value in part_counts.items():
            counts[key] += value
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
