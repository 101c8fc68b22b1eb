"""Range enumeration of Lucas and Pell pseudoprimes.

Every odd n in the requested range gets the configured test; Pseudoprime
hits and NotApplicable skips (with their reasons) are both first-class
output, since fixed Pell parameters typically apply only to a sparse set
of moduli.  Work is split into fixed-size blocks of 2048 integers so
reports are identical for any worker count.

Each block is one fused scan, ``kernels.scan``: a single kernel call runs
the test on every odd n of the block and returns plain tuples, from which
the merge builds the ``Skip`` objects.  The scan is compiled when the
extension is built and the block's end and the test parameters fit in
signed 64-bit integers; otherwise it runs on the pure-Python kernels.
The pure scan and the per-n tests share one decision function,
``_kernels_py.decide``; the C scan mirrors it.
"""

import os
from dataclasses import dataclass
from itertools import repeat

from . import kernels
from .conic import PellParams
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams
from .verdict import SKIP_REASONS, Status

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


def _scan_block(spec, lo, hi):
    """Test every odd n in [lo, hi]; returns the plain tuples of ``kernels.scan``."""
    kind, params = spec.params.kernel_args
    return kernels.scan(kind, spec.strong, params, lo, hi)


def _blocks(lo, hi):
    lows = range(lo, hi + 1, BLOCK_SPAN)
    return [(b, min(b + BLOCK_SPAN - 1, hi)) for b in lows]


def enumerate_range(spec, workers=1):
    """Run the spec over its range, fanning blocks out to worker processes.

    Results are merged in block order, so the report is identical for any
    ``workers`` value.  The pool never has more processes than blocks.
    """
    blocks = _blocks(spec.lo, spec.hi)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(blocks))
    if workers <= 1:
        parts = [_scan_block(spec, lo, hi) for lo, hi in blocks]
    else:
        # imported here, not at the top: it adds about 20 ms to importing pellucas
        from concurrent.futures import ProcessPoolExecutor

        los = [b[0] for b in blocks]
        his = [b[1] for b in blocks]
        # a few chunks per worker: fewer round trips, still balanced
        chunksize = max(1, len(blocks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_block, repeat(spec), los, his, chunksize=chunksize))
    hits = []
    skips = []
    counts = [0] * len(Status)
    for part_hits, part_skips, part_counts in parts:
        hits.extend(part_hits)
        skips.extend(Skip(n, SKIP_REASONS[code], factor) for n, code, factor in part_skips)
        counts = [a + b for a, b in zip(counts, part_counts)]
    counts = {status.value: count for status, count in zip(Status, counts)}
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
