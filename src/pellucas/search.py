"""Range enumeration of Lucas and Pell pseudoprimes.

Every odd n in the requested range gets the configured test; Pseudoprime
hits and NotApplicable skips (with their reasons) are both first-class
output, since fixed Pell parameters typically apply only to a sparse set
of moduli.  Work is split into fixed-size blocks of 2048 integers so
reports are identical for any worker count.

Each block is one fused scan, ``kernels.scan``, which returns what the
caller keeps of its skips.  ``iter_blocks`` yields the blocks in order,
from a pool of threads if asked, and ``merge`` consumes them, for
``enumerate_range`` and the CLI alike.
"""

import os
from collections import deque, namedtuple

from . import kernels
from ._kernels_py import Skip  # noqa: F401 (re-exported)
from .conic import PellParams
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams
from .verdict import Status

# Integers per work block; fixed so that block boundaries (and therefore
# merged output) never depend on scheduling.
BLOCK_SPAN = 2048
# Workers take the range a run of this many blocks at a time: handing one
# block to another thread costs more than a sparse block's scan.
RUN_BLOCKS = 16
RUN_SPAN = RUN_BLOCKS * BLOCK_SPAN
# The runs scanned and not yet merged, beyond one per worker thread: the
# one the caller merges and one ready for it.
QUEUE_RUNS = 2


class SearchSpec(namedtuple("SearchSpec", "kind params lo hi strong")):
    """What to enumerate: test kind, parameters, inclusive odd range."""

    __slots__ = ()

    def __new__(cls, kind, params, lo, hi, strong=False):
        if kind not in ("lucas", "pell"):
            raise ValueError(f"kind must be 'lucas' or 'pell', got {kind!r}")
        expected = LucasParams if kind == "lucas" else PellParams
        if not isinstance(params, expected):
            raise ValueError(f"{kind} search needs {expected.__name__}")
        if lo < 3:
            raise ValueError(f"range must start at 3 or above, got {lo}")
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if hi >= MR_DETERMINISTIC_BOUND:
            raise ValueError(
                f"range must end below the deterministic primality bound {MR_DETERMINISTIC_BOUND}"
            )
        return super().__new__(cls, kind, params, lo, hi, strong)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` calls it: validate there too
        return cls(*iterable)


class SearchReport(namedtuple("SearchReport", "spec pseudoprimes skipped counts")):
    """Deterministic enumeration outcome; equal specs give equal reports."""

    __slots__ = ()

    def skipped_ns(self, reason=None):
        return tuple(s.n for s in self.skipped if reason is None or s.reason == reason)


def _scan(spec, lo, keep):
    """The scan tuple of the block that begins at ``lo``."""
    hi = min(lo + BLOCK_SPAN - 1, spec.hi)
    return kernels.scan(spec.kind, spec.strong, spec.params, lo, hi, keep)


def _one_thread(spec):
    """Whether a search keeps to the caller's thread, as threads only cost where the
    GIL is held: by the pure scan (see ``kernels.scans_compiled``), and by the skips
    of a point off the conic over the integers, whose gates pass only the
    divisors of x^2 - d y^2 - 1."""
    p = spec.params
    sparse = spec.kind == "pell" and p.a is None and p.x * p.x - p.d * p.y * p.y != 1
    return sparse or not kernels.scans_compiled(p, spec.hi)


def check_workers(workers):
    """Reject a worker count below 1; ``None`` (one per core) passes."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be 1 or more, got {workers}")


def iter_blocks(spec, workers=1, keep="rows"):
    """Yield each block's ``(hits, rest, counts)`` from ``kernels.scan``, in block order.

    ``keep`` is the scan's.  With W > 1 workers, a pool of W threads scans
    the range a run of ``RUN_BLOCKS`` blocks at a time, at most
    W + ``QUEUE_RUNS`` runs ahead of what the caller's thread has merged, so
    memory does not grow with the range.  There are never more workers than
    runs or cores, and a search that ``_one_thread`` names has one; ``None``
    means one per core, fewer than one raises ``ValueError``.
    However the generator ends (``close()``, ``KeyboardInterrupt``, ...),
    it stops the runs before their next block and joins the threads.  A
    worker's exception is raised here as it is.
    """
    check_workers(workers)
    cores = os.cpu_count() or 1
    runs = range(spec.lo, spec.hi + 1, RUN_SPAN)
    workers = 1 if _one_thread(spec) else min(workers or cores, len(runs), cores)
    if workers <= 1:
        yield from (_scan(spec, b, keep) for b in range(spec.lo, spec.hi + 1, BLOCK_SPAN))
        return
    # imported here, not at the top: a search of one worker needs no pool
    from concurrent.futures import ThreadPoolExecutor

    stopped = False

    def scan_run(lo):
        starts = range(lo, min(lo + RUN_SPAN, spec.hi + 1), BLOCK_SPAN)
        return [_scan(spec, b, keep) for b in starts if not stopped]

    pool = ThreadPoolExecutor(workers, thread_name_prefix="pellucas-search")
    pending = deque()
    try:
        for lo in runs:
            if len(pending) == workers + QUEUE_RUNS:
                yield from pending.popleft().result()
            pending.append(pool.submit(scan_run, lo))
        while pending:
            yield from pending.popleft().result()
    finally:
        stopped = True
        pool.shutdown(cancel_futures=True)


def merge(blocks, take=None):
    """Merge ``(hits, rest, counts)`` blocks in order; returns (hits, status counts).

    The one consumer of ``iter_blocks``: it keeps every block's hits and
    sums its counts per ``Status``, and hands each block's middle item
    (what the scan kept of its skips) to ``take``.
    """
    hits = []
    counts = [0] * len(Status)
    for part_hits, rest, part_counts in blocks:
        hits.extend(part_hits)
        counts = [a + b for a, b in zip(counts, part_counts)]
        if take is not None:
            take(rest)
    return hits, {status.value: count for status, count in zip(Status, counts)}


def enumerate_range(spec, workers=1):
    """Run the spec over its range, fanning blocks out to worker threads.

    Results are merged in block order, so the report is identical for any
    ``workers`` value; see ``iter_blocks``.  Each skip is the scan's own
    ``Skip`` namedtuple ``(n, reason, factor)``.
    """
    skips = []
    hits, counts = merge(iter_blocks(spec, workers), skips.extend)
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
