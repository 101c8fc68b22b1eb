"""Range enumeration of Lucas and Pell pseudoprimes.

Every odd n in the requested range gets the configured test; Pseudoprime
hits and NotApplicable skips (with their reasons) are both first-class
output, since fixed Pell parameters typically apply only to a sparse set
of moduli.  Work is split into fixed-size blocks of 2048 integers so
reports are identical for any worker count.

Each block is one fused scan, ``kernels.scan``: a single kernel call runs
the test on every odd n of the block and returns its hits, its skips as
``Skip`` rows ``(n, reason, factor)`` with the reason string already in
place, and its counts.  ``iter_blocks`` yields those block by block, in
block order, so a caller that streams them (the CLI does) holds one block
at a time, and can have each block rendered where it was scanned (in a
pool worker, say); ``enumerate_range`` collects them as they are.  The
scan is compiled when the extension is built and the block's end and the
test parameters fit in signed 64-bit integers; otherwise it runs on the
pure-Python kernels.  The pure scan and the per-n tests share one
decision function, ``_kernels_py.decide``; the C scan mirrors it.
"""

import os
import zlib
from collections import deque, namedtuple
from itertools import repeat

from . import kernels
from ._kernels_py import Skip
from .conic import PellParams
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams
from .verdict import Status

# Integers per work block; fixed so that block boundaries (and therefore
# merged output) never depend on scheduling.
BLOCK_SPAN = 2048
# Blocks per pool task: one block per task spends more on the round trips
# than the scan of a sparse search takes.
RUN_BLOCKS = 16
RUN_SPAN = RUN_BLOCKS * BLOCK_SPAN
# Runs in flight or waiting to be consumed, per worker.
LOOKAHEAD = 2


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


def _scan_blocks(spec, lo, hi, render):
    """Test every odd n in [lo, hi]; yields each block's scan tuples, or their ``render``."""
    for b in range(lo, hi + 1, BLOCK_SPAN):
        block = kernels.scan(spec.kind, spec.strong, spec.params, b, min(b + BLOCK_SPAN - 1, hi))
        yield block if render is None else render(block)


def _scan_run(spec, lo, hi, render):
    """One pool task: the blocks of a run, each pickled and compressed.

    Rendered as JSON text, a block of a sparse search is about 64 kB of
    repetitive text and a run about 1 MB; compressed, a run is about 50 kB.
    Taking in a megabyte per run, the main process's peak RSS would wander
    by about 10% between searches and creep up with the range.

    Unrendered skips go as plain tuples: a ``Skip`` pickles and unpickles
    through Python-level methods, which took about 5x as long.
    """
    import pickle  # not at the top: see ``_unpack``

    blocks = _scan_blocks(spec, lo, hi, render)
    if render is None:
        blocks = ((hits, list(map(tuple, skips)), counts) for hits, skips, counts in blocks)
    return [zlib.compress(pickle.dumps(block), 1) for block in blocks]


def _unpack(future, render):
    """Yield the blocks of a finished ``_scan_run``, one at a time."""
    # imported here, not at the top: it adds about 3 ms to importing pellucas
    import pickle

    for packed in future.result():
        block = pickle.loads(zlib.decompress(packed))
        if render is None:
            hits, rows, counts = block
            block = hits, list(map(tuple.__new__, repeat(Skip), rows)), counts
        yield block


def check_workers(workers):
    """Reject a worker count below 1; ``None`` (one per core) passes."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be 1 or more, got {workers}")


def iter_blocks(spec, workers=1, render=None):
    """Yield each block's ``(hits, skips, counts)`` from ``kernels.scan``, in block order.

    With more than one worker, runs of ``RUN_BLOCKS`` blocks go to a
    process pool, and at most ``LOOKAHEAD`` runs per worker are in flight
    or waiting to be consumed, so memory does not grow with the range.  The
    pool never has more processes than runs or cores: a search of one run
    stays in-process.  ``workers=None`` means one per core; fewer than one
    raises ``ValueError``.

    ``render``, a module-level function (a pool task pickles it by name),
    is applied to each block's tuple in the process that scanned the block,
    and its result is yielded instead; a pool worker then sends back only
    what the caller keeps.
    """
    check_workers(workers)
    cores = os.cpu_count() or 1
    runs = range(spec.lo, spec.hi + 1, RUN_SPAN)
    # under fork the pool starts all its processes at the first submit
    workers = min(workers or cores, len(runs), cores)
    if workers <= 1:
        yield from _scan_blocks(spec, spec.lo, spec.hi, render)
        return
    # imported here, not at the top: it adds about 20 ms to importing pellucas
    from concurrent.futures import ProcessPoolExecutor

    pending = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for lo in runs:
            hi = min(lo + RUN_SPAN - 1, spec.hi)
            pending.append(pool.submit(_scan_run, spec, lo, hi, render))
            if len(pending) == LOOKAHEAD * workers:
                yield from _unpack(pending.popleft(), render)
        while pending:
            yield from _unpack(pending.popleft(), render)


def enumerate_range(spec, workers=1):
    """Run the spec over its range, fanning blocks out to worker processes.

    Results are merged in block order, so the report is identical for any
    ``workers`` value; see ``iter_blocks``.  Each skip is the scan's own
    ``Skip`` namedtuple ``(n, reason, factor)``.
    """
    hits = []
    skips = []
    counts = [0] * len(Status)
    for part_hits, part_skips, part_counts in iter_blocks(spec, workers):
        hits.extend(part_hits)
        skips.extend(part_skips)
        counts = [a + b for a, b in zip(counts, part_counts)]
    counts = {status.value: count for status, count in zip(Status, counts)}
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
