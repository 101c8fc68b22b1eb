"""Range enumeration of Lucas and Pell pseudoprimes.

Every odd n in the requested range gets the configured test; Pseudoprime
hits and NotApplicable skips (with their reasons) are both first-class
output, since fixed Pell parameters typically apply only to a sparse set
of moduli.  Work is split into fixed-size blocks of 2048 integers so
reports are identical for any worker count.

Each block is one fused scan, ``kernels.scan``: a single kernel call runs
the test on every odd n of the block and returns plain tuples.
``iter_blocks`` yields those tuples block by block, in block order, so a
caller that streams them (the CLI does) holds one block at a time, and can
have each block rendered where it was scanned (in a pool worker, say);
``enumerate_range`` collects them and builds the ``Skip`` objects.  The
scan is compiled when the extension is built and the block's end and the
test parameters fit in signed 64-bit integers; otherwise it runs on the
pure-Python kernels.
The pure scan and the per-n tests share one decision function,
``_kernels_py.decide``; the C scan mirrors it.
"""

import os
import zlib
from collections import deque
from dataclasses import dataclass

from . import kernels
from .conic import PellParams
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams
from .verdict import SKIP_REASONS, Status

# Integers per work block; fixed so that block boundaries (and therefore
# merged output) never depend on scheduling.
BLOCK_SPAN = 2048
# Blocks per pool task: one block per task spends more on the round trips
# than the scan of a sparse search takes.
RUN_BLOCKS = 16
RUN_SPAN = RUN_BLOCKS * BLOCK_SPAN
# Runs in flight or waiting to be consumed, per worker.
LOOKAHEAD = 2


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


def _scan_blocks(spec, lo, hi, render):
    """Test every odd n in [lo, hi]; yields each block's scan tuples, or their ``render``."""
    kind, params = spec.params.kernel_args
    for b in range(lo, hi + 1, BLOCK_SPAN):
        block = kernels.scan(kind, spec.strong, params, b, min(b + BLOCK_SPAN - 1, hi))
        yield block if render is None else render(block)


def _scan_run(spec, lo, hi, render):
    """One pool task: the blocks of a run, each pickled and compressed.

    Rendered as JSON text, a block of a sparse search is about 64 kB of
    repetitive text and a run about 1 MB; compressed, a run is about 50 kB.
    Taking in a megabyte per run, the main process's peak RSS would wander
    by about 10% between searches and creep up with the range.
    """
    import pickle  # not at the top: see ``_unpack``

    return [zlib.compress(pickle.dumps(block), 1) for block in _scan_blocks(spec, lo, hi, render)]


def _unpack(future):
    """Yield the blocks of a finished ``_scan_run``, one at a time."""
    # imported here, not at the top: it adds about 3 ms to importing pellucas
    import pickle

    for packed in future.result():
        yield pickle.loads(zlib.decompress(packed))


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
                yield from _unpack(pending.popleft())
        while pending:
            yield from _unpack(pending.popleft())


def enumerate_range(spec, workers=1):
    """Run the spec over its range, fanning blocks out to worker processes.

    Results are merged in block order, so the report is identical for any
    ``workers`` value; see ``iter_blocks``.
    """
    hits = []
    skips = []
    counts = [0] * len(Status)
    for part_hits, part_skips, part_counts in iter_blocks(spec, workers):
        hits.extend(part_hits)
        skips.extend(Skip(n, SKIP_REASONS[code], factor) for n, code, factor in part_skips)
        counts = [a + b for a, b in zip(counts, part_counts)]
    counts = {status.value: count for status, count in zip(Status, counts)}
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
