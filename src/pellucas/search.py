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
worker, say); ``merge`` consumes them, for ``enumerate_range`` and the
CLI alike.  With more than one worker, the blocks are dealt round-robin
to forked worker processes, each of which streams its blocks back
through its own pipe, one self-delimiting pickle per block; a full pipe
blocks its writer, so no more than a pipe's worth of each worker's
output is ever in flight.  The scan is compiled when the extension is
built and the block's end and the test parameters fit in signed 64-bit
integers; otherwise it runs on the pure-Python kernels.  The pure scan
and the per-n tests share one decision function, ``_kernels_py.decide``;
the C scan mirrors it.
"""

import os
from collections import namedtuple
from itertools import cycle, islice, repeat

from . import kernels
from ._kernels_py import Skip
from .conic import PellParams
from .kernels import MR_DETERMINISTIC_BOUND
from .lucas import LucasParams
from .verdict import Status

# Integers per work block; fixed so that block boundaries (and therefore
# merged output) never depend on scheduling.
BLOCK_SPAN = 2048
# A search forks at most one worker per run of this many blocks: a fork
# costs more than the scan of a few blocks of a sparse search.
RUN_BLOCKS = 16
RUN_SPAN = RUN_BLOCKS * BLOCK_SPAN


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


def _scan_blocks(spec, starts, render):
    """Scan the blocks that begin at ``starts``; yields each one's scan tuple, or its ``render``."""
    for b in starts:
        block = kernels.scan(spec.kind, spec.strong, spec.params, b, min(b + BLOCK_SPAN - 1, spec.hi))
        yield block if render is None else render(block)


def _plain(block):
    """An unrendered block with its skips as plain tuples, for a worker to send.

    A ``Skip`` pickles and unpickles through Python-level methods, which
    took about 5x as long as a tuple.
    """
    hits, skips, counts = block
    return hits, list(map(tuple, skips)), counts


def _send(out, obj):
    """Write ``obj`` to a worker's pipe as one pickle, built whole so an error writes nothing."""
    import pickle  # imported by ``iter_blocks`` before the fork

    out.write(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    out.flush()


def _fork_worker(spec, starts, render, write_end, readers):
    """Fork a worker that sends the blocks at ``starts`` into ``write_end``; returns its pid.

    The worker sends each block, rendered (or ``_plain``), as one pickle,
    and an exception that it meets in place of the next block.  It ignores
    SIGINT: Ctrl-C is the parent's to handle, and once the parent has
    closed the read ends, the worker's next write fails and ends it.  It
    never returns into the caller's code but ends in ``os._exit``, so no
    ``finally`` block, ``atexit`` handler or inherited output buffer of the
    parent runs twice.
    """
    import signal

    parent = os.getpid()
    try:
        pid = os.fork()
        if pid:
            return pid
        out = open(write_end, "wb")
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for reader in readers:  # only the parent holds a read end
                reader.close()
            for block in _scan_blocks(spec, starts, render or _plain):
                _send(out, block)
        except BaseException as err:  # the parent re-raises it
            _send(out, err)
    finally:
        # tested by pid, not by where the fork returned: a signal can raise
        # in the worker as soon as os.fork() returns, before ``pid`` is bound
        if os.getpid() != parent:
            os._exit(0)  # the parent reads the outcome from the pipe


def _receive(reader):
    """The next pickle of a worker's pipe; raises its exception, or ``RuntimeError`` if cut short."""
    import pickle  # imported by ``iter_blocks`` before the fork

    try:
        message = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError) as err:
        raise RuntimeError("a search worker ended before it sent all its blocks") from err
    if isinstance(message, BaseException):
        raise message
    return message


def check_workers(workers):
    """Reject a worker count below 1; ``None`` (one per core) passes."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be 1 or more, got {workers}")


def iter_blocks(spec, workers=1, render=None):
    """Yield each block's ``(hits, skips, counts)`` from ``kernels.scan``, in block order.

    With more than one worker, each worker is a forked process: worker w
    of W scans blocks w, w + W, w + 2W, ... and writes each into its own
    pipe, from which the main process reads block i from worker i mod W.
    A full pipe blocks its writer, so the pipe's capacity bounds what is
    in flight and memory does not grow with the range.  There are never
    more workers than runs of ``RUN_BLOCKS`` blocks or than cores, and a
    search of one run, or where ``os.fork`` does not exist, stays
    in-process.  ``workers=None`` means one per core; fewer than one
    raises ``ValueError``.  Since it forks, a caller that runs threads
    should pass ``workers=1``.

    ``render`` is applied to each block's tuple in the process that
    scanned the block, and its result is yielded instead; a worker then
    sends only what the caller keeps.  ``merge`` takes a hook's result in
    the block's own shape, ``(hits, rest, counts)``.  Whatever way the
    generator ends (exhausted, closed, or by an exception,
    ``KeyboardInterrupt`` included), it reaps every worker first; a
    worker's exception is raised here, and a worker that ends early raises
    ``RuntimeError``.
    """
    check_workers(workers)
    cores = os.cpu_count() or 1
    runs = range(spec.lo, spec.hi + 1, RUN_SPAN)
    # every worker runs from the first block to the end of the range
    workers = min(workers or cores, len(runs), cores)
    starts = range(spec.lo, spec.hi + 1, BLOCK_SPAN)
    if workers <= 1 or not hasattr(os, "fork"):
        yield from _scan_blocks(spec, starts, render)
        return
    # imported here, not at the top: it adds about 3 ms to importing pellucas;
    # before the forks, so that no worker imports it again
    import pickle  # noqa: F401

    readers, pids = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pids.append(_fork_worker(spec, starts[w::workers], render, write_end, readers))
            finally:
                os.close(write_end)
        for reader in islice(cycle(readers), len(starts)):
            block = _receive(reader)
            if render is None:
                hits, rows, counts = block
                block = hits, list(map(tuple.__new__, repeat(Skip), rows)), counts
            yield block
    finally:
        # read ends first: a worker blocked on a full pipe then gets EPIPE
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def merge(blocks, take=None):
    """Merge ``(hits, rest, counts)`` blocks in order; returns (hits, status counts).

    The one consumer of ``iter_blocks``: it keeps every block's hits and
    sums its counts per ``Status``, and hands each block's middle item (its
    skips, or what a render hook made of them) to ``take``.
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
    """Run the spec over its range, fanning blocks out to worker processes.

    Results are merged in block order, so the report is identical for any
    ``workers`` value; see ``iter_blocks``.  Each skip is the scan's own
    ``Skip`` namedtuple ``(n, reason, factor)``.
    """
    skips = []
    hits, counts = merge(iter_blocks(spec, workers), skips.extend)
    return SearchReport(spec, tuple(hits), tuple(skips), counts)
