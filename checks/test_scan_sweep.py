"""The compiled scan against the pure scan, on about 1,000 seeded random scans.

    python setup.py build_ext --inplace
    PYTHONPATH=src python -m pytest checks

Not part of tier-1 (``testpaths`` names only ``tests``): it needs the
compiled backend and fails without it.  Each scan draws a form (Lucas, Pell
seed or Pell point), strong or not, parameters small, signed 64-bit or set
to make a gate's constant zero, negative, even or just either side of
2^63, and a window at 3, 512^2 +- 2,000, 4096^2 +- 2,000 (2^12 bounds the
sieve's rank primes), 2^32 and 2^32 +- 2,000 (where a narrower exact
sieve stopped), 10^12, 2^40 +- 2,000 (where the sieve stops being exact),
1048571 * 1048573 (the product of the two largest primes below 2^20) or
2^63 - 5,000, of 1 to 2,200 odd n.
The compiled ``scan`` must return exactly what ``_kernels_py.scan``
returns, in each of its shapes (the skip rows, the skips per reason and
their JSON text).  A failure names its case, which reproduces with one
call of each scan.  The compiled scan carries its sieve's state from one
call to the next in each thread; a case scans a window block by block,
two blocks of one search and then two of another in turn, in each shape.
A case makes one call from 3 to just past 43,711^2 and checks it
against two calls that split it: about two minutes on one core.  A last
one makes one call over 2^23 integers from 10^12, two turns of the bucket
ring of the primes above 2^12, and checks it against the same range
scanned block by block, against two calls split at an odd point, and its
Prime count against an independent sieve.
"""

import random
from math import isqrt
from operator import add

import pytest

from pellucas import _kernels_py, kernels
from pellucas.lucas import LucasParams
from pellucas.search import BLOCK_SPAN as BLOCK

CHUNKS = 10
SCANS_PER_CHUNK = 100
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
ANCHORS = (3, 512**2 - 2000, 512**2 + 2000, 4096**2 - 2000, 4096**2 + 2000, 2**32 - 2000, 2**32,
           2**32 + 2000, 10**12, 2**40 - 2000, 2**40 + 2000, 1048571 * 1048573, 2**63 - 5000)
# (d, x, y) with x^2 - d y^2 = 1 over the integers: on the conic mod every n
SOLUTIONS = ((2, 3, 2), (3, 2, 1), (5, 9, 4), (6, 5, 2), (7, 8, 3), (29, 9801, 1820),
             (-3, 1, 0), (5, -1, 0))


def integer(rng):
    """A parameter: small, signed 64-bit, or near a power of 2 up to 2^63."""
    pick = rng.random()
    if pick < 0.45:
        return rng.randint(-50, 50)
    if pick < 0.8:
        return rng.randint(I64_MIN, I64_MAX)
    value = rng.choice([2**62, 2**63]) + rng.randint(-40, 40)
    return max(I64_MIN, min(I64_MAX, rng.choice([1, -1]) * value))


def lucas(rng):
    pick = rng.random()
    if pick < 0.1:  # D = P^2 - 4Q = 0: every n is jacobi-zero
        m = rng.randint(-2**31, 2**31)
        return 2 * m, m * m
    if pick < 0.2:  # D with an odd part just either side of 2^63 (P = 1)
        return 1, rng.choice([1 - 2**61, -(2**61), -(2**61) - 1, -(2**61) - 2])
    return integer(rng), integer(rng)


def seed(rng):
    pick = rng.random()
    if pick < 0.1:  # a^2 = d: phi is undefined everywhere
        a = rng.randint(-3 * 10**9, 3 * 10**9)
        return a * a, None, None, a
    if pick < 0.2:  # a = 0, or t = 1 - d with an odd part either side of 2^63
        d = rng.choice([integer(rng), -(2**63), -(2**63) + 2, -(2**63) + 4])
        return d, None, None, rng.choice([0, 1])
    return integer(rng), None, None, integer(rng)


def point(rng):
    pick = rng.random()
    if pick < 0.3:
        d, x, y = rng.choice(SOLUTIONS)
        return d, rng.choice([x, -x]), rng.choice([y, -y]), None
    if pick < 0.5:  # x^2 - d y^2 - 1 small: on the conic mod each n dividing it
        d, y, c = rng.randint(-20, 20), rng.randint(0, 20), rng.randint(-5000, 5000)
        return d, isqrt(max(c + 1 + d * y * y, 0)), y, None
    return integer(rng), integer(rng), rng.choice([0, integer(rng)]), None


FORMS = (("lucas", lucas), ("pell", seed), ("pell", point))


def window(rng):
    """[lo, hi] near an anchor, of 1 to 64, up to 600, or 2,049 to 2,200 odd n."""
    pick = rng.random()
    count = (rng.randint(1, 64) if pick < 0.5 else rng.randint(65, 600) if pick < 0.9
             else rng.randint(2049, 2200))
    lo = max(3, rng.choice(ANCHORS) + rng.randint(-2000, 2000))
    lo = min(lo, I64_MAX - 2 * count)
    return lo, lo + 2 * count - 1


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_compiled_scan_matches_pure_scan(chunk):
    compiled = kernels.backends().get("compiled")
    assert compiled is not None, "build the extension first: python setup.py build_ext --inplace"
    rng = random.Random(20261020 + chunk)
    for _ in range(SCANS_PER_CHUNK):
        kind, draw = rng.choice(FORMS)
        params, strong, (lo, hi) = draw(rng), rng.random() < 0.5, window(rng)
        for keep in ("rows", "reasons", "json"):
            case = f"scan({kind!r}, {strong}, {params}, {lo}, {hi}, {keep!r})"
            expected = _kernels_py.scan(kind, strong, params, lo, hi, keep)
            assert compiled.scan(kind, strong, params, lo, hi, keep) == expected, case


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_compiled_scan_matches_pure_scan_block_by_block_between_two_searches(chunk):
    compiled = kernels.backends().get("compiled")
    assert compiled is not None, "build the extension first: python setup.py build_ext --inplace"
    rng = random.Random(20261021 + chunk)
    searches = []
    for _ in range(2):
        kind, draw = rng.choice(FORMS)
        searches.append((kind, rng.random() < 0.5, draw(rng)))
    lo = max(3, rng.choice(ANCHORS) + rng.randint(-2000, 2000))
    lo = min(lo, I64_MAX - 6 * BLOCK)
    # two blocks of one search, then the same two of the other, and so on:
    # a search's second block goes on from its first, the next starts anew
    calls = [(search, block) for run in range(lo, lo + 6 * BLOCK, 2 * BLOCK)
             for search in searches for block in (run, run + BLOCK)]
    for keep in ("rows", "reasons", "json"):
        for (kind, strong, params), start in calls:
            hi = start + BLOCK - 1
            case = f"scan({kind!r}, {strong}, {params}, {start}, {hi}, {keep!r})"
            expected = _kernels_py.scan(kind, strong, params, start, hi, keep)
            assert compiled.scan(kind, strong, params, start, hi, keep) == expected, case


def test_one_wide_compiled_call_equals_two_that_split_it():
    # the sieve marks p itself, so each prime's offset stays below p.  Had
    # it stepped past p to 3p, a call from lo <= p would set p up 3p/2 odd
    # n on, past 16 bits from p = 43,711, and call Prime the composites
    # whose least factor is such a p: all at or above 43,711^2, so only one
    # call this wide reaches them.  The second of the two calls starts
    # above every sieve prime
    compiled = kernels.backends().get("compiled")
    assert compiled is not None, "build the extension first: python setup.py build_ext --inplace"
    lucas, hi = LucasParams(3, 1), 43711**2 + 2000
    wide = compiled.scan("lucas", False, lucas, 3, hi, "reasons")
    low = compiled.scan("lucas", False, lucas, 3, 2**17 - 1, "reasons")
    high = compiled.scan("lucas", False, lucas, 2**17 + 1, hi, "reasons")
    assert wide[0] == low[0] + high[0]
    assert wide[1] == tuple(map(add, low[1], high[1]))
    assert wide[2] == tuple(map(add, low[2], high[2]))


def test_one_long_compiled_call_equals_its_blocks():
    # the primes above 2^12 up to 10^6 wait in a ring of 2048 buckets, one
    # per window of 1024 odd n, so 2^23 integers turn it twice.  One call,
    # the blocks of a search, and two calls that split the range at an odd
    # n (the second starts off the windows of the first) must agree
    compiled = kernels.backends().get("compiled")
    assert compiled is not None, "build the extension first: python setup.py build_ext --inplace"
    lucas, lo, hi = LucasParams(3, 1), 10**12, 10**12 + 2**23
    wide = compiled.scan("lucas", False, lucas, lo, hi, "reasons")
    blocks = [compiled.scan("lucas", False, lucas, b, min(b + BLOCK - 1, hi), "reasons")
              for b in range(lo, hi + 1, BLOCK)]
    split = lo + 2**22 + 2 * 777 + 1
    halves = [compiled.scan("lucas", False, lucas, lo, split - 2, "reasons"),
              compiled.scan("lucas", False, lucas, split, hi, "reasons")]
    for parts in (blocks, halves):
        assert list(wide[0]) == [n for part in parts for n in part[0]]
        for j in (1, 2):
            assert wide[j] == tuple(map(sum, zip(*(part[j] for part in parts))))
    # every prime n in the range passes the gates ((5/n) = 0 only for 5), so
    # the Prime count is the number of primes, by an independent sieve
    assert wide[2][0] == len(primes_between(lo, hi))


def primes_between(lo, hi):
    """The primes in [lo, hi], lo > isqrt(hi), by a segmented sieve."""
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\0\0"
    for p in range(2, isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
    segment = bytearray([1]) * (hi - lo + 1)
    for p in (p for p in range(2, root + 1) if small[p]):
        start = -lo % p
        segment[start::p] = bytes(len(range(start, hi - lo + 1, p)))
    return [lo + i for i, flag in enumerate(segment) if flag]
