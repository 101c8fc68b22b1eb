"""The compiled scan against the pure scan, on about 1,000 seeded random scans.

    python setup.py build_ext --inplace
    PYTHONPATH=src python -m pytest checks

Not part of tier-1 (``testpaths`` names only ``tests``): it needs the
compiled backend and fails without it.  Each scan draws a form (Lucas, Pell
seed or Pell point), strong or not, parameters small, signed 64-bit or set
to make a gate's constant zero, negative, even or just either side of
2^63, and a window at 3, 512^2 +- 2,000, 2^32, 10^12 or 2^63 - 5,000 of
1 to 2,200 odd n.  The compiled ``scan`` must return exactly what
``_kernels_py.scan`` returns.  A failure names its case, which reproduces
with one call of each scan.
"""

import random
from math import isqrt

import pytest

from pellucas import _kernels_py, kernels

CHUNKS = 10
SCANS_PER_CHUNK = 100
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
ANCHORS = (3, 512**2 - 2000, 512**2 + 2000, 2**32, 10**12, 2**63 - 5000)
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
        case = f"scan({kind!r}, {strong}, {params}, {lo}, {hi})"
        hits, skips, counts = compiled.scan(kind, strong, params, lo, hi)
        assert (hits, skips, tuple(counts)) == _kernels_py.scan(kind, strong, params, lo, hi), case
