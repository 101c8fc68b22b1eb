"""Seeded inputs of the three workloads.

``workload(name, seed)`` returns plain data (no pellucas objects): the
searches a round covers, the enumerate chunks that split them, the single
CLI calls and the CLI commands of one round.  The seed picks window offsets
and single-call inputs from fixed pools; everything else is fixed, so that
every seed asks for the same amount of work of the same kind.
"""

import random

CHUNK = 16384  # integers per library enumerate_range call on small n
SMALL_HI = 200_000
BELOW_2E32 = (1 << 32) - 8192  # first n of the window just below 2^32
BELOW_SPAN, BELOW_CHUNK = 8192, 2048
AT_1E12 = 10**12
AT_SPAN, AT_CHUNK = 40960, 8192
SPARSE_HI = 400_000
MR_CALL = ["lucas-test", "3317044064679887385961983", "--p", "3"]
REPRODUCE = ["reproduce", "--workers", "2", "--format", "jsonl"]
REPRODUCE_PER_ROUND = 3
SPARSE_PER_ROUND = 2
CALLS_PER_KIND = 4  # single lucas-test and pell-test calls per round on small-n, large-n

LUCAS_P3 = {"kind": "lucas", "p": 3, "q": 1, "strong": False}
PELL_D6 = {"kind": "pell", "d": 6, "a": 4, "strong": False}

# Single-call slots of the cli workload: (arguments, pool of n).  The seed
# picks one n per slot.  The pools mix primes, pseudoprimes, detected
# composites and skips; the expected verdict of each call is recomputed by
# oracle.expect_call, never stored.
CALL_SLOTS = (
    (["lucas-test", "{n}", "--p", "3"], (21, 323, 377, 1891, 4181, 5777, 10877)),
    (["lucas-test", "{n}", "--p", "4", "--strong"], (65, 209, 629, 679, 901, 1241, 1763)),
    (["lucas-test", "{n}", "--p", "5", "--q", "-1"], ("odd", 10**6, 10**9)),
    (["lucas-test", "{n}", "--p", "3"], ("odd", 10**12, 10**12 + 10**6)),
    (["pell-test", "{n}", "--d", "5", "--x", "12", "--y", "11"], (21, 33, 77, 85, 231, 341, 561)),
    (["pell-test", "{n}", "--d", "6", "--a", "4"], (77, 187, 217, 323, 341, 377, 1763, 2387)),
    (["pell-test", "{n}", "--d", "3", "--a", "4", "--strong"], (21, 85, 255, 341, 1105, 1387)),
    (["pell-test", "{n}", "--d", "3", "--x", "7", "--y", "4", "--strong"], (85, 91, 133, 561, 703)),
    (["bridge", "{n}", "--from-lucas", "--p", "3"], (21, 323, 377, 1891, 4181)),
    (["bridge", "{n}", "--from-pell", "--d", "3", "--x", "8", "--y", "66"],
     (15, 17, 45, 51, 85, 153, 255, 289)),
    (["lucas-test", "{n}", "--p", "3"], ("even", 4, 10**6)),
)


def _odd(rng, lo, hi):
    return rng.randrange(lo, hi) | 1


def _pick(rng, pool):
    if pool[0] == "odd":
        return _odd(rng, pool[1], pool[2])
    if pool[0] == "even":
        return rng.randrange(pool[1], pool[2]) & ~1
    return rng.choice(pool)


def _call(args, n):
    return [a.replace("{n}", str(n)) for a in args] + ["--format", "jsonl"]


def _split(index, lo, hi, size):
    return [[index, a, min(a + size - 1, hi)] for a in range(lo, hi + 1, size)]


def _calls(rng, lucas_window, pell_window):
    """Single lucas-test (P=3) and pell-test (D=6, a=4) calls on the windows."""
    lucas = [_call(["lucas-test", "{n}", "--p", "3"], _odd(rng, *lucas_window))
             for _ in range(CALLS_PER_KIND)]
    pell = [_call(["pell-test", "{n}", "--d", "6", "--a", "4"], _odd(rng, *pell_window))
            for _ in range(CALLS_PER_KIND)]
    return lucas + pell


def _search(name, base, lo, hi):
    return dict(base, name=name, lo=lo, hi=hi)


def sparse_call(hi):
    return ["enumerate", "pell", "--d", "3", "--x", "8", "--y", "66",
            "--to", str(hi), "--workers", "2", "--format", "jsonl"]


def small_n(seed):
    rng = random.Random(f"small-n:{seed}")
    hi = SMALL_HI + 2 * rng.randrange(1024)
    searches = [_search("lucas P=3", LUCAS_P3, 3, hi), _search("pell D=6 a=4", PELL_D6, 3, hi)]
    chunks = [c for i, s in enumerate(searches) for c in _split(i, s["lo"], s["hi"], CHUNK)]
    calls = _calls(rng, (3, hi), (3, hi))
    return {"searches": searches, "chunks": chunks, "calls": calls, "sparse": None}


def large_n(seed):
    rng = random.Random(f"large-n:{seed}")
    below = BELOW_2E32 - 2 * rng.randrange(512)
    at = AT_1E12 + 2 * rng.randrange(2048)
    windows = [(below, below + BELOW_SPAN - 1, BELOW_CHUNK), (at, at + AT_SPAN - 1, AT_CHUNK)]
    searches = []
    chunks = []
    for lo, hi, size in windows:
        for name, base in (("lucas P=3", LUCAS_P3), ("pell D=6 a=4", PELL_D6)):
            chunks += _split(len(searches), lo, hi, size)
            searches.append(_search(name, base, lo, hi))
    calls = _calls(rng, (below, below + BELOW_SPAN), (at, at + AT_SPAN))
    return {"searches": searches, "chunks": chunks, "calls": calls, "sparse": None}


def cli(seed):
    rng = random.Random(f"cli:{seed}")
    hi = SPARSE_HI + 2 * rng.randrange(1024)
    point = {"kind": "pell", "d": 3, "x": 8, "y": 66, "strong": False}
    calls = [_call(args, _pick(rng, pool)) for args, pool in CALL_SLOTS]
    calls.append(MR_CALL + ["--format", "jsonl"])
    return {
        "searches": [_search("pell D=3 (8, 66)", point, 3, hi)],
        "chunks": [],
        "calls": calls,
        "sparse": sparse_call(hi),
    }


WORKLOADS = {"small-n": small_n, "large-n": large_n, "cli": cli}


def workload(name, seed):
    spec = WORKLOADS[name](seed)
    spec["name"] = name
    spec["reproduce"] = REPRODUCE
    return spec
