"""Plain-integer reference computations and the output checks built on them.

Nothing here imports pellucas.  Every expectation is recomputed from the
definitions the package documents: factorisations by trial division or a
segmented sieve, Jacobi symbols from Euler's criterion over those
factorisations, U_k from a 2x2 matrix power, and conic powers by
square-and-multiply over the Brahmagupta product.  Each ``check_*``
function returns a list of error strings, empty when the output is right.
"""

import json
from math import gcd, isqrt

#: Inputs at or above this bound must be rejected (README, "Install").
MR_BOUND = 3317044064679887385961981

PRIME = "Prime"
PSEUDOPRIME = "Pseudoprime"
COMPOSITE = "CompositeDetected"
NOT_APPLICABLE = "NotApplicable"
STATUSES = (PRIME, PSEUDOPRIME, COMPOSITE, NOT_APPLICABLE)

# The fixed point of the sparse search: x^2 - 3 y^2 - 1 = -13005 at (8, 66),
# so the point lies on the conic mod n exactly for the odd n dividing 13005.
SPARSE_D, SPARSE_X, SPARSE_Y = 3, 8, 66
SPARSE_NORM = SPARSE_X**2 - SPARSE_D * SPARSE_Y**2 - 1


# --------------------------------------------------------------- arithmetic


def primes_upto(m):
    """All primes <= m by the sieve of Eratosthenes."""
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def factor(n):
    """Prime factorisation of n >= 2 by trial division, as (p, e) pairs."""
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def factor_odd_range(lo, hi):
    """Factorisations of every odd n in [lo, hi] by a segmented sieve.

    Returns a dict n -> [(p, e), ...].
    """
    start = lo if lo % 2 else lo + 1
    ns = range(start, hi + 1, 2)
    rest = list(ns)
    facs = [[] for _ in rest]
    for p in primes_upto(isqrt(hi)):
        if p == 2:
            continue
        first = max(p, -(-start // p) * p)
        if first % 2 == 0:
            first += p
        for m in range(first, hi + 1, 2 * p):
            i = (m - start) >> 1
            r = rest[i]
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            rest[i] = r
            facs[i].append((p, e))
    for i, r in enumerate(rest):
        if r > 1:
            facs[i].append((r, 1))
    return dict(zip(ns, facs))


def is_prime(n, facs):
    return facs == [(n, 1)]


def legendre(a, p):
    """Legendre symbol (a / p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a, facs):
    """Jacobi symbol (a / n) from the factorisation of n."""
    result = 1
    for p, e in facs:
        s = legendre(a, p)
        if s == 0:
            return 0
        if e % 2:
            result *= s
    return result


def lucas_u(p, q, k, n):
    """(U_k, U_{k+1}) mod n from [[P, -Q], [1, 0]]^k."""
    r00, r01, r10, r11 = 1, 0, 0, 1
    m00, m01, m10, m11 = p % n, -q % n, 1, 0
    while k:
        if k & 1:
            r00, r01, r10, r11 = (
                (r00 * m00 + r01 * m10) % n,
                (r00 * m01 + r01 * m11) % n,
                (r10 * m00 + r11 * m10) % n,
                (r10 * m01 + r11 * m11) % n,
            )
        m00, m01, m10, m11 = (
            (m00 * m00 + m01 * m10) % n,
            (m00 * m01 + m01 * m11) % n,
            (m10 * m00 + m11 * m10) % n,
            (m10 * m01 + m11 * m11) % n,
        )
        k >>= 1
    # M^k = [[U_{k+1}, -Q U_k], [U_k, -Q U_{k-1}]]
    return r10, r00


def brahmagupta_pow(x, y, d, e, n):
    """(x, y)^e under (x1 x2 + d y1 y2, x1 y2 + x2 y1) mod n."""
    rx, ry = 1 % n, 0
    while e:
        if e & 1:
            rx, ry = (rx * x + d * ry * y) % n, (rx * y + ry * x) % n
        x, y = (x * x + d * y * y) % n, (2 * x * y) % n
        e >>= 1
    return rx, ry


# ----------------------------------------------------------------- verdicts
#
# A verdict is (status, reason, witnesses), the shape the JSONL records
# carry.  The gate functions return a NotApplicable verdict or, when the
# test applies, the values the test needs.


def _skip(reason, g):
    return NOT_APPLICABLE, reason, {} if g is None else {"gcd": g}


def lucas_gate(n, p, q, facs=None):
    """NotApplicable verdict, or the Jacobi symbol eps when the test applies.

    ``facs`` is the factorisation of n, computed here when None.
    """
    d = p * p - 4 * q
    eps = jacobi(d, facs or factor(n))
    if eps == 0:
        return _skip("jacobi-zero", gcd(d, n))
    g = gcd(n, q)
    if g > 1:
        return _skip("gcd-failure", g)
    return eps


def pell_point(n, d, x=None, y=None, a=None):
    """The test point mod n, or a NotApplicable verdict."""
    if a is not None:
        t = (a * a - d) % n
        g = gcd(t, n)
        if g != 1:
            return _skip("parametrization-undefined", g)
        inv = pow(t, -1, n)
        return (a * a + d) * inv % n, 2 * a * inv % n
    if (x * x - d * y * y - 1) % n:
        return _skip("point-not-on-conic", None)
    return x % n, y % n


def pell_gate(n, d, facs=None, x=None, y=None, a=None):
    """NotApplicable verdict, or (eps, (x, y)) when the test applies."""
    point = pell_point(n, d, x, y, a)
    if point[0] == NOT_APPLICABLE:
        return point
    g = gcd(n, point[1])
    if g > 1:
        return _skip("gcd-failure", g)
    eps = jacobi(d, facs or factor(n))
    if eps == 0:
        return _skip("jacobi-zero", gcd(d, n))
    return eps, point


def _finish(n, facs, passed, witnesses):
    if is_prime(n, facs):
        return PRIME, "prime", witnesses
    if passed:
        return PSEUDOPRIME, "congruence-holds", witnesses
    return COMPOSITE, "congruence-fails", witnesses


def lucas_verdict(n, p, q, strong=False, facs=None):
    facs = facs or factor(n)
    gate = lucas_gate(n, p, q, facs)
    if isinstance(gate, tuple):
        return gate
    k = n - gate
    u, u_next = lucas_u(p, q, k, n)
    if strong:
        return _finish(n, facs, u == 0 and u_next == 1, {"u": u, "u_next": u_next, "k": k})
    return _finish(n, facs, u == 0, {"u": u, "k": k})


def pell_verdict(n, d, x=None, y=None, a=None, strong=False, facs=None):
    facs = facs or factor(n)
    gate = pell_gate(n, d, facs, x, y, a)
    if gate[0] == NOT_APPLICABLE:
        return gate
    eps, (px, py) = gate
    k = n - eps
    xk, yk = brahmagupta_pow(px, py, d % n, k, n)
    passed = (xk == 1 and yk == 0) if strong else yk == 0
    return _finish(n, facs, passed, {"x": xk, "y": yk, "k": k})


def verdict_for(search, n, facs=None):
    """Verdict for one n of a search of ``inputs.workload``."""
    if search["kind"] == "lucas":
        return lucas_verdict(n, search["p"], search["q"], search["strong"], facs)
    return pell_verdict(
        n, search["d"], search.get("x"), search.get("y"), search.get("a"),
        search["strong"], facs,
    )


# ------------------------------------------------------------------ checks


def odd_range(lo, hi):
    return range(lo if lo % 2 else lo + 1, hi + 1, 2)


def check_search(search, report, facs):
    """Check one enumerate report against the definitions.

    ``report`` holds ``pseudoprimes``, ``skipped`` ([n, reason, factor]
    triples) and ``counts``; ``facs`` maps every odd n of the range to its
    factorisation.  The verdict of every odd n is recomputed, so: the
    counts are exactly the recomputed ones, and so sum to the number of odd
    n; every skip, with its reason and factor, is exactly the hypothesis
    gate's; Prime is counted exactly for the sieve primes the test applies
    to; the pseudoprimes are exactly the recomputed ones, so a composite
    wrongly reported, or a pseudoprime dropped into CompositeDetected, is
    caught.
    """
    lo, hi = search["lo"], search["hi"]
    tag = f"{search['name']} [{lo}, {hi}]"
    errors = []
    ns = odd_range(lo, hi)
    expected_counts = dict.fromkeys(STATUSES, 0)
    expected_skips = {}
    expected_hits = []
    for n in ns:
        status, reason, wit = verdict_for(search, n, facs[n])
        expected_counts[status] += 1
        if status == NOT_APPLICABLE:
            expected_skips[n] = (reason, wit.get("gcd"))
        elif status == PSEUDOPRIME:
            expected_hits.append(n)
    counts = report["counts"]
    if set(counts) != set(STATUSES) or sum(counts.values()) != len(ns):
        errors.append(f"{tag}: counts {counts} do not sum to {len(ns)} odd n")
    for status in STATUSES:
        if counts.get(status) != expected_counts[status]:
            errors.append(f"{tag}: {status} count {counts.get(status)}, recomputed {expected_counts[status]}")
    got_skips = {}
    for n, reason, g in report["skipped"]:
        if n in got_skips:
            errors.append(f"{tag}: n={n} skipped twice")
        got_skips[n] = (reason, g)
    if got_skips != expected_skips:
        diff = sorted(set(got_skips.items()) ^ set(expected_skips.items()), key=repr)[:5]
        errors.append(f"{tag}: skips differ from the hypothesis gates, e.g. {diff}")
    hits = list(report["pseudoprimes"])
    if hits != expected_hits:
        added = sorted(set(hits) - set(expected_hits))[:5]
        dropped = sorted(set(expected_hits) - set(hits))[:5]
        errors.append(f"{tag}: pseudoprimes differ from the recomputed list:"
                      f" reported but not pseudoprime {added}, pseudoprime but not reported {dropped}")
    return errors


def check_sparse_support(report, lo, hi):
    """In the (8, 66) search, the n not skipped as off-conic divide 13005."""
    off = {n for n, reason, _ in report["skipped"] if reason == "point-not-on-conic"}
    tested = {n for n in odd_range(lo, hi) if n not in off}
    divisors = {n for n in odd_range(max(lo, 3), hi) if SPARSE_NORM % n == 0}
    if tested != divisors:
        return [f"sparse search: on-conic n {sorted(tested)[:10]} != divisors {sorted(divisors)}"]
    return []


def parse_reference(text):
    """Fixture lines of data/fixtures.txt as {label: (kind, fields, expected)}.

    The label is built the way ``pellucas reproduce`` prints it.
    """
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, *tokens = line.split()
        fields = {}
        for token in tokens:
            key, _, value = token.partition("=")
            if key == "expect":
                expected = [int(v) for v in value.split(",")]
            elif key == "range":
                a, _, b = value.partition("..")
                fields["lo"], fields["hi"] = int(a), int(b)
            else:
                fields[key] = int(value)
        shown = {k: v for k, v in fields.items() if k not in ("lo", "hi")}
        parts = [kind] + [f"{k}={v}" for k, v in sorted(shown.items())]
        if "lo" in fields:
            parts.append(f"range={fields['lo']}..{fields['hi']}")
        out[" ".join(parts)] = (kind, fields, expected)
    return out


def fixture_actual(kind, f):
    """Independent recomputation of what ``reproduce`` must report."""
    if kind in ("lucas", "pell", "pell-membership"):
        ns = odd_range(f["lo"], f["hi"])
        facs = factor_odd_range(f["lo"], f["hi"])
    if kind == "lucas":
        return [n for n in ns if lucas_verdict(n, f["P"], f["Q"], facs=facs[n])[0] == PSEUDOPRIME]
    if kind == "pell":
        return [n for n in ns if pell_verdict(n, f["D"], a=f["a"], facs=facs[n])[0] == PSEUDOPRIME]
    if kind == "pell-membership":
        return [n for n in ns if pell_point(n, f["D"], f["x"], f["y"])[0] != NOT_APPLICABLE]
    if kind == "lucas-value":
        return [lucas_u(f["P"], f["Q"], f["k"], f["n"])[0]]
    return list(brahmagupta_pow(f["x"] % f["n"], f["y"] % f["n"], f["D"], f["e"], f["n"]))


#: The two reference lists the gated tests are documented to disagree with
#: (data/fixtures.txt NOTE lines; README "Golden fixtures").
DOCUMENTED_DIVERGENCES = {
    "lucas P=3 Q=1 range=3..5000": ({1891}, set()),
    "pell D=29 a=48 range=3..3000": (set(), {1101, 2679}),
}


def reproduce_expectation(reference_text):
    """{label: (expected, actual)} for every bundled fixture."""
    return {
        label: (expected, fixture_actual(kind, fields))
        for label, (kind, fields, expected) in parse_reference(reference_text).items()
    }


def check_reproduce(code, records, expectation):
    """``reproduce`` re-derives every fixture and flags exactly the two
    documented divergences, with exit code 3."""
    errors = []
    if code != 3:
        errors.append(f"reproduce exited {code}, expected 3")
    got = {r["fixture"]: r for r in records}
    if set(got) != set(expectation) or len(records) != len(expectation):
        errors.append(f"reproduce fixtures {sorted(got)} != {sorted(expectation)}")
        return errors
    flagged = set()
    for label, (expected, actual) in expectation.items():
        rec = got[label]
        if rec["actual"] != actual or rec["expected"] != expected:
            errors.append(f"reproduce {label}: actual {rec['actual']} != {actual}")
        if rec["passed"] != (actual == expected):
            errors.append(f"reproduce {label}: passed={rec['passed']} is wrong")
        if not rec["passed"]:
            flagged.add(label)
    for label, (extra, missing) in DOCUMENTED_DIVERGENCES.items():
        expected, actual = expectation[label]
        if set(actual) != (set(expected) | extra) - missing:
            errors.append(f"reproduce {label}: divergence is not exactly +{extra} -{missing}")
    if flagged != set(DOCUMENTED_DIVERGENCES):
        errors.append(f"reproduce flags {sorted(flagged)}, expected the documented two")
    return errors


def check_reference_prefix(hits, reference_text):
    """On 3..5000 the P=3 list is the bundled reference list plus 1891."""
    _, _, expected = parse_reference(reference_text)["lucas P=3 Q=1 range=3..5000"]
    got = [n for n in hits if n <= 5000]
    want = sorted(set(expected) | {1891})
    if got != want:
        return [f"P=3 pseudoprimes on 3..5000 {got} != reference + 1891 {want}"]
    return []


# ------------------------------------------------------------ single calls


def _call_value(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _lift(p, n):
    """Least positive lift of P mod n used as a Lucas parameter, or None."""
    p %= n
    return None if p in (0, 2) else p


def expect_call(argv):
    """Expected (exit code, record subset) of one single-test CLI call.

    ``argv`` is the argument list after ``python -m pellucas.cli``.
    """
    cmd, n = argv[0], int(argv[1])
    strong = "--strong" in argv
    if n < 3 or n % 2 == 0 or n >= MR_BOUND:
        return 2, None
    facs = factor(n)
    if cmd == "lucas-test":
        p, q = _call_value(argv, "--p"), _call_value(argv, "--q", 1)
        if p <= 0 or p * p == 4 * q:
            return 2, None
        status, reason, wit = lucas_verdict(n, p, q, strong, facs)
        return 0, {"status": status, "reason": reason, "witnesses": wit}
    if cmd == "pell-test":
        d = _call_value(argv, "--d")
        x, y, a = (_call_value(argv, k) for k in ("--x", "--y", "--a"))
        if d == 0 or (a is None) == (x is None or y is None):
            return 2, None
        status, reason, wit = pell_verdict(n, d, x, y, a, strong, facs)
        return 0, {"status": status, "reason": reason, "witnesses": wit}
    # bridge
    if "--from-lucas" in argv:
        p = _call_value(argv, "--p")
        if p <= 0 or p == 2:
            return 2, None
        inv2 = pow(2, -1, n)
        lv = lucas_verdict(n, p, 1, strong, facs)
        pv = pell_verdict(n, p * p - 4, p * inv2 % n, inv2, strong=strong, facs=facs)
        recovered = _lift(p, n)
    else:
        d, x, y = (_call_value(argv, k) for k in ("--d", "--x", "--y"))
        lift = _lift(2 * x, n)
        if (x * x - d * y * y - 1) % n or lift is None:
            return 2, None
        lv = lucas_verdict(n, lift, 1, strong, facs)
        pv = pell_verdict(n, d, x, y, strong=strong, facs=facs)
        recovered = lift
    agree = lv[0] != NOT_APPLICABLE and pv[0] != NOT_APPLICABLE and lv[0] == pv[0]
    return 0, {
        "lucas_status": lv[0], "lucas_reason": lv[1],
        "pell_status": pv[0], "pell_reason": pv[1],
        "recovered_p": recovered, "agreement": agree,
    }


def check_call(argv, code, stdout, stderr, expected):
    """(failed, errors) for one CLI call.

    The call fails when it exits with another code than expected or prints
    a traceback; a call that ran as expected but printed a wrong record is
    an error.
    """
    want_code, want = expected
    if code != want_code or "Traceback" in stderr:
        return True, []
    if want is None:
        return False, []
    try:
        (rec,) = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return False, [f"{' '.join(argv)}: output is not one JSONL record"]
    wrong = {k: (rec.get(k), v) for k, v in want.items() if rec.get(k) != v}
    if wrong:
        return False, [f"{' '.join(argv)}: got/expected {wrong}"]
    return False, []

