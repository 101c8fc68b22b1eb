"""The four per-n tests against a plain-integer oracle.

``perfbench/oracle.py`` imports no pellucas: it computes U_k from a 2x2
matrix power, conic powers by square-and-multiply over the Brahmagupta
product, and Jacobi symbols from Euler's criterion over a trial-division
factorisation.  The per-n tests and the pure scan share one decision
function, so the scan parity tests alone would partly check that code
against itself; this test holds the full verdict (status, reason and
witnesses) to an independent computation.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pellucas import (
    LucasParams,
    PellParams,
    lucas_test,
    pell_test,
    strong_lucas_test,
    strong_pell_test,
)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

# Parameters: negative, small, or above 2**64 in absolute value.
SMALL = st.integers(-40, 40)
HUGE = st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
ANY = SMALL | HUGE | st.integers(-(10**6), 10**6)

# Fundamental solutions of x^2 - d y^2 = 1; their integer powers are
# solutions too, so the point lies on the conic mod every n.
FUNDAMENTAL = [(2, 3, 2), (3, 2, 1), (5, 9, 4), (6, 5, 2), (7, 8, 3), (29, 9801, 1820)]


@st.composite
def odd_n(draw):
    return 2 * draw(st.integers(1, 10**5 - 1)) + 1


@st.composite
def lucas_case(draw):
    p = draw(st.integers(1, 40) | st.integers(2**64, 2**80))
    q = draw(ANY)
    if p * p == 4 * q:
        q += 1
    return "lucas", {"p": p, "q": q}


@st.composite
def seed_case(draw):
    return "pell", {"d": draw(ANY.filter(bool)), "a": draw(ANY)}


@st.composite
def off_conic_case(draw):
    return "pell", {"d": draw(ANY.filter(bool)), "x": draw(ANY), "y": draw(ANY)}


@st.composite
def solution_case(draw):
    d, x1, y1 = draw(st.sampled_from(FUNDAMENTAL))
    x, y = 1, 0
    for _ in range(draw(st.integers(1, 12))):
        x, y = x * x1 + d * y * y1, x * y1 + y * x1
    x *= draw(st.sampled_from([1, -1]))
    y *= draw(st.sampled_from([1, -1]))
    return "pell", {"d": d, "x": x, "y": y}


CASES = st.one_of(lucas_case(), seed_case(), off_conic_case(), solution_case())


def package_verdict(kind, params, n, strong):
    if kind == "lucas":
        test = strong_lucas_test if strong else lucas_test
        verdict = test(n, LucasParams(params["p"], params["q"]))
    else:
        test = strong_pell_test if strong else pell_test
        verdict = test(n, PellParams(**params))
    return verdict.status.value, verdict.reason, verdict.witnesses


def oracle_verdict(kind, params, n, strong):
    if kind == "lucas":
        return oracle.lucas_verdict(n, params["p"], params["q"], strong)
    return oracle.pell_verdict(n, strong=strong, **params)


@settings(max_examples=400, deadline=None)
@given(case=CASES, n=odd_n(), strong=st.booleans())
def test_per_n_tests_match_plain_integer_oracle(case, n, strong):
    kind, params = case
    # a short run of odd n from a random start, so that each example also
    # meets the n that share a factor with the parameters
    for m in range(n, n + 16, 2):
        assert package_verdict(kind, params, m, strong) == oracle_verdict(kind, params, m, strong)


def test_per_n_tests_match_plain_integer_oracle_on_known_values():
    # 21 and 323 are Lucas pseudoprimes for P=3; 85 is a Pell pseudoprime
    # for the seed (3, 4); (12, 11) is on x^2 - 5 y^2 = 1 mod 21
    for kind, params, n in [
        ("lucas", {"p": 3, "q": 1}, 21),
        ("lucas", {"p": 3, "q": 1}, 323),
        ("lucas", {"p": 3, "q": 1}, 1891),
        ("pell", {"d": 3, "a": 4}, 85),
        ("pell", {"d": 5, "x": 12, "y": 11}, 21),
        ("pell", {"d": 3, "x": 8, "y": 66}, 85),
        ("pell", {"d": 29, "a": 48}, 1101),
    ]:
        for strong in (False, True):
            expected = oracle_verdict(kind, params, n, strong)
            assert package_verdict(kind, params, n, strong) == expected, (kind, params, n)
