"""Golden fixtures: parsing, execution, comparison.

The expected values live in ``data/fixtures.txt`` as a plain-text table
(one fixture per line) so they stay auditable; ``reproduce`` runs every
fixture through the library and reports mismatches as data rather than
exceptions.
"""

from dataclasses import dataclass
from importlib import resources

from .conic import ConicPoint, PellParams, pell_pow
from .lucas import LucasParams, lucas_uv_mod
from .modring import Modulus
from .search import SearchSpec, check_workers, enumerate_range
from .verdict import REASON_NOT_ON_CONIC

KINDS = ("lucas", "pell", "pell-membership", "lucas-value", "pell-value")


@dataclass(frozen=True)
class Fixture:
    kind: str
    fields: tuple  # sorted (key, value) pairs
    expected: tuple

    @property
    def label(self):
        fields = dict(self.fields)
        lo, hi = fields.pop("lo", None), fields.pop("hi", None)
        parts = [f"{k}={v}" for k, v in sorted(fields.items())]
        if lo is not None:
            parts.append(f"range={lo}..{hi}")
        return " ".join([self.kind] + parts)

    def get(self, key):
        return dict(self.fields)[key]


@dataclass(frozen=True)
class FixtureResult:
    fixture: Fixture
    actual: tuple
    passed: bool
    note: str = ""


def _parse_line(line):
    tokens = line.split()
    kind = tokens[0]
    if kind not in KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    fields = {}
    expected = None
    for token in tokens[1:]:
        key, _, value = token.partition("=")
        if not _:
            raise ValueError(f"malformed fixture token {token!r}")
        if key == "expect":
            expected = tuple(int(v) for v in value.split(","))
        elif key == "range":
            lo, _, hi = value.partition("..")
            fields["lo"] = int(lo)
            fields["hi"] = int(hi)
        else:
            fields[key] = int(value)
    if expected is None:
        raise ValueError(f"fixture line lacks expect=: {line!r}")
    return Fixture(kind, tuple(sorted(fields.items())), expected)


def parse_fixtures(text):
    fixtures = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            fixtures.append(_parse_line(line))
    return fixtures


def load_fixtures():
    """Fixtures bundled with the package."""
    text = resources.files("pellucas").joinpath("data/fixtures.txt").read_text()
    return parse_fixtures(text)


def _run_table(fixture, workers):
    if fixture.kind == "lucas":
        params = LucasParams(fixture.get("P"), fixture.get("Q"))
    else:
        params = PellParams.from_seed(fixture.get("D"), fixture.get("a"))
    spec = SearchSpec(fixture.kind, params, fixture.get("lo"), fixture.get("hi"))
    return enumerate_range(spec, workers).pseudoprimes


def _run_membership(fixture, workers):
    params = PellParams.from_point(fixture.get("D"), fixture.get("x"), fixture.get("y"))
    spec = SearchSpec("pell", params, fixture.get("lo"), fixture.get("hi"))
    report = enumerate_range(spec, workers)
    off_conic = set(report.skipped_ns(REASON_NOT_ON_CONIC))
    start = spec.lo if spec.lo % 2 else spec.lo + 1
    return tuple(n for n in range(start, spec.hi + 1, 2) if n not in off_conic)


def _run_value(fixture):
    if fixture.kind == "lucas-value":
        params = LucasParams(fixture.get("P"), fixture.get("Q"))
        pair = lucas_uv_mod(params, fixture.get("k"), fixture.get("n"))
        return (pair.u,)
    point = ConicPoint(
        fixture.get("x"), fixture.get("y"), fixture.get("D"), Modulus(fixture.get("n"))
    )
    power = pell_pow(point, fixture.get("e"))
    return power.coords()


def run_fixture(fixture, workers=1):
    """Execute one fixture and compare bit-exactly against its expectation."""
    if fixture.kind in ("lucas", "pell"):
        actual = _run_table(fixture, workers)
    elif fixture.kind == "pell-membership":
        actual = _run_membership(fixture, workers)
    else:
        actual = _run_value(fixture)
    passed = actual == fixture.expected
    note = ""
    if not passed:
        missing = sorted(set(fixture.expected) - set(actual))
        extra = sorted(set(actual) - set(fixture.expected))
        bits = []
        if missing:
            bits.append(f"missing {missing}")
        if extra:
            bits.append(f"extra {extra}")
        note = "; ".join(bits) or f"expected {fixture.expected}, got {actual}"
    return FixtureResult(fixture, actual, passed, note)


def reproduce(only=None, workers=1, fixtures=None):
    """Run all (or one kind of) bundled fixtures; mismatches are reported,
    never raised.  A worker count below 1 raises ``ValueError`` whatever
    ``only`` selects."""
    check_workers(workers)
    if fixtures is None:
        fixtures = load_fixtures()
    if only is not None:
        fixtures = [f for f in fixtures if f.kind == only]
    return [run_fixture(f, workers) for f in fixtures]
