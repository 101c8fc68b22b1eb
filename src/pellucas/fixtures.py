"""Golden fixtures: parsing, execution, comparison.

The expected values live in ``data/fixtures.txt`` as a plain-text table
(one fixture per line) so they stay auditable; ``reproduce`` runs every
fixture through the library and reports mismatches as data rather than
exceptions.
"""

from collections import namedtuple
from importlib import resources

from .conic import ConicPoint, PellParams, is_member, pell_pow
from .lucas import LucasParams, lucas_uv_mod
from .search import SearchSpec, check_workers, enumerate_range

KINDS = ("lucas", "pell", "pell-membership", "lucas-value", "pell-value")


class Fixture(namedtuple("Fixture", "kind fields expected")):
    """One line of the table: its kind, sorted (key, value) pairs and expected values."""

    __slots__ = ()

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


FixtureResult = namedtuple("FixtureResult", "fixture actual passed note")


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


def _run_membership(fixture):
    x, y, d = fixture.get("x"), fixture.get("y"), fixture.get("D")
    lo, hi = fixture.get("lo"), fixture.get("hi")
    return tuple(n for n in range(lo | 1, hi + 1, 2) if is_member(x, y, d, n))


def _run_value(fixture):
    if fixture.kind == "lucas-value":
        params = LucasParams(fixture.get("P"), fixture.get("Q"))
        pair = lucas_uv_mod(params, fixture.get("k"), fixture.get("n"))
        return (pair.u,)
    point = ConicPoint(fixture.get("x"), fixture.get("y"), fixture.get("D"), fixture.get("n"))
    power = pell_pow(point, fixture.get("e"))
    return power.coords()


def run_fixture(fixture, workers=1):
    """Execute one fixture and compare bit-exactly against its expectation."""
    if fixture.kind in ("lucas", "pell"):
        actual = _run_table(fixture, workers)
    elif fixture.kind == "pell-membership":
        actual = _run_membership(fixture)
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


def reproduce(only=None, workers=1):
    """Run all (or one kind of) the bundled fixtures of ``load_fixtures``;
    mismatches are reported, never raised.  A worker count below 1 raises
    ``ValueError`` whatever ``only`` selects."""
    check_workers(workers)
    fixtures = load_fixtures()
    if only is not None:
        fixtures = [f for f in fixtures if f.kind == only]
    return [run_fixture(f, workers) for f in fixtures]
