"""The package's public surface: ``__all__`` and the value types it exports."""

import copy
import inspect
import pickle
import re

import pytest

import pellucas
from pellucas import (
    ConicPoint,
    LucasPair,
    LucasParams,
    PellParams,
    SearchSpec,
    lucas_uv_mod,
)
from pellucas.errors import NotOnConicError


def test_all_lists_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(pellucas).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(pellucas.__all__) == len(set(pellucas.__all__))
    assert set(pellucas.__all__) == exported | {"__version__"}


def test_lucas_pair_holds_u_and_v():
    assert LucasPair._fields == ("u", "v")
    assert lucas_uv_mod(LucasParams(3, 1), 20, 21) == LucasPair(0, 5)


# (a valid record, fields that make it invalid, the error and its message)
VALIDATED = [
    (LucasParams(3, 1), {"p": 0}, ValueError, "P must be positive, got 0"),
    (LucasParams(4, 1), {"q": 4}, ValueError, "P^2 - 4Q must be nonzero, got P=4 Q=4"),
    (PellParams.from_seed(6, 4), {"d": 0}, ValueError, "conic parameter d must be nonzero"),
    (PellParams.from_point(3, 8, 66), {"a": 4}, ValueError,
     "give both --x and --y, or a seed a, not a mix"),
    (PellParams.from_seed(6, 4), {"a": None}, ValueError,
     "either an explicit point (x, y) or a seed a is required"),
    (ConicPoint(8, 66, 3, 85), {"y": 65}, NotOnConicError,
     "(8, 65) is not on x^2 - 3 y^2 = 1 mod 85"),
    (ConicPoint(8, 66, 3, 85), {"n": 84}, ValueError, "modulus must be odd and >= 3, got 84"),
    (ConicPoint(8, 66, 3, 85), {"d": 0}, ValueError, "conic parameter d must be nonzero"),
    (SearchSpec("lucas", LucasParams(3, 1), 3, 99), {"hi": 2}, ValueError,
     "empty range [3, 2]"),
    (SearchSpec("pell", PellParams.from_seed(6, 4), 3, 99), {"params": LucasParams(3, 1)},
     ValueError, "pell search needs PellParams"),
]


@pytest.mark.parametrize(
    "good, bad, error, message", VALIDATED,
    ids=[f"{type(good).__name__}-{next(iter(bad))}" for good, bad, _, _ in VALIDATED],
)
def test_validated_records_check_every_construction_path(good, bad, error, message):
    cls = type(good)
    fields = dict(good._asdict(), **bad)
    builds = {
        "constructor": lambda: cls(**fields),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: good._replace(**bad),
    }
    for path, build in builds.items():
        with pytest.raises(error, match=re.escape(message)):
            build()
            pytest.fail(f"{path} built an invalid {cls.__name__}")
    for copied in (cls._make(good), good._replace(), pickle.loads(pickle.dumps(good)),
                   copy.copy(good)):
        assert type(copied) is cls and copied == good
    field = good._fields[0]
    with pytest.raises(AttributeError):
        setattr(good, field, getattr(good, field))
    with pytest.raises(AttributeError):
        good.extra = 1


def test_conic_point_reduces_on_every_path():
    point = ConicPoint(8, 66, 3, 85)
    for built in (ConicPoint(8 + 85, 66 - 2 * 85, 3, 85),
                  ConicPoint._make((8 - 85, 66 + 85, 3, 85)),
                  point._replace(x=8 + 3 * 85, y=66 - 85)):
        assert built == point == (8, 66, 3, 85)
