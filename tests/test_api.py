"""The package's public surface: ``__all__`` and the value types it exports."""

import dataclasses
import inspect

import pellucas
from pellucas import LucasPair, LucasParams, lucas_uv_mod


def test_all_lists_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(pellucas).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(pellucas.__all__) == len(set(pellucas.__all__))
    assert set(pellucas.__all__) == exported | {"__version__"}


def test_lucas_pair_holds_u_and_v():
    assert [f.name for f in dataclasses.fields(LucasPair)] == ["u", "v"]
    assert lucas_uv_mod(LucasParams(3, 1), 20, 21) == LucasPair(0, 5)
