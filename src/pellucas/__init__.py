"""Lucas and Pell-conic pseudoprimality toolkit.

Modular arithmetic primitives (``modring``), Lucas sequences and tests
(``lucas``), the conic group law and Pell tests (``conic``), the
parameter correspondence between the two (``bridge``), pseudoprime range
search with golden fixtures (``search``, ``fixtures``) and a CLI
(``cli``).  Hot modular kernels run on a compiled extension when
available; see ``kernels.BACKEND``.
"""

__version__ = "0.1.0"

from .bridge import (
    BridgeReport,
    ClosedFormCheck,
    check_closed_form,
    from_pell,
    lucas_to_pell,
    lucas_to_phi_params,
    pell_to_lucas,
    roundtrip,
)
from .conic import (
    ConicPoint,
    PellParams,
    brahmagupta_mul,
    conic_order,
    is_member,
    pell_pow,
    pell_test,
    phi,
    strong_pell_test,
)
from .fixtures import Fixture, FixtureResult, load_fixtures, reproduce
from .kernels import closed_form_sweep
from .lucas import (
    LucasPair,
    LucasParams,
    lucas_test,
    lucas_uv_mod,
    strong_lucas_test,
)
from .modring import Modulus, gcd, is_composite, jacobi, mod_inverse
from .search import SearchReport, SearchSpec, Skip, enumerate_range
from .verdict import Status, TestVerdict

__all__ = [
    "__version__",
    "BridgeReport",
    "ClosedFormCheck",
    "ConicPoint",
    "Fixture",
    "FixtureResult",
    "LucasPair",
    "LucasParams",
    "Modulus",
    "PellParams",
    "SearchReport",
    "SearchSpec",
    "Skip",
    "Status",
    "TestVerdict",
    "brahmagupta_mul",
    "check_closed_form",
    "closed_form_sweep",
    "conic_order",
    "enumerate_range",
    "from_pell",
    "gcd",
    "is_composite",
    "is_member",
    "jacobi",
    "load_fixtures",
    "lucas_test",
    "lucas_to_pell",
    "lucas_to_phi_params",
    "lucas_uv_mod",
    "mod_inverse",
    "pell_pow",
    "pell_test",
    "pell_to_lucas",
    "phi",
    "reproduce",
    "roundtrip",
    "strong_lucas_test",
    "strong_pell_test",
]
