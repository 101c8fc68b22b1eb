"""Kernel inputs that perfbench rates on each backend.

``perfbench/worker.py`` loads this file by path and times every kernel of
``workloads()`` on each backend; a traced run
(``python3 perfbench/run.py --trace 1``) prints the rates as
``kernels.pure.*.ops_s`` and, for the backend picked at import,
``kernels.active.*.ops_s``.
"""

import random


def workloads(seed=20250810):
    rng = random.Random(seed)
    moduli = [rng.getrandbits(60) | 1 for _ in range(64)]
    lucas_args = [(rng.randrange(1, 50), rng.randrange(-20, 20) % n, n - 1, n) for n in moduli]
    pell_args = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n), n - 1, n) for n in moduli
    ]
    prime_args = [(n,) for n in moduli]
    sweep_args = [(10, 10, 5, 20, 3, 59, 10)]
    return {
        "lucas_uv (60-bit n, k=n-1)": ("lucas_uv", lucas_args),
        "pell_pow (60-bit n, e=n-1)": ("pell_pow", pell_args),
        "is_prime (60-bit n)": ("is_prime", prime_args),
        "closed_form_sweep (small box)": ("closed_form_sweep", sweep_args),
    }
