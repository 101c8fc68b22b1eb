#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the four hot kernels on identical workloads per backend and prints
a table with the speedup.  Build the extension in place, then run from the
root of a checkout:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernels.py [--seconds 0.5]
"""

import argparse
import random
import time

from pellucas import kernels


def timed(func, args_iter, min_seconds):
    """Run func over cycling args until min_seconds elapse; return ops/s."""
    args = list(args_iter)
    count = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_seconds:
        for a in args:
            func(*a)
        count += len(args)
        elapsed = time.perf_counter() - start
    return count / elapsed


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=0.5,
                        help="minimum sampling time per case (default 0.5)")
    args = parser.parse_args()

    backends = kernels.backends()
    if "compiled" not in backends:
        print("compiled backend not available; run python setup.py build_ext --inplace")
    names = list(backends)
    print(f"active dispatch backend: {kernels.BACKEND}")
    header = f"{'workload':34}" + "".join(f"{n + ' ops/s':>18}" for n in names)
    if len(names) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, (fname, fargs) in workloads().items():
        rates = [timed(getattr(backends[n], fname), fargs, args.seconds) for n in names]
        row = f"{label:34}" + "".join(f"{r:18.1f}" for r in rates)
        if len(rates) == 2:
            row += f"{rates[1] / rates[0]:9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
