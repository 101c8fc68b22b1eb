#!/usr/bin/env python3
"""pellucas benchmark: one workload, checked outputs, metrics as JSON.

    python3 perfbench/run.py --workload small-n|large-n|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def build_inputs():
    """Files whose change calls for a new build of the extension."""
    paths = [os.path.join(ROOT, name) for name in ("setup.py", "pyproject.toml")]
    pkg = os.path.join(ROOT, "src", "pellucas")
    paths += sorted(
        os.path.join(pkg, name) for name in os.listdir(pkg)
        if name.endswith((".c", ".pyx", ".h"))
    )
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def build():
    """Build the package in place from source, once per source state.

    ``setup.py build_ext --inplace`` compiles the optional extension when
    the build requirements are present and does nothing otherwise; the
    import after it writes the bytecode caches, so that no timed process
    compiles bytecode.
    """
    stamp = os.path.join(BUILD_DIR, "perfbench.stamp")
    digest = build_inputs()
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    steps = [
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD_DIR, "temp")],
        [sys.executable, "-c", "import pellucas.cli"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=800)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"build step failed: {' '.join(cmd[1:])}")
    with open(stamp, "w") as fh:
        fh.write(digest)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pellucas", "__init__.py")):
        sys.exit(f"no pellucas sources under {ROOT}; run from the root of a checkout")
    build()
    # The client runs in a process of its own, so that the peak RSS of its
    # children leaves out the build.
    client = os.path.join(HERE, "client.py")
    cmd = [sys.executable, client, args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
