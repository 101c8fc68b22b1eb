"""The pellucas process of the benchmark: set-up, library rounds, traced run.

    python worker.py setup <workload> <seed>
    python worker.py run|trace <workload> <seed> <reports or spans file>

Runs with the package's ``src`` on PYTHONPATH.  It writes one JSON object
per line on stdout.  ``setup`` does the set-up of a workload (import,
building inputs, warm-up), prints ``{"ready": ...}`` and exits.  ``run``
does the same set-up, then runs one round of enumerate chunks for each
``round`` line on stdin and reports their timings.  In the first round it
also writes each chunk's report to the reports file as the chunk ends;
later rounds are compared with it by digest, so the process holds one
report at a time and its peak RSS stays that of pellucas.  On ``finish``
it prints whether every round gave the same reports.  ``trace`` runs the traced layer
suite (see README.md) and prints its metrics and outputs.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import statistics
import sys
import time

import calibrate
import inputs


def _params(search):
    from pellucas import LucasParams, PellParams

    if search["kind"] == "lucas":
        return LucasParams(search["p"], search["q"])
    if "a" in search:
        return PellParams.from_seed(search["d"], search["a"])
    return PellParams.from_point(search["d"], search["x"], search["y"])


def _spec(search, lo, hi):
    from pellucas import SearchSpec

    return SearchSpec(search["kind"], _params(search), lo, hi, search["strong"])


def report_data(report):
    return {
        "pseudoprimes": list(report.pseudoprimes),
        "skipped": [[s.n, s.reason, s.factor] for s in report.skipped],
        "counts": dict(report.counts),
    }


def _cli_main(argv):
    """Run ``pellucas.cli.main`` in-process; returns (exit code, stdout)."""
    from pellucas import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def set_up(spec):
    """Import, build the inputs and warm up; returns the chunk specs."""
    from pellucas import enumerate_range, kernels

    if spec["name"] == "cli":
        _cli_main(spec["calls"][0])
        return kernels.BACKEND, []
    searches = spec["searches"]
    chunks = [_spec(searches[i], lo, hi) for i, lo, hi in spec["chunks"]]
    for search in searches:
        enumerate_range(_spec(search, search["lo"], search["lo"] + 63))
    return kernels.BACKEND, chunks


def _say(obj):
    print(json.dumps(obj), flush=True)


def serve(chunks, reports_path):
    from pellucas import enumerate_range

    first = None  # digest of each chunk's report in the first round
    stable = True
    for line in sys.stdin:
        if line.strip() == "round":
            timer = calibrate.Timer()
            digests = []
            out = open(reports_path, "w") if first is None else None
            for chunk in chunks:
                report = timer.time(enumerate_range, chunk)
                digests.append(hashlib.sha256(repr(report).encode()).digest())
                if out is not None:
                    out.write(json.dumps(report_data(report)) + "\n")
                del report  # not held while the next chunk runs
            if out is not None:
                out.close()
            if first is None:
                first = digests
            elif digests != first:
                stable = False
            _say({"raw": timer.raw, "calibrations": timer.calibrations})
        elif line.strip() == "finish":
            _say({"stable": stable})
            return


# ------------------------------------------------------------------ tracing


def _rate(fn, args, seconds):
    """Scaled calls per second of fn over args, from the median pass."""
    timer = calibrate.Timer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timer.raw) < 3:
        timer.time(lambda: [fn(*a) for a in args])
    return len(args) / statistics.median(timer.scaled())


def kernel_rates(root, seed, seconds):
    """{backend: {kernel: ops/s}} on the inputs of benchmarks/bench_kernels.py."""
    from pellucas import kernels

    path = os.path.join(root, "benchmarks", "bench_kernels.py")
    loader = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(bench)
    cases = {fname: args for fname, args in bench.workloads().values()}
    rng = random.Random(f"below-2e32:{seed}")
    cases["is_prime_below_2e32"] = [((1 << 32) - 1 - 2 * rng.randrange(10**5),) for _ in range(256)]
    rates = {}
    for backend, module in kernels.backends().items():
        rates[backend] = {}
        for fname, args in cases.items():
            fn = module.is_prime if fname == "is_prime_below_2e32" else getattr(module, fname)
            rates[backend][fname] = _rate(fn, args, seconds)
    rates["active"] = rates[kernels.BACKEND]
    return rates


def pool_speedup(search):
    """workers=1 wall over workers=2 wall, median of alternating pairs."""
    from pellucas import enumerate_range

    spec = _spec(search, search["lo"], search["hi"])
    walls = {1: [], 2: []}
    for _ in range(3):
        for workers in (1, 2):
            start = time.perf_counter()
            enumerate_range(spec, workers)
            walls[workers].append(time.perf_counter() - start)
    return statistics.median(walls[1]) / statistics.median(walls[2])


def _time_sections(sections):
    """(scaled total s, results) of running each (fn, *args) in turn."""
    timer = calibrate.Timer()
    results = [timer.time(fn, *args) for fn, *args in sections]
    return sum(timer.scaled()), results


def with_workers(argv, workers):
    i = argv.index("--workers")
    return argv[: i + 1] + [str(workers)] + argv[i + 2 :]


def traced_suite(root, seed, spans_path):
    """Every per-layer metric from one process; see README.md."""
    import pellucas
    from pellucas import cli, conic, enumerate_range, fixtures, kernels, lucas, modring

    import spans

    small, large, sparse = (inputs.workload(w, seed) for w in ("small-n", "large-n", "cli"))
    metrics = {}
    kernel = kernel_rates(root, seed, seconds=0.6)
    for backend in ("pure", "active"):
        for fname, rate in kernel[backend].items():
            metrics[f"kernels.{backend}.{fname}.ops_s"] = (rate, "ops/s")
    sparse_search = dict(sparse["searches"][0], hi=sparse["searches"][0]["hi"] // 2)
    metrics["search.pool_speedup"] = (pool_speedup(sparse_search), "ratio")

    # Library sections: the first chunk of each small-n search and of each
    # large-n window, timed untraced and then traced for the overhead.
    lib = [(w, c) for w in (small, large) for c in w["chunks"]
           if c[1] == w["searches"][c[0]]["lo"]]
    lib = [(w["searches"][i], _spec(w["searches"][i], lo, hi)) for w, (i, lo, hi) in lib]
    plain_s, _ = _time_sections([(enumerate_range, spec) for _, spec in lib])

    tracer = spans.Tracer()
    applicable = [0]

    def on_pell(verdict):
        applicable[0] += verdict.applicable

    for fname in ("lucas_uv", "pell_pow", "is_prime", "jacobi"):
        tracer.instrument(kernels, fname, f"kernels.{fname}")
    tracer.count(modring, "as_modulus", "modring.as_modulus")
    tracer.instrument(lucas, "lucas_test", "lucas.lucas_test")
    tracer.instrument(conic, "pell_test", "conic.pell_test", on_pell)
    tracer.instrument(conic, "phi", "conic.phi")
    tracer.instrument(pellucas.search, "enumerate_range", "search.enumerate_range")
    tracer.instrument(fixtures, "reproduce", "fixtures.reproduce")
    tracer.instrument(cli, "main", "cli.main")
    try:
        traced_s, reports = _time_sections(
            [(pellucas.search.enumerate_range, spec) for _, spec in lib]
        )
        outputs = {
            "library": [
                [dict(search, lo=spec.lo, hi=spec.hi), report_data(report)]
                for (search, spec), report in zip(lib, reports)
            ],
            # the last call is the one above the Miller-Rabin bound, which
            # raises in-process today; the untraced cli workload runs it
            "calls": [[argv, *_cli_main(argv)] for argv in sparse["calls"][:-1]],
        }
        mark = len(tracer.start)
        argv = with_workers(sparse["sparse"], 1)
        outputs["sparse"] = [argv, *_cli_main(argv)]
        main_id = tracer.names.index("cli.main")
        span = next(i for i in range(mark, len(tracer.start)) if tracer.name_of[i] == main_id)
        serialise = tracer.end[span] - tracer.start[span] - tracer.children_time(
            span, "search.enumerate_range"
        )
        argv = with_workers(sparse["reproduce"], 1)
        outputs["reproduce"] = [argv, *_cli_main(argv)]
    finally:
        tracer.restore()

    factor = calibrate.factor([calibrate.loop() for _ in range(5)])
    totals = tracer.totals()
    for fname in ("lucas_uv", "pell_pow", "is_prime", "jacobi"):
        calls, busy, _ = totals[f"kernels.{fname}"]
        metrics[f"kernels.{fname}.calls"] = (calls, "count")
        metrics[f"kernels.{fname}.busy_s"] = (factor * busy, "s")
    metrics["modring.as_modulus.calls"] = (tracer.counts["modring.as_modulus"], "count")
    calls, _, own = totals["lucas.lucas_test"]
    metrics["lucas.lucas_test.calls"] = (calls, "count")
    metrics["lucas.lucas_test.self_s"] = (factor * own, "s")
    calls, _, own = totals["conic.pell_test"]
    metrics["conic.pell_test.calls"] = (calls, "count")
    metrics["conic.pell_test.self_s"] = (factor * own, "s")
    metrics["conic.phi.busy_s"] = (factor * totals["conic.phi"][1], "s")
    metrics["conic.applicable_ratio"] = (applicable[0] / calls, "ratio")
    _, busy, own = totals["search.enumerate_range"]
    metrics["search.enumerate_range.busy_s"] = (factor * busy, "s")
    metrics["search.merge_s"] = (factor * own, "s")
    metrics["cli.serialise_s"] = (factor * serialise, "s")
    metrics["cli.jsonl_bytes"] = (len(outputs["sparse"][2].encode()), "B")
    metrics["fixtures.reproduce.busy_s"] = (factor * totals["fixtures.reproduce"][1], "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    tracer.write(spans_path)
    return {"metrics": metrics, "outputs": outputs, "spans": len(tracer.start),
            "backend": kernels.BACKEND}


def main():
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    spec = inputs.workload(name, seed)
    backend, chunks = set_up(spec)
    _say({"ready": True, "backend": backend})
    if mode == "run":
        serve(chunks, sys.argv[4])
    elif mode == "trace":
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _say(traced_suite(root, seed, sys.argv[4]))


if __name__ == "__main__":
    main()
