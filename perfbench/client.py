"""Closed-loop client: runs one workload, checks every output, prints metrics.

    python client.py <workload> <seed> <seconds> <trace 0|1>

Started by run.py once the checkout is built.  The client never imports
pellucas: the package runs only in the processes it starts, so the peak
RSS of its children is the peak RSS of the processes that run pellucas.
A child started by vfork (as ``subprocess`` does) also takes the client's
own peak RSS as its own, so the client keeps its memory small while it
starts children: the library reports go to a file, and the large CLI
outputs are checked only after the last measured process has ended.
One operation runs at a time and the next starts when it ends.
"""

import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # before the first round; each round adds one
MIN_ROUNDS = 3
TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def odd_count(lo, hi):
    return len(oracle.odd_range(lo, hi))


def merge(reports):
    """One report from the reports of consecutive chunks of a range."""
    out = {"pseudoprimes": [], "skipped": [], "counts": dict.fromkeys(oracle.STATUSES, 0)}
    for rep in reports:
        out["pseudoprimes"] += rep["pseudoprimes"]
        out["skipped"] += rep["skipped"]
        for key, value in rep["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
    return out


def cli_report(stdout):
    """The enumerate JSONL record as a report, or None when malformed."""
    try:
        (rec,) = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        return {
            "pseudoprimes": rec["pseudoprimes"],
            "skipped": [[s["n"], s["reason"], s["factor"]] for s in rec["skipped"]],
            "counts": rec["counts"],
        }
    except (ValueError, KeyError, TypeError):
        return None


def jsonl(stdout):
    try:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return None


class Client:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spec = inputs.workload(workload, seed)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seen = {}  # argv -> first (code, stdout, stderr)
        self.verdicts = {}  # (argv, code, stdout, stderr) -> failed
        self.unchecked = []  # (kind, code, stdout) of sparse and reproduce outputs
        self.raw = {"setup": [], "sparse": [], "call": [], "reproduce": []}
        self.timer = None  # process timer of the measured run
        # the traced run checks the cli workload's search whatever the workload
        self.sparse_search = inputs.workload("cli", seed)["searches"][0]
        self.reference = open(os.path.join(ROOT, "src", "pellucas", "data", "fixtures.txt")).read()
        self._repro = None

    # ------------------------------------------------------------ processes

    def out_path(self, name):
        os.makedirs(OUT, exist_ok=True)
        return os.path.join(OUT, f"{name}-{self.workload}-{self.seed}")

    def worker(self, mode, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload, str(self.seed)]
        return subprocess.Popen(
            cmd + list(extra), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=self.env, cwd=ROOT,
        )

    @staticmethod
    def read(proc):
        line = proc.stdout.readline()
        if not line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exited with {proc.returncode} before replying")
        return json.loads(line)

    def setup_probe(self):
        """Time from starting a fresh worker to its ready line; the backend."""
        start = time.perf_counter()
        proc = self.worker("setup")
        backend = self.read(proc)["backend"]
        raw = time.perf_counter() - start
        proc.communicate(timeout=TIMEOUT_S)
        self.timer.add(raw)
        self.raw["setup"].append(raw)
        return backend

    def cli(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "pellucas.cli", *argv], capture_output=True,
            text=True, env=self.env, cwd=ROOT, timeout=TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    # ---------------------------------------------------------- operations

    def operation(self, kind, argv):
        """Run one CLI process; its time counts only when it did not fail."""
        self.attempted += 1
        result = self.timer.time(self.cli, argv)
        key = tuple(argv)
        if key not in self.seen:
            self.seen[key] = result
        elif self.seen[key] != result:
            self.errors.append(f"{' '.join(argv)}: output differs between rounds")
        if (key, *result) not in self.verdicts:
            self.verdicts[(key, *result)] = self.judge(kind, argv, *result)
        if self.verdicts[(key, *result)]:
            self.failed += 1
        else:
            self.raw[kind].append(self.timer.raw[-1])

    def judge(self, kind, argv, code, stdout, stderr):
        """Judge one CLI output; returns True when the operation failed.

        Single calls are checked at once; the large sparse and reproduce
        outputs are set aside for ``check_outputs``.
        """
        if kind == "call":
            failed, errors = oracle.check_call(argv, code, stdout, stderr, oracle.expect_call(argv))
            self.errors += errors
            return failed
        want = 0 if kind == "sparse" else 3
        if code != want or "Traceback" in stderr:
            return True
        self.unchecked.append((kind, code, stdout))
        return False

    def check_outputs(self):
        """Check the sparse and reproduce outputs ``judge`` set aside."""
        for kind, code, stdout in self.unchecked:
            if kind == "sparse":
                self.check_sparse(stdout)
            else:
                self.check_reproduce(code, stdout)
        self.unchecked = []

    def check_sparse(self, stdout):
        search = self.sparse_search
        report = cli_report(stdout)
        if report is None:
            self.errors.append("sparse search: output is not one enumerate record")
            return
        facs = oracle.factor_odd_range(search["lo"], search["hi"])
        self.errors += oracle.check_search(search, report, facs)
        self.errors += oracle.check_sparse_support(report, search["lo"], search["hi"])

    def check_reproduce(self, code, stdout):
        records = jsonl(stdout)
        if records is None:
            self.errors.append("reproduce: output is not JSONL")
            return
        if self._repro is None:
            self._repro = oracle.reproduce_expectation(self.reference)
        self.errors += oracle.check_reproduce(code, records, self._repro)

    def check_library(self, reports):
        """Check the merged chunk reports of every search of the workload."""
        searches = self.spec["searches"]
        factored = {}
        for index, search in enumerate(searches):
            span = (search["lo"], search["hi"])
            if span not in factored:
                factored[span] = oracle.factor_odd_range(*span)
            parts = [r for (i, _, _), r in zip(self.spec["chunks"], reports) if i == index]
            merged = merge(parts)
            self.errors += oracle.check_search(search, merged, factored[span])
            if search["kind"] == "lucas" and search["p"] == 3 and search["lo"] == 3:
                self.errors += oracle.check_reference_prefix(merged["pseudoprimes"], self.reference)

    # --------------------------------------------------------------- rounds

    def process_round(self):
        self.setup_probe()
        for _ in range(inputs.SPARSE_PER_ROUND if self.spec["sparse"] else 0):
            self.operation("sparse", self.spec["sparse"])
        for argv in self.spec["calls"]:
            self.operation("call", argv)
        for _ in range(inputs.REPRODUCE_PER_ROUND):
            self.operation("reproduce", self.spec["reproduce"])

    def measure(self):
        self.timer = calibrate.processes()
        for _ in range(SETUP_PROBES):
            backend = self.setup_probe()
        proc = None
        chunks = {"raw": []}  # per round: (chunk times, calibrations)
        reports_path = self.out_path("reports") + ".jsonl"
        if self.spec["chunks"]:
            proc = self.worker("run", reports_path)
            self.read(proc)
        try:
            start = time.perf_counter()
            deadline = start + self.seconds
            rounds = 0
            last = 0.0
            while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
                begin = time.perf_counter()
                if proc is not None:
                    proc.stdin.write("round\n")
                    proc.stdin.flush()
                    reply = self.read(proc)
                    chunks["raw"].append((reply["raw"], reply["calibrations"]))
                    self.attempted += len(self.spec["chunks"])
                self.process_round()
                rounds += 1
                last = time.perf_counter() - begin
            measured = time.perf_counter() - start
            if proc is not None:
                proc.stdin.write("finish\n")
                proc.stdin.flush()
                final = self.read(proc)
                proc.communicate(timeout=TIMEOUT_S)
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        client_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if proc is not None:
            if not final["stable"]:
                self.errors.append("enumerate reports differ between rounds")
            with open(reports_path) as fh:
                self.check_library([json.loads(line) for line in fh])
        self.check_outputs()
        timings = dict(self.raw, chunks=chunks, process_calibrations=self.timer.calibrations)
        return self.metrics(chunks, peak_kb), {
            "backend": backend, "rounds": rounds, "measured_s": measured, "timings": timings,
            "client_peak_rss_mb": client_kb / 1024,
        }

    def metrics(self, chunks, peak_kb):
        """{name: (scaled, raw, unit)} of the end-to-end metrics.

        Each timing is the median of its raw samples; the scaled figures
        of child processes multiply it by the run's process factor.
        """
        med = statistics.median
        factor = self.timer.factor()
        out = {}
        if chunks["raw"]:
            # per chunk the median over rounds, summed over one round's chunks
            wall = sum(med(times) for times in zip(*(raw for raw, _ in chunks["raw"])))
            n = sum(odd_count(lo, hi) for _, lo, hi in self.spec["chunks"])
            rounds = [calibrate.bracketed(raw, cal) for raw, cal in chunks["raw"]]
            scaled = sum(med(times) for times in zip(*rounds))
        else:
            search = self.spec["searches"][0]
            n = odd_count(search["lo"], search["hi"])
            wall = med(self.raw["sparse"])
            scaled = wall * factor
        out["enumerate_nps"] = (n / scaled, n / wall, "n/s")
        peak = peak_kb / 1024
        out["peak_rss_mb"] = (peak, peak, "MB")
        for name, kind, unit, mult in (("setup_s", "setup", "s", 1), ("cli_call_ms", "call", "ms", 1e3),
                                       ("reproduce_s", "reproduce", "s", 1)):
            wall = mult * med(self.raw[kind])
            out[name] = (wall * factor, wall, unit)
        return out

    # ---------------------------------------------------------------- trace

    def import_times(self):
        """Median cumulative import time of three modules, from -X importtime."""
        wanted = ("pellucas", "pellucas.cli", "pellucas.fixtures")
        samples = {name: [] for name in wanted}
        timer = calibrate.processes()
        for _ in range(5):
            proc = timer.time(
                subprocess.run, [sys.executable, "-X", "importtime", "-c", "import pellucas.cli"],
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=TIMEOUT_S,
            )
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
                if m and m.group(2) in samples:
                    samples[m.group(2)].append(int(m.group(1)) / 1e3)
        factor = timer.factor()
        return {f"import.{name}_ms": (statistics.median(v) * factor, "ms")
                for name, v in samples.items()}

    def trace(self):
        spans_path = self.out_path("spans") + ".tsv.gz"
        proc = self.worker("trace", spans_path)
        try:
            backend = self.read(proc)["backend"]
            result = self.read(proc)
            proc.communicate(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        metrics = {k: tuple(v) for k, v in result["metrics"].items()}
        metrics.update(self.import_times())
        outputs = result["outputs"]
        for search, report in outputs["library"]:
            self.attempted += 1
            self.errors += oracle.check_search(
                search, report, oracle.factor_odd_range(search["lo"], search["hi"])
            )
        for argv, code, stdout in outputs["calls"]:
            self.attempted += 1
            failed, errors = oracle.check_call(argv, code, stdout, "", oracle.expect_call(argv))
            self.failed += failed
            self.errors += errors
        for kind in ("sparse", "reproduce"):
            argv, code, stdout = outputs[kind]
            self.attempted += 1
            self.failed += self.judge(kind, argv, code, stdout, "")
        self.check_outputs()
        return metrics, {"backend": backend, "spans": result["spans"], "spans_file": spans_path}


def main():
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    client = Client(workload, seed, seconds)
    os.makedirs(OUT, exist_ok=True)
    if trace == "1":
        layer, info = client.trace()
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        raw = {}
    else:
        e2e, info = client.measure()
        metrics = {name: {"value": v, "unit": u} for name, (v, _, u) in e2e.items()}
        raw = {name: {"value": r, "unit": u} for name, (_, r, u) in e2e.items()}
    info.update(
        workload=workload, seed=seed, python=platform.python_version(),
        cores=os.cpu_count(), reference_s={"loop": calibrate.REFERENCE_S, "process": calibrate.REFERENCE_PROCESS_S},
        errors=client.errors,
    )
    listed = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {m["name"] for m in listed["per_layer" if trace == "1" else "end_to_end"]}
    if set(metrics) != wanted:
        sys.exit(f"metrics {sorted(set(metrics) ^ wanted)} differ from BENCHMARK.json")
    result = {
        "correct": not client.errors,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{trace}.json"), "w") as fh:
        json.dump(dict(result, raw=raw, info=info), fh, indent=1)
    for err in client.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    print(f"backend={info['backend']} python={info['python']} cores={info['cores']}"
          f" workload={workload} seed={seed}")
    if raw:
        print("raw (unscaled): " + json.dumps({k: v["value"] for k, v in raw.items()}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
