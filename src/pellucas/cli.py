"""Command-line front end.

Commands: lucas-test, pell-test, enumerate, bridge, reproduce.  Output
formats: a human table (default), line-delimited JSON records
(``--format jsonl``, one record per line, schema version 1) and CSV.

Exit codes: 0 = command executed (whatever the mathematical verdict),
2 = usage/validation error, 3 = fixture mismatch in ``reproduce``, 130 =
interrupted by Ctrl-C (SIGINT), 141 = the output pipe was closed (each as
for a tool killed by that signal, with no traceback).  The
library rejects a bad input with ``ValueError``; ``main`` turns every one
into a usage error with the library's message.
"""

import argparse
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from collections import Counter

from . import __version__
from ._kernels_py import REASONS
from .bridge import from_pell, roundtrip
from .conic import ConicPoint, PellParams, pell_test, strong_pell_test
from .fixtures import KINDS, reproduce
from .lucas import LucasParams, lucas_test, strong_lucas_test
from .modring import as_modulus
from .search import SearchSpec, iter_blocks, merge

SCHEMA_VERSION = 1


def _record(command, **payload):
    rec = {"schema": SCHEMA_VERSION, "command": command}
    rec.update(payload)
    return rec


def _print_jsonl(records):
    for rec in records:
        print(json.dumps(rec, separators=(", ", ": ")))


def _flatten(value):
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def _print_csv(records, columns=None):
    if columns is None:
        columns = list(dict.fromkeys(key for rec in records for key in rec))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns)
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _flatten(v) for k, v in rec.items()})
    print(out.getvalue(), end="")


def _emit(records, fmt, table_lines):
    if fmt == "jsonl":
        _print_jsonl(records)
    elif fmt == "csv":
        _print_csv(records)
    else:
        for line in table_lines:
            print(line)


def _witness_text(witnesses):
    return " ".join(f"{k}={v}" for k, v in witnesses.items())


def _params(parser, args):
    """The test parameters named by the flags, and the flags to show: (params, shown)."""
    if args.kind == "lucas":
        if args.p is None:
            parser.error("lucas enumeration needs --p (and optionally --q)")
        return LucasParams(args.p, args.q), {"p": args.p, "q": args.q}
    if args.d is None:
        parser.error("pell enumeration needs --d plus --x/--y or --a")
    shown = {"d": args.d}
    shown.update({"x": args.x, "y": args.y} if args.a is None else {"a": args.a})
    return PellParams(args.d, x=args.x, y=args.y, a=args.a), shown


def cmd_test(parser, args):
    n = as_modulus(args.n)
    params, shown = _params(parser, args)
    # the functions are looked up by name on each call, so that a wrapper
    # bound to the module attribute (a tracer, a test) sees the call
    if args.kind == "lucas":
        test = strong_lucas_test if args.strong else lucas_test
    else:
        test = strong_pell_test if args.strong else pell_test
    verdict = test(n, params)
    rec = _record(args.command, n=args.n, **shown, strong=args.strong, **verdict.to_dict())
    flags = " ".join(f"{k.upper() if k in 'pqd' else k}={v}" for k, v in shown.items())
    line = (
        f"n={args.n} {flags}{' strong' if args.strong else ''} -> {verdict.status.value}"
        f" ({verdict.reason}) {_witness_text(verdict.witnesses)}"
    )
    _emit([rec], args.format, [line.rstrip()])
    return 0


def cmd_enumerate(parser, args):
    params, shown = _params(parser, args)
    spec = SearchSpec(args.kind, params, args.lo, args.to, args.strong)
    if args.format == "jsonl":
        # the skips go to a spool as text, block by block, and from there
        # into the record between its head and its counts
        with tempfile.TemporaryFile("w+") as spool:
            hits, counts = merge(iter_blocks(spec, args.workers, "json"), spool.write)
            head = _record(
                "enumerate",
                kind=args.kind,
                **shown,
                strong=args.strong,
                **{"from": args.lo, "to": args.to},
                pseudoprimes=hits,
            )
            sys.stdout.write(json.dumps(head, separators=(", ", ": "))[:-1] + ', "skipped": [')
            spool.seek(0)
            spool.read(2)  # the ", " before the first item
            shutil.copyfileobj(spool, sys.stdout)
            tail = json.dumps({"counts": counts}, separators=(", ", ": "))
            sys.stdout.write("], " + tail[1:] + "\n")
        return 0
    if args.format == "csv":
        # CSV keeps no skip: their counts are the shape that costs least
        hits, _ = merge(iter_blocks(spec, args.workers, "reasons"))
        # the header is printed even when there are no hits
        row = _record("enumerate", kind=args.kind, **shown, n=None)
        _print_csv([dict(row, n=n) for n in hits], columns=list(row))
        return 0
    reasons = Counter()
    hits, counts = merge(iter_blocks(spec, args.workers, "reasons"),
                         lambda part: reasons.update(dict(zip(REASONS, part))))
    lines = [
        f"{args.kind} pseudoprimes in [{args.lo}, {args.to}] "
        + " ".join(f"{k}={v}" for k, v in shown.items())
        + (" strong" if args.strong else ""),
        "  " + (", ".join(map(str, hits)) or "(none)"),
        "counts: " + " ".join(f"{k}={v}" for k, v in counts.items()),
    ]
    skipped = sorted(item for item in reasons.items() if item[1])
    if skipped:
        lines.append("skipped: " + " ".join(f"{k}={v}" for k, v in skipped))
    print("\n".join(lines))
    return 0


def cmd_bridge(parser, args):
    n = as_modulus(args.n)
    if args.from_lucas:
        if args.p is None:
            parser.error("--from-lucas needs --p")
        report = roundtrip(n, args.p, strong=args.strong)
    else:
        if args.d is None or args.x is None or args.y is None:
            parser.error("--from-pell needs --d, --x and --y")
        point = ConicPoint(args.x, args.y, args.d, n)
        report = from_pell(n, point, strong=args.strong)
    pp = report.pell_params
    rec = _record(
        "bridge",
        direction=report.direction,
        n=report.n,
        p=report.lucas_params.p,
        q=report.lucas_params.q,
        d=pp.d,
        x=pp.x,
        y=pp.y,
        lucas_status=report.lucas_verdict.status.value,
        lucas_reason=report.lucas_verdict.reason,
        pell_status=report.pell_verdict.status.value,
        pell_reason=report.pell_verdict.reason,
        recovered_p=report.recovered_p,
        agreement=report.agreement,
    )
    lines = [
        f"{report.direction} n={report.n}",
        f"  lucas P={report.lucas_params.p} Q={report.lucas_params.q}"
        f" -> {report.lucas_verdict.status.value} ({report.lucas_verdict.reason})",
        f"  pell D={pp.d} x={pp.x} y={pp.y}"
        f" -> {report.pell_verdict.status.value} ({report.pell_verdict.reason})",
        f"  recovered P={report.recovered_p} agreement={report.agreement}",
    ]
    _emit([rec], args.format, lines)
    return 0


def cmd_reproduce(parser, args):
    results = reproduce(only=args.only, workers=args.workers)
    if not results:
        parser.error(f"no fixtures match --only {args.only}")
    records = []
    lines = []
    for res in results:
        records.append(
            _record(
                "reproduce",
                fixture=res.fixture.label,
                kind=res.fixture.kind,
                passed=res.passed,
                expected=list(res.fixture.expected),
                actual=list(res.actual),
                note=res.note,
            )
        )
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.fixture.label} ({len(res.actual)} values)"
        if res.note:
            line += f" -- {res.note}"
        lines.append(line)
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} fixtures passed")
    _emit(records, args.format, lines)
    return 3 if failed else 0


def _add_format(sub):
    sub.add_argument(
        "--format",
        choices=("table", "jsonl", "csv"),
        default="table",
        help="output format (default: table)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pellucas",
        description="Lucas and Pell-conic pseudoprimality toolkit",
    )
    parser.add_argument("--version", action="version", version=f"pellucas {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    lucas = commands.add_parser("lucas-test", help="Lucas test for one odd n")
    lucas.add_argument("n", type=int)
    lucas.add_argument("--p", type=int, required=True, help="sequence parameter P > 0")
    lucas.add_argument("--q", type=int, default=1, help="sequence parameter Q (default 1)")
    lucas.add_argument("--strong", action="store_true", help="also require U_{k+1} = 1")
    _add_format(lucas)
    lucas.set_defaults(func=cmd_test, kind="lucas")

    pell = commands.add_parser("pell-test", help="Pell conic test for one odd n")
    pell.add_argument("n", type=int)
    pell.add_argument("--d", type=int, required=True, help="conic parameter D != 0")
    pell.add_argument("--x", type=int, help="explicit point x-coordinate")
    pell.add_argument("--y", type=int, help="explicit point y-coordinate")
    pell.add_argument("--a", type=int, help="parametrization seed")
    pell.add_argument("--strong", action="store_true", help="require the full identity point")
    _add_format(pell)
    pell.set_defaults(func=cmd_test, kind="pell")

    enum = commands.add_parser("enumerate", help="search a range for pseudoprimes")
    enum.add_argument("kind", choices=("lucas", "pell"))
    enum.add_argument("--p", type=int)
    enum.add_argument("--q", type=int, default=1)
    enum.add_argument("--d", type=int)
    enum.add_argument("--x", type=int)
    enum.add_argument("--y", type=int)
    enum.add_argument("--a", type=int)
    enum.add_argument("--from", dest="lo", type=int, default=3, help="range start (default 3)")
    enum.add_argument("--to", type=int, required=True, help="range end, inclusive")
    enum.add_argument("--strong", action="store_true")
    enum.add_argument("--workers", type=int, default=None, help="parallel workers (default: cores)")
    _add_format(enum)
    enum.set_defaults(func=cmd_enumerate)

    bridge = commands.add_parser("bridge", help="translate parameters across the correspondence")
    bridge.add_argument("n", type=int)
    direction = bridge.add_mutually_exclusive_group(required=True)
    direction.add_argument("--from-lucas", action="store_true")
    direction.add_argument("--from-pell", action="store_true")
    bridge.add_argument("--p", type=int)
    bridge.add_argument("--d", type=int)
    bridge.add_argument("--x", type=int)
    bridge.add_argument("--y", type=int)
    bridge.add_argument("--strong", action="store_true")
    _add_format(bridge)
    bridge.set_defaults(func=cmd_bridge)

    repro = commands.add_parser("reproduce", help="check the bundled golden fixtures")
    repro.add_argument("--only", choices=KINDS, help="restrict to one fixture kind")
    repro.add_argument("--workers", type=int, default=None, help="parallel workers (default: cores)")
    _add_format(repro)
    repro.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(parser, args)
        except ValueError as err:
            parser.error(str(err))
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): point stdout at devnull so
        # the flush at exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    except KeyboardInterrupt:
        # Ctrl-C: from here on a second one is ignored, so that it cannot break
        # into the late close of a search's generator (which joins its worker
        # threads once this handler drops the traceback) or the interpreter's
        # join of the threads at exit; exit as SIGINT would.  _signal is the
        # C module behind signal, already loaded at start-up and running no
        # Python code, so SIG_IGN is in force a few bytecodes after the first
        # Ctrl-C; importing signal would first run its module code, about
        # 0.7 ms in which a second Ctrl-C would raise inside this handler
        import _signal

        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        code = 128 + 2
    sys.exit(code)


if __name__ == "__main__":
    console_main()
