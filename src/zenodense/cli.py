"""Command-line front end: parameter sweeps, Monte-Carlo runs, analyzer comparison, self-test.

Subcommands:
    sweep    analytic (and optionally Monte-Carlo) throughput per cycle count
             (N <= 10^6), CSV/JSON
    run      one Monte-Carlo session, JSON record on stdout
    compare  minimal cycle counts and resource needs to hit a target throughput
    selftest run the invariant suite; exit 0 iff everything passes

Exit codes: 0 success, 1 self-test failure, 2 argument error (a bad SDC_THREADS
included), 3 I/O error.
All randomness flows from --seed; SDC_THREADS (positive integer, capped at
the CPUs the process may run on, its affinity mask) sets shot and row
parallelism without changing a single drawn number.
CSV uses the fixed header N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high
with at least six significant digits and bare \n newlines.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import time
import traceback

from . import invariants, metrics, protocol
from .analyzers import AnalyzerKind, qz_is_degenerate

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_HEADER = ["N", "analyzer", "R_analytic", "R_mc", "mc_shots", "ci95_low", "ci95_high"]


def _parse_analyzers(name: str) -> list[AnalyzerKind]:
    if name == "all":
        return list(AnalyzerKind)
    return [AnalyzerKind(name)]


def _warn_degenerate(analyzers, n_min: int) -> None:
    if AnalyzerKind.QZ in analyzers and qz_is_degenerate(n_min):
        print("note: qz at N=1 is degenerate (sin(pi) = 0 makes the survival formula vacuous)",
              file=sys.stderr)


# One RNG stream per sweep row, all derived from the single --seed: row
# (analyzer, N) draws from stream tag _STREAM_TAG_BASE[analyzer] + N.
_STREAM_TAG_BASE = {kind: index << 32 for index, kind in enumerate(AnalyzerKind)}


@contextlib.contextmanager
def _replacing_out(path: str | None):
    """Text stream for `path`, stdout for None or "-".

    A regular-file target is written under a sibling name and renamed over
    `path` only once the block completes, so a run that fails part-way
    leaves the target as it was. Other targets (a device, a FIFO) are
    written directly.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as stream:
            yield stream
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    partial = os.path.join(directory, f".{name}.{os.getpid()}.partial")
    stream = open(partial, "w", newline="")
    try:
        yield stream
        stream.close()
        os.replace(partial, target)
    except BaseException:
        stream.close()
        os.remove(partial)
        raise


# Analytic rows per closed-form evaluation and per write: enough to spread
# the per-block cost thin, few enough that a CSV sweep of any length peaks
# under a megabyte.
_SWEEP_BLOCK = 4096


def _sweep_blocks(analyzers: list[AnalyzerKind], n_min: int, n_max: int,
                  shots: int | None, seed: int):
    """The sweep's rows as (analyzer, cycle counts, R_analytic values, estimates) blocks.

    Without shots a block is up to _SWEEP_BLOCK rows of one analyzer, from
    one evaluation of its closed form over the block's N; its estimates are
    all None. With shots a block is the one row the Monte-Carlo runner has
    just finished.
    """
    if not shots:
        for kind in analyzers:
            for low in range(n_min, n_max + 1, _SWEEP_BLOCK):
                high = min(low + _SWEEP_BLOCK - 1, n_max)
                r_values = metrics.efficiency_curve(kind, low, high).r_values.tolist()
                yield kind, range(low, high + 1), r_values, itertools.repeat(None)
        return
    rows = ((kind, n, _STREAM_TAG_BASE[kind] + n)
            for kind in analyzers for n in range(n_min, n_max + 1))
    # Closing this generator closes the runner, which stops its pool.
    with contextlib.closing(protocol.run_rows(rows, shots, seed)) as estimates:
        for estimate in estimates:
            kind, n = estimate.analyzer, estimate.n_cycles
            yield kind, (n,), (metrics.r_analytic(kind, n),), (estimate,)


def _analytic_csv_block(name: str, ns: range, r_values: list[float]) -> str:
    """The CSV rows of an analytic block, f"{n},{name},{r:.9g},,,,\\n" each.

    One % fill of the row template repeated per row, from the block's N and
    R values interleaved: %d and %.9g are the f-string's formatters, and
    analyzer names hold no %. A function of its own, so that the block's
    fields are freed before the next block's closed form is evaluated.
    """
    fields = [None] * (2 * len(r_values))
    fields[::2] = ns
    fields[1::2] = r_values
    return f"%d,{name},%.9g,,,,\n" * len(r_values) % tuple(fields)


def cmd_sweep(analyzers: list[AnalyzerKind], n_min: int, n_max: int, shots: int | None,
              seed: int, fmt: str, out: str | None) -> int:
    _warn_degenerate(analyzers, n_min)
    blocks = _sweep_blocks(analyzers, n_min, n_max, shots, seed)
    # Closing the blocks first stops the runner's pool when a write fails.
    with _replacing_out(out) as stream, contextlib.closing(blocks):
        # Each block is written once computed: a CSV block in one write, a
        # JSON record (five times a CSV line) in one write each. The bytes
        # equal one csv.writer pass (no field needs quoting) or
        # json.dump(records, indent=2) over all rows.
        #
        # An analytic CSV block is one % fill (_analytic_csv_block). The other
        # rows keep their f-strings: a Monte-Carlo row is a block of its own
        # and its simulation dominates, and a JSON record's repr dominates,
        # while a block-sized JSON string would break the memory bound.
        if fmt == "csv":
            stream.write(",".join(CSV_HEADER) + "\n")
        separator = "[\n"
        for kind, ns, r_values, estimates in blocks:
            name = kind.value
            if fmt == "csv" and not shots:
                stream.write(_analytic_csv_block(name, ns, r_values))
                continue
            for n, r, e in zip(ns, r_values, estimates):
                if fmt == "csv":
                    stream.write(f"{n},{name},{r:.9g},{e.r_hat:.9g},{shots},"
                                 f"{e.ci95[0]:.9g},{e.ci95[1]:.9g}\n")
                    continue
                # One item of json.dumps(records, indent=2): every float is
                # finite and prints as its repr, and no string needs escaping.
                r_mc, mc_shots, low, high = ("null",) * 4 if e is None else (
                    repr(e.r_hat), shots, repr(e.ci95[0]), repr(e.ci95[1]))
                stream.write(f'{separator}  {{\n    "n": {n},\n    "analyzer": "{name}",\n'
                             f'    "r_analytic": {r!r},\n    "r_mc": {r_mc},\n'
                             f'    "mc_shots": {mc_shots},\n    "ci95_low": {low},\n'
                             f'    "ci95_high": {high}\n  }}')
                separator = ",\n"
        if fmt == "json":
            stream.write("[]\n" if separator == "[\n" else "\n]\n")
    return EXIT_OK


def cmd_run(analyzer: AnalyzerKind, n_cycles: int, shots: int, seed: int,
            message: str, out: str | None) -> int:
    _warn_degenerate([analyzer], n_cycles)
    fixed = None if message == "uniform" else message
    estimate = protocol.simulate(analyzer, n_cycles, shots, seed, message=fixed)
    record = {
        "analyzer": analyzer.value,
        "n": n_cycles,
        "shots": shots,
        "seed": seed,
        "message": message,
        "r_hat": estimate.r_hat,
        "ci95": [estimate.ci95[0], estimate.ci95[1]],
        "lost_fraction": estimate.lost_fraction,
        "decode_error_count": estimate.decode_error_count,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with _replacing_out(out) as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    return EXIT_OK


def cmd_compare(target_r: float, fmt: str, out: str | None) -> int:
    rows = []
    # Table order: qz, ifm, dqz.
    for kind in reversed(AnalyzerKind):
        minimal = metrics.min_n_for_target(kind, target_r)
        splitters, ancilla = metrics.resource_counts(kind, minimal)
        rows.append({
            "analyzer": kind.value,
            "min_n": minimal,
            "beamsplitters": splitters,
            "ancilla": ancilla,
        })
    with _replacing_out(out) as stream:
        if fmt == "json":
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["analyzer", "min_n", "beamsplitters", "ancilla"])
            for row in rows:
                writer.writerow([row["analyzer"], row["min_n"], row["beamsplitters"],
                                 "yes" if row["ancilla"] else "no"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-test


def run_selftest(inject_fault: str | None = None) -> int:
    """Run the invariant suite (`invariants.checks`); returns the process exit code."""
    checks = invariants.checks(inject_fault)
    failures = 0
    for name, check in checks:
        try:
            detail = check()
        except Exception as exc:  # a broken invariant may raise; report it and go on
            traceback.print_exc(file=sys.stderr)
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    if failures:
        print(f"selftest: {failures} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_SELFTEST_FAILED
    print(f"selftest: all {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def uint64(text: str) -> int:
    """The --seed type: argparse reports a value outside [0, 2**64) as a usage error."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("must be a 64-bit unsigned integer")
    return seed


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenodense",
        description="Superdense-coding throughput simulator (dual-Zeno, IFM, and QZ Bell analyzers)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="throughput as a function of the cycle count")
    kinds = tuple(kind.value for kind in AnalyzerKind)
    p_sweep.add_argument("--analyzer", choices=kinds + ("all",), required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--shots", type=int, default=None,
                         help="add a Monte-Carlo estimate per row")
    p_sweep.add_argument("--seed", type=uint64, default=0, help="64-bit master seed (default 0)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")

    p_run = sub.add_parser("run", help="one Monte-Carlo session, JSON record")
    p_run.add_argument("--analyzer", choices=kinds, required=True)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--shots", type=int, required=True)
    p_run.add_argument("--seed", type=uint64, default=0)
    p_run.add_argument("--message", default="uniform",
                       help="fixed two-bit message or 'uniform' (default)")
    p_run.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="minimal N and resources per analyzer for a target R")
    p_cmp.add_argument("--target-r", type=float, required=True)
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.add_argument("--out", default=None)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--inject-fault", choices=("k-sign",), default=None,
                        help="corrupt a cycle-operator sign to prove the suite catches it")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            if not 1 <= args.n_min <= args.n_max <= metrics.MAX_CURVE_CYCLES:
                parser.error(f"need 1 <= --n-min <= --n-max <= {metrics.MAX_CURVE_CYCLES}")
            if args.shots is not None and args.shots < 1:
                parser.error("--shots must be >= 1")
            return cmd_sweep(_parse_analyzers(args.analyzer), args.n_min, args.n_max,
                             args.shots, args.seed, args.format, args.out)
        if args.command == "run":
            if args.message != "uniform" and args.message not in protocol.MESSAGES:
                parser.error("--message must be 00, 01, 10, 11, or uniform")
            if not 1 <= args.n <= metrics.MAX_CURVE_CYCLES or args.shots < 1:
                parser.error(f"need 1 <= --n <= {metrics.MAX_CURVE_CYCLES} and --shots >= 1")
            return cmd_run(AnalyzerKind(args.analyzer), args.n, args.shots, args.seed,
                           args.message, args.out)
        if args.command == "compare":
            if not 0.0 < args.target_r < 2.0:
                parser.error("--target-r must lie strictly between 0 and 2")
            return cmd_compare(args.target_r, args.format, args.out)
        # The subcommand is required, so the only one left is selftest. Its
        # analytic-vs-mc check reads SDC_THREADS: a bad value is a usage
        # error, not a failed check.
        protocol._resolve_threads(None)
        return run_selftest(args.inject_fault)
    except OSError as exc:
        print(f"zenodense: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad SDC_THREADS and similar environment-level argument problems
        print(f"zenodense: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
