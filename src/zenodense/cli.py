"""Command-line front end: parameter sweeps, Monte-Carlo runs, analyzer comparison, self-test.

Subcommands:
    sweep    analytic (and optionally Monte-Carlo) throughput per cycle count
             (N <= 10^6), CSV/JSON
    run      one Monte-Carlo session, JSON record on stdout
    compare  minimal cycle counts and resource needs to hit a target throughput
    selftest run the invariant suite; exit 0 iff everything passes

Exit codes: 0 success, 1 self-test failure, 2 argument error, 3 I/O error.
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
import itertools
import json
import os
import sys
import time
import traceback

import numpy as np

from . import metrics, protocol
from .analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    DetectorPair,
    click_pair,
    qz_is_degenerate,
    survival_probability,
)
from .core import unitarity_defect
from .optics import beam_splitter, polarization_rotator, pbs_route
from .zeno import dqz_cycle_channel, post_gate_target

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
        if fmt == "csv":
            stream.write(",".join(CSV_HEADER) + "\n")
        separator = "[\n"
        for kind, ns, r_values, estimates in blocks:
            name, rows = kind.value, zip(ns, r_values, estimates)
            if fmt == "csv":
                stream.write("".join([
                    f"{n},{name},{r:.9g},,,,\n" if e is None else
                    f"{n},{name},{r:.9g},{e.r_hat:.9g},{shots},{e.ci95[0]:.9g},{e.ci95[1]:.9g}\n"
                    for n, r, e in rows]))
                continue
            for n, r, e in rows:
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


def _check_operator_orthogonality(channels) -> str | None:
    for theta in np.linspace(0.05, np.pi / 2, 24):
        for op in (beam_splitter(theta), polarization_rotator("H", theta),
                   polarization_rotator("V", theta)):
            defect = unitarity_defect(op.matrix)
            if defect >= 1e-12:
                return f"optical operator defect {defect:.3e} at theta={theta:.4f}"
    for axis in ("H", "V"):
        op = pbs_route(axis)
        if np.max(np.abs(op.matrix @ op.matrix - np.eye(4))) >= 1e-12:
            return f"PBS {axis} is not an involution"
    for (branch, n), k in channels.items():
        defect = unitarity_defect(k)
        if defect >= 1e-12:
            return f"cycle operator branch={branch} N={n}: defect {defect:.3e}"
    return None


def _check_channel_trace(channels) -> str | None:
    for bell in ALL_BELL_STATES:
        amps = bell.ket().amplitudes
        rho = np.outer(amps, amps.conj())
        for (branch, n), k in channels.items():
            if branch != bell.branch_index:
                continue
            p = survival_probability(AnalyzerKind.DQZ, bell, n)
            kn = np.linalg.matrix_power(k, n)
            total = p * np.trace(kn @ rho @ kn.T).real + (1.0 - p)
            if abs(total - 1.0) > 1e-10:
                return f"{bell.symbol} N={n}: total weight {total!r}"
    return None


def _check_bell_targets(channels) -> str | None:
    for bell in ALL_BELL_STATES:
        target = post_gate_target(bell).amplitudes
        amps = bell.ket().amplitudes
        rho = np.outer(amps, amps.conj())
        for (branch, n), k in channels.items():
            if branch != bell.branch_index:
                continue
            kn = np.linalg.matrix_power(k, n)
            conditional = kn @ rho @ kn.T
            trace = float(np.trace(conditional).real)
            if trace <= 0:
                return f"{bell.symbol} N={n}: non-positive conditional trace"
            fidelity = float(np.real(target.conj() @ conditional @ target)) / trace
            if abs(fidelity - 1.0) > 1e-10:
                return f"{bell.symbol} N={n}: target fidelity {fidelity!r}"
    return None


def _check_analytic_vs_mc() -> str | None:
    shots = 100_000
    for kind in AnalyzerKind:
        expected = metrics.r_analytic(kind, 12)
        estimate = protocol.simulate(kind, 12, shots, master_seed=42)
        sigma = np.sqrt(max(expected * (2.0 - expected), 1e-12) / shots)
        if abs(estimate.r_hat - expected) > 4.0 * sigma:
            return (f"{kind.value} N=12: r_hat {estimate.r_hat:.6f} vs analytic "
                    f"{expected:.6f} exceeds 4 sigma")
    return None


def _check_golden_decode() -> str | None:
    golden = {
        ("D1", "D3"): ("Phi-", "10"), ("D2", "D3"): ("Phi+", "00"),
        ("D1", "D4"): ("Psi-", "11"), ("D2", "D4"): ("Psi+", "01"),
        ("D2", "D6"): ("Phi-", "10"), ("D1", "D6"): ("Phi+", "00"),
        ("D2", "D5"): ("Psi-", "11"), ("D1", "D5"): ("Psi+", "01"),
    }
    for (e_det, p_det), (symbol, message) in golden.items():
        bell, decoded = protocol.decode(DetectorPair(e_det, p_det))
        if bell.symbol != symbol or decoded != message:
            return f"{e_det}*{p_det} decoded to ({bell.symbol}, {decoded}), expected ({symbol}, {message})"
    return None


def _check_golden_thresholds() -> str | None:
    expected = {AnalyzerKind.QZ: (71, 71, True), AnalyzerKind.IFM: (24, 96, False),
                AnalyzerKind.DQZ: (12, 24, False)}
    for kind, (min_n, splitters, ancilla) in expected.items():
        got_n = metrics.min_n_for_target(kind, 1.8)
        got_res = metrics.resource_counts(kind, got_n)
        if got_n != min_n or got_res != (splitters, ancilla):
            return f"{kind.value}: got N={got_n}, resources={got_res}"
    if metrics.min_n_for_target(AnalyzerKind.DQZ, metrics.EXPERIMENTAL_BENCHMARK_R) != 7:
        return "dqz does not cross the experimental benchmark at N=7"
    return None


def _check_decode_roundtrip() -> str | None:
    for kind in AnalyzerKind:
        for message in protocol.MESSAGES:
            bell = protocol.encode(message)
            for m in (0, 1):
                pair = click_pair(kind, bell, m)
                decoded_bell, decoded = protocol.decode(pair, kind)
                if decoded != message or decoded_bell is not bell:
                    return f"{kind.value} m={m}: {message} -> {pair} -> {decoded}"
    return None


def run_selftest(inject_fault: str | None = None) -> int:
    """Run the invariant suite; returns the process exit code."""
    channels = {}
    for branch in (0, 1):
        for n in (1, 2, 3, 7, 12, 24, 64):
            channels[(branch, n)] = np.array(dqz_cycle_channel(branch, n).operator)
    if inject_fault == "k-sign":
        for k in channels.values():
            k[2, 3] *= -1.0  # corrupt the rotation sign pattern

    checks = [
        ("operator-orthogonality", lambda: _check_operator_orthogonality(channels)),
        ("channel-trace-preservation", lambda: _check_channel_trace(channels)),
        ("bell-target-fidelity", lambda: _check_bell_targets(channels)),
        ("analytic-vs-mc", _check_analytic_vs_mc),
        ("golden-decode-table", _check_golden_decode),
        ("golden-thresholds", _check_golden_thresholds),
        ("decode-roundtrip", _check_decode_roundtrip),
    ]
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
            if args.n < 1 or args.shots < 1:
                parser.error("need --n >= 1 and --shots >= 1")
            return cmd_run(AnalyzerKind(args.analyzer), args.n, args.shots, args.seed,
                           args.message, args.out)
        if args.command == "compare":
            if not 0.0 < args.target_r < 2.0:
                parser.error("--target-r must lie strictly between 0 and 2")
            return cmd_compare(args.target_r, args.format, args.out)
        # The subcommand is required, so the only one left is selftest.
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
