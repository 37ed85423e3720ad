"""Command-line front end: parameter sweeps, Monte-Carlo runs, analyzer comparison, self-test.

Subcommands:
    sweep    analytic (and optionally Monte-Carlo) throughput per cycle count
             (N <= 10^6), CSV/JSON
    run      one Monte-Carlo session, JSON record on stdout
    compare  minimal cycle counts and resource needs to hit a target throughput
    selftest run the invariant suite; exit 0 iff everything passes

Exit codes: 0 success, 1 self-test failure, 2 argument error, 3 I/O error.
All randomness flows from --seed; SDC_THREADS (positive integer, capped at
the CPU count) sets shot parallelism without changing a single drawn number.
CSV uses the fixed header N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high
with at least six significant digits and bare \n newlines.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import metrics, protocol
from .analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    click_pair,
    qz_is_degenerate,
    survival_probability,
)
from .optics import beam_splitter, polarization_rotator, pbs_route
from .zeno import dqz_cycle_channel, post_gate_target

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_HEADER = ["N", "analyzer", "R_analytic", "R_mc", "mc_shots", "ci95_low", "ci95_high"]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


@dataclass
class RunConfig:
    analyzers: list[AnalyzerKind]
    n_min: int
    n_max: int
    shots: int | None
    seed: int
    fmt: str
    out: str | None


def _parse_analyzers(name: str) -> list[AnalyzerKind]:
    if name == "all":
        return list(AnalyzerKind)
    return [AnalyzerKind(name)]


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _warn_degenerate(rows) -> None:
    if any(kind is AnalyzerKind.QZ and qz_is_degenerate(n) for kind, n in rows):
        print("note: qz at N=1 is degenerate (sin(pi) = 0 makes the survival formula vacuous)",
              file=sys.stderr)


def _sweep_stream_tag(analyzer: AnalyzerKind, n_cycles: int) -> int:
    # One RNG stream per sweep row, all derived from the single --seed.
    return tuple(AnalyzerKind).index(analyzer) * (1 << 32) + n_cycles


def cmd_sweep(config: RunConfig) -> int:
    rows = [(kind, n) for kind in config.analyzers
            for n in range(config.n_min, config.n_max + 1)]
    _warn_degenerate(rows)
    records = []
    for kind, n in rows:
        record = {
            "n": n,
            "analyzer": kind.value,
            "r_analytic": metrics.r_analytic(kind, n),
            "r_mc": None,
            "mc_shots": None,
            "ci95_low": None,
            "ci95_high": None,
        }
        if config.shots:
            estimate = protocol.simulate(kind, n, config.shots, config.seed,
                                         stream_tag=_sweep_stream_tag(kind, n))
            record.update(r_mc=estimate.r_hat, mc_shots=config.shots,
                          ci95_low=estimate.ci95[0], ci95_high=estimate.ci95[1])
        records.append(record)

    stream, owned = _open_out(config.out)
    try:
        if config.fmt == "json":
            json.dump(records, stream, indent=2)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow([
                    rec["n"], rec["analyzer"], _fmt(rec["r_analytic"]),
                    "" if rec["r_mc"] is None else _fmt(rec["r_mc"]),
                    "" if rec["mc_shots"] is None else rec["mc_shots"],
                    "" if rec["ci95_low"] is None else _fmt(rec["ci95_low"]),
                    "" if rec["ci95_high"] is None else _fmt(rec["ci95_high"]),
                ])
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_run(analyzer: AnalyzerKind, n_cycles: int, shots: int, seed: int,
            message: str, out: str | None) -> int:
    _warn_degenerate([(analyzer, n_cycles)])
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
    stream, owned = _open_out(out)
    try:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    finally:
        if owned:
            stream.close()
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
    stream, owned = _open_out(out)
    try:
        if fmt == "json":
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["analyzer", "min_n", "beamsplitters", "ancilla"])
            for row in rows:
                writer.writerow([row["analyzer"], row["min_n"], row["beamsplitters"],
                                 "yes" if row["ancilla"] else "no"])
    finally:
        if owned:
            stream.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-test


def _check_operator_orthogonality(channels) -> str | None:
    for theta in np.linspace(0.05, np.pi / 2, 24):
        for op in (beam_splitter(theta), polarization_rotator("H", theta),
                   polarization_rotator("V", theta)):
            defect = np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.dim)))
            if defect >= 1e-12:
                return f"optical operator defect {defect:.3e} at theta={theta:.4f}"
    for axis in ("H", "V"):
        op = pbs_route(axis)
        if np.max(np.abs(op.matrix @ op.matrix - np.eye(4))) >= 1e-12:
            return f"PBS {axis} is not an involution"
    for (branch, n), k in channels.items():
        defect = np.max(np.abs(k.T @ k - np.eye(4)))
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
    from .analyzers import DetectorPair
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
        detail = check()
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenodense",
        description="Superdense-coding throughput simulator (dual-Zeno, IFM, and QZ Bell analyzers)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="throughput as a function of the cycle count")
    kinds = tuple(kind.value for kind in AnalyzerKind)
    p_sweep.add_argument("--analyzer", choices=kinds + ("all",), required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--shots", type=int, default=None,
                         help="add a Monte-Carlo estimate per row")
    add_common(p_sweep)

    p_run = sub.add_parser("run", help="one Monte-Carlo session, JSON record")
    p_run.add_argument("--analyzer", choices=kinds, required=True)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--shots", type=int, required=True)
    p_run.add_argument("--seed", type=int, default=0)
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
            if not 0 <= args.seed < 2**64:
                parser.error("--seed must be a 64-bit unsigned integer")
            config = RunConfig(_parse_analyzers(args.analyzer), args.n_min, args.n_max,
                               args.shots, args.seed, args.format, args.out)
            return cmd_sweep(config)
        if args.command == "run":
            if args.message != "uniform" and args.message not in protocol.MESSAGES:
                parser.error("--message must be 00, 01, 10, 11, or uniform")
            if args.n < 1 or args.shots < 1:
                parser.error("need --n >= 1 and --shots >= 1")
            if not 0 <= args.seed < 2**64:
                parser.error("--seed must be a 64-bit unsigned integer")
            return cmd_run(AnalyzerKind(args.analyzer), args.n, args.shots, args.seed,
                           args.message, args.out)
        if args.command == "compare":
            if not 0.0 < args.target_r < 2.0:
                parser.error("--target-r must lie strictly between 0 and 2")
            return cmd_compare(args.target_r, args.format, args.out)
        if args.command == "selftest":
            return run_selftest(args.inject_fault)
        parser.error(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"zenodense: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad SDC_THREADS and similar environment-level argument problems
        print(f"zenodense: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
