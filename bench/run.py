"""zenodense benchmark: one workload, one closed-loop client, every output checked.

    python3 bench/run.py --workload mc-session --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's `src/`; nothing is installed. Set-up is measured in fresh
interpreters (bench/first_result.py), the workload in one child process
(bench/child.py). With --trace 0 the result carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. The last line of
standard output is the result as one JSON object; the full record, with the
machine and every pass, goes to .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-session", "sweep-grid", "reference-paths")
DEFAULT_SEED = 1
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

# (name, unit, which direction is better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("mc_shots_per_s", "shots/s", "higher"),
    ("mc_shots_per_s.threaded", "shots/s", "higher"),
    ("sweep_rows_per_s", "rows/s", "higher"),
    ("curve_rows_per_s", "rows/s", "higher"),
    ("protocol_shots_per_s", "shots/s", "higher"),
    ("oracle_cycles_per_s", "cycles/s", "higher"),
    ("selftest_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("core.shot_uniforms.calls", "count", "lower"),
    ("core.shot_uniforms.busy_s", "s", "lower"),
    ("core.shot_uniforms.ns_per_shot", "ns", "lower"),
    ("core.words_drawn", "count", "lower"),
    ("core.bytes_computed", "B", "lower"),
    ("core.shot_stream.calls", "count", "lower"),
    ("core.shot_stream.busy_s", "s", "lower"),
    ("protocol.simulate.calls", "count", "lower"),
    ("protocol.simulate.busy_s", "s", "lower"),
    ("protocol.simulate.self_s", "s", "lower"),
    ("protocol.simulate.setup_us", "us", "lower"),
    ("protocol.fanout.threads", "count", "higher"),
    ("protocol.fanout.chunks", "count", "lower"),
    ("protocol.fanout.overlap", "ratio", "higher"),
    ("protocol.fanout.efficiency", "ratio", "higher"),
    ("protocol.run_protocol.calls", "count", "lower"),
    ("protocol.run_protocol.us_per_shot", "us", "lower"),
    ("protocol.decode.calls", "count", "lower"),
    ("analyzers.survival_probability.calls", "count", "lower"),
    ("analyzers.survival_probability.busy_s", "s", "lower"),
    ("analyzers.analyze.calls", "count", "lower"),
    ("analyzers.analyze.busy_s", "s", "lower"),
    ("analyzers.pair_cache.hit_ratio", "ratio", "higher"),
    ("analyzers.ifm_stage1_evolve.busy_s", "s", "lower"),
    ("analyzers.ifm_stage1_evolve.cycles_per_s", "cycles/s", "higher"),
    ("zeno.dqz_element_sim.busy_s", "s", "lower"),
    ("zeno.dqz_element_sim.cycles_per_s", "cycles/s", "higher"),
    ("zeno.qz_gate.busy_s", "s", "lower"),
    ("zeno.qz_gate.cycles_per_s", "cycles/s", "higher"),
    ("ifm.ifm_joint_amplitudes.busy_s", "s", "lower"),
    ("ifm.ifm_joint_amplitudes.cycles_per_s", "cycles/s", "higher"),
    ("ifm.blocked_survival_sim.busy_s", "s", "lower"),
    ("ifm.blocked_survival_sim.cycles_per_s", "cycles/s", "higher"),
    ("zeno.dqz_apply.us_per_call", "us", "lower"),
    ("metrics.r_analytic.calls", "count", "lower"),
    ("metrics.r_analytic.us_per_call", "us", "lower"),
    ("metrics.min_n_for_target.us_per_call", "us", "lower"),
    ("cli.sweep.rows", "count", "lower"),
    ("cli.sweep.bytes_written", "B", "lower"),
    ("cli.sweep.self_s", "s", "lower"),
    ("cli.sweep.row_ms.p50", "ms", "lower"),
    ("cli.sweep.row_ms.tail", "ms", "lower"),
    ("cli.sweep.row_ms.tail_pct", "%", "higher"),
    ("cli.sweep.row_ms.samples", "count", "higher"),
    ("cli.selftest.busy_s", "s", "lower"),
    ("core.failed", "count", "lower"),
    ("optics.failed", "count", "lower"),
    ("bell.failed", "count", "lower"),
    ("ifm.failed", "count", "lower"),
    ("zeno.failed", "count", "lower"),
    ("analyzers.failed", "count", "lower"),
    ("protocol.failed", "count", "lower"),
    ("metrics.failed", "count", "lower"),
    ("cli.failed", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SDC_THREADS", None)  # the 1-thread stages measure the default
    return env


def _run(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=timeout, env=_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to first result, once per probe.

    Not scaled by calibrate.py: start-up reads files and maps libraries, and
    the interpreter-bound kernel was found to track it worse than no scaling.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = float(_run([os.path.join(HERE, "first_result.py"), ROOT, workload, str(seed)], 60))
        times.append(done - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "zenodense", "__init__.py")):
        print(f"bench: no zenodense sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        child = json.loads(_run([os.path.join(HERE, "child.py"), ROOT, args.workload,
                                 str(args.seed), str(args.seconds), str(args.trace)],
                                CHILD_TIMEOUT_S))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    values = dict(child["metrics"])
    if args.trace:
        catalog = PER_LAYER
    else:
        catalog = END_TO_END
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = child["peak_rss_mb"]
        child["raw"].update(setup_s=values["setup_s"], peak_rss_mb=child["peak_rss_mb"])
    missing = {name for name, _, _ in catalog} ^ set(values)
    if missing:
        print(f"bench: metric set mismatch: {sorted(missing)}", file=sys.stderr)
        return 1

    attempted, failed = child["attempted"], child["failed"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_probes_s": setup, **child}
    record["metrics"] = values
    path = os.path.join(ROOT, ".bench_out",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine {json.dumps(child['machine'])}")
    print(f"workload {args.workload}  seed {args.seed}  passes {child['passes']}  "
          f"fingerprint {child['fingerprint']}  record {os.path.relpath(path, ROOT)}")
    raw = child.get("raw", {})
    for name, unit, _ in catalog:
        wall_clock = f"   (wall clock {raw[name]!r})" if name in raw else ""
        print(f"  {name:<44} {values[name]!r:>24} {unit}{wall_clock}")
    print(f"  {'fail_frac':<44} {failed / attempted!r:>24} ratio  ({failed} of {attempted} checks)")
    for note in child["notes"]:
        print(f"  FAILED {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in catalog},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
