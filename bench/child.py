"""One workload in its own process: the passes, their checks and the figures.

Run by run.py as `python3 bench/child.py <root> <workload> <seed> <seconds> <trace>`;
prints one JSON object as its last line. Lives in its own process so that its
peak RSS belongs to this workload alone.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time


def main(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import layers
    import machine
    import spans
    import stages

    sizes = stages.WORKLOADS[workload]
    inputs = stages.make_inputs(seed)
    checks = stages.Checks()
    workdir = os.path.join(root, ".bench_out", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # The first pass fills caches and finishes lazy set-up; it is checked
        # in full and not timed. Later passes must repeat its outputs exactly.
        first = stages.run_pass(sizes, inputs, workdir)
        stages.check_first_pass(sizes, inputs, first, checks)

        untraced, traced, row_ms, last_spans = [], [], [], []
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or not untraced or (trace and not traced):
            tracing = trace and index % 2 == 1
            index += 1
            if not tracing:
                result = stages.run_pass(sizes, inputs, workdir)
                untraced.append(result)
            else:
                tracer = spans.Tracer()
                hits, misses = layers.pair_cache_counts()
                uninstall = layers.instrument(tracer)
                try:
                    result = stages.run_pass(sizes, inputs, workdir)
                finally:
                    uninstall()
                after = layers.pair_cache_counts()
                last_spans = tracer.take()
                csv_bytes = len(result.outputs["sweep"]) + len(result.outputs["curve"])
                traced.append((result, layers.pass_metrics(
                    last_spans, result, (after[0] - hits, after[1] - misses), csv_bytes)))
                row_ms.extend(layers.sweep_row_ms(last_spans, result))
            stages.check_repeat(first, result, checks)

        fingerprint = stages.check_fingerprint(workload, seed, inputs, first, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "attempted": checks.attempted,
        "failed": checks.total_failed,
        "notes": checks.notes,
        "passes": len(untraced) + len(traced),
        "fingerprint": fingerprint,
        "machine": machine.record(root, numpy.__version__, stages.NPROC),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        overhead = (statistics.median(r.wall_s() for r, _ in traced)
                    / statistics.median(r.wall_s() for r in untraced) - 1.0)
        out["metrics"] = layers.per_layer([m for _, m in traced], row_ms, overhead, checks.failed)
        out["spans_file"] = os.path.join(".bench_out", f"spans-{workload}-seed{seed}.jsonl")
        with open(os.path.join(root, out["spans_file"]), "w") as fh:
            for span in last_spans:  # the last traced pass
                fh.write(json.dumps(span._asdict()) + "\n")
    else:
        for key, scaled in (("metrics", True), ("raw", False)):
            out[key] = stages.end_to_end(sizes, untraced, scaled)
            out[f"per_pass_{key}"] = [stages.end_to_end(sizes, [r], scaled) for r in untraced]
    return out


if __name__ == "__main__":
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(root, "src"))
    result = main(root, sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1")
    print(json.dumps(result))
