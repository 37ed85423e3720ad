"""Per-layer metrics of the traced run.

`instrument` wraps module attributes at the layer boundaries, as the calling
layer looks them up: `protocol.simulate` and `metrics.r_analytic` as `cli`
sees them, the RNG, survival, analysis and decode functions as `protocol`
sees them, and the oracle and self-test entry points the benchmark calls.
No file of the program changes. `pass_metrics` turns one traced pass's
spans into the per-layer figures.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from zenodense import analyzers, cli, ifm, metrics, protocol, zeno
from zenodense.core import DRAWS_PER_SHOT

import spans as sp
from stages import LAYERS, NPROC, ORACLES, PassResult


def _arg(index: int, key: str):
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[key]


def instrument(tracer: sp.Tracer):
    """Install the wrappers; returns the function that removes them."""
    boundaries = (
        (cli, "main", "cli.main", None),
        (cli, "run_selftest", "cli.selftest", None),
        (protocol, "simulate", "protocol.simulate", _arg(2, "shots")),
        (metrics, "r_analytic", "metrics.r_analytic", None),
        (metrics, "min_n_for_target", "metrics.min_n_for_target", None),
        (protocol, "shot_uniforms", "core.shot_uniforms", _arg(2, "n_shots")),
        (protocol, "shot_stream", "core.shot_stream", None),
        (protocol, "survival_probability", "analyzers.survival_probability", None),
        (protocol, "analyze", "analyzers.analyze", None),
        (protocol, "decode", "protocol.decode", None),
        (protocol, "run_protocol", "protocol.run_protocol", None),
        (zeno, "dqz_element_sim", "zeno.dqz_element_sim", _arg(1, "n_cycles")),
        (analyzers, "ifm_stage1_evolve", "analyzers.ifm_stage1_evolve", _arg(1, "n_cycles")),
        (zeno, "qz_gate", "zeno.qz_gate", _arg(1, "n_cycles")),
        (ifm, "ifm_joint_amplitudes", "ifm.ifm_joint_amplitudes", _arg(0, "n_cycles")),
        (ifm, "blocked_survival_sim", "ifm.blocked_survival_sim", _arg(0, "n_cycles")),
        (zeno, "dqz_apply", "zeno.dqz_apply", _arg(1, "n_cycles")),
    )
    undo = [sp.wrap(tracer, module, attr, name, work) for module, attr, name, work in boundaries]

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


def pair_cache_counts() -> tuple[int, int]:
    info = analyzers._dqz_pair_from_channel.cache_info()
    return info.hits, info.misses


def sweep_row_ms(spans, result: PassResult) -> list[float]:
    """Per-row times of the Monte-Carlo sweep: from one row's r_analytic call
    to the next one's, and for the last row to the end of its simulate call."""
    start, end = result.stages["sweep"].start, result.stages["sweep"].end
    mains = [s for s in spans if s.name == "cli.main" and start <= s.start <= end]
    kids = sp.children_of(spans)
    rows = []
    for main in mains:
        children = sorted(kids.get(main.span_id, ()), key=lambda s: s.start)
        row_starts = [c.start for c in children if c.name == "metrics.r_analytic"]
        last_end = max(c.end for c in children)
        edges = row_starts + [last_end]
        rows.extend(1e3 * (b - a) for a, b in zip(edges, edges[1:]))
    return rows


def pass_metrics(spans, result: PassResult, cache_delta: tuple[int, int],
                 csv_bytes: int) -> dict[str, float]:
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    kids = sp.children_of(spans)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def work(name):
        return sum(s.work for s in by_name[name])

    def within(stage, name):
        start, end = result.stages[stage].start, result.stages[stage].end
        return [s for s in by_name[name] if start <= s.start <= end]

    m = {}
    shots = work("core.shot_uniforms")
    m["core.shot_uniforms.calls"] = calls("core.shot_uniforms")
    m["core.shot_uniforms.busy_s"] = busy("core.shot_uniforms")
    m["core.shot_uniforms.ns_per_shot"] = 1e9 * busy("core.shot_uniforms") / shots
    m["core.words_drawn"] = DRAWS_PER_SHOT * shots
    m["core.bytes_computed"] = 8 * DRAWS_PER_SHOT * shots  # 64-bit Philox words
    m["core.shot_stream.calls"] = calls("core.shot_stream")
    m["core.shot_stream.busy_s"] = busy("core.shot_stream")

    sims = by_name["protocol.simulate"]
    m["protocol.simulate.calls"] = len(sims)
    m["protocol.simulate.busy_s"] = busy("protocol.simulate")
    m["protocol.simulate.self_s"] = sum(sp.self_time(s, kids) for s in sims)
    m["protocol.simulate.setup_us"] = 1e6 * statistics.median(
        min(c.start for c in kids[s.span_id] if c.name == "core.shot_uniforms") - s.start
        for s in sims)

    serial = within("mc", "protocol.simulate")
    threaded = within("mc.threaded", "protocol.simulate")
    chunks = [[c for c in kids[s.span_id] if c.name == "core.shot_uniforms"] for s in threaded]
    chunk_busy = sum(c.duration for group in chunks for c in group)
    chunk_covered = sum(sp.covered([(c.start, c.end) for c in group]) for group in chunks)
    m["protocol.fanout.threads"] = NPROC
    m["protocol.fanout.chunks"] = sum(len(group) for group in chunks)
    m["protocol.fanout.overlap"] = chunk_busy / chunk_covered
    m["protocol.fanout.efficiency"] = (sum(s.duration for s in serial)
                                       / (NPROC * sum(s.duration for s in threaded)))

    m["protocol.run_protocol.calls"] = calls("protocol.run_protocol")
    m["protocol.run_protocol.us_per_shot"] = (1e6 * busy("protocol.run_protocol")
                                              / calls("protocol.run_protocol"))
    m["protocol.decode.calls"] = calls("protocol.decode")

    for name in ("analyzers.survival_probability", "analyzers.analyze"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    hits, misses = cache_delta
    m["analyzers.pair_cache.hit_ratio"] = hits / (hits + misses)

    for name in ORACLES:
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.cycles_per_s"] = work(name) / busy(name)
    m["zeno.dqz_apply.us_per_call"] = 1e6 * busy("zeno.dqz_apply") / calls("zeno.dqz_apply")

    m["metrics.r_analytic.calls"] = calls("metrics.r_analytic")
    m["metrics.r_analytic.us_per_call"] = (1e6 * busy("metrics.r_analytic")
                                           / calls("metrics.r_analytic"))
    m["metrics.min_n_for_target.us_per_call"] = (1e6 * busy("metrics.min_n_for_target")
                                                 / calls("metrics.min_n_for_target"))

    mains = by_name["cli.main"]
    m["cli.sweep.rows"] = sum(1 for s in by_name["metrics.r_analytic"]
                              if s.parent_id in {main.span_id for main in mains})
    m["cli.sweep.bytes_written"] = csv_bytes
    m["cli.sweep.self_s"] = sum(sp.self_time(s, kids) for s in mains)
    m["cli.selftest.busy_s"] = busy("cli.selftest")

    # Calibration between steps is the benchmark's own time: compare the
    # root spans with the steps' time alone.
    roots = [(s.start, s.end) for s in spans if s.parent_id is None]
    m["trace.coverage_frac"] = sp.covered(roots) / result.wall_s(scaled=False)
    return m


def per_layer(traced: list[dict], row_ms: list[float], overhead: float,
              failed: dict[str, int]) -> dict[str, float]:
    """Median of each figure over the traced passes, plus the pooled row tail."""
    out = {name: statistics.median(p[name] for p in traced) for name in traced[0]}
    out["cli.sweep.row_ms.p50"] = statistics.median(row_ms)
    pct, value, count = sp.tail_percentile(row_ms)  # every workload sweeps >= 1,200 rows
    out["cli.sweep.row_ms.tail"] = value
    out["cli.sweep.row_ms.tail_pct"] = pct
    out["cli.sweep.row_ms.samples"] = count
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed[layer]
    out["trace_overhead_frac"] = overhead
    return out
