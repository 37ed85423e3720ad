"""Tests of the benchmark harness itself: percentile, span and self-time
arithmetic, the bit-identity fingerprint, and BENCHMARK.json agreeing with
the metrics the harness prints."""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stages  # noqa: E402
from spans import Span  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [(1000, 99.0), (10_010, 99.9), (200, 95.0),
                                        (100, 90.0), (40, 75.0), (20, 50.0)])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        got_pct, value, count = spans.tail_percentile(range(1, n + 1))
        assert (got_pct, count) == (pct, n)
        assert sum(1 for x in range(1, n + 1) if x > value) >= 10

    def test_too_few_samples(self):
        assert spans.tail_percentile(range(19)) is None

    def test_value_is_nearest_rank(self):
        assert spans.tail_percentile(range(1, 1001))[1] == 990


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert spans.covered([(1, 4), (3, 6), (8, 9)]) == 6
        assert spans.covered([(1, 4), (3, 6), (8, 12)], 2, 10) == 6
        assert spans.covered([]) == 0

    def test_synthetic_nested_spans(self):
        # A 10 s parent; two children from pool workers overlap each other
        # from 3 to 4; a grandchild must not count against the parent.
        tree = [
            Span(1, None, 1, "protocol.simulate", 0.0, 10.0, 0),
            Span(2, 1, 1, "core.shot_uniforms", 1.0, 4.0, 0),
            Span(3, 1, 1, "core.shot_uniforms", 3.0, 6.0, 0),
            Span(4, 1, 1, "protocol.decode", 8.0, 9.0, 0),
            Span(5, 2, 1, "inner", 1.5, 2.0, 0),
        ]
        kids = spans.children_of(tree)
        assert spans.self_time(tree[0], kids) == pytest.approx(4.0)
        assert spans.self_time(tree[1], kids) == pytest.approx(2.5)
        assert spans.self_time(tree[4], kids) == pytest.approx(0.5)

    def test_worker_thread_spans_attach_to_the_client_span(self):
        tracer = spans.Tracer()
        release = threading.Barrier(2, timeout=10)

        def chunk(i):
            release.wait()  # both workers inside their spans at once
            return i

        def fan_out():
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(tracer.call, "chunk", chunk, i) for i in range(2)]
                return [f.result(timeout=10) for f in futures]

        assert tracer.call("parent", fan_out) == [0, 1]
        tracer.call("other", lambda: None)
        recorded = tracer.take()
        assert tracer.take() == []
        (parent,) = [s for s in recorded if s.name == "parent"]
        (other,) = [s for s in recorded if s.name == "other"]
        chunks = [s for s in recorded if s.name == "chunk"]
        assert len(chunks) == 2
        assert parent.parent_id is None and other.parent_id is None
        assert other.op_id != parent.op_id
        assert all(c.parent_id == parent.span_id and c.op_id == parent.op_id for c in chunks)
        # The two chunks overlap in time, so the covered part is less than their sum.
        kids = spans.children_of(recorded)
        overlap = spans.covered([(c.start, c.end) for c in chunks])
        assert overlap < sum(c.duration for c in chunks)
        assert spans.self_time(parent, kids) == pytest.approx(parent.duration - overlap)

    def test_instrument_restores_every_attribute(self):
        from zenodense import cli, metrics, protocol
        before = (protocol.simulate, protocol.shot_uniforms, metrics.r_analytic, cli.main)
        tracer = spans.Tracer()
        uninstall = layers.instrument(tracer)
        try:
            assert protocol.simulate is not before[0]
            protocol.simulate(stages.AnalyzerKind.DQZ, 12, 70_000, 3, threads=1)
        finally:
            uninstall()
        assert (protocol.simulate, protocol.shot_uniforms, metrics.r_analytic, cli.main) == before
        recorded = tracer.take()
        sim = [s for s in recorded if s.name == "protocol.simulate"]
        draws = [s for s in recorded if s.name == "core.shot_uniforms"]
        assert len(sim) == 1 and sim[0].work == 70_000
        assert sorted(s.work for s in draws) == [4_464, 65_536]
        assert all(s.parent_id == sim[0].span_id for s in draws)


class TestChecks:
    def test_binomial_edges(self):
        assert stages.binomial_consistent(1000, 1000, 1.0, 1)
        assert not stages.binomial_consistent(999, 1000, 1.0, 1)
        assert stages.binomial_consistent(0, 1000, 0.0, 1)
        assert stages.binomial_consistent(5000, 10_000, 0.5, 1)
        assert not stages.binomial_consistent(5400, 10_000, 0.5, 1)

    def test_false_alarm_budget_widens_with_the_number_of_checks(self):
        # 6 sigma at p = 1/2 over 10^4 trials: an alarm for one check, but
        # not for one of 10^4 checks.
        assert not stages.binomial_consistent(5300, 10_000, 0.5, 1)
        assert stages.binomial_consistent(5300, 10_000, 0.5, 10_000)

    @pytest.fixture
    def sweep_csv(self, tmp_path):
        from zenodense import cli
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--analyzer=all", "--n-min=2", "--n-max=6",
                         "--shots=2000", "--seed=5", "--out", str(out)]) == 0
        return out.read_bytes()

    def _failures(self, data):
        checks = stages.Checks()
        stages._check_csv(data, 6, 2, 2000, 15, checks)
        assert checks.attempted > 0
        return checks.total_failed

    def test_csv_check_passes_and_can_fail(self, sweep_csv):
        assert self._failures(sweep_csv) == 0
        header, first, rest = sweep_csv.split(b"\n", 2)
        fields = first.split(b",")
        wrong_r = b",".join(fields[:2] + [b"1.5"] + fields[3:])
        assert self._failures(b"\n".join([header, wrong_r, rest])) == 1
        assert self._failures(b"\n".join([header, rest])) == 1
        assert self._failures(b"\n".join([header.lower(), first, rest])) == 1

    def test_calibration_factor(self):
        fast = {"numpy": calibrate.REF["numpy"] / 2, "python": calibrate.REF["python"] / 2}
        assert calibrate.factor(fast, fast, "numpy") == pytest.approx(2.0)
        assert calibrate.factor(fast, fast, "mixed") == pytest.approx(2.0)


class TestFingerprint:
    def test_identical_at_one_and_many_threads(self):
        threads = max(2, stages.NPROC)
        assert stages.grid_fingerprint(7, 1) == stages.grid_fingerprint(7, threads)

    def test_seed_changes_the_fingerprint(self):
        assert stages.grid_fingerprint(7, 1) != stages.grid_fingerprint(8, 1)


class TestBenchmarkJson:
    def test_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert list(run.WORKLOADS) == list(stages.WORKLOADS)
        assert run.DEFAULT_SEED == stages.DEFAULT_SEED
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert spec["paths"] == ["bench"]
        assert spec["command"] == ["python3", "bench/run.py"]
