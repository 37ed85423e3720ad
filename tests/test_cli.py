"""CLI harness: schemas, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenodense import cli, invariants, metrics, protocol, zeno
from zenodense.analyzers import AnalyzerKind, BellState, DetectorPair
from zenodense.cli import main

CSV_HEADER = "N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_output_writes(monkeypatch, check):
    """Call `check(text)` before each write to a file the CLI opens."""
    real_open = open

    class Checked:
        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            check(text)
            return self.stream.write(text)

        def close(self):
            self.stream.close()

    monkeypatch.setattr(cli, "open", lambda *a, **k: Checked(real_open(*a, **k)), raising=False)


class TestSweep:
    def test_row_count_single_analyzer(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1",
                               "--n-max=100", "--format=csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == CSV_HEADER
        assert len(lines) == 101

    def test_row_count_all_analyzers(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=2", "--n-max=50")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 1 + 147  # 3 analyzers x 49 cycle counts

    def test_golden_dqz_seven_row(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=7", "--n-max=7")
        row = out.strip().split("\n")[1].split(",")
        assert row[0] == "7" and row[1] == "dqz"
        assert abs(float(row[2]) - 1.678) <= 5e-4
        assert len(row[2].replace(".", "").replace("-", "").lstrip("0")) >= 6

    def test_mc_columns_empty_without_shots(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=qz", "--n-min=3", "--n-max=4")
        for line in out.strip().split("\n")[1:]:
            assert line.endswith(",,,,")

    def test_mc_columns_filled_with_shots(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=12", "--n-max=12",
                            "--shots=20000", "--seed=42")
        reader = csv.DictReader(io.StringIO(out))
        row = next(reader)
        assert row["mc_shots"] == "20000"
        assert abs(float(row["R_mc"]) - float(row["R_analytic"])) < 0.02
        assert float(row["ci95_low"]) <= float(row["R_mc"]) <= float(row["ci95_high"])

    def test_rows_ordered_by_analyzer_then_n(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=3", "--n-max=5")
        rows = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
        assert rows == [[str(n), kind] for kind in ("dqz", "ifm", "qz") for n in (3, 4, 5)]

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=2", "--n-max=6",
                              "--shots=5000", "--seed=7")
        _, second, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=2", "--n-max=6",
                               "--shots=5000", "--seed=7")
        assert first == second

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=ifm", "--n-min=2", "--n-max=3",
                            "--format=json")
        records = json.loads(out)
        assert [r["n"] for r in records] == [2, 3]
        assert records[0]["analyzer"] == "ifm"
        assert records[0]["r_mc"] is None
        assert out == json.dumps(records, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_as_they_are_computed(self, monkeypatch, fmt):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        rows_out = []
        real_r_analytic = metrics.r_analytic

        def spy(kind, n):
            text = stream.getvalue()
            rows_out.append(text.count('"n":') if fmt == "json" else text.count("\n") - 1)
            return real_r_analytic(kind, n)

        monkeypatch.setattr(metrics, "r_analytic", spy)
        code = main(["sweep", "--analyzer=ifm", "--n-min=1", "--n-max=4", "--shots=500",
                     f"--format={fmt}"])
        assert code == 0
        assert rows_out == [0, 1, 2, 3]
        if fmt == "json":
            records = json.loads(stream.getvalue())
            assert stream.getvalue() == json.dumps(records, indent=2) + "\n"

    def test_analytic_rows_equal_a_csv_writer_reference(self, capsys, tmp_path):
        n_max = 5_000
        assert n_max > cli._SWEEP_BLOCK
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for kind in AnalyzerKind:
            for n in range(1, n_max + 1):
                r_analytic = metrics.r_analytic(kind, n)
                writer.writerow([n, kind.value, f"{r_analytic:.9g}", "", "", "", ""])
        argv = ["sweep", "--analyzer=all", "--n-min=1", f"--n-max={n_max}"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == reference.getvalue()
        target = tmp_path / "curve.csv"
        assert run_cli(capsys, *argv, f"--out={target}")[0] == 0
        assert target.read_bytes() == reference.getvalue().encode()

    @pytest.mark.parametrize("analyzer, n_min, n_max", [
        ("qz", 4000, 8300),                     # one analyzer, starting mid-block
        ("all", 1, 2 * cli._SWEEP_BLOCK),       # ending exactly on a block edge
        ("all", 4097, 4097),                    # one row
        ("all", 999_990, metrics.MAX_CURVE_CYCLES),  # the top of the accepted range
    ])
    def test_analytic_block_edges_equal_a_csv_writer_reference(self, capsys, analyzer,
                                                               n_min, n_max):
        kinds = list(AnalyzerKind) if analyzer == "all" else [AnalyzerKind(analyzer)]
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for kind in kinds:
            for n in range(n_min, n_max + 1):
                writer.writerow([n, kind.value, f"{metrics.r_analytic(kind, n):.9g}",
                                 "", "", "", ""])
        code, out, _ = run_cli(capsys, "sweep", f"--analyzer={analyzer}", f"--n-min={n_min}",
                               f"--n-max={n_max}")
        assert code == 0 and out == reference.getvalue()

    @pytest.mark.parametrize("n_min, n_max", [
        (1, 2 * cli._SWEEP_BLOCK), (4000, 4000 + 2 * cli._SWEEP_BLOCK), (7, 7)])
    def test_analytic_csv_is_written_a_block_at_a_time(self, capsys, monkeypatch, tmp_path,
                                                       n_min, n_max):
        writes = []
        check_output_writes(monkeypatch, writes.append)
        code, _, _ = run_cli(capsys, "sweep", "--analyzer=all", f"--n-min={n_min}",
                             f"--n-max={n_max}", f"--out={tmp_path / 'curve.csv'}")
        rows = n_max - n_min + 1
        full, rest = divmod(rows, cli._SWEEP_BLOCK)
        assert code == 0 and writes[0] == CSV_HEADER + "\n"
        assert len(writes) == 1 + 3 * -(-rows // cli._SWEEP_BLOCK)
        assert [text.count("\n") for text in writes[1:]] == (
            [cli._SWEEP_BLOCK] * full + [rest] * (rest > 0)) * 3

    @pytest.mark.parametrize("fmt, marker", [("csv", "{n},dqz,"), ("json", '"n": {n},')])
    def test_failed_write_in_a_later_block_leaves_the_target_as_it_was(self, capsys, monkeypatch,
                                                                       tmp_path, fmt, marker):
        target = tmp_path / "sweep.out"
        target.write_text("earlier result\n")
        second_block = marker.format(n=cli._SWEEP_BLOCK + 1)
        written = []

        def disk_full_at_the_second_block(text):
            if second_block in text:
                raise OSError(28, "No space left on device")
            written.append(text)

        check_output_writes(monkeypatch, disk_full_at_the_second_block)
        code, _, err = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1",
                               f"--n-max={cli._SWEEP_BLOCK + 10}", f"--format={fmt}",
                               f"--out={target}")
        assert code == 3 and "No space left on device" in err
        assert marker.format(n=cli._SWEEP_BLOCK) in "".join(written)
        assert target.read_text() == "earlier result\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.out"]

    @staticmethod
    def analytic_sweep_peak(path, n_max, *argv):
        out = f"--out={path}"
        assert main(["sweep", "--analyzer=all", "--n-min=1", "--n-max=10", out, *argv]) == 0
        # tracemalloc counts every thread: let the helpers an earlier test left
        # finishing their last unit end first.
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(30)
                assert not thread.is_alive()
        tracemalloc.start()
        try:
            code = main(["sweep", "--analyzer=all", "--n-min=1", f"--n-max={n_max}", out, *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_analytic_sweep_memory_stays_under_a_megabyte(self, tmp_path):
        assert self.analytic_sweep_peak(tmp_path / "curve.csv", 100_000) < 1_000_000
        with open(tmp_path / "curve.csv") as written:
            assert sum(1 for _ in written) == 1 + 300_000

    def test_analytic_json_sweep_memory_stays_under_a_megabyte(self, tmp_path):
        # Records are written one at a time, not gathered per block of 4096
        # rows (6.3 MB) or whole.
        n_max = 5 * cli._SWEEP_BLOCK
        peak = self.analytic_sweep_peak(tmp_path / "curve.json", n_max, "--format=json")
        assert peak < 1_000_000
        with open(tmp_path / "curve.json") as written:
            assert sum(1 for line in written if line.startswith('    "n": ')) == 3 * n_max

    @staticmethod
    def json_reference(records):
        return json.dumps([{
            "n": n,
            "analyzer": kind.value,
            "r_analytic": metrics.r_analytic(kind, n),
            "r_mc": None if e is None else e.r_hat,
            "mc_shots": None if e is None else e.shots,
            "ci95_low": None if e is None else e.ci95[0],
            "ci95_high": None if e is None else e.ci95[1],
        } for kind, n, e in records], indent=2) + "\n"

    def test_analytic_json_equals_a_json_dumps_reference(self, capsys):
        n_max = cli._SWEEP_BLOCK + 50
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=1",
                               f"--n-max={n_max}", "--format=json")
        expected = self.json_reference(
            [(kind, n, None) for kind in AnalyzerKind for n in range(1, n_max + 1)])
        assert code == 0 and out == expected

    def test_monte_carlo_json_equals_a_json_dumps_reference(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=1", "--n-max=6",
                               "--shots=3000", "--seed=11", "--format=json")
        # Row (analyzer, N) draws from stream tag (analyzer's index) * 2**32 + N.
        expected = self.json_reference([
            (kind, n, protocol.simulate(kind, n, 3000, 11, stream_tag=(index << 32) + n))
            for index, kind in enumerate(AnalyzerKind) for n in range(1, 7)])
        assert code == 0 and out == expected

    def test_stream_tag_offsets_keep_their_values(self):
        # Every Monte-Carlo sweep byte depends on these offsets: dqz, ifm, qz
        # draw from 0, 2**32 and 2**33 plus N.
        assert cli._STREAM_TAG_BASE == {
            AnalyzerKind.DQZ: 0, AnalyzerKind.IFM: 1 << 32, AnalyzerKind.QZ: 2 << 32}

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1", "--n-max=3",
                               f"--out={target}")
        assert code == 0 and out == ""
        content = target.read_text()
        assert content.startswith(CSV_HEADER)
        assert "\r" not in content

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_sweep_leaves_the_target_as_it_was(self, capsys, monkeypatch, tmp_path,
                                                      fmt, error):
        # Rows of 40,000 shots make a unit each, and plans are built row by
        # row, so rows 1 and 2 are run and written before row 3's plan fails.
        target = tmp_path / "sweep.out"
        target.write_text("earlier result\n")
        real_plans = protocol._tally_plans

        def failing_plans(batch, message):
            if any(n == 3 for _, n, _ in batch):
                raise error("row 3 failed")
            return real_plans(batch, message)

        monkeypatch.setattr(protocol, "_BATCH_ROWS", 1)
        monkeypatch.setattr(protocol, "_tally_plans", failing_plans)
        argv = ["sweep", "--analyzer=ifm", "--n-min=1", "--n-max=4", "--shots=40000",
                f"--format={fmt}", f"--out={target}"]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert run_cli(capsys, *argv)[0] == 2
        assert target.read_text() == "earlier result\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.out"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failing_row_fails_its_batch_and_leaves_the_target(self, capsys, monkeypatch,
                                                                 tmp_path, threads):
        # At the default batch size rows 1 to 64 are planned together, then
        # rows 65 to 100: row 70's non-finite survival fails the second batch
        # before any of its rows is drawn, and after every row of the first.
        monkeypatch.setenv("SDC_THREADS", threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        target = tmp_path / "sweep.out"
        target.write_text("earlier result\n")
        drawn, workers = set(), set()
        real_law, real_uniforms = protocol.survival_law, protocol.shot_uniforms

        def drawing(seed, start, count, tag=0):
            drawn.add(tag % (1 << 32))
            workers.add(threading.current_thread())
            return real_uniforms(seed, start, count, tag)

        monkeypatch.setattr(protocol, "survival_law", lambda kind, bell, n: np.where(
            n == 70, np.nan, real_law(kind, bell, n)))
        monkeypatch.setattr(protocol, "shot_uniforms", drawing)
        code, _, err = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1", "--n-max=100",
                               f"--shots={protocol._POOL_ROW_SHOTS}", f"--out={target}")
        for worker in workers - {threading.current_thread()}:  # helpers finishing a unit
            worker.join(30)
            assert not worker.is_alive()
        assert code == 2 and "finite" in err
        assert drawn == set(range(1, protocol._BATCH_ROWS + 1))
        assert target.read_text() == "earlier result\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.out"]

    @pytest.mark.parametrize("seam", ["plan", "write", "stream"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_pooled_sweep_leaves_the_target_as_it_was(self, capsys, monkeypatch,
                                                             tmp_path, fmt, error, seam):
        # Each row has two units, and a helper thread takes units beside the
        # calling thread. The helper's units of rows from `held_from` on wait
        # at a gate; the caller's never do.
        #   plan:   the runner's plan for row 3 fails and opens the gate; the
        #           failure comes after rows 1 and 2 have reached the sweep.
        #   write:  computing row 1's text fails once the helper waits at the
        #           gate, which opens only after the sweep has returned, so a
        #           unit still untaken then must never start.
        #   stream: the stream's write of row 1 fails; the same units wait.
        held_from, fail_row = (1, 3) if seam == "plan" else (2, 1)
        monkeypatch.setenv("SDC_THREADS", "2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        target = tmp_path / "sweep.out"
        target.write_text("earlier result\n")
        events, workers = [], set()
        held, release = threading.Semaphore(0), threading.Event()
        real_uniforms = protocol.shot_uniforms
        real_plans = protocol._tally_plans
        real_r_analytic = metrics.r_analytic

        def held_uniforms(seed, start, count, tag=0):
            n = tag % (1 << 32)
            events.append(("unit", n, start))
            if n >= held_from and threading.current_thread() is not threading.main_thread():
                workers.add(threading.current_thread())
                held.release()
                assert release.wait(30)
            return real_uniforms(seed, start, count, tag)

        def fail(n):
            if seam == "plan":
                release.set()
            else:
                assert held.acquire(timeout=30)
            events.append(("failed", n))
            raise error(f"row {n} failed")

        def failing_plans(batch, message):
            if seam == "plan" and any(n == fail_row for _, n, _ in batch):
                fail(fail_row)
            return real_plans(batch, message)

        def failing_r_analytic(kind, n):
            events.append(("row", n))
            if seam == "write" and n == fail_row:
                fail(n)
            return real_r_analytic(kind, n)

        def failing_stream(text):
            if seam == "stream" and text.startswith(("1,ifm,", '[\n  {\n    "n": 1,')):
                fail(1)

        monkeypatch.setattr(protocol, "shot_uniforms", held_uniforms)
        monkeypatch.setattr(protocol, "_BATCH_ROWS", 1)  # row 3 is planned after row 2's units
        monkeypatch.setattr(protocol, "_tally_plans", failing_plans)
        monkeypatch.setattr(metrics, "r_analytic", failing_r_analytic)
        check_output_writes(monkeypatch, failing_stream)
        shots = protocol._CHUNK_SHOTS + 10_000
        argv = ["sweep", "--analyzer=ifm", "--n-min=1", "--n-max=6", f"--shots={shots}",
                f"--format={fmt}", f"--out={target}"]
        excinfo = None
        try:
            if error is KeyboardInterrupt:
                # Holding the traceback keeps the sweep's frame and its runner
                # alive, so the units must be stopped before it is collected.
                with pytest.raises(KeyboardInterrupt) as excinfo:
                    main(argv)
            else:
                assert run_cli(capsys, *argv)[0] == 2
        finally:
            release.set()
        assert workers
        for worker in workers:
            worker.join(30)
            assert not worker.is_alive()
        assert excinfo is None or str(excinfo.value) == f"row {fail_row} failed"
        assert target.read_text() == "earlier result\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.out"]
        # No unit starts after the failure, and the units started are the
        # first ones: every unit taken before it, and no other.
        units = [event for event in events if event[0] == "unit"]
        assert events.index(("failed", fail_row)) > events.index(units[-1])
        in_order = [("unit", n, start) for n in range(1, 7) for start in (0, protocol._CHUNK_SHOTS)]
        assert sorted(units) == in_order[:len(units)]
        if seam == "plan":
            # Rows 1 and 2 were taken before row 3's plan and come out before its failure.
            assert len(units) == 4
            assert [e for e in events if e[0] != "unit"] == [("failed", 3), ("row", 1), ("row", 2)]
        else:
            # Row 1 is out; the helper waits in a unit of a later row, and at
            # most _WINDOW_PER_THREAD * 2 units were taken beyond row 1's.
            assert 2 < len(units) <= 2 + 2 * protocol._WINDOW_PER_THREAD
            assert [e for e in events if e[0] != "unit"] == [("row", 1), ("failed", 1)]

    # sha256 of the output bytes, recorded before rows were shared out among threads.
    POOLED_GRIDS = [
        (["--n-min=1", "--n-max=8", "--shots=20000", "--seed=3"],
         "15efb27c87ce9f0922f610d2c0e45a9b5239c5d5028163e2f7805bbd438cccc8"),
        (["--n-min=1", "--n-max=3", "--shots=70000", "--seed=4"],
         "1bd7d96cc40b5e20df871b156af941669987eddc86d9ed389177a5a3acbe9844"),
        (["--n-min=1", "--n-max=8", "--shots=20000", "--seed=3", "--format=json"],
         "8d585e41c4358b8b0127e3d46cea1da1c7f8a7bb5c2b514527e019f06215dc9a"),
    ]

    @pytest.mark.parametrize("args, digest", POOLED_GRIDS)
    def test_pooled_rows_keep_every_byte(self, capsys, monkeypatch, args, digest):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real_uniforms = protocol.shot_uniforms
        unit_threads = set()

        def spy(*call):
            unit_threads.add(threading.current_thread())
            return real_uniforms(*call)

        monkeypatch.setattr(protocol, "shot_uniforms", spy)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("SDC_THREADS", threads)
            unit_threads.clear()
            code, outputs[threads], _ = run_cli(capsys, "sweep", "--analyzer=all", *args)
            assert code == 0
            pooled = unit_threads != {threading.main_thread()}
            assert pooled == (threads == "2")
        assert outputs["1"] == outputs["2"]
        assert hashlib.sha256(outputs["2"].encode()).hexdigest() == digest

    def test_output_through_a_symlink_equals_stdout(self, capsys, tmp_path):
        argv = ["sweep", "--analyzer=all", "--n-min=1", "--n-max=3", "--shots=200",
                "--format=json"]
        _, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "link.json"
        (tmp_path / "real.json").write_text("old")
        target.symlink_to(tmp_path / "real.json")
        assert run_cli(capsys, *argv, f"--out={target}")[0] == 0
        assert target.is_symlink() and (tmp_path / "real.json").read_text() == out

    def test_newlines_are_bare_lf(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1", "--n-max=2")
        assert "\r" not in out

    def test_qz_degenerate_point_noted_on_stderr(self, capsys):
        _, _, err = run_cli(capsys, "sweep", "--analyzer=qz", "--n-min=1", "--n-max=2")
        assert "degenerate" in err


class TestRun:
    def test_record_fields_and_decode_errors(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--analyzer=dqz", "--n=12", "--shots=100000",
                               "--seed=42", "--message=uniform")
        record = json.loads(out)
        assert code == 0
        assert set(record) == {"analyzer", "n", "shots", "seed", "message", "r_hat",
                               "ci95", "lost_fraction", "decode_error_count", "timestamp"}
        assert record["decode_error_count"] == 0
        assert record["ci95"][0] <= record["r_hat"] <= record["ci95"][1]

    def test_qz_lost_fraction(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--analyzer=qz", "--n=2", "--shots=100000",
                            "--seed=1")
        record = json.loads(out)
        # 3 sigma for p = 0.9375 over 1e5 shots is 2.3e-3.
        assert abs(record["lost_fraction"] - 0.9375) < 2.3e-3

    def test_identical_apart_from_timestamp(self, capsys):
        _, first, _ = run_cli(capsys, "run", "--analyzer=ifm", "--n=8", "--shots=20000",
                              "--seed=3")
        _, second, _ = run_cli(capsys, "run", "--analyzer=ifm", "--n=8", "--shots=20000",
                               "--seed=3")
        a, b = json.loads(first), json.loads(second)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["run", "--analyzer=qz", "--n=5", "--shots=3000", "--seed=9"]
        _, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "run.json"
        code, printed, _ = run_cli(capsys, *argv, f"--out={target}")
        assert code == 0 and printed == ""
        written = target.read_text()
        assert written.endswith("}\n")
        a, b = json.loads(out), json.loads(written)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_invalid_message_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--analyzer=dqz", "--n=5", "--shots=10", "--message=7"])
        assert exc.value.code == 2


class TestGoldenOutput:
    """Exact bytes of seeded output across all three analyzers.

    The Monte-Carlo columns pin the per-row stream tags, which follow the
    analyzer order; the compare table pins the resource columns.
    """

    SWEEP = (
        "N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high\n"
        "1,dqz,1,0.986,1000,0.924025432,1.04797457\n"
        "2,dqz,1.125,1.126,1000,1.06451333,1.18748667\n"
        "3,dqz,1.33984375,1.278,1000,1.21846257,1.33753743\n"
        "1,ifm,0.5,0.53,1000,0.475291769,0.584708231\n"
        "2,ifm,0.703125,0.708,1000,0.648720578,0.767279422\n"
        "3,ifm,0.952545166,0.902,1000,0.840317707,0.963682293\n"
        "1,qz,2,2,1000,2,2\n"
        "2,qz,0.125,0.152,1000,0.119150494,0.184849506\n"
        "3,qz,0.167480469,0.146,1000,0.113753145,0.178246855\n"
    )
    COMPARE = [
        {"analyzer": "qz", "min_n": 71, "beamsplitters": 71, "ancilla": True},
        {"analyzer": "ifm", "min_n": 24, "beamsplitters": 96, "ancilla": False},
        {"analyzer": "dqz", "min_n": 12, "beamsplitters": 24, "ancilla": False},
    ]

    def test_seeded_sweep_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=all", "--n-min=1", "--n-max=3",
                               "--shots=1000", "--seed=7")
        assert code == 0
        assert out == self.SWEEP

    def test_compare_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--target-r=1.8", "--format=json")
        assert code == 0
        assert json.loads(out) == self.COMPARE


class TestCompare:
    def test_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--target-r=1.8")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "analyzer,min_n,beamsplitters,ancilla"
        assert lines[1] == "qz,71,71,yes"
        assert lines[2] == "ifm,24,96,no"
        assert lines[3] == "dqz,12,24,no"

    def test_benchmark_crossing(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--target-r=1.665", "--format=json")
        rows = {row["analyzer"]: row for row in json.loads(out)}
        assert rows["dqz"]["min_n"] == 7

    def test_extreme_target_still_answers(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--target-r=1.9999999", "--format=json")
        assert code == 0
        assert all(row["min_n"] > 10**6 for row in json.loads(out))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_equals_stdout(self, capsys, tmp_path, fmt):
        argv = ["compare", "--target-r=1.8", f"--format={fmt}"]
        _, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "compare.out"
        code, printed, _ = run_cli(capsys, *argv, f"--out={target}")
        assert code == 0 and printed == ""
        assert target.read_text() == out

    def test_out_of_range_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--target-r=2.5"])
        assert exc.value.code == 2


SELFTEST_CHECKS = ("operator-orthogonality", "channel-trace-preservation", "bell-target-fidelity",
                   "analytic-vs-mc", "golden-decode-table", "golden-thresholds", "decode-roundtrip")


def selftest_lines(fails):
    """The self-test's stdout lines when exactly the checks named in `fails` fail."""
    return [f"FAIL {name}: {fails[name]}" if name in fails else f"ok   {name}"
            for name in SELFTEST_CHECKS]


def bias_survival(monkeypatch):
    # Scaling p by 0.98 moves dqz's R at N = 12 by about 0.036, against a
    # 4 sigma of about 0.0076 at 1e5 shots. The self-test runs no per-shot
    # shot, so no biased threshold reaches `_shot_plan`'s cache.
    real = protocol._survival_threshold
    monkeypatch.setattr(protocol, "_survival_threshold", lambda p: real(p * 0.98))


def swap_two_decode_rows(monkeypatch):
    table = dict(protocol._DECODE_TABLES[AnalyzerKind.DQZ])
    a, b = DetectorPair("D1", "D3"), DetectorPair("D2", "D3")
    table[a], table[b] = table[b], table[a]
    monkeypatch.setitem(protocol._DECODE_TABLES, AnalyzerKind.DQZ, table)


def shift_min_n(monkeypatch):
    real = metrics.min_n_for_target
    monkeypatch.setattr(metrics, "min_n_for_target", lambda kind, r: real(kind, r) + 1)


def swap_phi_pairs(monkeypatch):
    real = invariants.click_pair
    swap = {BellState.PHI_PLUS: BellState.PHI_MINUS, BellState.PHI_MINUS: BellState.PHI_PLUS}
    monkeypatch.setattr(invariants, "click_pair",
                        lambda kind, bell, m=0: real(kind, swap.get(bell, bell), m))


def transpose_channel_product(monkeypatch):
    # K^N^T rho K^N. The self-test reads the product dqz_apply runs, so the
    # patch must change dqz_apply's state too.
    real = zeno.conditional_states
    before = zeno.dqz_apply(BellState.PHI_PLUS, 1).surviving.matrix
    monkeypatch.setattr(zeno, "conditional_states", lambda bell, kn: real(bell, kn.swapaxes(-1, -2)))
    assert not np.array_equal(zeno.dqz_apply(BellState.PHI_PLUS, 1).surviving.matrix, before)


class TestSelftest:
    def test_passes_on_fresh_build_within_budget(self, capsys):
        import time
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "selftest")
        assert time.perf_counter() - start < 60.0
        assert code == 0
        assert out.splitlines() == selftest_lines({}) + ["selftest: all 7 checks passed"]

    def test_raising_check_reports_fail_and_the_rest_still_run(self, capsys, monkeypatch):
        def raising_check():
            raise ValueError("invalid detector pair D2*D6 for dqz")

        monkeypatch.setattr(invariants, "check_golden_decode", raising_check)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert out.splitlines() == selftest_lines(
            {"golden-decode-table": "raised ValueError: invalid detector pair D2*D6 for dqz"})

    @pytest.mark.parametrize("fault, fails", [
        (lambda monkeypatch: ["--inject-fault=k-sign"], {
            "operator-orthogonality": "cycle operator branch=0 N=2: defect 1.000e+00",
            "channel-trace-preservation": "Phi+ N=2: total weight 1.2812499999999998",
            "bell-target-fidelity": "Phi+ N=2: target fidelity 0.6666666666666666"}),
        (bias_survival, {
            "analytic-vs-mc": "dqz N=12: r_hat 1.768320 vs analytic 1.804867 exceeds 4 sigma"}),
        # The round trip decodes through the same table.
        (swap_two_decode_rows, {
            "golden-decode-table": "dqz: D1*D3 decoded to (Phi+, 00), expected (Phi-, 10)",
            "decode-roundtrip": "dqz m=0: 00 -> D2*D3 -> 10"}),
        (shift_min_n, {"golden-thresholds": "qz: got N=72, resources=(72, True)"}),
        (swap_phi_pairs, {"decode-roundtrip": "dqz m=0: 00 -> D1*D3 -> 10"}),
        (transpose_channel_product, {
            "bell-target-fidelity": "Phi+ N=1: target fidelity 5.9779208748351e-34"}),
    ], ids=["k-sign", "analytic-vs-mc", "decode-table", "thresholds", "click-pairs",
            "channel-product"])
    def test_fault_injection_names_the_broken_invariants(self, capsys, monkeypatch, fault, fails):
        code, out, err = run_cli(capsys, "selftest", *(fault(monkeypatch) or ()))
        assert code == 1
        assert out.splitlines() == selftest_lines(fails)
        assert err == f"selftest: {len(fails)} of 7 checks failed\n"


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--analyzer=dqz", "--n-min=1", "--n-max=2", "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unwritable_output_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1", "--n-max=2",
                               "--out=/nonexistent-dir/sweep.csv")
        assert code == 3
        assert "I/O error" in err

    def test_bad_range_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--analyzer=dqz", "--n-min=5", "--n-max=2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [
        ["sweep", "--analyzer=dqz", "--n-min=1", "--n-max=2", "--shots=10"],
        ["run", "--analyzer=dqz", "--n=2", "--shots=10"],
    ], ids=["sweep", "run"])
    def test_seed_outside_64_bits_exits_two(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--seed={seed}"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "1000001", str(10**400)], ids=["zero", "cap+1", "10**400"])
    def test_run_n_outside_the_curve_range_exits_two(self, capsys, n):
        # The sweep's bound: past 10**6 the closed forms are unchecked, and
        # 10**400 used to overflow in the tally with a traceback and exit 1.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--analyzer=dqz", f"--n={n}", "--shots=10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "need 1 <= --n <= 1000000" in err and "Traceback" not in err

    def test_run_at_the_curve_cap_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--analyzer=dqz", "--n=1000000", "--shots=10")
        assert code == 0 and json.loads(out)["n"] == 1000000

    def test_n_max_beyond_curve_cap_exits_two(self, capsys):
        # Past 10**6 cycles the per-row stream tags would head for collisions.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--analyzer=dqz", "--n-min=1000000", "--n-max=1000001"])
        assert exc.value.code == 2
        assert "1000000" in capsys.readouterr().err


class TestThreadEnv:
    def test_invalid_sdc_threads_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SDC_THREADS", "many")
        code, _, err = run_cli(capsys, "run", "--analyzer=dqz", "--n=2", "--shots=10")
        assert code == 2
        assert "SDC_THREADS" in err

    def test_sdc_threads_does_not_change_output(self, capsys, monkeypatch):
        monkeypatch.setenv("SDC_THREADS", "4")
        _, threaded, _ = run_cli(capsys, "run", "--analyzer=dqz", "--n=12",
                                 "--shots=150000", "--seed=42")
        monkeypatch.setenv("SDC_THREADS", "1")
        _, serial, _ = run_cli(capsys, "run", "--analyzer=dqz", "--n=12",
                               "--shots=150000", "--seed=42")
        a, b = json.loads(threaded), json.loads(serial)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_invalid_sdc_threads_is_a_usage_error_for_selftest_too(self, capsys, monkeypatch,
                                                                   threads):
        # Not a failed analytic-vs-mc check with a traceback and exit 1.
        monkeypatch.setenv("SDC_THREADS", threads)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 2 and out == ""
        assert err.startswith("zenodense: ") and err.count("\n") == 1


WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def workflow_commands() -> list[list[str]]:
    """The arguments of every `zenodense` (or `-m zenodense.cli`) command in the CI
    workflow, found by a text scan: continuations joined, each command cut at the first
    shell operator, and sample integers put in place of $n and $threads."""
    commands = []
    for line in WORKFLOW.read_text().replace("\\\n", " ").splitlines():
        line = re.sub(r"\$(n|threads)\b", "3", line)
        for match in re.finditer(r"(?:^|[\s(])zenodense(?:\.cli)?\s+(.*)", line):
            commands.append(shlex.split(re.split(r"\||&&|;|\d?>|\)", match[1])[0]))
    return commands


class TestParser:
    VALID = [["sweep", "--analyzer=dqz", "--n-min=1", "--n-max=2"],
             ["run", "--analyzer=ifm", "--n=3", "--shots=5"],
             ["compare", "--target-r=1.8"],
             ["selftest"]]

    def test_the_workflow_scan_finds_every_command(self):
        commands = workflow_commands()
        assert len(commands) >= 10
        assert {argv[0] for argv in commands} == {"run", "selftest", "sweep"}
        assert not any("$" in arg for argv in commands for arg in argv)

    @pytest.mark.parametrize("argv", workflow_commands(), ids=" ".join)
    def test_every_workflow_command_parses(self, argv):
        cli._build_parser().parse_args(argv)

    def test_one_parser_serves_every_call(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("failing", [
        ["sweep", "--analyzer=qz", "--n-min=5", "--shots=9", "--format=json"],
        ["sweep", "--analyzer=qz", "--n-min=5", "--n-max=2", "--shots=9", "--format=json"],
    ], ids=["missing-option", "bad-range"])
    def test_a_usage_error_leaves_the_next_call_parsed_afresh(self, capsys, failing):
        with pytest.raises(SystemExit) as exc:
            main(failing)
        assert exc.value.code == 2
        fresh = cli._build_parser.__wrapped__()
        for argv in self.VALID:
            assert cli._build_parser().parse_args(argv) == fresh.parse_args(argv)
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *self.VALID[0])
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER and out.endswith(",,,,\n")


# The argument grammar: each option's values in range, its values out of
# range or malformed, and whether it is required. Shots stay at most 10**4
# and sweeps at most 30 cycle counts, so a call takes milliseconds; the
# program itself does not bound --shots.
_N = st.integers(1, 30)
_SHOTS = (st.integers(1, 10**4), st.sampled_from([0, -2]))
_SEED = (st.integers(0, 2**64 - 1), st.sampled_from(["-1", str(2**64), "x"]))
_FORMAT = (st.sampled_from(["csv", "json"]), st.just("xml"))
_OUT = (st.sampled_from(["{tmp}/out.txt", "-"]), st.sampled_from(["{tmp}", "{tmp}/missing/out.txt"]))
_GRAMMAR = {
    "sweep": [("--analyzer", st.sampled_from(["dqz", "ifm", "qz", "all"]), st.just("xyz"), True),
              ("--n-min", _N, st.sampled_from([0, -1, 10**6 + 1]), True),
              ("--n-max", _N, st.sampled_from([0, 10**6 + 1, 10**400]), True),
              ("--shots", *_SHOTS, False), ("--seed", *_SEED, False),
              ("--format", *_FORMAT, False), ("--out", *_OUT, False)],
    "run": [("--analyzer", st.sampled_from(["dqz", "ifm", "qz"]), st.just("all"), True),
            ("--n", st.one_of(_N, st.just(10**6)), st.sampled_from([0, 10**6 + 1]), True),
            ("--shots", *_SHOTS, True), ("--seed", *_SEED, False),
            ("--message", st.sampled_from(["uniform", "00", "01", "10", "11"]),
             st.sampled_from(["2", ""]), False),
            ("--out", *_OUT, False)],
    "compare": [("--target-r", st.floats(0, 2, exclude_min=True, exclude_max=True),
                 st.sampled_from([math.nan, math.inf, 0.0, 2.0, -1.0, 1e300]), True),
                ("--format", *_FORMAT, False), ("--out", *_OUT, False)],
    "selftest": [("--inject-fault", st.just("k-sign"), st.just("x"), False)],
}


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    options = [option for option in _GRAMMAR[command] if option[3] or draw(st.booleans())]
    values = [good for _, good, _, _ in options]
    # Half the calls are well formed; the rest have one value out of range or
    # malformed, one argument missing, or a stray argument.
    fault = draw(st.integers(0, 5))
    if fault == 3 and options:
        index = draw(st.integers(0, len(options) - 1))
        values[index] = options[index][2]
    argv = [command] + [f"{flag}={draw(v)}" for (flag, *_), v in zip(options, values)]
    if fault == 4:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if fault == 5:
        argv.append(draw(st.sampled_from(["--bogus", "stray"])))
    return argv


class TestGrammar:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_calls(), threads=st.sampled_from(["", "0", "-3", "abc", "1", "2"]))
    def test_every_call_ends_in_a_documented_exit_code(self, capsys, monkeypatch, tmp_path,
                                                       argv, threads):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        monkeypatch.setenv("SDC_THREADS", threads)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in ((0, 1, 2, 3) if argv[:1] == ["selftest"] else (0, 2, 3)), (argv, err)
        assert "Traceback" not in err, (argv, err)
