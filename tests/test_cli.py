"""CLI harness: schemas, exit codes, determinism."""

import csv
import io
import json

import pytest

from zenodense.cli import main

CSV_HEADER = "N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--analyzer=dqz", "--n-min=1", "--n-max=3",
                               f"--out={target}")
        assert code == 0 and out == ""
        content = target.read_text()
        assert content.startswith(CSV_HEADER)
        assert "\r" not in content

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

    def test_out_of_range_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--target-r=2.5"])
        assert exc.value.code == 2


class TestSelftest:
    def test_passes_on_fresh_build_within_budget(self, capsys):
        import time
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "selftest")
        assert time.perf_counter() - start < 60.0
        assert code == 0
        assert "all" in out and "passed" in out

    def test_fault_injection_names_the_broken_invariants(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--inject-fault=k-sign")
        assert code == 1
        assert "FAIL channel-trace-preservation" in out
        assert "bell-target-fidelity" in out


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
