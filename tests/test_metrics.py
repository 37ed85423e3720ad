"""Closed-form throughput curves, thresholds, and resource counts."""

import json

import numpy as np
import pytest

from zenodense.analyzers import ALL_BELL_STATES, AnalyzerKind, survival_probability
from zenodense.cli import main
from zenodense.metrics import (
    EXPERIMENTAL_BENCHMARK_R,
    MAX_CURVE_CYCLES,
    EfficiencyCurve,
    efficiency_curve,
    min_n_for_target,
    p_survival,
    r_analytic,
    resource_counts,
)

DQZ, IFM, QZ = AnalyzerKind.DQZ, AnalyzerKind.IFM, AnalyzerKind.QZ


def bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestAnalyticThroughput:
    def test_golden_point_dqz_seven(self):
        assert r_analytic(DQZ, 7) == pytest.approx(1.678, abs=5e-4)
        assert r_analytic(DQZ, 7) == pytest.approx(1.6780984920, abs=1e-9)

    def test_degenerate_and_small_points(self):
        assert r_analytic(DQZ, 1) == pytest.approx(1.0, abs=1e-15)
        assert r_analytic(IFM, 1) == pytest.approx(0.5, abs=1e-15)
        assert r_analytic(QZ, 2) == pytest.approx(0.125, abs=1e-15)
        assert r_analytic(DQZ, 2) == pytest.approx(1.125, abs=1e-15)

    def test_threshold_values(self):
        assert r_analytic(DQZ, 12) == pytest.approx(1.8048667700, abs=1e-9)
        assert r_analytic(IFM, 24) == pytest.approx(1.8069547102, abs=1e-9)
        assert r_analytic(QZ, 71) == pytest.approx(1.8019732208, abs=1e-9)

    def test_ifm_values_pinned_in_every_output(self, capsys):
        # libm's pow; numpy's vectorized pow gives one ulp less at these N.
        pinned = {36: "0x1.de5caaa4067fbp+0", 78: "0x1.f01e7777a161ap+0",
                  81: "0x1.f0b234c1b0ec0p+0"}
        curve = efficiency_curve(IFM, 1, 100).r_values
        assert main(["sweep", "--analyzer=ifm", "--n-min=1", "--n-max=100",
                     "--format=json"]) == 0
        records = json.loads(capsys.readouterr().out)
        for n, value in pinned.items():
            assert r_analytic(IFM, n).hex() == value
            assert float(curve[n - 1]).hex() == value
            assert records[n - 1]["n"] == n and records[n - 1]["r_analytic"].hex() == value

    def test_ifm_equals_twice_its_survival(self):
        # The two printed closed forms of the IFM throughput coincide.
        for n in (1, 2, 24, 333):
            assert r_analytic(IFM, n) == pytest.approx(2 * p_survival(IFM, n), abs=1e-15)

    def test_limits_approach_two(self):
        for kind in (DQZ, IFM, QZ):
            assert r_analytic(kind, 10**5) > 1.999

    def test_monotone_for_n_at_least_two(self):
        for kind in (DQZ, IFM, QZ):
            curve = efficiency_curve(kind, 2, 10_000).r_values
            assert np.all(np.diff(curve) > 0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            r_analytic(DQZ, 0)


class TestSurvival:
    def test_examples(self):
        assert p_survival(QZ, 2) == pytest.approx(0.0625, abs=1e-15)
        assert p_survival(DQZ, 12) == pytest.approx(0.9024333850, abs=1e-9)
        assert p_survival(IFM, 10**5) >= 0.9999

    @pytest.mark.parametrize("kind", [DQZ, IFM, QZ])
    @pytest.mark.parametrize("n", list(range(2, 65)))
    def test_matches_analyzer_loss_complement(self, kind, n):
        mixture = np.mean([survival_probability(kind, bell, n) for bell in ALL_BELL_STATES])
        assert abs(p_survival(kind, n) - mixture) < 1e-10


class TestThresholdSearch:
    def test_golden_thresholds(self):
        assert min_n_for_target(QZ, 1.8) == 71
        assert min_n_for_target(IFM, 1.8) == 24
        assert min_n_for_target(DQZ, 1.8) == 12

    def test_thresholds_are_minimal(self):
        for kind, threshold in ((QZ, 71), (IFM, 24), (DQZ, 12)):
            assert r_analytic(kind, threshold) >= 1.8
            assert r_analytic(kind, threshold - 1) < 1.8

    def test_experimental_benchmark_crossing(self):
        assert min_n_for_target(DQZ, EXPERIMENTAL_BENCHMARK_R) == 7
        assert r_analytic(DQZ, 6) < EXPERIMENTAL_BENCHMARK_R

    def test_extreme_target_bounded_runtime(self):
        import time
        start = time.perf_counter()
        for kind in (DQZ, IFM, QZ):
            n = min_n_for_target(kind, 1.9999999)
            assert r_analytic(kind, n) >= 1.9999999
            assert n > 10**6
        assert time.perf_counter() - start < 10.0

    def test_small_targets_return_the_scan_floor(self):
        assert min_n_for_target(QZ, 0.1) == 2

    def test_rejects_unattainable_targets(self):
        for bad in (2.0, 2.5, 0.0, -1.0):
            with pytest.raises(ValueError):
                min_n_for_target(DQZ, bad)


class TestEfficiencyCurve:
    def test_first_three_dqz_points(self):
        curve = efficiency_curve(DQZ, 1, 3)
        assert curve.points[0] == (1, pytest.approx(1.0, abs=1e-15))
        assert curve.points[1] == (2, pytest.approx(1.125, abs=1e-15))
        assert curve.points[2] == (3, pytest.approx(1.3398437500, abs=1e-9))

    def test_degenerate_single_point_range(self):
        curve = efficiency_curve(IFM, 5, 5)
        assert len(curve.points) == 1
        assert curve.points[0][0] == 5

    def test_matches_scalar_evaluation(self):
        # Bit for bit, over a whole block of N and at log-spaced N of the
        # widest curve, so every position of a vectorized loop is covered.
        log_spaced = np.unique(np.geomspace(1, MAX_CURVE_CYCLES, 300).astype(int))
        for kind in (DQZ, IFM, QZ):
            curve = efficiency_curve(kind, 1, 20_000)
            expected = [r_analytic(kind, int(n)) for n in curve.n_values]
            assert curve.r_values.view(np.uint64).tolist() == bits(expected)
            widest = efficiency_curve(kind, 1, MAX_CURVE_CYCLES).r_values[log_spaced - 1]
            expected = [r_analytic(kind, int(n)) for n in log_spaced]
            assert widest.view(np.uint64).tolist() == bits(expected)

    def test_analyzer_ordering_over_wide_range(self):
        n_lo, n_hi = 2, 200
        dqz = efficiency_curve(DQZ, n_lo, n_hi).r_values
        ifm = efficiency_curve(IFM, n_lo, n_hi).r_values
        qz = efficiency_curve(QZ, n_lo, n_hi).r_values
        assert np.all(dqz > ifm)
        assert np.all(ifm > qz)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            efficiency_curve(DQZ, 0, 5)
        with pytest.raises(ValueError):
            efficiency_curve(DQZ, 6, 5)
        with pytest.raises(ValueError):
            efficiency_curve(DQZ, 1, 10**6 + 1)

    @pytest.mark.parametrize("n_min,n_max,expected", [
        (1.5, 3, [2, 3]), (2, 3.9, [2, 3]), (1.5, 3.5, [2, 3]), (2.0, 2.0, [2])])
    def test_takes_the_integers_between_bounds_that_are_not(self, n_min, n_max, expected):
        curve = efficiency_curve(DQZ, n_min, n_max)
        assert curve.n_values.tolist() == expected
        assert curve.r_values.tolist() == [r_analytic(DQZ, n) for n in expected]

    def test_a_range_without_an_integer_is_rejected(self):
        with pytest.raises(ValueError, match="no integer"):
            efficiency_curve(DQZ, 2.2, 2.8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(2.0, 3.0), -0.5])
    def test_rejects_throughput_outside_zero_to_two(self, bad):
        # NaN compares false both ways, so only a containment test catches it.
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            EfficiencyCurve(DQZ, np.array([1, 2]), np.array([bad, 1.0]))

    def test_accepts_both_ends_of_zero_to_two(self):
        curve = EfficiencyCurve(DQZ, np.array([1, 2]), np.array([0.0, 2.0]))
        assert curve.points == [(1, 0.0), (2, 2.0)]


class TestResourceCounts:
    def test_table_values(self):
        assert resource_counts(QZ, 10) == (10, True)
        assert resource_counts(IFM, 10) == (40, False)
        assert resource_counts(DQZ, 10) == (20, False)

    def test_counts_at_golden_thresholds(self):
        assert resource_counts(QZ, 71) == (71, True)
        assert resource_counts(IFM, 24) == (96, False)
        assert resource_counts(DQZ, 12) == (24, False)
