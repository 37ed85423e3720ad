"""Superdense-coding protocol: encode/decode, shot runner, Monte-Carlo estimator."""

import os

import numpy as np
import pytest

from zenodense.analyzers import AnalyzerKind, BellState, DetectorPair, click_pair
from zenodense.metrics import r_analytic
from zenodense.protocol import _resolve_threads, decode, encode, run_protocol, simulate

ALL_KINDS = (AnalyzerKind.DQZ, AnalyzerKind.IFM, AnalyzerKind.QZ)


class TestEncode:
    def test_message_table(self):
        assert encode("00") is BellState.PHI_PLUS
        assert encode("01") is BellState.PSI_PLUS
        assert encode("10") is BellState.PHI_MINUS
        assert encode("11") is BellState.PSI_MINUS

    def test_pauli_route_reaches_each_target(self):
        # X on Alice's electron turns Phi+ into Psi+, Z into Phi-, Y into Psi-
        # up to a global phase; the encoding table is verified against this
        # at import, re-derive it here independently.
        paulis = {
            "00": np.eye(2, dtype=complex),
            "01": np.array([[0, 1], [1, 0]], dtype=complex),
            "10": np.array([[1, 0], [0, -1]], dtype=complex),
            "11": np.array([[0, -1j], [1j, 0]]),
        }
        bell_vectors = {
            BellState.PHI_PLUS: np.array([1, 0, 0, 1]) / np.sqrt(2),
            BellState.PHI_MINUS: np.array([1, 0, 0, -1]) / np.sqrt(2),
            BellState.PSI_PLUS: np.array([0, 1, 1, 0]) / np.sqrt(2),
            BellState.PSI_MINUS: np.array([0, 1, -1, 0]) / np.sqrt(2),
        }
        phi_plus = bell_vectors[BellState.PHI_PLUS].astype(complex)
        for message, pauli in paulis.items():
            produced = np.kron(pauli, np.eye(2)) @ phi_plus
            overlap = abs(np.vdot(bell_vectors[encode(message)], produced))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_message(self):
        with pytest.raises(ValueError):
            encode("2")


class TestDecode:
    def test_golden_rows(self):
        assert decode(DetectorPair("D1", "D3")) == (BellState.PHI_MINUS, "10")
        assert decode(DetectorPair("D2", "D3")) == (BellState.PHI_PLUS, "00")
        assert decode(DetectorPair("D2", "D4")) == (BellState.PSI_PLUS, "01")
        assert decode(DetectorPair("D1", "D4")) == (BellState.PSI_MINUS, "11")

    def test_all_eight_dqz_pairs_decode(self):
        pairs = set()
        for bell in (BellState.PHI_PLUS, BellState.PHI_MINUS,
                     BellState.PSI_PLUS, BellState.PSI_MINUS):
            for m in (0, 1):
                pair = click_pair(AnalyzerKind.DQZ, bell, m)
                pairs.add(pair)
                decoded_bell, _ = decode(pair)
                assert decoded_bell is bell
        assert len(pairs) == 8

    def test_m_alias_rows(self):
        assert decode(DetectorPair("D2", "D6"))[0] is BellState.PHI_MINUS
        assert decode(DetectorPair("D1", "D6"))[0] is BellState.PHI_PLUS
        assert decode(DetectorPair("D2", "D5"))[0] is BellState.PSI_MINUS
        assert decode(DetectorPair("D1", "D5"))[0] is BellState.PSI_PLUS

    def test_invalid_pair_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="invalid detector pair"):
            decode(DetectorPair("D1", "D5"), AnalyzerKind.IFM)

    def test_ifm_family_convention_swapped(self):
        bell, _ = decode(DetectorPair("D2", "D3"), AnalyzerKind.IFM)
        assert bell is BellState.PSI_PLUS
        bell, _ = decode(DetectorPair("D1", "D4"), AnalyzerKind.IFM)
        assert bell is BellState.PHI_MINUS


class TestRunProtocol:
    def test_high_n_dqz_decodes_the_message(self):
        survived = 0
        for i in range(300):
            out = run_protocol("01", AnalyzerKind.DQZ, 10**5, master_seed=7, shot_index=i)
            if not out.photon_lost:
                survived += 1
                assert out.decoded == "01"
        assert survived >= 295  # survival 0.99999 per shot

    def test_single_cycle_dqz_loses_half(self):
        lost = sum(
            run_protocol("10", AnalyzerKind.DQZ, 1, master_seed=3, shot_index=i).photon_lost
            for i in range(20_000)
        )
        # 1 - P = sin^2(pi/2)/2 = 0.5; 3 sigma over 2e4 shots = 0.0106.
        assert abs(lost / 20_000 - 0.5) < 0.011

    def test_two_cycle_qz_loses_fifteen_sixteenths(self):
        lost = sum(
            run_protocol("00", AnalyzerKind.QZ, 2, master_seed=5, shot_index=i).photon_lost
            for i in range(20_000)
        )
        # 3 sigma around 0.9375 over 2e4 shots = 0.0051.
        assert abs(lost / 20_000 - 0.9375) < 0.0052

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_round_trip_on_every_surviving_shot(self, kind, n):
        for i in range(400):
            out = run_protocol("uniform", kind, n, master_seed=11, shot_index=i)
            if not out.photon_lost:
                assert out.decoded == out.message_sent
                assert out.bell_estimate is encode(out.message_sent)

    def test_deterministic_per_shot(self):
        a = run_protocol("uniform", AnalyzerKind.IFM, 5, master_seed=1, shot_index=42)
        b = run_protocol("uniform", AnalyzerKind.IFM, 5, master_seed=1, shot_index=42)
        assert a == b


class TestSimulate:
    def test_bit_identical_reruns(self):
        a = simulate(AnalyzerKind.DQZ, 12, 50_000, 42)
        b = simulate(AnalyzerKind.DQZ, 12, 50_000, 42)
        assert a == b

    def test_threading_does_not_change_results(self):
        shots = 200_000  # spans several chunks
        serial = simulate(AnalyzerKind.QZ, 8, shots, 42, threads=1)
        threaded = simulate(AnalyzerKind.QZ, 8, shots, 42, threads=4)
        assert serial == threaded

    def test_thread_request_capped_at_cpu_count(self, monkeypatch):
        # Resolving the count starts no thread, so huge requests are safe to test.
        cap = os.cpu_count() or 1
        assert _resolve_threads(10**6) == cap
        monkeypatch.setenv("SDC_THREADS", str(10**6))
        assert _resolve_threads(None) == cap
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_threads(10**6) == 1

    def test_env_var_thread_cap(self, monkeypatch):
        monkeypatch.setenv("SDC_THREADS", "3")
        a = simulate(AnalyzerKind.DQZ, 6, 150_000, 9)
        monkeypatch.setenv("SDC_THREADS", "1")
        b = simulate(AnalyzerKind.DQZ, 6, 150_000, 9)
        assert a == b

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_per_shot_runner_exactly(self, kind):
        shots = 3_000
        estimate = simulate(kind, 5, shots, master_seed=9)
        survived = correct = 0
        for i in range(shots):
            out = run_protocol("uniform", kind, 5, master_seed=9, shot_index=i)
            if not out.photon_lost:
                survived += 1
                correct += out.decoded == out.message_sent
        assert estimate.r_hat == 2 * correct / shots
        assert estimate.lost_fraction == 1 - survived / shots
        assert estimate.decode_error_count == survived - correct == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_estimator_consistency_over_seeds(self, kind):
        # |r_hat - R| <= 3 sqrt(R(2-R)/shots) (1 + eps) for seeds 1..10.
        shots = 100_000
        expected = r_analytic(kind, 12)
        band = 3.0 * np.sqrt(expected * (2.0 - expected) / shots) * 1.01
        for seed in range(1, 11):
            estimate = simulate(kind, 12, shots, seed)
            assert abs(estimate.r_hat - expected) <= band

    def test_ci_brackets_r_hat_and_is_calibrated(self):
        estimate = simulate(AnalyzerKind.DQZ, 12, 100_000, 0)
        low, high = estimate.ci95
        assert low <= estimate.r_hat <= high
        assert 0.0 <= low <= high <= 2.0
        # 95% interval half-width for p ~ 0.9: about 2 * 1.96 * 9.5e-4.
        assert (high - low) == pytest.approx(4 * 1.96 * np.sqrt(0.9 * 0.1 / 100_000), rel=0.2)

    def test_fixed_message_runs(self):
        estimate = simulate(AnalyzerKind.DQZ, 12, 50_000, 4, message="10")
        assert estimate.decode_error_count == 0
        assert abs(estimate.r_hat - r_analytic(AnalyzerKind.DQZ, 12)) < 0.02

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(AnalyzerKind.DQZ, 12, 0, 1)
        with pytest.raises(ValueError):
            simulate(AnalyzerKind.DQZ, 12, 10, 1, message="22")
        with pytest.raises(ValueError):
            simulate(AnalyzerKind.DQZ, 12, 10, 1, threads=0)
