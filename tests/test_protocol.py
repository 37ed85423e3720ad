"""Superdense-coding protocol: encode/decode, shot runner, Monte-Carlo estimator."""

import collections
import dataclasses
import hashlib
import os
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zenodense import protocol
from zenodense.analyzers import (
    ANALYZERS,
    AnalyzerKind,
    BellState,
    DetectorPair,
    analyze,
    click_pair,
    survival_probability,
)
from zenodense.core import DRAWS_PER_SHOT, shot_stream
from zenodense.invariants import GOLDEN_DECODE
from zenodense.metrics import r_analytic
from zenodense.protocol import (
    MESSAGES,
    EfficiencyEstimate,
    RunOutcome,
    _resolve_threads,
    _survival_threshold,
    _tally_plans,
    decode,
    encode,
    run_protocol,
    run_rows,
    simulate,
)

ALL_KINDS = (AnalyzerKind.DQZ, AnalyzerKind.IFM, AnalyzerKind.QZ)


def reference_run(message, kind, n, seed, shot, m=0):
    """The shot by `analyze`'s pick and `decode`, on words 0 and 1 of a fresh Philox block."""
    w0, w1 = shot_stream(seed, shot).bit_generator.random_raw(2).tolist()
    sent = MESSAGES[w0 >> 62] if message == "uniform" else message
    outcome = analyze(kind, encode(sent), n, m).pick((w1 >> 11) * 2**-53)
    if outcome.photon_lost:
        return RunOutcome(sent, None, None, None, True, kind, n, seed, shot)
    bell, decoded = decode(outcome.clicks, kind)
    return RunOutcome(sent, decoded, bell, outcome.clicks, False, kind, n, seed, shot)


@pytest.fixture
def draw_sizes(monkeypatch):
    """The shot count of each draw `run_protocol` makes from here on, from nothing held."""
    sizes = []
    real = protocol.shot_uniforms
    monkeypatch.setattr(protocol, "shot_uniforms", lambda *args: sizes.append(args[2]) or real(*args))
    monkeypatch.setattr(protocol, "_window", threading.local())
    return sizes


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

    def test_a_wrong_encoding_table_fails_the_check(self, monkeypatch):
        swapped = {**protocol._MESSAGE_TO_BELL, "01": BellState.PSI_MINUS, "11": BellState.PSI_PLUS}
        monkeypatch.setattr(protocol, "_MESSAGE_TO_BELL", swapped)
        with pytest.raises(AssertionError, match="Pauli encoding of 01"):
            protocol._verify_encoding_table()
        monkeypatch.undo()
        protocol._verify_encoding_table()


class TestDecode:
    @staticmethod
    def assert_golden_rows(photon_detectors, kind=AnalyzerKind.DQZ):
        rows = [(pair, row) for (analyzer, *pair), row in GOLDEN_DECODE.items()
                if analyzer == kind.value and pair[1] in photon_detectors]
        assert len(rows) == 4
        for (e_det, p_det), (symbol, message) in rows:
            bell, decoded = decode(DetectorPair(e_det, p_det), kind)
            assert (bell.symbol, decoded) == (symbol, message)

    def test_golden_rows(self):
        self.assert_golden_rows(("D3", "D4"))

    @pytest.mark.parametrize("kind", [AnalyzerKind.IFM, AnalyzerKind.QZ])
    def test_golden_rows_of_the_single_convention_analyzers(self, kind):
        self.assert_golden_rows(("D3", "D4"), kind)
        assert sum(analyzer == kind.value for analyzer, _, _ in GOLDEN_DECODE) == 4

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
        self.assert_golden_rows(("D5", "D6"))

    def test_invalid_pair_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="invalid detector pair"):
            decode(DetectorPair("D1", "D5"), AnalyzerKind.IFM)

    def test_ifm_family_convention_swapped(self):
        bell, _ = decode(DetectorPair("D2", "D3"), AnalyzerKind.IFM)
        assert bell is BellState.PSI_PLUS
        bell, _ = decode(DetectorPair("D1", "D4"), AnalyzerKind.IFM)
        assert bell is BellState.PHI_MINUS

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_pair_two_bell_states_share_fails_the_table(self, monkeypatch, kind):
        # Psi- clicking as Psi+ would mis-decode "11" as "01": the table, and
        # so the package import, must refuse it.
        real = protocol.click_pair

        def shared(analyzer, bell, m=0):
            return real(analyzer, BellState.PSI_PLUS if bell is BellState.PSI_MINUS else bell, m)

        monkeypatch.setattr(protocol, "click_pair", shared)
        with pytest.raises(AssertionError, match=f"{kind.value}: .* names Psi\\+ and Psi-"):
            protocol._decode_table(kind)
        monkeypatch.undo()
        assert protocol._decode_table(kind) == protocol._DECODE_TABLES[kind]


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

    @pytest.mark.parametrize("order", ["forward", "backward"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_the_reference_route_shot_for_shot(self, kind, order):
        # Pick from `analyze` and `decode` each shot, with words from a fresh
        # Philox: 200 shots cross several edges of the 64-shot window.
        seed = 2027
        bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        words = bits.random_raw(200 * DRAWS_PER_SHOT).reshape(200, DRAWS_PER_SHOT).tolist()
        shots = range(200) if order == "forward" else range(199, -1, -1)
        for n in (1, 2, 12, 10**5):
            for message in ("uniform", *MESSAGES):
                for m in (0, 1):
                    for i in shots:
                        w0, w1 = words[i][:2]
                        sent = MESSAGES[w0 >> 62] if message == "uniform" else message
                        outcome = analyze(kind, encode(sent), n, m).pick((w1 >> 11) * 2**-53)
                        if outcome.photon_lost:
                            expected = RunOutcome(sent, None, None, None, True, kind, n, seed, i)
                        else:
                            bell, decoded = decode(outcome.clicks, kind)
                            expected = RunOutcome(sent, decoded, bell, outcome.clicks, False,
                                                  kind, n, seed, i)
                        assert run_protocol(message, kind, n, master_seed=seed, shot_index=i,
                                            m=m) == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_survival_edge_is_the_integer_threshold(self, kind, monkeypatch):
        # Word 1 just below and at ceil(p * 2**53): the float decision u1 < p
        # flips exactly where the integer tally's does.
        for n in (1, 2, 3, 5, 12, 64):
            threshold = int(_survival_threshold(survival_probability(kind, encode("10"), n)))
            for k in {threshold - 1, min(threshold, 2**53 - 1)}:  # k is 53 bits
                words = np.array([[0, k << 11, 0, 0]], dtype=np.uint64)
                monkeypatch.setattr(protocol, "shot_uniforms", lambda *args, words=words: words)
                monkeypatch.setattr(protocol, "_window", threading.local())  # nothing held
                out = run_protocol("10", kind, n, master_seed=1, shot_index=0)
                assert out.photon_lost == (k >= threshold)

    def test_rejects_bad_arguments(self):
        bad = [("2", AnalyzerKind.DQZ, 12, 0, 0), ("uniform", AnalyzerKind.DQZ, 12, -1, 0),
               ("00", AnalyzerKind.DQZ, 0, 0, 0), ("uniform", AnalyzerKind.IFM, -3, 0, 0),
               ("00", AnalyzerKind.QZ, 12, 0, -1), *[("00", kind, 12, 0, 2) for kind in ALL_KINDS]]
        for message, kind, n, shot, m in bad:
            with pytest.raises(ValueError):
                run_protocol(message, kind, n, master_seed=1, shot_index=shot, m=m)

    def test_an_in_order_walk_draws_one_shot_then_64_and_holds_them(self, draw_sizes):
        walk = [run_protocol("10", AnalyzerKind.IFM, 12, master_seed=5, shot_index=shot)
                for shot in range(200)]
        assert walk == [reference_run("10", AnalyzerKind.IFM, 12, 5, shot) for shot in range(200)]
        assert draw_sizes == [1, 64, 64, 64, 64]  # shots 0, 1..64, ..., 193..256: the last held
        draw_sizes.clear()
        for message in ("uniform", *MESSAGES):  # the held shots serve every message
            for shot in (200, 193, 256, 199):
                assert (run_protocol(message, AnalyzerKind.IFM, 12, master_seed=5, shot_index=shot)
                        == reference_run(message, AnalyzerKind.IFM, 12, 5, shot))
        assert draw_sizes == []
        run_protocol("10", AnalyzerKind.IFM, 12, master_seed=5, shot_index=192)
        assert draw_sizes == [1]

    def test_any_other_jump_draws_one_shot(self, draw_sizes):
        calls = [(6, shot, AnalyzerKind.QZ, 5, 0)
                 for shot in (*range(40, 0, -1), *range(100, 200, 2), 2**64, 5)]
        # Another seed or plan, at the held shot or the one after it, is a jump too.
        calls += [(seed, 300 + k // 3, AnalyzerKind.QZ, 5, 0) for k, seed in enumerate([6, 7, 8] * 5)]
        calls += [(8, 305, AnalyzerKind.QZ, 6, 0), (8, 306, AnalyzerKind.IFM, 6, 0),
                  (8, 306, AnalyzerKind.IFM, 6, 1)]
        for seed, shot, kind, n, m in calls:
            assert (run_protocol("uniform", kind, n, master_seed=seed, shot_index=shot, m=m)
                    == reference_run("uniform", kind, n, seed, shot, m))
        assert draw_sizes == [1] * len(calls)

    def test_a_walk_across_the_counter_wrap(self):
        start = 2**256 - 100
        for shot in range(start, start + 200):
            assert (run_protocol("uniform", AnalyzerKind.DQZ, 2, master_seed=7, shot_index=shot)
                    == reference_run("uniform", AnalyzerKind.DQZ, 2, 7, shot))
        wrapped = run_protocol("uniform", AnalyzerKind.DQZ, 2, master_seed=7, shot_index=2**256 + 50)
        assert wrapped[:-1] == run_protocol("uniform", AnalyzerKind.DQZ, 2, master_seed=7,
                                            shot_index=50)[:-1]

    def test_simulate_between_calls_leaves_the_held_shots_right(self):
        # `simulate` moves the thread's Philox on the same seed and stream,
        # at times to the shot right after the held ones.
        for shot in range(200):
            assert (run_protocol("uniform", AnalyzerKind.IFM, 12, master_seed=8, shot_index=shot)
                    == reference_run("uniform", AnalyzerKind.IFM, 12, 8, shot))
            if shot % 7 == 0:
                simulate(AnalyzerKind.IFM, 12, shot + 1 + shot % 3, 8)

    def test_two_interleaved_threads_each_decide_their_own_shots(self):
        runs = {17: AnalyzerKind.DQZ, 18: AnalyzerKind.IFM}  # seed: analyzer
        barrier = threading.Barrier(len(runs), timeout=30)
        got = {seed: [] for seed in runs}

        def worker(seed):
            for shot in range(200):
                barrier.wait()
                got[seed].append(run_protocol("uniform", runs[seed], 12, master_seed=seed,
                                              shot_index=shot))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed, kind in runs.items():
            assert got[seed] == [reference_run("uniform", kind, 12, seed, shot)
                                 for shot in range(200)]

    # sha256 over every RunOutcome field of the grid below, recorded before
    # the runner read its words from a continuing per-thread stream.
    GRID_DIGEST = "bc93de3db8646d75e2b79dda89a36180906d3b8c0a6b0e295f7660fe73bf2b6b"
    GRID_SHOTS = (*range(40), 2**63, 2**64 - 1, 2**64, 2**256 - 1, 2**256)

    @pytest.mark.parametrize("order", ["forward", "backward"])
    def test_outcomes_equal_the_recorded_digest(self, order):
        digest = hashlib.sha256()
        for kind in AnalyzerKind:
            for n in (1, 2, 5, 12, 64, 10**5):
                for message in ("uniform", *MESSAGES):
                    for m in (0, 1):
                        shots = self.GRID_SHOTS if order == "forward" else self.GRID_SHOTS[::-1]
                        runs = {i: run_protocol(message, kind, n, master_seed=2026, shot_index=i,
                                                m=m) for i in shots}
                        for i in self.GRID_SHOTS:
                            o = runs[i]
                            digest.update(repr((
                                o.message_sent, o.decoded,
                                None if o.bell_estimate is None else o.bell_estimate.name,
                                None if o.clicks is None else str(o.clicks), o.photon_lost,
                                o.analyzer.value, o.n_cycles, o.master_seed, o.shot_index,
                            )).encode())
        assert digest.hexdigest() == self.GRID_DIGEST


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
        # The cap is the CPUs this process may use, not the machine's.
        if hasattr(os, "sched_getaffinity"):
            cap = len(os.sched_getaffinity(0))
            assert _resolve_threads(10**6) == cap
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert _resolve_threads(10**6) == 1
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5})
            assert _resolve_threads(4) == 3
            monkeypatch.setenv("SDC_THREADS", str(10**6))
            assert _resolve_threads(None) == 3
            monkeypatch.delattr(os, "sched_getaffinity")
        # Without an affinity mask, the CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _resolve_threads(10**6) == 2
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
        for message in (None, "10"):
            estimate = simulate(kind, 5, shots, master_seed=9, message=message)
            survived = correct = 0
            for i in range(shots):
                out = run_protocol(message or "uniform", kind, 5, master_seed=9, shot_index=i)
                assert message is None or out.message_sent == message
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

    def test_ci95_bounds_are_plain_floats(self):
        estimate = simulate(AnalyzerKind.IFM, 12, 5_000, 3)
        assert all(type(bound) is float for bound in estimate.ci95)

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


def float_reference(kind, n_cycles, shots, seed, message=None):
    """(survived, correct) by the float tally: numpy's uniforms compared as doubles."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    u = np.random.Generator(bits).random((shots, DRAWS_PER_SHOT))
    if message is None:
        sent = np.minimum((u[:, 0] * 4).astype(np.int64), 3)
    else:
        sent = np.full(shots, MESSAGES.index(message))
    p = np.array([survival_probability(kind, encode(msg), n_cycles) for msg in MESSAGES])
    decodes = np.array([decode(click_pair(kind, encode(msg)), kind)[1] == msg
                        for msg in MESSAGES])
    survived = u[:, 1] < p[sent]
    return int(np.count_nonzero(survived)), int(np.count_nonzero(survived & decodes[sent]))


def survived_count(estimate):
    return estimate.shots - round(estimate.lost_fraction * estimate.shots)


class TestIntegerTally:
    @given(k=st.integers(0, 2**53 - 1), p=st.floats(0.0, 1.0))
    @example(k=0, p=0.0)
    @example(k=0, p=1.0)
    @example(k=2**53 - 1, p=1.0)
    @example(k=0, p=1.874699728327322e-33)
    def test_threshold_equals_float_compare(self, k, p):
        threshold = _survival_threshold(p)
        assert (k < threshold) == (k * 2.0**-53 < p)
        assert bool(np.uint64(k) < np.uint64(threshold)) == (k < threshold)

    @given(k=st.integers(0, 2**53 - 1))
    @example(k=0)
    @example(k=2**53 - 1)
    def test_threshold_at_and_beside_grid_points(self, k):
        # p exactly on a uniform's value and its two float neighbours.
        u = k * 2.0**-53
        for p in (float(np.nextafter(u, 0.0)), u, float(np.nextafter(u, 1.0))):
            threshold = _survival_threshold(p)
            for j in (k - 1, k, k + 1):
                if 0 <= j < 2**53:
                    assert (j < threshold) == (j * 2.0**-53 < p)

    def test_threshold_clips_and_fits_uint64(self):
        assert _survival_threshold(-0.25) == 0
        assert _survival_threshold(1.0) == _survival_threshold(1.5) == 2**53
        assert int(np.uint64(_survival_threshold(1.0))) == 2**53

    @given(word=st.integers(0, 2**64 - 1))
    @example(word=0)
    @example(word=2**64 - 1)
    @example(word=2**62 - 1)
    @example(word=2**62)
    def test_message_index_from_top_bits(self, word):
        u = (word >> 11) * 2.0**-53
        assert int(np.uint64(word) >> 62) == min(int(u * 4), 3)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_words_at_the_threshold_decide_like_floats(self, monkeypatch, kind):
        # Word 1 one below, on and one above each message's threshold, with
        # its 11 discarded low bits set; word 0 sends that message.
        p = [survival_probability(kind, encode(msg), 12) for msg in MESSAGES]
        rows = []
        for index, p_message in enumerate(p):
            k0 = _survival_threshold(p_message)
            rows += [[index << 62, (k << 11) | 0x7FF, 0, 0] for k in (k0 - 1, k0, k0 + 1)]
        words = np.array(rows, dtype=np.uint64)
        monkeypatch.setattr(protocol, "shot_uniforms", lambda *args: words)
        estimate = simulate(kind, 12, len(rows), 0)
        u = (words >> 11) * 2.0**-53
        expected = sum(u[i, 1] < p[min(int(u[i, 0] * 4), 3)] for i in range(len(rows)))
        assert survived_count(estimate) == expected == 4

    @pytest.mark.parametrize("shots", [65_535, 65_536, 65_537])
    @pytest.mark.parametrize("kind, message", [(AnalyzerKind.DQZ, "10"),
                                               (AnalyzerKind.IFM, "00")])
    def test_fixed_message_matches_float_tally_across_chunk_edge(self, kind, message, shots):
        for threads in (1, 2):
            estimate = simulate(kind, 12, shots, 21, message=message, threads=threads)
            assert (survived_count(estimate), estimate.correct) == float_reference(
                kind, 12, shots, 21, message)

    def test_survival_one_keeps_every_shot(self):
        # qz at N = 1: p = 1.0, the top threshold 2**53.
        assert survival_probability(AnalyzerKind.QZ, BellState.PHI_PLUS, 1) == 1.0
        estimate = simulate(AnalyzerKind.QZ, 1, 70_000, 4)
        assert survived_count(estimate) == estimate.correct == 70_000
        assert float_reference(AnalyzerKind.QZ, 1, 70_000, 4) == (70_000, 70_000)

    def test_tiny_phi_survival_matches_float_tally(self):
        # ifm at N = 1: the Phi family survives with p ~ 1.9e-33, threshold 1.
        assert 0.0 < survival_probability(AnalyzerKind.IFM, BellState.PHI_PLUS, 1) < 1e-30
        estimate = simulate(AnalyzerKind.IFM, 1, 70_000, 4)
        assert (survived_count(estimate), estimate.correct) == float_reference(
            AnalyzerKind.IFM, 1, 70_000, 4)

    @pytest.mark.parametrize("message", [None, *MESSAGES])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_plan_thresholds_equal_per_message_scalar_thresholds(self, kind, message):
        sent = MESSAGES if message is None else (message,)
        ns = (1, 2, 12, 18, 97, 1000)
        for n, plan in zip(ns, _tally_plans([(kind, n, 0) for n in ns], message), strict=True):
            expected = [_survival_threshold(survival_probability(kind, encode(msg), n))
                        for msg in sent]
            assert np.broadcast_to(plan, len(sent)).tolist() == expected

    @pytest.mark.parametrize("message", [None, "10"])
    def test_one_array_evaluation_per_survival_law(self, monkeypatch, message):
        # Only ifm's law depends on the Bell family, and only uniform
        # messages send both families.
        calls = collections.Counter()
        real_law = protocol.survival_law

        def counting(kind, bell, n):
            calls[kind, n.size] += 1
            return real_law(kind, bell, n)

        monkeypatch.setattr(protocol, "survival_law", counting)
        _tally_plans([(kind, n, 0) for n in (1, 2, 12) for kind in ALL_KINDS], message)
        assert calls == collections.Counter({(AnalyzerKind.DQZ, 3): 1, (AnalyzerKind.QZ, 3): 1,
                                             (AnalyzerKind.IFM, 3): 2 if message is None else 1})


class TestRunRows:
    ROWS = [(AnalyzerKind.IFM, 5, 3), (AnalyzerKind.DQZ, 12, 0), (AnalyzerKind.QZ, 2, 1 << 32),
            (AnalyzerKind.IFM, 18, 7)]

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # Two threads must reach the pool even on a one-CPU machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("shots", [1, 2_000, 20_000, 70_000])
    def test_rows_equal_one_row_sessions_at_any_thread_count(self, two_cpus, shots):
        expected = [simulate(kind, n, shots, 5, stream_tag=tag, threads=1)
                    for kind, n, tag in self.ROWS]
        for threads in (1, 2):
            assert list(run_rows(self.ROWS, shots, 5, threads=threads)) == expected
            assert list(run_rows(iter(self.ROWS), shots, 5, threads=threads)) == expected
        assert list(run_rows(self.ROWS, shots, 5, message="01", threads=2)) == [
            simulate(kind, n, shots, 5, message="01", stream_tag=tag)
            for kind, n, tag in self.ROWS]

    # sha256 over every EfficiencyEstimate field of the grid below, recorded
    # before rows were packed into shared work units.
    GRID_DIGEST = "760fc5bfd56220047f2f2f8c29a3af08e4392f219cd006efe67a331731f9c460"
    GRID_ROWS = [(kind, n, index * (1 << 32) + n) for index, kind in enumerate(AnalyzerKind)
                 for n in (1, 2, 18, 36, 51, 12345, 10**6)]
    GRID_SHOTS = (1, 2_000, 21_845, 21_846, 32_768, 65_535, 65_536, 65_537, 70_000)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_the_recorded_digest(self, two_cpus, threads):
        digest = hashlib.sha256()
        for shots in self.GRID_SHOTS:
            for message in (None, "10"):
                for e in run_rows(self.GRID_ROWS, shots, 11, message=message, threads=threads):
                    digest.update(
                        f"{e.analyzer.value},{e.n_cycles},{e.shots},{e.r_hat.hex()},"
                        f"{e.ci95[0].hex()},{e.ci95[1].hex()},{e.lost_fraction.hex()},"
                        f"{e.decode_error_count},{e.correct}\n".encode())
        assert digest.hexdigest() == self.GRID_DIGEST

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(st.sampled_from(ALL_KINDS),
                                   st.one_of(st.integers(1, 60), st.integers(1, 10**6)),
                                   st.integers(0, 2**64 - 1)), min_size=1, max_size=7),
           shots=st.one_of(st.integers(1, 3_000),
                           st.sampled_from([21_845, 21_846, 32_768, 65_535, 65_536, 65_537])),
           message=st.sampled_from([None, *MESSAGES]), threads=st.sampled_from([1, 2]),
           batch=st.sampled_from([1, 2, 3, protocol._BATCH_ROWS]))
    @example(rows=[(AnalyzerKind.IFM, 18, 0)] * 5, shots=21_845, message=None, threads=2, batch=2)
    def test_rows_equal_one_row_sessions(self, two_cpus, rows, shots, message, threads, batch):
        # However rows fall into plan batches and work units, each equals its own session.
        with mock.patch.object(protocol, "_BATCH_ROWS", batch):
            got = list(run_rows(rows, shots, 3, message=message, threads=threads))
        assert got == [simulate(kind, n, shots, 3, message=message, stream_tag=tag, threads=1)
                       for kind, n, tag in rows]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(st.sampled_from(ALL_KINDS),
                                   st.one_of(st.integers(1, 60), st.integers(1, 10**6)),
                                   st.sampled_from([0, 1, 2**64 - 1])), min_size=1, max_size=7),
           shots=st.one_of(st.integers(1, 3_000),
                           st.sampled_from([21_845, 21_846, 32_768, 65_535, 65_536, 65_537])),
           message=st.sampled_from([None, "10"]), threads=st.sampled_from([1, 2]),
           batch=st.sampled_from([1, 2, 3, protocol._BATCH_ROWS]))
    @example(rows=[(AnalyzerKind.IFM, 12, 0), (AnalyzerKind.DQZ, 12, 0), (AnalyzerKind.QZ, 5, 1),
                   (AnalyzerKind.IFM, 3, 0)], shots=65_537, message=None, threads=2, batch=3)
    @example(rows=[(kind, 12, 0) for kind in ALL_KINDS], shots=100_000, message=None, threads=1,
             batch=2)
    def test_rows_on_shared_streams_equal_one_row_sessions(self, two_cpus, rows, shots, message,
                                                           threads, batch):
        # Consecutive rows on one tag share their draws, also when a batch
        # edge splits them; each row still equals its own session.
        with mock.patch.object(protocol, "_BATCH_ROWS", batch):
            got = list(run_rows(rows, shots, 3, message=message, threads=threads))
        assert got == [simulate(kind, n, shots, 3, message=message, stream_tag=tag, threads=1)
                       for kind, n, tag in rows]

    @pytest.mark.parametrize("shots", [1, 2_000, 65_536, 65_537, 140_000])
    def test_rows_on_one_stream_draw_each_piece_once(self, monkeypatch, shots):
        draws = []
        real_uniforms = protocol.shot_uniforms

        def spy(seed, start, count, tag=0):
            draws.append((tag, start, count))
            return real_uniforms(seed, start, count, tag)

        monkeypatch.setattr(protocol, "shot_uniforms", spy)
        chunks = [(start, min(protocol._CHUNK_SHOTS, shots - start))
                  for start in range(0, shots, protocol._CHUNK_SHOTS)]
        assert len(chunks) == -(-shots // 2**16)
        # k rows on one stream draw its pieces once, not k times.
        shared = [(AnalyzerKind.IFM, 12, 7), (AnalyzerKind.DQZ, 12, 7), (AnalyzerKind.QZ, 5, 7),
                  (AnalyzerKind.IFM, 3, 7)]
        assert len(list(run_rows(shared, shots, 1, threads=1))) == len(shared)
        assert draws == [(7, start, count) for start, count in chunks]
        # A sweep's rows, each on its own tag, draw one piece per row and chunk as before.
        draws.clear()
        sweep = [(kind, n, index * (1 << 32) + n) for index, kind in enumerate(ALL_KINDS)
                 for n in range(2, 8)]
        assert len(list(run_rows(sweep, shots, 1, threads=1))) == len(sweep)
        assert draws == [(tag, start, count) for _, _, tag in sweep for start, count in chunks]

    @pytest.fixture
    def made(self, monkeypatch):
        """The pools `run_rows` makes, in order."""
        made = []

        class CountingPool(protocol.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", CountingPool)
        return made

    # shots per row 2**14 packs the four rows in one unit; one more shot takes two.
    @pytest.mark.parametrize("shots, pools", [(2**14, 0), (2**14 + 1, 1), (70_000, 1)])
    def test_one_pool_per_call_and_only_from_the_second_unit(self, two_cpus, made,
                                                             shots, pools):
        assert len(list(run_rows(self.ROWS, shots, 5, threads=2))) == len(self.ROWS)
        assert len(list(run_rows(iter(self.ROWS), shots, 5, threads=2))) == len(self.ROWS)
        assert len(made) == 2 * pools
        # One row of one unit has nothing to share out, from a list or an iterator.
        one_unit = min(shots, protocol._CHUNK_SHOTS)
        simulate(AnalyzerKind.DQZ, 12, one_unit, 5, threads=2)
        assert len(list(run_rows(iter(self.ROWS[:1]), one_unit, 5, threads=2))) == 1
        assert len(made) == 2 * pools
        # One row of two units shares them out.
        assert len(list(run_rows(iter(self.ROWS[:1]), protocol._CHUNK_SHOTS + 1, 5,
                                 threads=2))) == 1
        assert len(made) == 2 * pools + 1

    # Three or more units of rows, pooled only from _POOL_ROW_SHOTS shots a row.
    @pytest.mark.parametrize("shots, pools", [(1, 0), (100, 0), (protocol._POOL_ROW_SHOTS - 1, 0),
                                              (protocol._POOL_ROW_SHOTS, 1)])
    def test_rows_of_few_shots_run_inline(self, two_cpus, made, shots, pools):
        rows = [(AnalyzerKind.IFM, 18, tag) for tag in range(3 * protocol._BATCH_ROWS)]
        expected = list(run_rows(rows, shots, 5, threads=1))
        assert list(run_rows(iter(rows), shots, 5, threads=2)) == expected
        assert len(made) == pools

    # A log grid of N up to 1e6, with N at which numpy's SIMD `**` on an
    # AVX-512 host is one ulp below libm's pow, which every law takes through
    # np.float_power (with `**`, the ifm Phi threshold at N = 18 reads
    # 7332208221475705).
    THRESHOLD_NS = (18, 36, 51, *np.unique(np.geomspace(1, 10**6, 400).astype(int)).tolist())

    @pytest.mark.parametrize("message", [None, "10"])
    def test_runner_thresholds_are_scalar_evaluations(self, monkeypatch, message):
        plans = []
        real_plans = protocol._tally_plans

        def spy(batch, message):
            plans.extend(real_plans(batch, message))
            return plans[len(plans) - len(batch):]

        monkeypatch.setattr(protocol, "_tally_plans", spy)
        rows = [(kind, n, 0) for kind in ALL_KINDS for n in self.THRESHOLD_NS]
        list(run_rows(rows, 1, 0, message=message))
        sent = MESSAGES if message is None else (message,)
        for (kind, n, _), plan in zip(rows, plans, strict=True):
            expected = [_survival_threshold(survival_probability(kind, encode(msg), n))
                        for msg in sent]
            assert np.broadcast_to(plan, len(sent)).tolist() == expected
        ifm_at_18 = plans[len(self.THRESHOLD_NS)]
        assert int(np.broadcast_to(ifm_at_18, len(sent))[0]) == 7332208221475706

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_survival_raises(self, monkeypatch, bad):
        # Cast to uint64, a NaN or an infinity would become an arbitrary threshold.
        spec = ANALYZERS[AnalyzerKind.DQZ]
        law = spec.survival[None]
        monkeypatch.setitem(ANALYZERS, AnalyzerKind.DQZ, dataclasses.replace(
            spec, survival=dict.fromkeys(spec.survival, lambda n: np.where(n == 7, bad, law(n)))))
        rows = [(AnalyzerKind.DQZ, n, 0) for n in (5, 6, 7, 8)]
        with pytest.raises(ValueError, match="finite"):
            list(run_rows(rows, 100, 1))
        with pytest.raises(ValueError, match="finite"):
            _survival_threshold(bad)
        assert [e.n_cycles for e in run_rows(rows[:2], 100, 1)] == [5, 6]

    def test_a_failing_unit_reaches_the_caller(self, monkeypatch, two_cpus):
        real_uniforms = protocol.shot_uniforms

        def failing(seed, start, count, tag=0):
            if tag == 1 << 32:
                raise ValueError("unit failed")
            return real_uniforms(seed, start, count, tag)

        monkeypatch.setattr(protocol, "shot_uniforms", failing)
        estimates = run_rows(self.ROWS, 20_000, 5, threads=2)
        with pytest.raises(ValueError, match="unit failed"):
            list(estimates)

    def test_rejects_bad_arguments(self):
        for shots, message, threads in ((0, None, 1), (10, "22", 1), (10, None, 0)):
            with pytest.raises(ValueError):
                list(run_rows(self.ROWS, shots, 1, message=message, threads=threads))

    @staticmethod
    def peak_bytes(run) -> int:
        """tracemalloc's peak while `run()` runs."""
        # tracemalloc counts every thread: let the units an earlier test left
        # running on a shut-down pool finish first.
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(30)
                assert not thread.is_alive()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads, units", [(1, 10**5), (2, 10**4)])
    def test_memory_does_not_grow_with_shots(self, monkeypatch, two_cpus, threads, units):
        # With the tally stubbed out, what is left is the runner's own
        # bookkeeping: a session of many work units must peak no higher than
        # one of ten. Keeping one entry per unit took about 160 bytes each.
        monkeypatch.setattr(protocol, "_tally",
                            lambda seed, tag, start, count, thresholds: [count] * len(thresholds))

        def session(n_units):
            shots = n_units * protocol._CHUNK_SHOTS
            (estimate,) = run_rows([(AnalyzerKind.DQZ, 12, 0)], shots, 1, threads=threads)
            assert estimate.correct == shots

        peak = self.peak_bytes(lambda: session(units))
        assert peak < self.peak_bytes(lambda: session(10)) + 64 * 1024

    @pytest.mark.parametrize("threads, shots, n_rows", [(1, 1, 30_000), (2, 10_000, 3_000),
                                                        (2, 2_000, 3_000)])
    def test_memory_does_not_grow_with_rows(self, monkeypatch, two_cpus, threads, shots, n_rows):
        # Rows are taken from a generator a batch at a time: with the tally
        # and its plans stubbed out, many rows must peak no higher than ten.
        # Holding the rows as tuples took about 100 bytes each.
        (plan,) = _tally_plans([(AnalyzerKind.DQZ, 12, 0)], None)
        monkeypatch.setattr(protocol, "_tally",
                            lambda seed, tag, start, count, thresholds: [count] * len(thresholds))
        monkeypatch.setattr(protocol, "_tally_plans", lambda batch, message: [plan] * len(batch))

        def sweep(count):
            rows = ((AnalyzerKind.DQZ, 12, tag) for tag in range(count))
            assert sum(1 for _ in run_rows(rows, shots, 1, threads=threads)) == count

        peak = self.peak_bytes(lambda: sweep(n_rows))
        assert peak < self.peak_bytes(lambda: sweep(10)) + 64 * 1024


class TestResultRecords:
    """Both records are named tuples: every way to build one checks its fields."""

    SURVIVED = RunOutcome("01", "01", BellState.PSI_PLUS,
                          click_pair(AnalyzerKind.DQZ, BellState.PSI_PLUS, 0), False,
                          AnalyzerKind.DQZ, 12, 7, 3)
    LOST = RunOutcome("10", None, None, None, True, AnalyzerKind.IFM, 2, 7, 4)
    ESTIMATE = EfficiencyEstimate(AnalyzerKind.QZ, 5, 100, 1.0, (0.9, 1.1), 0.5, 0, 50)
    RECORDS = [SURVIVED, LOST, ESTIMATE]

    # A valid record and the fields that make it invalid; each breaks one check alone.
    BAD = [
        pytest.param(SURVIVED, {"clicks": None}, id="decoded-without-clicks"),
        pytest.param(LOST, {"clicks": SURVIVED.clicks}, id="clicks-without-decoded"),
        pytest.param(ESTIMATE, {"r_hat": 2.0 + 2**-51, "ci95": (1.9, 2.1)}, id="r_hat-above-2"),
        pytest.param(ESTIMATE, {"r_hat": -2**-52, "ci95": (-0.1, 0.1)}, id="r_hat-below-0"),
        pytest.param(ESTIMATE, {"ci95": (1.0 + 2**-52, 1.1)}, id="ci95-above-r_hat"),
        pytest.param(ESTIMATE, {"ci95": (0.9, 1.0 - 2**-53)}, id="ci95-below-r_hat"),
    ]

    @staticmethod
    def values(record, bad):
        return {**record._asdict(), **bad}

    @pytest.mark.parametrize("record, bad", BAD)
    def test_constructor_rejects(self, record, bad):
        with pytest.raises(ValueError):
            type(record)(**self.values(record, bad))
        with pytest.raises(ValueError):
            type(record)(*self.values(record, bad).values())

    @pytest.mark.parametrize("record, bad", BAD)
    def test_replace_and_make_reject(self, record, bad):
        # The stock _make, which _replace calls, would skip the constructor's checks.
        with pytest.raises(ValueError):
            record._replace(**bad)
        with pytest.raises(ValueError):
            type(record)._make(self.values(record, bad).values())

    @pytest.mark.parametrize("record, bad", BAD)
    def test_unpickling_rejects(self, record, bad):
        forged = tuple.__new__(type(record), self.values(record, bad).values())
        blob = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(blob)

    def test_r_hat_may_reach_both_ends(self):
        for r_hat in (0.0, 2.0):
            estimate = self.ESTIMATE._replace(r_hat=r_hat, ci95=(r_hat, r_hat))
            assert estimate.r_hat == r_hat

    @pytest.mark.parametrize("record", RECORDS, ids=["survived", "lost", "estimate"])
    def test_every_route_rebuilds_an_equal_record(self, record):
        rebuilt = [type(record)(**record._asdict()), record._replace(), type(record)._make(record),
                   pickle.loads(pickle.dumps(record))]
        for copy in rebuilt:
            assert copy == record
            assert type(copy) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=["survived", "lost", "estimate"])
    def test_fields_are_read_only(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "no instance dict"

    def test_a_record_is_a_tuple_of_its_fields(self):
        # It equals the plain tuple of its values and unpacks in field order.
        assert self.ESTIMATE == tuple(self.ESTIMATE)
        analyzer, n_cycles, shots, *_, correct = self.ESTIMATE
        assert (analyzer, n_cycles, shots, correct) == (AnalyzerKind.QZ, 5, 100, 50)
        assert self.SURVIVED == tuple(self.SURVIVED)

    def test_runners_return_exactly_these_types(self):
        outcomes = [run_protocol("uniform", AnalyzerKind.DQZ, 2, master_seed=1, shot_index=i)
                    for i in range(40)]
        assert {o.photon_lost for o in outcomes} == {False, True}
        assert {type(o) for o in outcomes} == {RunOutcome}
        assert type(simulate(AnalyzerKind.IFM, 3, 100, 1)) is EfficiencyEstimate
        rows = [(AnalyzerKind.QZ, 4, 0), (AnalyzerKind.DQZ, 2, 1)]
        assert [type(e) for e in run_rows(rows, 100, 1)] == [EfficiencyEstimate] * 2
