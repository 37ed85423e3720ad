"""Bell-state analyzers: click tables, survival laws, counterfactual accounting."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenodense import analyzers
from zenodense.analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    AnalyzerOutcome,
    BellState,
    DetectorPair,
    PHOTON_LOST,
    analyze,
    click_pair,
    ifm_bell_input,
    ifm_stage1_evolve,
    qz_ancilla_survival,
    qz_collapsed_state,
    qz_is_degenerate,
    semi_counterfactual_stats,
    survival_law,
    survival_probability,
)
from zenodense.ifm import AbsorberState
from zenodense.metrics import r_analytic
from zenodense.zeno import cycle_survival


def surviving_outcome(dist):
    clicks = [(o, p) for o, p in dist if not o.photon_lost]
    assert len(clicks) == 1
    return clicks[0]


class TestBellStates:
    def test_pairwise_orthonormal(self):
        kets = [bell.ket() for bell in ALL_BELL_STATES]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert abs(a.inner(b)) == pytest.approx(expected, abs=1e-12)


class TestDqzAnalyze:
    def test_phi_minus_clicks(self):
        dist = analyze(AnalyzerKind.DQZ, BellState.PHI_MINUS, 10**5, m=0)
        outcome, p = surviving_outcome(dist)
        assert outcome.clicks == DetectorPair("D1", "D3")
        assert p == pytest.approx(0.9999876631, abs=1e-9)

    def test_psi_plus_clicks(self):
        dist = analyze(AnalyzerKind.DQZ, BellState.PSI_PLUS, 10**5, m=0)
        outcome, _ = surviving_outcome(dist)
        assert outcome.clicks == DetectorPair("D2", "D4")

    def test_loss_probability_at_twelve_cycles(self):
        for bell in ALL_BELL_STATES:
            dist = analyze(AnalyzerKind.DQZ, bell, 12)
            assert dist.probability(PHOTON_LOST) == pytest.approx(0.0975666150, abs=1e-9)

    def test_loss_is_exact_complement_of_per_cycle_survival(self):
        for n in range(1, 33):
            dist = analyze(AnalyzerKind.DQZ, BellState.PSI_MINUS, n)
            assert dist.probability(PHOTON_LOST) == pytest.approx(
                1.0 - cycle_survival(n) ** n, abs=1e-15)

    def test_full_click_table_m0(self):
        expected = {
            BellState.PHI_MINUS: ("D1", "D3"),
            BellState.PHI_PLUS: ("D2", "D3"),
            BellState.PSI_MINUS: ("D1", "D4"),
            BellState.PSI_PLUS: ("D2", "D4"),
        }
        for bell, (e_det, p_det) in expected.items():
            assert click_pair(AnalyzerKind.DQZ, bell, 0) == DetectorPair(e_det, p_det)

    def test_full_click_table_m1_aliases(self):
        alias = {"D1": "D2", "D2": "D1", "D3": "D6", "D4": "D5"}
        for bell in ALL_BELL_STATES:
            base = click_pair(AnalyzerKind.DQZ, bell, 0)
            flipped = click_pair(AnalyzerKind.DQZ, bell, 1)
            assert flipped == DetectorPair(alias[base.electron], alias[base.photon])

    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    @pytest.mark.parametrize("n", [1, 2, 12, 64])
    def test_m_flip_leaves_probabilities_invariant(self, bell, n):
        d0 = analyze(AnalyzerKind.DQZ, bell, n, m=0)
        d1 = analyze(AnalyzerKind.DQZ, bell, n, m=1)
        out0, p0 = surviving_outcome(d0)
        out1, p1 = surviving_outcome(d1)
        assert p0 == p1
        assert d0.probability(PHOTON_LOST) == d1.probability(PHOTON_LOST)
        assert out0.clicks != out1.clicks

    def test_counterfactual_weights(self):
        dist = analyze(AnalyzerKind.DQZ, BellState.PHI_PLUS, 8)
        outcome, _ = surviving_outcome(dist)
        assert outcome.counterfactual_weight == 0.5
        assert PHOTON_LOST.counterfactual_weight == 0.0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            analyze(AnalyzerKind.DQZ, BellState.PHI_PLUS, 4, m=2)

    def test_analyze_derives_no_pair_per_n(self, monkeypatch):
        # The eight pairs are measured once; analyze at any N only looks them up.
        for bell in ALL_BELL_STATES:
            for m in (0, 1):
                click_pair(AnalyzerKind.DQZ, bell, m)
        calls = []
        monkeypatch.setattr(analyzers, "dqz_apply", lambda *args: calls.append(args))
        for n in range(1, 1101):
            for m in (0, 1):
                analyze(AnalyzerKind.DQZ, BellState.PSI_MINUS, n, m=m)
        assert calls == []
        assert analyzers._dqz_pair_from_channel.cache_info().currsize <= 8


@pytest.mark.parametrize("m", [2, -1])
@pytest.mark.parametrize("kind", list(AnalyzerKind))
def test_click_pair_rejects_an_m_other_than_zero_or_one(kind, m):
    with pytest.raises(ValueError, match="m must be 0 or 1"):
        click_pair(kind, BellState.PHI_PLUS, m)


class TestIfmAnalyze:
    def test_stage1_phi_states_are_frozen_in_place(self):
        # Both Phi branches are blocked, so the conditional state at the end
        # of stage one equals the input and the survival is cos^{2N} theta.
        for bell in (BellState.PHI_PLUS, BellState.PHI_MINUS):
            n = 24
            state, survival = ifm_stage1_evolve(bell, n)
            expected = np.cos(np.pi / (2 * n)) ** (2 * n)
            assert survival == pytest.approx(expected, abs=1e-12)
            conditional = state.amplitudes / np.sqrt(survival)
            reference = ifm_bell_input(bell).amplitudes
            assert np.max(np.abs(conditional - reference)) < 1e-10

    def test_stage1_psi_states_hop_paths(self):
        # Both Psi branches fly free: c2 -> c1 and d2 -> d1 with certainty.
        for bell in (BellState.PSI_PLUS, BellState.PSI_MINUS):
            state, survival = ifm_stage1_evolve(bell, 16)
            assert survival == pytest.approx(1.0, abs=1e-12)
            assert state.probability("b,c1") == pytest.approx(0.5, abs=1e-12)
            assert state.probability("a,d1") == pytest.approx(0.5, abs=1e-12)
            sign = state.amplitude("a,d1") / state.amplitude("b,c1")
            assert sign.real == pytest.approx(bell.sign, abs=1e-12)

    def test_family_routes_to_photon_detectors(self):
        for bell in ALL_BELL_STATES:
            outcome, _ = surviving_outcome(analyze(AnalyzerKind.IFM, bell, 10**5))
            expected = "D4" if bell.family == "phi" else "D3"
            assert outcome.clicks.photon == expected

    def test_uniform_mixture_survival_matches_closed_form(self):
        # Every analyzer's mixture law: the mean of its four Bell laws, and for an
        # array of cycle counts, each element the value of its count alone.
        for n in (2, 7, 24, 64):
            p_avg = 0.5 * (np.cos(np.pi / (2 * n)) ** (2 * n) + 1.0)
            assert survival_law(AnalyzerKind.IFM, None, n) == pytest.approx(
                p_avg * cycle_survival(n) ** n, abs=1e-12)
        grid = np.unique(np.geomspace(1, 10**6, 120).round().astype(np.int64))
        for kind in AnalyzerKind:
            mixture = survival_law(kind, None, grid)
            mean = np.mean([survival_law(kind, bell, grid) for bell in ALL_BELL_STATES], axis=0)
            assert np.all(np.abs(mixture - mean) <= 4 * np.spacing(mean))
            assert mixture.tolist() == [survival_law(kind, None, int(n)) for n in grid]

    def test_uniform_mixture_success_at_twenty_four_cycles(self):
        mean = np.mean([
            1.0 - analyze(AnalyzerKind.IFM, bell, 24).probability(PHOTON_LOST)
            for bell in ALL_BELL_STATES
        ])
        assert mean == pytest.approx(r_analytic(AnalyzerKind.IFM, 24) / 2.0, abs=1e-12)
        assert mean == pytest.approx(0.9034773551, abs=1e-9)

    def test_per_family_survival_split(self):
        n = 12
        stage2 = cycle_survival(n) ** n
        phi = 1.0 - analyze(AnalyzerKind.IFM, BellState.PHI_PLUS, n).probability(PHOTON_LOST)
        psi = 1.0 - analyze(AnalyzerKind.IFM, BellState.PSI_MINUS, n).probability(PHOTON_LOST)
        assert phi == pytest.approx(np.cos(np.pi / (2 * n)) ** (2 * n) * stage2, abs=1e-12)
        assert psi == pytest.approx(stage2, abs=1e-12)


class TestQzAnalyze:
    def test_two_cycle_survival(self):
        dist = analyze(AnalyzerKind.QZ, BellState.PHI_PLUS, 2)
        _, p = surviving_outcome(dist)
        assert p == pytest.approx(0.0625, abs=1e-15)

    def test_large_n_survival(self):
        _, p = surviving_outcome(analyze(AnalyzerKind.QZ, BellState.PSI_PLUS, 10**5))
        assert p >= 0.9999

    def test_single_cycle_flagged_degenerate(self):
        assert qz_is_degenerate(1)
        assert not qz_is_degenerate(2)
        assert qz_ancilla_survival(1) == pytest.approx(1.0)

    def test_loss_complement_exact(self):
        for n in (2, 5, 71):
            dist = analyze(AnalyzerKind.QZ, BellState.PHI_MINUS, n)
            assert dist.probability(PHOTON_LOST) == pytest.approx(
                1.0 - qz_ancilla_survival(n), abs=1e-15)


class TestQzCollapsedStates:
    def test_phi_plus_state(self):
        s = qz_collapsed_state(BellState.PHI_PLUS)
        sq3 = 1 / np.sqrt(3)
        assert s.amplitude("0C,0T") == pytest.approx(sq3)
        assert s.amplitude("0C,1T") == pytest.approx(sq3)
        assert s.amplitude("1C,0T") == pytest.approx(sq3)
        assert s.amplitude("1C,1T") == 0.0

    def test_psi_minus_state(self):
        s = qz_collapsed_state(BellState.PSI_MINUS)
        sq3 = 1 / np.sqrt(3)
        assert s.amplitude("0C,0T") == pytest.approx(sq3)
        assert s.amplitude("0C,1T") == pytest.approx(-sq3)
        assert s.amplitude("1C,0T") == pytest.approx(-sq3)

    def test_normalized(self):
        for bell in ALL_BELL_STATES:
            assert qz_collapsed_state(bell).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_inner_products_one_third(self):
        for a, b in itertools.combinations(ALL_BELL_STATES, 2):
            ip = qz_collapsed_state(a).inner(qz_collapsed_state(b))
            assert abs(ip) == pytest.approx(1 / 3, abs=1e-12)

    def test_phi_family_inner_product_sign(self):
        ip = qz_collapsed_state(BellState.PHI_PLUS).inner(qz_collapsed_state(BellState.PHI_MINUS))
        assert ip.real == pytest.approx(1 / 3, abs=1e-12)


class TestConditionalCorrectness:
    @pytest.mark.parametrize("kind", list(AnalyzerKind))
    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    @pytest.mark.parametrize("n", [1, 2, 7, 24, 71])
    def test_surviving_click_identifies_the_input(self, kind, bell, n):
        from zenodense.protocol import decode
        outcome, p = surviving_outcome(analyze(kind, bell, n))
        assert p == pytest.approx(survival_probability(kind, bell, n), abs=1e-15)
        decoded_bell, _ = decode(outcome.clicks, kind)
        assert decoded_bell is bell


class TestSemiCounterfactual:
    def test_every_bell_state_is_half_counterfactual(self):
        for bell in ALL_BELL_STATES:
            assert semi_counterfactual_stats(bell, 16) == 0.5

    def test_classical_objects(self):
        assert semi_counterfactual_stats(AbsorberState.passing()) == 0.0
        assert semi_counterfactual_stats(AbsorberState.blocking()) == 1.0

    @given(st.floats(0.05, np.pi / 2 - 0.05))
    def test_quantum_object_weight_is_block_probability(self, angle):
        absorber = AbsorberState.superposition(np.cos(angle), np.sin(angle))
        assert semi_counterfactual_stats(absorber) == pytest.approx(np.sin(angle) ** 2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            semi_counterfactual_stats("block")


class TestAnalyzerOutcomeInvariants:
    def test_pair_present_iff_not_lost(self):
        with pytest.raises(ValueError):
            AnalyzerOutcome(clicks=None, photon_lost=False, counterfactual_weight=0.5)
        with pytest.raises(ValueError):
            AnalyzerOutcome(clicks=DetectorPair("D1", "D3"), photon_lost=True,
                            counterfactual_weight=0.0)

    def test_detector_pair_validation(self):
        with pytest.raises(ValueError):
            DetectorPair("D3", "D1")
