"""Zeno gates: cycle channel, asymptotic dual gate, and the element-level oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenodense import zeno
from zenodense.bell import ALL_BELL_STATES, COMPOSITE_LABELS, BellState
from zenodense.core import PureState
from zenodense.ifm import AbsorberState
from zenodense.zeno import (
    DISCARDED,
    cycle_survival,
    dqz_apply,
    dqz_asymptotic,
    dqz_cycle_operator,
    dqz_element_sim,
    dqz_element_survival,
    post_gate_target,
    qz_gate,
)

SQ2 = np.sqrt(2.0)
POL = ("H", "V")


def photon(alpha, beta):
    return PureState(POL, [alpha, beta])


class TestCycleOperator:
    def test_rejects_a_non_orthogonal_operator(self, monkeypatch):
        # Both pass rows on one slot: K keeps cos(theta) on the diagonal and no rotation.
        monkeypatch.setattr(zeno, "_PASS_V", zeno._PASS_H)
        with pytest.raises(ValueError, match="not orthogonal"):
            dqz_cycle_operator(0, 2)

    def test_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            dqz_cycle_operator(0, 2)[2, 2] = 0.0

    def test_branch_zero_at_two_cycles(self):
        assert cycle_survival(2) == pytest.approx(0.75, abs=1e-15)
        c = np.cos(np.pi / 4)
        expected = np.eye(4)
        expected[2:, 2:] = [[c, -c], [c, c]]
        assert np.allclose(dqz_cycle_operator(0, 2), expected, atol=1e-12)

    def test_branch_one_has_opposite_off_diagonal_signs(self):
        k0 = dqz_cycle_operator(0, 2)
        k1 = dqz_cycle_operator(1, 2)
        assert k0[2, 3] == pytest.approx(-k1[2, 3])
        assert k0[3, 2] == pytest.approx(-k1[3, 2])
        assert np.allclose(k0[:2, :2], np.eye(2))
        assert np.allclose(k1[:2, :2], np.eye(2))

    @pytest.mark.parametrize("branch", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 33, 64])
    def test_n_cycles_give_exact_quarter_turn_of_pass_subspace(self, branch, n):
        kn = np.linalg.matrix_power(dqz_cycle_operator(branch, n), n)
        rotating = kn[2:, 2:]
        quarter = np.array([[0.0, (-1.0) ** (branch + 1)], [(-1.0) ** branch, 0.0]])
        assert np.max(np.abs(rotating - quarter)) < 1e-12
        assert np.allclose(kn[:2, :2], np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("branch", [0, 1])
    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_orthogonality_over_full_cycle_range(self, branch, n):
        k = dqz_cycle_operator(branch, n)
        assert np.max(np.abs(k.T @ k - np.eye(4))) < 1e-12

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            dqz_cycle_operator(2, 4)


class TestDqzApply:
    def test_surviving_weight_at_twelve_cycles(self):
        out = dqz_apply(BellState.PHI_PLUS, 12)
        assert out.surviving_weight == pytest.approx(0.9024333850, abs=1e-9)
        assert out.lost_weight == pytest.approx(0.0975666150, abs=1e-9)

    def test_large_n_limit(self):
        out = dqz_apply(BellState.PSI_MINUS, 10**5)
        assert out.surviving_weight >= 0.99996

    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 64])
    def test_conditional_state_is_the_separable_target(self, bell, n):
        out = dqz_apply(bell, n)
        assert out.surviving.fidelity_with(post_gate_target(bell)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    @given(n=st.integers(1, 200))
    @settings(max_examples=25)
    def test_trace_preservation(self, bell, n):
        out = dqz_apply(bell, n)
        total = out.surviving_weight * out.surviving.surviving_weight() + out.lost_weight
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_targets_are_orthonormal_across_bell_inputs(self):
        kets = [post_gate_target(bell) for bell in ALL_BELL_STATES]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                expected = 1.0 if i == j else 0.0
                assert abs(a.inner(b)) == pytest.approx(expected, abs=1e-12)


class TestQzGateAsymptotic:
    CASES = [
        # (object, photon, expected outcome) for the H gate
        (AbsorberState.passing(), (1, 0), ("pass", "V")),
        (AbsorberState.passing(), (0, 1), ("pass", "H")),
        (AbsorberState.blocking(), (1, 0), ("block", "H")),
        (AbsorberState.blocking(), (0, 1), ("block", DISCARDED)),
    ]

    @pytest.mark.parametrize("absorber,amps,expected", CASES)
    def test_h_gate_truth_table(self, absorber, amps, expected):
        dist = qz_gate("H", None, absorber, photon(*amps))
        assert dist.probability(expected) == pytest.approx(1.0, abs=1e-12)

    def test_v_gate_mirrors_h_gate(self):
        dist = qz_gate("V", None, AbsorberState.blocking(), photon(1, 0))
        assert dist.probability(("block", DISCARDED)) == pytest.approx(1.0)
        dist = qz_gate("V", None, AbsorberState.passing(), photon(0, 1))
        assert dist.probability(("pass", "H")) == pytest.approx(1.0)

    def test_superposed_object_and_photon(self):
        absorber = AbsorberState.superposition(0.6, 0.8)
        dist = qz_gate("H", None, absorber, photon(1 / SQ2, 1 / SQ2))
        # Discard happens exactly on the block x rotated-in component.
        assert dist.probability(("block", DISCARDED)) == pytest.approx(0.8**2 * 0.5, abs=1e-12)
        assert dist.probability(("block", "H")) == pytest.approx(0.8**2 * 0.5, abs=1e-12)
        assert dist.probability(("pass", "V")) == pytest.approx(0.6**2 * 0.5, abs=1e-12)
        assert dist.probability(("pass", "H")) == pytest.approx(0.6**2 * 0.5, abs=1e-12)


class TestQzGateFiniteN:
    def test_block_branch_survival_decays_per_cycle(self):
        for n in (1, 4, 32, 200, 50_000):
            dist = qz_gate("H", n, AbsorberState.blocking(), photon(1, 0))
            expected = np.cos(np.pi / (2 * n)) ** (2 * n)
            assert dist.probability(("block", "H")) == pytest.approx(expected, abs=1e-12)
            assert dist.probability(("block", DISCARDED)) == pytest.approx(1 - expected, abs=1e-12)

    def test_pass_branch_never_loses_amplitude(self):
        for n in (1, 3, 17):
            dist = qz_gate("H", n, AbsorberState.passing(), photon(1, 0))
            assert dist.probability(("pass", "V")) == pytest.approx(1.0, abs=1e-12)

    def test_finite_n_converges_to_asymptotic_table(self):
        dist = qz_gate("H", 10**4, AbsorberState.blocking(), photon(0, 1))
        assert dist.probability(("block", DISCARDED)) == pytest.approx(1.0, abs=1e-6)

    @given(st.integers(1, 128))
    def test_distribution_sums_to_one(self, n):
        absorber = AbsorberState.superposition(1 / SQ2, 1j / SQ2)
        dist = qz_gate("V", n, absorber, photon(0.8, 0.6))
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)


class TestDqzAsymptotic:
    def test_pure_pass_h_photon(self):
        out = dqz_asymptotic(AbsorberState.passing(), photon(1, 0))
        assert out.probability("pass,V") == pytest.approx(1.0)

    def test_pure_block_v_photon(self):
        out = dqz_asymptotic(AbsorberState.blocking(), photon(0, 1))
        assert out.probability("block,V") == pytest.approx(1.0)

    def test_equal_superpositions_give_four_terms(self):
        absorber = AbsorberState.superposition(1 / SQ2, 1 / SQ2)
        out = dqz_asymptotic(absorber, photon(1 / SQ2, 1 / SQ2))
        for label in COMPOSITE_LABELS:
            assert out.probability(label) == pytest.approx(0.25, abs=1e-12)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, np.pi / 2 - 0.05), st.floats(0.05, np.pi / 2 - 0.05))
    def test_matches_element_sim_branch_by_branch(self, a, b):
        absorber = AbsorberState.superposition(np.cos(a), np.sin(a))
        pol = photon(np.cos(b), np.sin(b))
        closed = dqz_asymptotic(absorber, pol)
        joint = PureState(
            COMPOSITE_LABELS,
            np.kron([absorber.block_amplitude, absorber.pass_amplitude],
                    [pol.amplitude("H"), pol.amplitude("V")]),
        )
        sim, lost = dqz_element_sim(joint, None)
        assert lost == pytest.approx(0.0, abs=1e-12)
        for label in COMPOSITE_LABELS:
            assert sim.amplitude(label) == pytest.approx(closed.amplitude(label), abs=1e-12)


class TestElementOracleVsChannel:
    """The element-level dual gate is the verification oracle for the cycle
    channel. The two survival laws agree at N = 1 and asymptotically; in
    between the element model survives more because only the block branch
    feeds the absorber. The tests pin that exact relationship."""

    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64, 50_000])
    def test_element_survival_closed_form(self, bell, n):
        micro = dqz_element_survival(bell, n)
        expected = 0.5 * (1 + np.cos(np.pi / (2 * n)) ** (2 * n))
        assert micro == pytest.approx(expected, abs=1e-12)

    def test_agreement_at_single_cycle(self):
        for bell in ALL_BELL_STATES:
            assert dqz_element_survival(bell, 1) == pytest.approx(cycle_survival(1), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_element_model_survives_at_least_as_much(self, n):
        # 0.5 (1 + x^N) >= (0.5 (1 + x))^N for x in [0, 1] (power-mean).
        micro = dqz_element_survival(BellState.PHI_MINUS, n)
        channel = cycle_survival(n) ** n
        assert micro > channel

    def test_gap_vanishes_asymptotically(self):
        gaps = [dqz_element_survival(BellState.PSI_PLUS, n) - cycle_survival(n) ** n
                for n in (2, 8, 32, 128, 512)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    @pytest.mark.parametrize("bell", ALL_BELL_STATES)
    def test_element_conditional_state_matches_family_polarization(self, bell):
        out, lost = dqz_element_sim(bell.ket(), 4096)
        conditional = out.amplitudes / np.sqrt(out.norm_squared())
        pol = bell.surviving_polarization
        mass = sum(abs(conditional[COMPOSITE_LABELS.index(f"{e},{pol}")]) ** 2
                   for e in ("block", "pass"))
        assert mass == pytest.approx(1.0, abs=1e-6)
