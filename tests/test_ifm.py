"""Interaction-free measurement chain."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenodense.ifm import (
    ABSORBED,
    PHOTON_IN_A,
    PHOTON_IN_B,
    AbsorberState,
    blocked_survival,
    blocked_survival_sim,
    ifm_detect,
    ifm_evolve,
)
from zenodense.metrics import MAX_CURVE_CYCLES

# Log-spaced cycle counts over the whole range the CLI accepts, 1 to 10**6.
ORACLE_CYCLES = np.unique(np.geomspace(1, MAX_CURVE_CYCLES, 40).round().astype(int)).tolist()


class TestAbsorberState:
    def test_classical_constructors(self):
        assert AbsorberState.passing().pass_probability == 1.0
        assert AbsorberState.blocking().block_probability == 1.0

    def test_superposition_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            AbsorberState.superposition(1.0, 1.0)

    @given(st.floats(0.01, np.pi / 2 - 0.01))
    def test_superposition_probabilities(self, angle):
        absorber = AbsorberState.superposition(np.cos(angle), np.sin(angle))
        assert absorber.pass_probability + absorber.block_probability == pytest.approx(1.0)


class TestIfmEvolve:
    def test_free_chain_full_run_ends_in_b(self):
        for n in (1, 5, 25):
            state, survival = ifm_evolve(n, n, blocked=False)
            assert survival == 1.0
            assert state.probability("b") == pytest.approx(1.0, abs=1e-12)

    def test_free_chain_partial_amplitudes(self):
        state, survival = ifm_evolve(20, 7, blocked=False)
        theta = np.pi / 40
        assert survival == 1.0
        assert state.amplitude("a") == pytest.approx(np.cos(7 * theta), abs=1e-12)
        assert state.amplitude("b") == pytest.approx(np.sin(7 * theta), abs=1e-12)

    def test_single_blocked_cycle_absorbs_everything(self):
        _, survival = ifm_evolve(1, 1, blocked=True)
        assert survival == pytest.approx(0.0, abs=1e-30)

    def test_blocked_survival_frozen_value(self):
        # cos^20(pi/20), cross-checked against the per-cycle projection sim.
        state, survival = ifm_evolve(10, 10, blocked=True)
        assert survival == pytest.approx(0.7805460698, abs=1e-9)
        assert state.probability("a") == pytest.approx(1.0)

    def test_rejects_bad_cycle_counts(self):
        with pytest.raises(ValueError):
            ifm_evolve(5, 6, blocked=False)
        with pytest.raises(ValueError):
            ifm_evolve(5, 0, blocked=False)


class TestBlockedSurvivalOracle:
    @pytest.mark.parametrize("n", ORACLE_CYCLES)
    def test_closed_form_matches_per_cycle_projection(self, n):
        assert abs(blocked_survival(n) - blocked_survival_sim(n)) < 1e-10

    def test_the_blocked_chain_has_one_closed_form(self):
        # ifm_evolve's survival after all N cycles is blocked_survival's value, bit for bit.
        for n in sorted(set(range(1, 20_001)) | set(ORACLE_CYCLES)):
            assert ifm_evolve(n, n, blocked=True)[1] == blocked_survival(n)

    def test_frozen_values(self):
        assert blocked_survival_sim(10) == pytest.approx(0.7805460698, abs=1e-9)
        assert blocked_survival_sim(100) == pytest.approx(0.9756269141, abs=1e-9)

    def test_survival_strictly_increasing_and_to_one(self):
        n_values = np.arange(1, 4097)
        survival = np.cos(np.pi / (2 * n_values)) ** (2 * n_values)
        assert np.all(np.diff(survival) > 0)
        assert survival[-1] > 0.999


class TestIfmDetect:
    def test_pass_object_sends_photon_to_b(self):
        dist = ifm_detect(25, AbsorberState.passing())
        assert dist.probability(PHOTON_IN_B) == pytest.approx(1.0, abs=1e-12)

    def test_single_cycle_block_always_absorbs(self):
        dist = ifm_detect(1, AbsorberState.blocking())
        assert dist.probability(ABSORBED) == pytest.approx(1.0, abs=1e-12)

    def test_block_object_zeno_freezes_photon(self):
        dist = ifm_detect(100, AbsorberState.blocking())
        assert dist.probability(PHOTON_IN_A) == pytest.approx(0.9756269141, abs=1e-9)
        assert dist.probability(ABSORBED) == pytest.approx(1 - 0.9756269141, abs=1e-9)

    @given(st.floats(0.05, np.pi / 2 - 0.05), st.integers(1, 64))
    def test_quantum_object_marginals_are_branch_weighted(self, angle, n):
        lam, mu = np.cos(angle), np.sin(angle)
        dist = ifm_detect(n, AbsorberState.superposition(lam, mu))
        survival = blocked_survival(n)
        assert dist.probability(PHOTON_IN_B) == pytest.approx(lam**2, abs=1e-10)
        assert dist.probability(PHOTON_IN_A) == pytest.approx(mu**2 * survival, abs=1e-10)
        assert dist.probability(ABSORBED) == pytest.approx(mu**2 * (1 - survival), abs=1e-10)

    @given(st.integers(1, 200))
    def test_distribution_sums_to_one(self, n):
        dist = ifm_detect(n, AbsorberState.superposition(0.6, 0.8j))
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)
