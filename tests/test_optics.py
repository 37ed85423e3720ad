"""Optical element constructors and their composition identities."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenodense import analyzers, ifm, metrics, protocol, zeno
from zenodense.analyzers import AnalyzerKind
from zenodense.bell import BellState
from zenodense.core import unitarity_defect, PureState
from zenodense.ifm import AbsorberState
from zenodense.optics import (
    POLARIZATION_LABELS,
    absorbing_cycles,
    beam_splitter,
    cycle_angle,
    cycle_counts,
    pbs_route,
    polarization_rotator,
    rotator_pbs_arm_matrix,
    zeno_law,
)


class TestCycleAngle:
    def test_angle(self):
        assert cycle_angle(10) == pytest.approx(np.pi / 20)

    def test_twice_theta_is_phi_bit_for_bit_and_the_array_equals_its_scalars(self):
        n = np.arange(1, metrics.MAX_CURVE_CYCLES + 1)
        theta = cycle_angle(n)
        assert np.array_equal(2.0 * theta, np.pi / n.astype(float))
        assert theta.tolist() == [float(cycle_angle(k)) for k in n.tolist()]


_PHI, _DQZ, _BLOCK = BellState.PHI_PLUS, AnalyzerKind.DQZ, AbsorberState.blocking()
_H = PureState.basis(POLARIZATION_LABELS, "H")


# Each public entry point that takes a cycle count, by name.
_CYCLE_COUNT_CALLS = {
    "cycle_angle": cycle_angle, "cycle_counts": cycle_counts,
    "zeno_law": lambda n: zeno_law(n, 1.0, 1.0),
    "cycle_survival": zeno.cycle_survival, "channel_survival": zeno.channel_survival,
    "dqz_cycle_operator": lambda n: zeno.dqz_cycle_operator(0, n),
    "dqz_apply": lambda n: zeno.dqz_apply(_PHI, n),
    "qz_gate": lambda n: zeno.qz_gate("H", n, _BLOCK, _H),
    "dqz_element_sim": lambda n: zeno.dqz_element_sim(_PHI.ket(), n),
    "dqz_element_survival": lambda n: zeno.dqz_element_survival(_PHI, n),
    "blocked_survival": ifm.blocked_survival, "blocked_survival_sim": ifm.blocked_survival_sim,
    "ifm_evolve": lambda n: ifm.ifm_evolve(n, 1, True),
    "ifm_joint_amplitudes": lambda n: ifm.ifm_joint_amplitudes(n, _BLOCK),
    "ifm_detect": lambda n: ifm.ifm_detect(n, _BLOCK),
    "qz_ancilla_survival": analyzers.qz_ancilla_survival,
    "ifm_family_survival": lambda n: analyzers.ifm_family_survival(_PHI, n),
    "ifm_stage1_evolve": lambda n: analyzers.ifm_stage1_evolve(_PHI, n),
    "survival_law": lambda n: analyzers.survival_law(AnalyzerKind.IFM, _PHI, n),
    "survival_probability": lambda n: analyzers.survival_probability(_DQZ, _PHI, n),
    "analyze": lambda n: analyzers.analyze(_DQZ, _PHI, n),
    "semi_counterfactual_stats": lambda n: analyzers.semi_counterfactual_stats(_PHI, n),
    "p_survival": lambda n: metrics.p_survival(_DQZ, n),
    "r_analytic": lambda n: metrics.r_analytic(_DQZ, n),
    "resource_counts": lambda n: metrics.resource_counts(_DQZ, n),
    "efficiency_curve": lambda n: metrics.efficiency_curve(_DQZ, n, 5),
    "simulate": lambda n: protocol.simulate(_DQZ, n, 10, 1),
    "run_protocol": lambda n: protocol.run_protocol("00", _DQZ, n, master_seed=1),
}


@pytest.mark.parametrize("n", [float("nan"), float("inf"), -float("inf"), 0, 0.5, 10**400],
                         ids=["nan", "inf", "-inf", "0", "0.5", "10**400"])
@pytest.mark.parametrize("name", _CYCLE_COUNT_CALLS)
def test_a_bad_cycle_count_is_rejected(name, n):
    with pytest.raises(ValueError):
        _CYCLE_COUNT_CALLS[name](n)


def test_cycle_counts_checks_every_element():
    assert cycle_counts([1, 2.5, 10**6]).tolist() == [1.0, 2.5, 1e6]
    for bad in (float("nan"), float("inf"), 0.5):
        with pytest.raises(ValueError):
            cycle_counts([2, bad, 3])


class TestBeamSplitter:
    def test_quarter_turn_swaps_paths(self):
        out = beam_splitter(np.pi / 2).matrix @ PureState.basis(("a", "b"), "a").amplitudes
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_partial_rotation_amplitudes(self):
        n, k = 16, 5
        theta = cycle_angle(n)
        amps = PureState.basis(("a", "b"), "a").amplitudes
        for _ in range(k):
            amps = beam_splitter(theta).matrix @ amps
        assert amps[0] == pytest.approx(np.cos(k * theta), abs=1e-12)
        assert amps[1] == pytest.approx(np.sin(k * theta), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 63, 64, 257, 1024, 4096, 65536, 100000])
    def test_n_fold_power_moves_photon_exactly(self, n):
        bs = beam_splitter(cycle_angle(n))
        power = np.linalg.matrix_power(bs.matrix, n)
        out = power @ np.array([1.0, 0.0])
        assert abs(out[0]) < 1e-10
        assert abs(abs(out[1]) - 1.0) < 1e-10

    @given(st.floats(0.01, np.pi / 4), st.floats(0.01, np.pi / 4))
    def test_rotation_composition(self, a, b):
        left = beam_splitter(a).matrix @ beam_splitter(b).matrix
        assert np.allclose(left, beam_splitter(a + b).matrix, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, -0.1, np.pi / 2 + 0.01, np.pi])
    def test_rejects_out_of_range_angles(self, theta):
        with pytest.raises(ValueError):
            beam_splitter(theta)


class TestPolarizationRotators:
    def test_h_axis_walks_h_to_v(self):
        n = 40
        pr = polarization_rotator("H", cycle_angle(n))
        out = np.linalg.matrix_power(pr.matrix, n) @ np.array([1.0, 0.0])
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)

    def test_v_axis_single_step(self):
        theta = cycle_angle(12)
        out = polarization_rotator("V", theta).matrix @ PureState.basis(("H", "V"), "V").amplitudes
        assert out[1] == pytest.approx(np.cos(theta), abs=1e-12)
        assert out[0] == pytest.approx(np.sin(theta), abs=1e-12)

    @given(st.floats(0.01, np.pi / 2), st.sampled_from(["H", "V"]))
    def test_orthogonality(self, theta, axis):
        mat = polarization_rotator(axis, theta).matrix
        assert np.allclose(mat @ mat.T, np.eye(2), atol=1e-12)

    def test_v_axis_is_transpose_of_h_axis(self):
        theta = 0.321
        h = polarization_rotator("H", theta).matrix
        v = polarization_rotator("V", theta).matrix
        assert np.allclose(v, h.T, atol=1e-15)


class TestPbsRouting:
    @pytest.mark.parametrize("axis,transmitted,reflected",
                             [("H", "H", "V"), ("V", "V", "H")])
    def test_routing(self, axis, transmitted, reflected):
        pbs = pbs_route(axis)
        s_in = PureState.basis(pbs.labels, f"{transmitted},in")
        out = PureState(pbs.labels, pbs.matrix @ s_in.amplitudes)
        assert out.probability(f"{transmitted},transmitted") == pytest.approx(1.0)
        s_in = PureState.basis(pbs.labels, f"{reflected},in")
        out = PureState(pbs.labels, pbs.matrix @ s_in.amplitudes)
        assert out.probability(f"{reflected},reflected") == pytest.approx(1.0)

    @pytest.mark.parametrize("axis", ["H", "V"])
    def test_involution(self, axis):
        mat = pbs_route(axis).matrix
        assert np.allclose(mat @ mat, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("axis", ["H", "V"])
    def test_unitary(self, axis):
        assert unitarity_defect(pbs_route(axis).matrix) < 1e-12


class TestRotatorPbsComposition:
    @pytest.mark.parametrize("axis", ["H", "V"])
    @pytest.mark.parametrize("n", [1, 2, 5, 24, 100])
    def test_reproduces_beam_splitter_on_arm_pair(self, axis, n):
        theta = cycle_angle(n)
        composite = rotator_pbs_arm_matrix(axis, theta)
        assert np.max(np.abs(composite - beam_splitter(theta).matrix)) < 1e-12


def oracle_cycle_maps(n):
    """The per-cycle maps the five element oracles hand to absorbing_cycles at N cycles."""
    maps = []

    def spy(cycle, absorbed, amplitudes, n_cycles):
        maps.append(np.array(cycle))
        return absorbing_cycles(cycle, absorbed, amplitudes, n_cycles)

    with mock.patch.object(zeno, "absorbing_cycles", spy), \
            mock.patch.object(ifm, "absorbing_cycles", spy), \
            mock.patch.object(analyzers, "absorbing_cycles", spy):
        photon = PureState(("H", "V"), [1.0, 0.0])
        for n_cycles in (n, None):
            zeno.qz_gate("V", n_cycles, AbsorberState.blocking(), photon)
            zeno.dqz_element_sim(BellState.PSI_MINUS.ket(), n_cycles)
        ifm.blocked_survival_sim(n)
        ifm.ifm_joint_amplitudes(n, AbsorberState.blocking())
        analyzers.ifm_stage1_evolve(BellState.PHI_PLUS, n)
    return maps


def rotate_then_absorb(cycle, absorbed, amplitudes, n_cycles):
    """The element step written out: rotate, then absorb what reached the absorbed slots."""
    v = np.array(amplitudes, dtype=complex)
    lost = 0.0
    for _ in range(n_cycles):
        v = cycle @ v
        lost += float(np.sum(np.abs(v[absorbed]) ** 2))
        v[absorbed] = 0.0
    return v, lost


class TestAbsorbingCycles:
    def test_oracles_use_unitary_maps(self):
        maps = oracle_cycle_maps(7)
        assert len(maps) == 7
        for cycle in maps:
            assert unitarity_defect(cycle) < 1e-12

    @given(st.integers(1, 64), st.integers(0, 6), st.data())
    def test_matches_explicit_rotate_then_absorb_loop(self, n, which, data):
        cycle = oracle_cycle_maps(n)[which]
        dim = len(cycle)
        absorbed = sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
        amplitudes = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
        out, lost = absorbing_cycles(cycle, absorbed, amplitudes, n)
        expected, expected_lost = rotate_then_absorb(cycle, absorbed, amplitudes, n)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert abs(lost - expected_lost) < 1e-12

    def test_leaves_its_inputs_alone(self):
        cycle = beam_splitter(cycle_angle(4)).matrix
        before = cycle.copy()
        amplitudes = np.array([1.0, 0.0])
        absorbing_cycles(cycle, [1], amplitudes, 4)
        assert np.array_equal(cycle, before) and np.array_equal(amplitudes, [1.0, 0.0])
