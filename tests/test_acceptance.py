"""Acceptance suite: the release gate, one criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Criteria 2, 4, 5, 6 and 7 run the self-test's checks, which
hold their tolerances, on wider grids; the other tolerances are pinned here.
"""

import itertools
from contextlib import contextmanager

import numpy as np

from zenodense import invariants
from zenodense.analyzers import ALL_BELL_STATES, AnalyzerKind, qz_collapsed_state
from zenodense.bell import COMPOSITE_LABELS
from zenodense.core import PureState
from zenodense.ifm import AbsorberState, blocked_survival, blocked_survival_sim, ifm_evolve
from zenodense.metrics import efficiency_curve, r_analytic
from zenodense.optics import beam_splitter, cycle_angle, rotator_pbs_arm_matrix
from zenodense.protocol import run_protocol, simulate
from zenodense.zeno import DISCARDED, dqz_element_sim, qz_gate

DQZ, IFM, QZ = AnalyzerKind.DQZ, AnalyzerKind.IFM, AnalyzerKind.QZ


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_01_golden_throughput_point():
    with criterion("1 golden throughput point (dqz, N=7)"):
        assert abs(r_analytic(DQZ, 7) - 1.678) <= 0.0005


def test_02_threshold_table():
    with criterion("2 threshold table at R=1.8 and resource counts"):
        assert invariants.check_golden_thresholds() is None


def test_03_curve_ordering_and_limits():
    with criterion("3 curve ordering dqz > ifm > qz on [2, 200] and limits"):
        dqz = efficiency_curve(DQZ, 2, 200).r_values
        ifm = efficiency_curve(IFM, 2, 200).r_values
        qz = efficiency_curve(QZ, 2, 200).r_values
        assert np.all(dqz > ifm) and np.all(ifm > qz)
        for kind in (DQZ, IFM, QZ):
            assert r_analytic(kind, 10**5) > 1.999


def test_04_experimental_benchmark_crossing():
    with criterion("4 benchmark crossing at N=7"):
        assert invariants.check_golden_thresholds() is None


def test_05_analytic_vs_monte_carlo():
    with criterion(f"5 analytic vs Monte-Carlo, 1e6 shots, seed 42, {invariants.MC_SIGMAS} sigma"):
        rows = itertools.product((DQZ, IFM, QZ), (2, 7, 12, 24, 71))
        assert invariants.check_analytic_vs_mc(rows, shots=10**6, seed=42) is None


def test_06_conditional_decode_correctness():
    with criterion("6 decode round trip; zero decode errors over 1e6 shots per analyzer"):
        for kind in (DQZ, IFM, QZ):
            estimate = simulate(kind, 12, 10**6, master_seed=42)
            assert estimate.decode_error_count == 0
        # Every surviving pair decodes to the message sent, for every analyzer and m.
        assert invariants.check_decode_roundtrip() is None
        # Property check through the one-shot path as well.
        for kind in (DQZ, IFM, QZ):
            for i in range(500):
                out = run_protocol("uniform", kind, 7, master_seed=1, shot_index=i)
                assert out.photon_lost or out.decoded == out.message_sent


def test_07_channel_algebra():
    with criterion("7 channel algebra: orthogonality, trace, separable targets, N = 1..64"):
        operators, conditionals = invariants.cycle_channels(range(1, 65))
        assert invariants.check_operator_orthogonality(operators) is None
        assert invariants.check_channel_trace(conditionals) is None
        assert invariants.check_bell_targets(conditionals) is None


def test_08_element_level_oracle():
    name = ("8 element-level gate reproduces the asymptotic logic table at N=1e4 "
            "and rotator+PBS equals the beam splitter")
    with criterion(name):
        # Rotator followed by PBS routing is the beam splitter, exactly.
        for axis in ("H", "V"):
            for n in (1, 2, 7, 24, 1000):
                theta = cycle_angle(n)
                gap = np.max(np.abs(rotator_pbs_arm_matrix(axis, theta)
                                    - beam_splitter(theta).matrix))
                assert gap < 1e-12

        # Asymptotic logic rows at N = 1e4. The defined-output rows are
        # checked conditionally on survival (they are exact or within 1e-8);
        # the block/matching-polarization row's absolute discard mass is
        # exactly 1 - cos^{2N}(theta_N) = 2.467e-4 at this N, pinned below.
        n = 10**4
        h_photon = PureState(("H", "V"), [1, 0])
        v_photon = PureState(("H", "V"), [0, 1])
        for axis, flip_in, keep_in in (("H", h_photon, v_photon), ("V", v_photon, h_photon)):
            other = "V" if axis == "H" else "H"
            dist = qz_gate(axis, n, AbsorberState.passing(), flip_in)
            assert abs(dist.probability(("pass", other)) - 1.0) <= 1e-4
            dist = qz_gate(axis, n, AbsorberState.passing(), keep_in)
            assert abs(dist.probability(("pass", axis)) - 1.0) <= 1e-4
            dist = qz_gate(axis, n, AbsorberState.blocking(), flip_in)
            survival = dist.probability(("block", axis))
            discard = dist.probability(("block", DISCARDED))
            assert abs(survival / (1.0 - discard) - 1.0) <= 1e-4
            assert abs(discard - (1.0 - blocked_survival(n))) <= 1e-10
            dist = qz_gate(axis, n, AbsorberState.blocking(), keep_in)
            assert abs(dist.probability(("block", DISCARDED)) - 1.0) <= 1e-4

        # Dual-gate composite on the equal superposition: four branch
        # probabilities within 1e-4 of 1/4.
        joint = PureState(COMPOSITE_LABELS, np.full(4, 0.5))
        out, lost = dqz_element_sim(joint, n)
        for label in COMPOSITE_LABELS:
            assert abs(abs(out.amplitude(label)) ** 2 - 0.25) <= 1e-4
        assert lost <= 2e-4


def test_09_ifm_chain_survival():
    with criterion("9 IFM chain: free survival exactly 1, blocked survival matches sim"):
        for n in (1, 7, 100, 512):
            _, survival = ifm_evolve(n, n, blocked=False)
            assert survival == 1.0
        for n in range(1, 513):
            assert abs(blocked_survival(n) - blocked_survival_sim(n)) < 1e-10


def test_10_qz_collapsed_states():
    with criterion("10 collapsed states normalized, pairwise |overlap| = 1/3"):
        states = [qz_collapsed_state(bell) for bell in ALL_BELL_STATES]
        for s in states:
            assert abs(s.norm_squared() - 1.0) <= 1e-12
        for a, b in itertools.combinations(states, 2):
            assert abs(abs(a.inner(b)) - 1 / 3) <= 1e-12
