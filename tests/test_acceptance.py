"""Acceptance suite: the release gate, one criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Tolerances are pinned here and nowhere else.
"""

import itertools
from contextlib import contextmanager

import numpy as np

from zenodense.analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    analyze,
    click_pair,
    qz_collapsed_state,
)
from zenodense.bell import COMPOSITE_LABELS
from zenodense.core import PureState
from zenodense.ifm import AbsorberState, blocked_survival, blocked_survival_sim, ifm_evolve
from zenodense.metrics import (
    EXPERIMENTAL_BENCHMARK_R,
    efficiency_curve,
    min_n_for_target,
    r_analytic,
    resource_counts,
)
from zenodense.optics import CycleAngle, beam_splitter, rotator_pbs_arm_matrix
from zenodense.protocol import MESSAGES, decode, encode, run_protocol, simulate
from zenodense.zeno import DISCARDED, dqz_cycle_channel, dqz_element_sim, post_gate_target, qz_gate

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
        thresholds = {kind: min_n_for_target(kind, 1.8) for kind in (QZ, IFM, DQZ)}
        assert thresholds == {QZ: 71, IFM: 24, DQZ: 12}
        assert resource_counts(QZ, 71) == (71, True)
        assert resource_counts(IFM, 24) == (96, False)
        assert resource_counts(DQZ, 12) == (24, False)


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
        assert min_n_for_target(DQZ, EXPERIMENTAL_BENCHMARK_R) == 7
        assert r_analytic(DQZ, 6) < EXPERIMENTAL_BENCHMARK_R <= r_analytic(DQZ, 7)


def test_05_analytic_vs_monte_carlo():
    with criterion("5 analytic vs Monte-Carlo, 1e6 shots, seed 42, 3 sigma (0.004)"):
        for kind, n in itertools.product((DQZ, IFM, QZ), (2, 7, 12, 24, 71)):
            estimate = simulate(kind, n, 10**6, master_seed=42)
            assert abs(estimate.r_hat - r_analytic(kind, n)) <= 0.004, (kind, n)


def test_06_conditional_decode_correctness():
    with criterion("6 decode round trip; zero decode errors over 1e6 shots per analyzer"):
        for kind in (DQZ, IFM, QZ):
            estimate = simulate(kind, 12, 10**6, master_seed=42)
            assert estimate.decode_error_count == 0
        # Every surviving pair decodes to the message sent, for every analyzer and m.
        for kind, message, m in itertools.product((DQZ, IFM, QZ), MESSAGES, (0, 1)):
            bell = encode(message)
            assert decode(click_pair(kind, bell, m), kind) == (bell, message)
        # Property check through the one-shot path as well.
        for kind in (DQZ, IFM, QZ):
            for i in range(500):
                out = run_protocol("uniform", kind, 7, master_seed=1, shot_index=i)
                assert out.photon_lost or out.decoded == out.message_sent


def test_07_channel_algebra():
    with criterion("7 channel algebra: orthogonality, trace, separable targets"):
        for branch in (0, 1):
            for n in range(1, 65):
                k = dqz_cycle_channel(branch, n).operator
                assert np.max(np.abs(k.T @ k - np.eye(4))) < 1e-12
        for bell in ALL_BELL_STATES:
            target = post_gate_target(bell)
            for n in range(1, 65):
                dist = analyze(DQZ, bell, n)
                total = sum(p for _, p in dist)
                assert abs(total - 1.0) <= 1e-10
                from zenodense.zeno import dqz_apply
                out = dqz_apply(bell, n)
                weight_sum = out.surviving_weight * out.surviving.surviving_weight() + out.lost_weight
                assert abs(weight_sum - 1.0) <= 1e-10
                assert abs(out.surviving.fidelity_with(target) - 1.0) <= 1e-10


def test_08_element_level_oracle():
    name = ("8 element-level gate reproduces the asymptotic logic table at N=1e4 "
            "and rotator+PBS equals the beam splitter")
    with criterion(name):
        # Rotator followed by PBS routing is the beam splitter, exactly.
        for axis in ("H", "V"):
            for n in (1, 2, 7, 24, 1000):
                theta = CycleAngle(n).theta
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
