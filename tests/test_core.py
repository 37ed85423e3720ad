"""Core state/operator/measurement primitives."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zenodense.core import (
    DRAWS_PER_SHOT,
    DensityMatrix,
    Operator,
    OutcomeDistribution,
    PureState,
    apply_operator,
    hadamard,
    measure,
    shot_stream,
    shot_uniforms,
    tensor,
    unitarity_defect,
)
from zenodense.optics import beam_splitter

SQ2 = np.sqrt(2.0)


def as_uniforms(words):
    """numpy's Philox double from raw words: (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0**-53


def state(labels, amps, **kw):
    return PureState(labels, amps, **kw)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            state(("a", "b"), [1.0, 1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            state(("a", "a"), [1.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            state(("a", "b"), [np.nan, 0.0])

    def test_basis_and_lookup(self):
        s = PureState.basis(("x", "y", "z"), "y")
        assert s.amplitude("y") == 1.0
        assert s.probability("x") == 0.0


class TestTensor:
    def test_product_of_basis_kets(self):
        s = tensor(PureState.basis(("pass", "block"), "pass"),
                   PureState.basis(("H", "V"), "H"))
        assert s.amplitude("pass,H") == 1.0
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_distributes_over_superposition(self):
        plus = state(("pass", "block"), [1 / SQ2, 1 / SQ2])
        s = tensor(plus, PureState.basis(("H", "V"), "H"))
        assert s.amplitude("pass,H") == pytest.approx(1 / SQ2)
        assert s.amplitude("block,H") == pytest.approx(1 / SQ2)
        assert s.amplitude("pass,V") == 0.0

    def test_general_two_by_two_product(self):
        # (lam |pass> + mu |block>) x (alpha |H> + beta |V>) carries the four
        # pairwise amplitude products.
        lam, mu = 0.6, 0.8
        alpha, beta = 1 / SQ2, 1j / SQ2
        s = tensor(state(("pass", "block"), [lam, mu]),
                   state(("H", "V"), [alpha, beta]))
        assert s.amplitude("pass,H") == pytest.approx(lam * alpha)
        assert s.amplitude("pass,V") == pytest.approx(lam * beta)
        assert s.amplitude("block,H") == pytest.approx(mu * alpha)
        assert s.amplitude("block,V") == pytest.approx(mu * beta)

    def test_dimension_cap(self):
        big = PureState.basis([str(i) for i in range(8)], "0")
        small = PureState.basis(("x", "y", "z"), "x")
        with pytest.raises(ValueError, match="exceeds"):
            tensor(big, small)

    @given(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
    def test_tensor_preserves_normalization(self, a, b):
        left = state(("0", "1"), [np.cos(a), np.sin(a)])
        right = state(("2", "3"), [np.cos(b), np.sin(b) * 1j])
        assert tensor(left, right).norm_squared() == pytest.approx(1.0, abs=1e-12)


class TestApplyOperator:
    def test_identity(self):
        s = state(("a", "b"), [0.6, 0.8])
        out = apply_operator(Operator(np.eye(2), ("a", "b")), s)
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_balanced_splitter_on_path_a(self):
        out = apply_operator(beam_splitter(np.pi / 4), PureState.basis(("a", "b"), "a"))
        assert out.amplitude("a") == pytest.approx(1 / SQ2)
        assert out.amplitude("b") == pytest.approx(1 / SQ2)

    def test_n_fold_application_walks_the_photon_over(self):
        n = 25
        bs = beam_splitter(np.pi / (2 * n))
        s = PureState.basis(("a", "b"), "a")
        for _ in range(n):
            s = apply_operator(bs, s)
        assert s.probability("b") == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            apply_operator(Operator(np.eye(3)), PureState.basis(("a", "b"), "a"))

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            apply_operator(beam_splitter(0.3), PureState.basis(("H", "V"), "H"))

    @given(st.floats(0.01, np.pi / 2), st.floats(0.0, 2 * np.pi))
    def test_unitary_preserves_norm(self, theta, mix):
        s = state(("a", "b"), [np.cos(mix), np.sin(mix)])
        out = apply_operator(beam_splitter(theta), s)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


class TestHadamard:
    def test_plus_superposition_to_block(self):
        out = apply_operator(hadamard(), state(("block", "pass"), [1 / SQ2, 1 / SQ2]))
        assert out.probability("block") == pytest.approx(1.0, abs=1e-12)

    def test_minus_superposition_to_pass(self):
        out = apply_operator(hadamard(), state(("block", "pass"), [1 / SQ2, -1 / SQ2]))
        assert out.probability("pass") == pytest.approx(1.0, abs=1e-12)

    def test_self_inverse(self):
        h = hadamard().matrix
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)


class TestOperatorConstruction:
    def test_unitary_constructor_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Operator.unitary([[1.0, 0.0], [1.0, 1.0]])

    @given(st.floats(0.01, np.pi / 2))
    def test_repo_constructors_are_unitary(self, theta):
        assert unitarity_defect(beam_splitter(theta).matrix) < 1e-12


class TestMeasure:
    def test_basis_state(self):
        s = PureState.basis(("block,H", "block,V", "pass,H", "pass,V"), "block,V")
        dist = measure(s, {"block,V": ["block,V"], "rest": ["block,H", "pass,H", "pass,V"]})
        assert dist.probability("block,V") == pytest.approx(1.0)

    def test_equal_electron_superposition(self):
        s = PureState(("block,V", "pass,V"), [1 / SQ2, 1 / SQ2])
        dist = measure(s, {"block": ["block,V"], "pass": ["pass,V"]})
        assert dist.probability("block") == pytest.approx(0.5)
        assert dist.probability("pass") == pytest.approx(0.5)

    def test_post_gate_phi_state_polarization(self):
        # The separable state left behind by the dual gate on a Phi input is
        # pure V regardless of the electron side.
        labels = ("block,H", "block,V", "pass,H", "pass,V")
        s = PureState(labels, [0.0, 1 / SQ2, 0.0, 1 / SQ2])
        dist = measure(s, {"H": ["block,H", "pass,H"], "V": ["block,V", "pass,V"]})
        assert dist.probability("V") == pytest.approx(1.0, abs=1e-12)

    def test_non_covering_partition_rejected(self):
        s = PureState.basis(("a", "b"), "a")
        with pytest.raises(ValueError, match="cover"):
            measure(s, {"a_only": ["a"]})
        with pytest.raises(ValueError, match="cover"):
            measure(s, {"x": ["a", "b"], "y": ["b"]})

    def test_partition_reordering_is_irrelevant(self):
        s = state(("a", "b", "c"), np.array([2.0, 2.0, 1.0]) / 3.0)
        d1 = measure(s, {"ab": ["a", "b"], "c": ["c"]})
        d2 = measure(s, {"c": ["c"], "ab": ["b", "a"]})
        assert d1.probability("ab") == pytest.approx(d2.probability("ab"), abs=1e-15)
        assert d1.probability("c") == pytest.approx(d2.probability("c"), abs=1e-15)

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    def test_distribution_sums_to_one(self, weights):
        amps = np.sqrt(np.asarray(weights) / np.sum(weights))
        labels = tuple(f"s{i}" for i in range(len(amps)))
        dist = measure(state(labels, amps), {label: [label] for label in labels})
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)


class TestOutcomeDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution([("x", 0.5), ("y", 0.4)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            OutcomeDistribution([("x", 0.5), ("x", 0.5)])


class TestSample:
    def test_degenerate_distribution(self):
        dist = OutcomeDistribution([("A", 1.0)])
        for seed in (0, 1, 12345):
            assert dist.sample(shot_stream(seed, 0)) == "A"

    def test_fair_coin_frequency_within_three_sigma(self):
        # 3 sigma for 1e6 fair draws: 3 * sqrt(0.25 / 1e6) = 1.5e-3.
        u = as_uniforms(shot_uniforms(42, 0, 10**6)[:, 0])
        freq = float(np.mean(u < 0.5))
        assert abs(freq - 0.5) <= 1.5e-3

    def test_same_seed_and_shot_identical(self):
        dist = OutcomeDistribution([("A", 0.3), ("B", 0.3), ("C", 0.4)])
        a = [dist.sample(shot_stream(7, i)) for i in range(50)]
        b = [dist.sample(shot_stream(7, i)) for i in range(50)]
        assert a == b

    def test_matches_inverse_cdf_over_listed_order(self):
        dist = OutcomeDistribution([("A", 0.3), ("B", 0.3), ("C", 0.4)])
        for i in range(200):
            u = float(shot_stream(3, i).random())
            expected = "A" if u < 0.3 else ("B" if u < 0.6 else "C")
            assert dist.sample(shot_stream(3, i)) == expected


class TestShotStreams:
    def test_streams_are_order_independent(self):
        forward = [shot_stream(11, i).random(DRAWS_PER_SHOT) for i in range(20)]
        backward = [shot_stream(11, i).random(DRAWS_PER_SHOT) for i in reversed(range(20))]
        for i in range(20):
            assert np.array_equal(forward[i], backward[19 - i])

    def test_block_uniforms_match_per_shot_streams(self):
        block = as_uniforms(shot_uniforms(99, 0, 64))
        for i in (0, 1, 7, 40, 63):
            assert np.array_equal(block[i], shot_stream(99, i).random(DRAWS_PER_SHOT))

    def test_chunked_equals_whole(self):
        whole = as_uniforms(shot_uniforms(5, 0, 100))
        parts = as_uniforms(np.vstack([shot_uniforms(5, 0, 33), shot_uniforms(5, 33, 33),
                                       shot_uniforms(5, 66, 34)]))
        assert np.array_equal(whole, parts)

    def test_stream_tags_are_independent(self):
        a = shot_uniforms(5, 0, 8, stream_tag=0)
        b = shot_uniforms(5, 0, 8, stream_tag=1)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            shot_stream(-1, 0)
        with pytest.raises(ValueError):
            shot_stream(2**64, 0)

    @given(seed=st.integers(0, 2**64 - 1), tag=st.integers(0, 2**64 - 1),
           shot=st.integers(0, 2**260), other=st.integers(0, 2**70))
    @example(seed=0, tag=0, shot=0, other=0)
    @example(seed=2**64 - 1, tag=2**64 - 1, shot=2**64, other=2**64 - 1)
    @example(seed=1, tag=2, shot=2**256 - 1, other=1)
    @example(seed=1, tag=2, shot=2**256, other=1)
    @example(seed=1, tag=2, shot=(3 << 192) | (5 << 128) | (7 << 64) | 9, other=1)
    def test_reused_stream_equals_a_fresh_one(self, seed, tag, shot, other):
        # Re-keying after another shot, a part-drawn block and a 32-bit draw
        # must leave nothing of them behind.
        rng = shot_stream(seed ^ 1, other, tag, reuse=True)
        rng.random(3)
        rng.integers(0, 2**31, dtype=np.int32)
        fresh = shot_stream(seed, shot, tag)
        reused = shot_stream(seed, shot, tag, reuse=True)
        assert reused is rng
        assert np.array_equal(reused.random(2 * DRAWS_PER_SHOT), fresh.random(2 * DRAWS_PER_SHOT))
        assert reused.integers(0, 2**31, dtype=np.int32) == fresh.integers(0, 2**31,
                                                                           dtype=np.int32)

    def test_plain_streams_belong_to_the_caller(self):
        first = shot_stream(3, 5)
        assert shot_stream(3, 5) is not first
        shot_stream(3, 9, reuse=True).random()
        assert first.random() == shot_stream(3, 5).random()

    @pytest.mark.parametrize("reuse", [False, True])
    def test_range_errors_with_and_without_reuse(self, reuse):
        for seed, shot, tag in ((-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 0, -1),
                                (0, 0, 2**64)):
            with pytest.raises(ValueError):
                shot_stream(seed, shot, tag, reuse=reuse)

    def test_each_thread_reuses_its_own_stream(self):
        # Four threads re-key in lockstep, switching often; each must still
        # draw its own shots from its own generator.
        tags = range(4)
        barrier = threading.Barrier(len(tags), timeout=30)
        drawn = {tag: [] for tag in tags}
        generators = {}

        def worker(tag):
            for shot in range(200):
                barrier.wait()
                rng = shot_stream(17, shot, tag, reuse=True)
                generators.setdefault(tag, rng)
                barrier.wait()
                drawn[tag].append(rng.random(DRAWS_PER_SHOT))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(tag,)) for tag in tags]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len({id(rng) for rng in generators.values()}) == len(tags)
        for tag in tags:
            expected = as_uniforms(shot_uniforms(17, 0, 200, stream_tag=tag))
            assert np.array_equal(np.array(drawn[tag]), expected)


class TestDensityMatrix:
    def test_trace_plus_lost_must_be_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(("a", "b"), np.diag([0.5, 0.4]), lost_weight=0.2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(("a", "b"), [[0.5, 0.5], [0.0, 0.5]])

    def test_from_pure_fidelity(self):
        s = PureState(("a", "b"), [0.6, 0.8])
        rho = DensityMatrix.from_pure(s)
        assert rho.fidelity_with(s) == pytest.approx(1.0, abs=1e-12)
        assert rho.surviving_weight() == pytest.approx(1.0, abs=1e-12)
