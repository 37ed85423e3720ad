"""Core state, operator and distribution primitives, and the per-shot streams."""

import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zenodense.core import (
    ALGEBRA_TOL,
    DRAWS_PER_SHOT,
    DensityMatrix,
    Operator,
    OutcomeDistribution,
    PureState,
    hadamard,
    shot_stream,
    shot_uniforms,
    unitarity_defect,
)
from zenodense.optics import beam_splitter

SQ2 = np.sqrt(2.0)


def as_uniforms(words):
    """numpy's Philox double from raw words: (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0**-53


def fresh_blocks(seed, shot, tag, n_shots=1):
    """The raw words of shots [shot, shot + n_shots), from a generator of the test's own."""
    bits = shot_stream(seed, shot, tag).bit_generator
    return bits.random_raw(n_shots * DRAWS_PER_SHOT).reshape(n_shots, DRAWS_PER_SHOT)


def sample(dist, rng):
    """`dist.pick` with one uniform drawn from rng."""
    return dist.pick(float(rng.random()))


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

    def test_rejects_label_amplitude_count_mismatch(self):
        with pytest.raises(ValueError, match="2 labels but 3 amplitudes"):
            state(("a", "b"), [1.0, 0.0, 0.0])

    def test_rejects_non_vector_amplitudes(self):
        with pytest.raises(ValueError, match="1-d"):
            state(("a", "b"), [[1.0, 0.0]])

    @pytest.mark.parametrize("build", [
        lambda: PureState.basis(("a", "b"), "c"),
        lambda: PureState.from_terms(("a", "b"), {"a": 0.6, "c": 0.8}),
    ], ids=["basis", "from_terms"])
    def test_an_unknown_label_names_itself_and_the_basis(self, build):
        with pytest.raises(ValueError, match=r"^unknown label 'c': the basis is \('a', 'b'\)$"):
            build()

    def test_from_terms_places_sparse_amplitudes(self):
        s = PureState.from_terms(("a", "b", "c"), {"c": 0.6j, "a": 0.8})
        assert np.array_equal(s.amplitudes, [0.8, 0.0, 0.6j])
        with pytest.raises(ValueError, match="not normalized"):
            PureState.from_terms(("a", "b"), {"a": 0.5})
        half = PureState.from_terms(("a", "b"), {"a": 0.5}, require_normalized=False)
        assert half.norm_squared() == pytest.approx(0.25, abs=1e-15)

    def test_inner_conjugates_the_bra(self):
        a = state(("x", "y"), [1 / SQ2, 1j / SQ2])
        b = state(("x", "y"), [1.0, 0.0])
        assert a.inner(b) == pytest.approx(1 / SQ2)
        assert a.inner(a) == pytest.approx(1.0)
        assert b.inner(a) == pytest.approx(a.inner(b).conjugate())
        assert state(("x", "y"), [0.0, 1j]).inner(b) == 0.0
        assert b.inner(state(("x", "y"), [0.6, 0.8j])) == pytest.approx(0.6)
        assert state(("x", "y"), [0.0, 1j]).inner(state(("x", "y"), [0.0, 1.0])) == \
            pytest.approx(-1j)

    def test_inner_requires_identical_bases(self):
        with pytest.raises(ValueError, match="identical bases"):
            PureState.basis(("x", "y"), "x").inner(PureState.basis(("y", "x"), "x"))

    def test_amplitudes_are_a_read_only_copy(self):
        source = np.array([0.6, 0.8])
        s = state(("a", "b"), source)
        source[0] = 1.0
        assert s.amplitude("a") == 0.6
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestOperatorOnStates:
    def test_identity(self):
        s = state(("a", "b"), [0.6, 0.8])
        out = Operator(np.eye(2), ("a", "b")).matrix @ s.amplitudes
        assert np.allclose(out, s.amplitudes)

    def test_balanced_splitter_on_path_a(self):
        out = beam_splitter(np.pi / 4).matrix @ PureState.basis(("a", "b"), "a").amplitudes
        assert out[0] == pytest.approx(1 / SQ2)
        assert out[1] == pytest.approx(1 / SQ2)

    def test_n_fold_application_walks_the_photon_over(self):
        n = 25
        bs = beam_splitter(np.pi / (2 * n))
        amps = PureState.basis(("a", "b"), "a").amplitudes
        for _ in range(n):
            amps = bs.matrix @ amps
        assert abs(amps[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.01, np.pi / 2), st.floats(0.0, 2 * np.pi))
    def test_unitary_preserves_norm(self, theta, mix):
        s = state(("a", "b"), [np.cos(mix), np.sin(mix)])
        out = beam_splitter(theta).matrix @ s.amplitudes
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)


class TestHadamard:
    def test_plus_superposition_to_block(self):
        out = hadamard().matrix @ state(("block", "pass"), [1 / SQ2, 1 / SQ2]).amplitudes
        assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_minus_superposition_to_pass(self):
        out = hadamard().matrix @ state(("block", "pass"), [1 / SQ2, -1 / SQ2]).amplitudes
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_self_inverse(self):
        h = hadamard().matrix
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)


class TestOperatorConstruction:
    def test_unitary_constructor_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Operator.unitary([[1.0, 0.0], [1.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            Operator(np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Operator([[1.0, np.inf], [0.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Operator([[1.0, 0.0], [np.nan, 1.0]])

    def test_unitary_tolerance_edge(self):
        # diag(sqrt(1 + d), 1) has defect d to rounding: just above the
        # tolerance it is rejected, just below it is accepted.
        above, below = (np.diag([np.sqrt(1.0 + f * ALGEBRA_TOL), 1.0]) for f in (1.2, 0.8))
        assert ALGEBRA_TOL < unitarity_defect(above) < 1.5 * ALGEBRA_TOL
        with pytest.raises(ValueError, match="not unitary"):
            Operator.unitary(above)
        assert unitarity_defect(below) < ALGEBRA_TOL
        Operator.unitary(below)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            Operator(np.eye(2), ("a", "b", "c"))
        assert Operator(np.eye(3), ("a", "b", "c")).labels == ("a", "b", "c")
        assert Operator(np.eye(3)).labels is None

    def test_matrix_is_a_read_only_copy(self):
        source = np.eye(2)
        op = Operator(source)
        source[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    @given(st.floats(0.01, np.pi / 2))
    def test_repo_constructors_are_unitary(self, theta):
        assert unitarity_defect(beam_splitter(theta).matrix) < 1e-12


class TestUnitarityDefect:
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kind", ["unitary", "non-unitary", "orthogonal", "real"])
    def test_single_matrix_equals_its_entry_in_a_stack(self, dim, kind):
        # A single matrix takes its own path; it must match the stacked one bit for bit.
        rng = np.random.default_rng(dim)
        for _ in range(25):
            shape = (8, dim, dim)
            stack = rng.normal(size=shape)
            if kind in ("unitary", "non-unitary"):
                stack = stack + 1j * rng.normal(size=shape)
            if kind in ("unitary", "orthogonal"):
                stack = np.linalg.qr(stack)[0]
            defects = unitarity_defect(stack)
            assert defects.shape == (8,)
            for matrix, defect in zip(stack, defects):
                single = unitarity_defect(matrix)
                assert type(single) is float and single == defect
            if kind in ("unitary", "orthogonal"):
                assert defects.max() < ALGEBRA_TOL
            else:
                assert defects.min() > ALGEBRA_TOL

    def test_real_and_complex_agree_on_the_verdict(self):
        rotation = beam_splitter(0.3).matrix
        assert unitarity_defect(rotation.real) < ALGEBRA_TOL
        assert abs(unitarity_defect(rotation.real) - unitarity_defect(rotation)) < 1e-15
        assert unitarity_defect([[1, 0], [1, 1]]) == 1.0


class TestPolarizationMarginal:
    def test_post_gate_phi_state_polarization(self):
        # The separable state left behind by the dual gate on a Phi input is
        # pure V regardless of the electron side.
        labels = ("block,H", "block,V", "pass,H", "pass,V")
        s = PureState(labels, [0.0, 1 / SQ2, 0.0, 1 / SQ2])
        probs = np.abs(s.amplitudes) ** 2
        assert probs[1] + probs[3] == pytest.approx(1.0, abs=1e-12)


class TestOutcomeDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution([("x", 0.5), ("y", 0.4)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            OutcomeDistribution([("x", 0.5), ("x", 0.5)])

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError, match="out of"):
            OutcomeDistribution([("x", 1.5), ("y", -0.5)])

    def test_rounding_below_zero_is_clamped(self):
        # A probability a rounding error below zero is accepted as zero.
        dist = OutcomeDistribution([("x", 1.0 + 1e-12), ("y", -1e-12)])
        assert dist.probability("y") == 0.0

    def test_lookup_and_listed_order(self):
        dist = OutcomeDistribution([("C", 0.4), ("A", 0.6)])
        assert list(dist) == [("C", 0.4), ("A", 0.6)]
        assert len(dist) == 2
        assert dist.probability("A") == 0.6
        assert dist.probability("B") == 0.0


class TestSample:
    def test_degenerate_distribution(self):
        dist = OutcomeDistribution([("A", 1.0)])
        for seed in (0, 1, 12345):
            assert sample(dist, shot_stream(seed, 0)) == "A"

    def test_fair_coin_frequency_within_three_sigma(self):
        # 3 sigma for 1e6 fair draws: 3 * sqrt(0.25 / 1e6) = 1.5e-3.
        u = as_uniforms(shot_uniforms(42, 0, 10**6)[:, 0])
        freq = float(np.mean(u < 0.5))
        assert abs(freq - 0.5) <= 1.5e-3

    def test_same_seed_and_shot_identical(self):
        dist = OutcomeDistribution([("A", 0.3), ("B", 0.3), ("C", 0.4)])
        a = [sample(dist, shot_stream(7, i)) for i in range(50)]
        b = [sample(dist, shot_stream(7, i)) for i in range(50)]
        assert a == b

    def test_matches_inverse_cdf_over_listed_order(self):
        dist = OutcomeDistribution([("A", 0.3), ("B", 0.3), ("C", 0.4)])
        for i in range(200):
            u = float(shot_stream(3, i).random())
            expected = "A" if u < 0.3 else ("B" if u < 0.6 else "C")
            assert sample(dist, shot_stream(3, i)) == expected


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

    def test_block_is_raw_words_one_row_per_shot(self):
        words = shot_uniforms(5, 3, 7)
        assert words.dtype == np.uint64
        assert words.shape == (7, DRAWS_PER_SHOT)
        assert shot_uniforms(5, 3, 0).shape == (0, DRAWS_PER_SHOT)

    def test_block_rejects_negative_start_or_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            shot_uniforms(5, -1, 4)
        with pytest.raises(ValueError, match="non-negative"):
            shot_uniforms(5, 0, -1)

    def test_plain_streams_belong_to_the_caller(self):
        first = shot_stream(3, 5)
        assert shot_stream(3, 5) is not first
        shot_uniforms(3, 9, 2)
        assert first.random() == shot_stream(3, 5).random()

    def test_range_errors_of_the_stream(self):
        for seed, shot, tag in ((-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 0, -1),
                                (0, 0, 2**64)):
            with pytest.raises(ValueError):
                shot_stream(seed, shot, tag)

    def test_a_rejected_call_leaves_the_walk_in_place(self):
        shot_uniforms(4, 10, 1, 1)
        with pytest.raises(ValueError):
            shot_uniforms(2**64, 11, 1, 1)
        assert np.array_equal(shot_uniforms(4, 11, 1, 1), fresh_blocks(4, 11, 1))
        # A draw too large to allocate fails after the generator was re-keyed.
        with pytest.raises(ValueError, match="too big"):
            shot_uniforms(5, 0, 2**60, 1)
        assert np.array_equal(shot_uniforms(4, 12, 1, 1), fresh_blocks(4, 12, 1))

    # Calls as (seed, tag, first shot, run length, step, width): runs of
    # consecutive calls forwards or backwards, repeats (step 0), across 2**64
    # and across the 2**256 wrap of the counter, with seeds and tags
    # interleaved. Each call reads `width` shots with `shot_uniforms`; a
    # forward run goes on from the shot after the last one read.
    CALL_RUNS = st.lists(
        st.tuples(st.sampled_from([0, 1, 2**64 - 1]), st.sampled_from([0, 1, 2**64 - 1]),
                  st.one_of(st.integers(0, 40), st.integers(2**64 - 4, 2**64 + 4),
                            st.integers(2**256 - 4, 2**256 + 4)),
                  st.integers(1, 6), st.sampled_from([1, -1, 0]), st.sampled_from([0, 1, 3])),
        min_size=1, max_size=8)

    @staticmethod
    def calls_of(runs):
        return [(seed, max(first + step * k * width, 0), tag, width)
                for seed, tag, first, length, step, width in runs for k in range(length)]

    @staticmethod
    def read(seed, shot, tag, width):
        return shot_uniforms(seed, shot, width, tag).tolist()

    @staticmethod
    def expected(seed, shot, tag, width):
        return fresh_blocks(seed, shot, tag, width).tolist()

    @given(runs=CALL_RUNS)
    # The tag changes, the shots go on.
    @example(runs=[(0, 0, 0, 3, 1, 1), (0, 1, 3, 3, 1, 1)])
    @example(runs=[(0, 0, 0, 3, 1, 2), (0, 1, 6, 3, 1, 1)])
    # The seed changes, the shots go on.
    @example(runs=[(0, 0, 0, 3, 1, 1), (1, 0, 3, 3, 1, 1)])
    @example(runs=[(0, 0, 5, 3, -1, 1), (0, 0, 5, 2, 0, 1)])  # backwards, then repeats
    @example(runs=[(1, 1, 2**256 - 2, 4, 1, 1)])              # across the counter wrap
    @example(runs=[(1, 1, 2**256 - 2, 2, 1, 3)])
    @example(runs=[(1, 1, 2**64 - 2, 4, 1, 1)])
    # A read leaves the walk at the shot after it, and reading none moves nothing.
    @example(runs=[(2, 3, 9, 1, 1, 1), (2, 3, 10, 1, 1, 3), (2, 3, 13, 1, 1, 0),
                   (2, 3, 13, 2, 1, 1)])
    def test_any_call_sequence_reads_each_shots_own_block(self, runs):
        for call in self.calls_of(runs):
            assert self.read(*call) == self.expected(*call)

    @given(runs=CALL_RUNS, other=CALL_RUNS)
    @example(runs=[(0, 0, 0, 6, 1, 1)], other=[(0, 1, 0, 6, 1, 1)])
    @example(runs=[(0, 0, 0, 6, 1, 2)], other=[(0, 0, 1, 6, 1, 1)])
    def test_two_threads_interleaved_each_read_their_own_blocks(self, runs, other):
        # The threads take turns call by call, each walking its own sequence.
        sequences = [self.calls_of(runs), self.calls_of(other)]
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        read = [[], []]

        def worker(me):
            for call in sequences[me]:
                turns[me].acquire()
                read[me].append(self.read(*call))
                turns[1 - me].release()
            for _ in sequences[1 - me][len(sequences[me]):]:
                turns[me].acquire()
                turns[1 - me].release()

        threads = [threading.Thread(target=worker, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        for me in (0, 1):
            assert read[me] == [self.expected(*call) for call in sequences[me]]


class TestDensityMatrix:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(("a", "b"), np.diag([0.5, 0.4]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(("a", "b"), [[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(("a", "b", "c"), np.eye(2) / 2)

    def test_fidelity_of_mixed_and_complex_states(self):
        rho = DensityMatrix(("a", "b"), np.diag([0.25, 0.75]))
        assert rho.fidelity_with(PureState.basis(("a", "b"), "b")) == pytest.approx(0.75)
        plus = state(("a", "b"), [1 / SQ2, 1 / SQ2])
        assert rho.fidelity_with(plus) == pytest.approx(0.5)
        # The bra is conjugated: |R> = (|a> + i|b>)/sqrt2 has fidelity one
        # with its own projector and zero with that of |L>.
        right = state(("a", "b"), [1 / SQ2, 1j / SQ2])
        left = state(("a", "b"), [1 / SQ2, -1j / SQ2])
        rho_right = DensityMatrix(right.labels, np.outer(right.amplitudes, right.amplitudes.conj()))
        assert rho_right.fidelity_with(right) == pytest.approx(1.0, abs=1e-12)
        assert rho_right.fidelity_with(left) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_requires_identical_bases(self):
        rho = DensityMatrix(("a", "b"), np.diag([0.25, 0.75]))
        with pytest.raises(ValueError, match="identical bases"):
            rho.fidelity_with(PureState.basis(("H", "V"), "H"))

    def test_rejects_non_positive(self):
        # Hermitian and of trace one, but with a negative eigenvalue.
        with pytest.raises(ValueError, match="not positive"):
            DensityMatrix(("a", "b"), np.diag([1.5, -0.5]))

    def test_pure_state_fidelity(self):
        s = PureState(("a", "b"), [0.6, 0.8])
        rho = DensityMatrix(s.labels, np.outer(s.amplitudes, s.amplitudes.conj()))
        assert rho.fidelity_with(s) == pytest.approx(1.0, abs=1e-12)
        assert rho.surviving_weight() == pytest.approx(1.0, abs=1e-12)
