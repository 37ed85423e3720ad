"""Dense complex linear algebra and measurement primitives over small labeled Hilbert spaces.

States, operators, and density matrices here are plain numpy arrays wrapped
with explicit basis labels. Five different labelings float around this
problem domain (photon paths, electron paths, polarizations, composite
bases), so every state carries its labels and every operator can carry the
labels it expects; silent index conventions are how sign bugs happen.

All values are immutable after construction and every operation is pure,
so states and operators are safe to share across threads. The only mutable
object anywhere is a per-shot RNG stream owned by a single shot.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

# Tolerance policy: algebraic identities are checked at 1e-12, accumulated
# N-cycle products and probability sums at 1e-10. N <= ~1e5 cycles of 4x4
# products keep double-precision error far below both bounds.
ALGEBRA_TOL = 1e-12
ACCUMULATION_TOL = 1e-10

# Tensor products beyond this total dimension are rejected; nothing in this
# library needs more than electron (2) x photon paths (4) = 8.
MAX_TENSOR_DIM = 16

# Every shot owns exactly one Philox block of four 64-bit words. Keeping the
# per-shot draw budget equal to the block size makes serial, chunked, and
# threaded execution consume identical words (see shot_stream).
DRAWS_PER_SHOT = 4


def _as_complex_vector(values) -> np.ndarray:
    amps = np.asarray(values, dtype=complex)
    if amps.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return amps


class PureState:
    """A complex amplitude vector over an explicitly labeled basis."""

    __slots__ = ("labels", "amplitudes")

    def __init__(self, labels: Sequence[str], amplitudes, *, require_normalized: bool = True):
        labels = tuple(str(label) for label in labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels: {labels}")
        amps = _as_complex_vector(amplitudes)
        if amps.size != len(labels):
            raise ValueError(f"{len(labels)} labels but {amps.size} amplitudes")
        if require_normalized:
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > ALGEBRA_TOL:
                raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        self.labels = labels
        self.amplitudes = amps

    @classmethod
    def basis(cls, labels: Sequence[str], which: str) -> "PureState":
        """Basis ket |which> in the given labeled basis."""
        labels = tuple(labels)
        amps = np.zeros(len(labels), dtype=complex)
        amps[labels.index(which)] = 1.0
        return cls(labels, amps)

    @classmethod
    def from_terms(cls, labels: Sequence[str], terms: Mapping[str, complex], *,
                   require_normalized: bool = True) -> "PureState":
        """Build a state from a sparse {label: amplitude} mapping."""
        labels = tuple(labels)
        amps = np.zeros(len(labels), dtype=complex)
        for label, amp in terms.items():
            amps[labels.index(label)] = amp
        return cls(labels, amps, require_normalized=require_normalized)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.labels.index(label)])

    def probability(self, label: str) -> float:
        return float(abs(self.amplitude(label)) ** 2)

    def inner(self, other: "PureState") -> complex:
        """<self|other>; both states must share the same labeled basis."""
        if self.labels != other.labels:
            raise ValueError("inner product requires identical bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def normalized(self) -> "PureState":
        n = np.sqrt(self.norm_squared())
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.labels, self.amplitudes / n)

    def __repr__(self) -> str:
        terms = [
            f"({amp:.6g})|{label}>"
            for label, amp in zip(self.labels, self.amplitudes)
            if abs(amp) > 1e-9
        ]
        return "PureState(" + " + ".join(terms or ["0"]) + ")"


class Operator:
    """A dense square matrix, optionally tied to the labeled basis it acts on."""

    __slots__ = ("matrix", "labels")

    def __init__(self, matrix, labels: Sequence[str] | None = None):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        if labels is not None:
            labels = tuple(str(label) for label in labels)
            if len(labels) != mat.shape[0]:
                raise ValueError("label count does not match operator dimension")
        mat = mat.copy()
        mat.setflags(write=False)
        self.matrix = mat
        self.labels = labels

    @classmethod
    def unitary(cls, matrix, labels: Sequence[str] | None = None) -> "Operator":
        """Construct and verify unitarity: max |O^dag O - I| < 1e-12."""
        op = cls(matrix, labels)
        defect = unitarity_defect(op.matrix)
        if defect >= ALGEBRA_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        return op

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def power(self, exponent: int) -> "Operator":
        return Operator(np.linalg.matrix_power(self.matrix, exponent), self.labels)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, labels={self.labels})"


def unitarity_defect(matrix: np.ndarray) -> float:
    """max-norm of O^dag O - I."""
    mat = np.asarray(matrix, dtype=complex)
    eye = np.eye(mat.shape[0])
    return float(np.max(np.abs(mat.conj().T @ mat - eye)))


class DensityMatrix:
    """Hermitian positive operator plus a scalar photon-lost weight.

    `matrix` holds the surviving (in-flight photon) part; `lost_weight` is
    the probability mass where the photon was absorbed and no longer has a
    polarization to measure. Invariant: trace(matrix) + lost_weight = 1.
    """

    __slots__ = ("labels", "matrix", "lost_weight")

    def __init__(self, labels: Sequence[str], matrix, lost_weight: float = 0.0):
        labels = tuple(str(label) for label in labels)
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (len(labels), len(labels)):
            raise ValueError("matrix shape does not match labels")
        if float(np.max(np.abs(mat - mat.conj().T))) > ALGEBRA_TOL:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -ACCUMULATION_TOL:
            raise ValueError(f"density matrix not positive (min eig {eigenvalues.min():.3e})")
        lost = float(lost_weight)
        if not 0.0 - ACCUMULATION_TOL <= lost <= 1.0 + ACCUMULATION_TOL:
            raise ValueError(f"lost_weight out of [0, 1]: {lost!r}")
        total = float(np.trace(mat).real) + lost
        if abs(total - 1.0) > ACCUMULATION_TOL:
            raise ValueError(f"trace + lost_weight = {total!r}, expected 1")
        mat = mat.copy()
        mat.setflags(write=False)
        self.labels = labels
        self.matrix = mat
        self.lost_weight = lost

    @classmethod
    def from_pure(cls, state: PureState, lost_weight: float = 0.0) -> "DensityMatrix":
        amps = state.amplitudes
        return cls(state.labels, np.outer(amps, amps.conj()), lost_weight)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def surviving_weight(self) -> float:
        return float(np.trace(self.matrix).real)

    def fidelity_with(self, state: PureState) -> float:
        """<psi| rho |psi> against the surviving block (bases must match)."""
        if self.labels != state.labels:
            raise ValueError("fidelity requires identical bases")
        amps = state.amplitudes
        return float(np.real(amps.conj() @ self.matrix @ amps))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, lost_weight={self.lost_weight:.6g})"


class OutcomeDistribution:
    """An ordered list of (outcome, probability) pairs summing to one.

    The listed order is part of the contract: sampling uses the inverse CDF
    over this order, so two call sites that build the same distribution in
    the same order draw identical outcomes from identical streams.
    """

    __slots__ = ("outcomes",)

    def __init__(self, outcomes: Iterable[tuple[Any, float]]):
        pairs = []
        total = 0.0
        seen = set()
        for outcome, prob in outcomes:
            p = float(prob)
            if p < -ACCUMULATION_TOL or p > 1.0 + ACCUMULATION_TOL:
                raise ValueError(f"probability out of [0, 1]: {p!r} for {outcome!r}")
            if outcome in seen:
                raise ValueError(f"duplicate outcome label {outcome!r}")
            seen.add(outcome)
            pairs.append((outcome, max(p, 0.0)))
            total += p
        if abs(total - 1.0) > ACCUMULATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self.outcomes = tuple(pairs)

    def probability(self, outcome) -> float:
        for label, p in self.outcomes:
            if label == outcome:
                return p
        return 0.0

    def sample(self, rng: np.random.Generator):
        """Inverse-CDF draw over the listed order using one uniform."""
        u = float(rng.random())
        acc = 0.0
        for label, p in self.outcomes:
            acc += p
            if u < acc:
                return label
        return self.outcomes[-1][0]

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{label!r}: {p:.6g}" for label, p in self.outcomes)
        return "OutcomeDistribution({" + inner + "})"


# ---------------------------------------------------------------------------
# operations


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; combined labels are "left,right" pairs."""
    dim = a.dim * b.dim
    if dim > MAX_TENSOR_DIM:
        raise ValueError(f"tensor dimension {dim} exceeds the configured max {MAX_TENSOR_DIM}")
    labels = tuple(f"{la},{lb}" for la in a.labels for lb in b.labels)
    return PureState(labels, np.kron(a.amplitudes, b.amplitudes))


def apply_operator(op: Operator, state: PureState) -> PureState:
    """op . state with dimension (and, when known, basis-label) checking."""
    if op.dim != state.dim:
        raise ValueError(f"operator dim {op.dim} does not match state dim {state.dim}")
    if op.labels is not None and op.labels != state.labels:
        raise ValueError(f"operator basis {op.labels} does not match state basis {state.labels}")
    return PureState(state.labels, op.matrix @ state.amplitudes, require_normalized=False)


ELECTRON_LABELS = ("block", "pass")


def hadamard(labels: Sequence[str] = ELECTRON_LABELS) -> Operator:
    """Self-inverse gate taking (|block>+|pass>)/sqrt2 -> |block> and
    (|block>-|pass>)/sqrt2 -> |pass>."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return Operator.unitary(h, labels)


def measure(state: PureState, partition: Mapping[Any, Sequence[str]]) -> OutcomeDistribution:
    """Projective measurement over a partition of the basis labels.

    `partition` maps each outcome to the basis labels it collects; together
    the groups must cover every label exactly once. The outcome probability
    is the summed |amplitude|^2 over its group.
    """
    covered: list[str] = []
    for group in partition.values():
        covered.extend(group)
    if sorted(covered) != sorted(state.labels):
        raise ValueError(
            f"partition {sorted(covered)} does not cover the basis {sorted(state.labels)} exactly once"
        )
    index = {label: i for i, label in enumerate(state.labels)}
    probs = np.abs(state.amplitudes) ** 2
    return OutcomeDistribution(
        (outcome, float(sum(probs[index[label]] for label in group)))
        for outcome, group in partition.items()
    )


# ---------------------------------------------------------------------------
# reproducible per-shot randomness


def _philox(master_seed: int, stream_tag: int = 0) -> np.random.Philox:
    seed = int(master_seed)
    tag = int(stream_tag)
    if not 0 <= seed < 2**64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    if not 0 <= tag < 2**64:
        raise ValueError("stream_tag must be a 64-bit unsigned integer")
    return np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))


def shot_stream(master_seed: int, shot_index: int, stream_tag: int = 0) -> np.random.Generator:
    """Counter-based RNG stream for one shot.

    Shot i owns exactly the i-th Philox block (DRAWS_PER_SHOT uniform
    doubles), so identical (master_seed, shot_index) always reproduce the
    identical trajectory no matter how shots are batched or parallelized.
    """
    if shot_index < 0:
        raise ValueError("shot_index must be non-negative")
    bits = _philox(master_seed, stream_tag)
    bits.advance(int(shot_index))
    return np.random.Generator(bits)


def shot_uniforms(master_seed: int, start_shot: int, n_shots: int,
                  stream_tag: int = 0) -> np.ndarray:
    """Uniforms for shots [start_shot, start_shot + n_shots), shape (n, DRAWS_PER_SHOT).

    Row i equals shot_stream(master_seed, start_shot + i).random(DRAWS_PER_SHOT)
    bit for bit; vectorized Monte-Carlo and per-shot evaluation see the same
    numbers.
    """
    if start_shot < 0 or n_shots < 0:
        raise ValueError("start_shot and n_shots must be non-negative")
    bits = _philox(master_seed, stream_tag)
    bits.advance(int(start_shot))
    return np.random.Generator(bits).random((int(n_shots), DRAWS_PER_SHOT))
