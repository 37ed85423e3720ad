"""Labeled states, operators and outcome distributions, and the per-shot random streams.

The analyzers need a small state layer: kets over a labeled basis (Bell
states, oracle inputs and outputs), unitary gates, the dual-Zeno channel's
conditional density matrix and the outcome distributions a shot samples
from. Each is a plain numpy array wrapped with its basis labels: five
labelings float around this problem domain (photon paths, electron paths,
polarizations, composite bases), and silent index conventions are how sign
bugs happen.

All values are immutable after construction and every operation is pure,
so states and operators are safe to share across threads. The only mutable
objects anywhere are RNG streams, each owned by a single caller or kept
private to a single thread.

Randomness is counter-based: shot i owns the i-th Philox block of four
64-bit words. `shot_uniforms` reads the raw words of a run of shots from one
per-thread generator that walks on from the block it last drew, for both the
vectorized Monte-Carlo and the per-shot runner, which compare the top bits
of words 0 and 1 against integer thresholds. `shot_stream` reads a block as
uniform doubles from a generator of the caller's own. Uniform j of a shot is
(word j >> 11) * 2**-53, numpy's own Philox double, so the integer and the
float comparison decide every shot identically.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

# Tolerance policy: algebraic identities are checked at 1e-12, accumulated
# N-cycle products and probability sums at 1e-10. N <= ~1e5 cycles of 4x4
# products keep double-precision error far below both bounds.
ALGEBRA_TOL = 1e-12
ACCUMULATION_TOL = 1e-10

# Every shot owns exactly one Philox block of four 64-bit words. Keeping the
# per-shot draw budget equal to the block size makes serial, chunked, and
# threaded execution consume identical words (see shot_stream). Only words 0
# (message) and 1 (survival) are used; words 2 and 3 are drawn and discarded.
DRAWS_PER_SHOT = 4


def _as_complex_vector(values) -> np.ndarray:
    amps = np.array(values, dtype=complex)  # the one copy the state keeps
    if amps.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {amps.shape}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return amps


class PureState:
    """A complex amplitude vector over an explicitly labeled basis."""

    __slots__ = ("labels", "amplitudes")

    def __init__(self, labels: Sequence[str], amplitudes, *, require_normalized: bool = True):
        labels = tuple(map(str, labels))
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels: {labels}")
        amps = _as_complex_vector(amplitudes)
        if amps.size != len(labels):
            raise ValueError(f"{len(labels)} labels but {amps.size} amplitudes")
        if require_normalized:
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > ALGEBRA_TOL:
                raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        self.labels = labels
        self.amplitudes = amps

    @classmethod
    def basis(cls, labels: Sequence[str], which: str) -> "PureState":
        """Basis ket |which> in the given labeled basis."""
        return cls.from_terms(labels, {which: 1.0})

    @classmethod
    def from_terms(cls, labels: Sequence[str], terms: Mapping[str, complex], *,
                   require_normalized: bool = True) -> "PureState":
        """Build a state from a sparse {label: amplitude} mapping."""
        labels = tuple(labels)
        amps = np.zeros(len(labels), dtype=complex)
        for label, amp in terms.items():
            if label not in labels:
                raise ValueError(f"unknown label {label!r}: the basis is {labels}")
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
        mat = np.array(matrix, dtype=complex)  # the one copy the operator keeps
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        if labels is not None:
            labels = tuple(map(str, labels))
            if len(labels) != mat.shape[0]:
                raise ValueError("label count does not match operator dimension")
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

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, labels={self.labels})"


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The read-only dim x dim identity, built once per dimension."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def unitarity_defect(matrix: np.ndarray) -> float | np.ndarray:
    """max-norm of O^dag O - I: a float for one matrix, an array for a stack of them.

    The one defect kernel for every operator: a float matrix keeps real
    arithmetic, anything else is taken as complex. A single matrix skips the
    stacked-axis reduction, and its defect equals its entry in a stack bit
    for bit.
    """
    mat = np.asarray(matrix)
    if mat.dtype != float:
        mat = mat.astype(complex, copy=False)
    gram = mat.conj().swapaxes(-1, -2) @ mat
    gram -= _identity(mat.shape[-1])
    if mat.ndim == 2:
        return float(np.abs(gram).max())
    return np.abs(gram).max(axis=(-2, -1))


ELECTRON_LABELS = ("block", "pass")


def hadamard(labels: Sequence[str] = ELECTRON_LABELS) -> Operator:
    """Self-inverse gate taking (|block>+|pass>)/sqrt2 -> |block> and
    (|block>-|pass>)/sqrt2 -> |pass>."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return Operator.unitary(h, labels)


class DensityMatrix:
    """Hermitian positive operator of trace one over a labeled basis.

    It holds a conditional state, such as the dual-Zeno channel's output
    given that the photon survived; the weight of that condition is kept by
    whoever conditioned on it.
    """

    __slots__ = ("labels", "matrix")

    def __init__(self, labels: Sequence[str], matrix):
        labels = tuple(str(label) for label in labels)
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (len(labels), len(labels)):
            raise ValueError("matrix shape does not match labels")
        if float(np.max(np.abs(mat - mat.conj().T))) > ALGEBRA_TOL:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -ACCUMULATION_TOL:
            raise ValueError(f"density matrix not positive (min eig {eigenvalues.min():.3e})")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > ACCUMULATION_TOL:
            raise ValueError(f"trace = {trace!r}, expected 1")
        mat = mat.copy()
        mat.setflags(write=False)
        self.labels = labels
        self.matrix = mat

    @property
    def dim(self) -> int:
        return len(self.labels)

    def surviving_weight(self) -> float:
        return float(np.trace(self.matrix).real)

    def fidelity_with(self, state: PureState) -> float:
        """<psi| rho |psi> (bases must match)."""
        if self.labels != state.labels:
            raise ValueError("fidelity requires identical bases")
        amps = state.amplitudes
        return float(np.real(amps.conj() @ self.matrix @ amps))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


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

    def pick(self, u: float):
        """Inverse-CDF draw over the listed order for one uniform u in [0, 1)."""
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
# reproducible per-shot randomness


def _key(master_seed: int, stream_tag: int) -> np.ndarray:
    seed = int(master_seed)
    tag = int(stream_tag)
    if not 0 <= seed < 2**64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    if not 0 <= tag < 2**64:
        raise ValueError("stream_tag must be a 64-bit unsigned integer")
    return np.array([seed, tag], dtype=np.uint64)


_WORD = (1 << 64) - 1
_walk = threading.local()  # per thread: its Philox and the (seed, tag, shot) it draws next


def shot_stream(master_seed: int, shot_index: int, stream_tag: int = 0) -> np.random.Generator:
    """Counter-based RNG stream for one shot; the caller owns the generator.

    Shot i owns exactly the i-th Philox block (DRAWS_PER_SHOT uniform
    doubles), so identical (master_seed, shot_index) always reproduce the
    identical trajectory no matter how shots are batched or parallelized.
    """
    if shot_index < 0:
        raise ValueError("shot_index must be non-negative")
    bits = np.random.Philox(key=_key(master_seed, stream_tag))
    bits.advance(int(shot_index))
    return np.random.Generator(bits)


def shot_uniforms(master_seed: int, start_shot: int, n_shots: int,
                  stream_tag: int = 0) -> np.ndarray:
    """Raw Philox words for shots [start_shot, start_shot + n_shots), shape (n, DRAWS_PER_SHOT).

    The words are uint64, from the calling thread's private Philox. It
    remembers the (seed, tag, block) it draws next, so a call that goes on
    from the last one re-keys nothing. Uniform j of shot i is
    (w[i, j] >> 11) * 2**-53, exactly numpy's Philox double, so row i
    converted that way equals
    shot_stream(master_seed, start_shot + i).random(DRAWS_PER_SHOT) bit for
    bit. For p in [0, 1], u < p holds exactly when
    (w >> 11) < ceil(p * 2**53), and min(int(4 * u), 3) equals w >> 62: both
    protocol runners, whole arrays of shots and one shot at a time, decide on
    these integers what numpy's uniforms would decide as floats, shot for shot.
    """
    if start_shot < 0 or n_shots < 0:
        raise ValueError("start_shot and n_shots must be non-negative")
    if getattr(_walk, "next", None) != (master_seed, stream_tag, start_shot):
        key = _key(master_seed, stream_tag)
        if not hasattr(_walk, "bits"):
            _walk.bits = np.random.Philox(key=key)
        # Philox steps its 256-bit counter before it fills the empty buffer,
        # so counter i with buffer_pos 4 draws block i, as advance(i) from
        # counter 0 does (modulo 2**256 in both cases).
        counter = [(int(start_shot) >> shift) & _WORD for shift in (0, 64, 128, 192)]
        _walk.bits.state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64),
                            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
                            "state": {"counter": np.array(counter, np.uint64), "key": key}}
        _walk.next = (master_seed, stream_tag, start_shot)  # in case the draw fails
    words = _walk.bits.random_raw(int(n_shots) * DRAWS_PER_SHOT)
    _walk.next = (master_seed, stream_tag, start_shot + n_shots)
    return words.reshape(int(n_shots), DRAWS_PER_SHOT)
