"""Quantum-Zeno gates: the single H/V gate, the dual gate, and its finite-N cycle operator.

Two models of the dual-Zeno (DQZ) gate live here side by side:

* The cycle-channel model: per cycle, an orthogonal 4x4 operator K,
  `dqz_cycle_operator`, rotates the pass components by theta_N while a
  state-independent survival probability P = 1 - sin^2(theta_N)/2 accounts
  for absorption. This is the production path: `dqz_apply`, the analyzer
  table and the self-test read its one K^N rho K^N^T, `conditional_states`,
  and its one P^N, `channel_survival`, from which every closed-form
  throughput in `metrics` follows.

* The element-level model: the per-cycle element map raised to the N-th
  power, where one cycle is the polarization rotators and PBS routing
  followed by absorption of only the amplitude that actually reaches a
  blocking object. It serves as a verification oracle. For Bell
  inputs its survival is (1 + cos^{2N} theta_N)/2, which exceeds the channel
  value P^N for every N >= 2 and agrees at N = 1 and asymptotically; the
  tests pin that relationship rather than pretending the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import COMPOSITE_LABELS, BellState
from .core import (ACCUMULATION_TOL, ALGEBRA_TOL, DensityMatrix, OutcomeDistribution, PureState,
                   unitarity_defect)
from .ifm import AbsorberState
from .optics import (
    POLARIZATION_LABELS,
    absorbing_cycles,
    cycle_angle,
    polarization_rotator,
    zeno_law,
)

DISCARDED = "discarded"

# Slot layout of the composite basis: identity block on (block,*), rotation
# block on (pass,*).
_BLOCK_H, _BLOCK_V, _PASS_H, _PASS_V = range(4)


def cycle_survival(n_cycles):
    """Per-cycle survival 1 - sin^2(theta_N)/2, the same for every Bell input.

    Takes a cycle count or an array of them.
    """
    return 1.0 - 0.5 * np.sin(cycle_angle(n_cycles)) ** 2


def channel_survival(n_cycles):
    """P^N, the weight N channel cycles keep for every Bell input, over a cycle count or
    an array of them: the Zeno law `optics.zeno_law` at weight 1/2 and harmonic 1."""
    return zeno_law(n_cycles, 0.5, 1.0)


def dqz_cycle_operator(branch_index: int, n_cycles: int) -> np.ndarray:
    """The per-cycle operator K for branch i (1 = Phi family, 0 = Psi), read-only.

    K is the identity on the block components and a theta_N rotation with
    sign pattern (-1)^{i+1} / (-1)^i on the pass components. N of them
    compose to an exact quarter turn of the pass subspace.
    """
    if branch_index not in (0, 1):
        raise ValueError("branch_index must be 0 or 1")
    theta = cycle_angle(n_cycles)
    c, s = np.cos(theta), np.sin(theta)
    op = np.eye(4)
    op[_PASS_H, _PASS_H] = c
    op[_PASS_H, _PASS_V] = (-1.0) ** (branch_index + 1) * s
    op[_PASS_V, _PASS_H] = (-1.0) ** branch_index * s
    op[_PASS_V, _PASS_V] = c
    defect = unitarity_defect(op)
    if defect >= ALGEBRA_TOL:
        raise ValueError(f"cycle operator is not orthogonal (defect {defect:.3e})")
    op.setflags(write=False)
    return op


@dataclass(frozen=True)
class DqzOutcome:
    """Result of pushing a Bell state through N dual-Zeno cycles.

    `surviving` is the conditional (trace-one) state given the photon was
    never absorbed, carried with weight `surviving_weight` = P^N. The lost
    branch, of weight `lost_weight`, has the electron collapsed to block and
    no photon left to measure.
    """

    surviving: DensityMatrix
    surviving_weight: float
    lost_weight: float

    def __post_init__(self):
        if abs(self.surviving_weight + self.lost_weight - 1.0) > ACCUMULATION_TOL:
            raise ValueError("surviving and lost weights must sum to 1")


def conditional_states(bell: BellState, kn: np.ndarray) -> np.ndarray:
    """K^N rho K^N^T for a Bell input rho, under one N-cycle operator or a stack of them."""
    amps = bell.ket().amplitudes
    return kn @ np.outer(amps, amps.conj()) @ kn.swapaxes(-1, -2)


def dqz_apply(bell: BellState, n_cycles: int) -> DqzOutcome:
    """Apply the N-cycle channel to a Bell input."""
    kn = np.linalg.matrix_power(dqz_cycle_operator(bell.branch_index, n_cycles), n_cycles)
    weight = float(channel_survival(n_cycles))
    return DqzOutcome(DensityMatrix(COMPOSITE_LABELS, conditional_states(bell, kn)),
                      surviving_weight=weight, lost_weight=1.0 - weight)


def post_gate_target(bell: BellState) -> PureState:
    """The exact separable state the N-cycle channel leaves behind.

    (|block> - sign |pass>)/sqrt2 tensored with the family polarization.
    The minus sign is the path-y convention realized by the cycle operator
    in this basis ordering; the analyzers' path parameter m only relabels
    detectors and flips this sign, never the outcome weights.
    """
    electron = np.array([1.0, -float(bell.sign)]) / np.sqrt(2.0)
    pol = np.array([1.0, 0.0]) if bell.surviving_polarization == "H" else np.array([0.0, 1.0])
    return PureState(COMPOSITE_LABELS, np.outer(electron, pol).ravel())  # electron (x) pol


# ---------------------------------------------------------------------------
# element-level simulations (verification oracles)


def _rotator_pair(axis: str, theta: float) -> np.ndarray:
    """Rotator matrix in (axis-pol, other-pol) coordinate order."""
    pr = polarization_rotator(axis, theta).matrix.real
    if axis == "H":
        return pr
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return swap @ pr @ swap


def _gate_cycle(axis: str, n_cycles: int | None) -> tuple[np.ndarray, int]:
    """One cycle of a single Zeno gate and the number of cycles to run.

    The map acts on (block, pass) x (axis-pol, other-pol); the rotated-in
    slot of the block branch, index 1, is the one the object absorbs. For
    `n_cycles=None` the asymptotic gate is one cycle: an exact quarter turn
    of the pass branch, the block branch left as it is.
    """
    if n_cycles is None:
        cycle = np.eye(4)
        cycle[2:, 2:] = [[0.0, -1.0], [1.0, 0.0]]
        return cycle, 1
    return np.kron(np.eye(2), _rotator_pair(axis, cycle_angle(n_cycles))), n_cycles


def qz_gate(axis: str, n_cycles: int | None, absorber: AbsorberState,
            photon: PureState) -> OutcomeDistribution:
    """Single H- or V-Zeno gate, simulated element by element.

    Per cycle the rotator nudges the photon polarization, the PBS routes the
    rotated-in component to the object, and a blocking object absorbs it.
    Outcomes are (object branch, output polarization) pairs plus
    ('block', 'discarded') for absorption. Pass `n_cycles=None` for the
    asymptotic gate: pass flips the polarization, block freezes the axis
    polarization and discards the orthogonal one.
    """
    if axis not in ("H", "V"):
        raise ValueError(f"axis must be 'H' or 'V', got {axis!r}")
    if photon.labels != POLARIZATION_LABELS:
        raise ValueError("photon must live on the (H, V) polarization basis")
    other = "V" if axis == "H" else "H"
    cycle, n_run = _gate_cycle(axis, n_cycles)
    amps = np.kron([absorber.block_amplitude, absorber.pass_amplitude],
                   [photon.amplitude(axis), photon.amplitude(other)])
    amps, lost = absorbing_cycles(cycle, [1], amps, n_run)
    probs = np.abs(amps) ** 2
    return OutcomeDistribution([
        (("pass", axis), probs[2]), (("pass", other), probs[3]),
        (("block", axis), probs[0]), (("block", other), probs[1]),
        (("block", DISCARDED), lost),
    ])


def dqz_asymptotic(absorber: AbsorberState, photon: PureState) -> PureState:
    """Large-N action of the dual gate on a product (object, photon) input.

    The PBS pair feeds each polarization into its own Zeno gate sharing the
    one absorber: a passing object flips the polarization, a blocking object
    leaves it alone, and no amplitude is lost in the limit. The result is
    the CNOT-like four-term state with the object as control.
    """
    if photon.labels != POLARIZATION_LABELS:
        raise ValueError("photon must live on the (H, V) polarization basis")
    alpha, beta = photon.amplitude("H"), photon.amplitude("V")
    lam, mu = absorber.pass_amplitude, absorber.block_amplitude
    return PureState.from_terms(COMPOSITE_LABELS, {
        "pass,V": alpha * lam,
        "pass,H": beta * lam,
        "block,H": alpha * mu,
        "block,V": beta * mu,
    })


def dqz_element_sim(joint: PureState, n_cycles: int | None) -> tuple[PureState, float]:
    """Element-level dual-gate evolution of a joint (object x polarization) state.

    The H component cycles inside the H gate, the V component inside the V
    gate; each cycle both rotators act on both object branches and only the
    amplitude that reaches the blocking object is absorbed. Returns the
    unnormalized surviving joint state (same composite basis) and the lost
    weight. This is the verification oracle for the cycle channel.
    """
    if joint.labels != COMPOSITE_LABELS:
        raise ValueError("joint state must live on the composite basis")
    # Slots (gate, branch, within-gate polarization): gate 0 is the H gate,
    # holding the H-origin component as (H, V); gate 1 the V gate, holding
    # the V-origin component as (V, H). Each gate absorbs its block slot 1.
    gate_h, n_run = _gate_cycle("H", n_cycles)
    gate_v, _ = _gate_cycle("V", n_cycles)
    zero = np.zeros((4, 4))
    cycle = np.block([[gate_h, zero], [zero, gate_v]])
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[:, :, 0] = joint.amplitudes.reshape(2, 2).T
    amps, lost = absorbing_cycles(cycle, [1, 5], amps.reshape(8), n_run)
    gates = amps.reshape(2, 2, 2)
    out = PureState(COMPOSITE_LABELS, (gates[0] + gates[1, :, ::-1]).reshape(4),
                    require_normalized=False)
    return out, lost


def dqz_element_survival(bell: BellState, n_cycles: int) -> float:
    """Element-level Bell survival (1 + cos^{2N} theta_N)/2, computed by simulation."""
    return dqz_element_sim(bell.ket(), n_cycles)[0].norm_squared()
