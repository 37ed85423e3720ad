"""Quantum-Zeno gates: the single H/V gate, the dual gate, and its finite-N cycle channel.

Two models of the dual-Zeno (DQZ) gate live here side by side:

* The cycle-channel model: per cycle, an orthogonal 4x4 operator rotates the
  pass components by theta_N while a state-independent survival probability
  P = 1 - sin^2(theta_N)/2 accounts for absorption. This is the production
  path; every closed-form throughput in `metrics` follows from it.

* The element-level model: polarization rotators and PBS routing simulated
  cycle by cycle, with absorption only of the amplitude that actually
  reaches a blocking object. It serves as a verification oracle. For Bell
  inputs its survival is (1 + cos^{2N} theta_N)/2, which exceeds the channel
  value P^N for every N >= 2 and agrees at N = 1 and asymptotically; the
  tests pin that relationship rather than pretending the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import COMPOSITE_LABELS, BellState
from .core import ALGEBRA_TOL, DensityMatrix, OutcomeDistribution, PureState
from .ifm import AbsorberState
from .optics import POLARIZATION_LABELS, CycleAngle, cycle_counts, polarization_rotator

DISCARDED = "discarded"

# Slot layout of the composite basis: identity block on (block,*), rotation
# block on (pass,*).
_BLOCK_H, _BLOCK_V, _PASS_H, _PASS_V = range(4)


def cycle_survival(n_cycles):
    """Per-cycle survival 1 - sin^2(theta_N)/2, the same for every Bell input.

    Takes a cycle count or an array of them.
    """
    n = cycle_counts(n_cycles)
    return 1.0 - 0.5 * np.sin(np.pi / (2.0 * n)) ** 2


@dataclass(frozen=True)
class CycleChannel:
    """One dual-Zeno cycle: orthogonal operator plus per-cycle survival."""

    operator: np.ndarray
    survival_p: float
    branch_index: int
    n_cycles: int

    def __post_init__(self):
        mat = np.asarray(self.operator, dtype=float).copy()
        mat.setflags(write=False)
        object.__setattr__(self, "operator", mat)
        defect = float(np.max(np.abs(mat.T @ mat - np.eye(4))))
        if defect >= ALGEBRA_TOL:
            raise ValueError(f"cycle operator is not orthogonal (defect {defect:.3e})")
        if not 0.0 < self.survival_p <= 1.0:
            raise ValueError(f"survival_p out of (0, 1]: {self.survival_p!r}")

    def n_cycle_operator(self) -> np.ndarray:
        return np.linalg.matrix_power(self.operator, self.n_cycles)


def dqz_cycle_channel(branch_index: int, n_cycles: int) -> CycleChannel:
    """The per-cycle operator and survival for branch i (1 = Phi family, 0 = Psi).

    The operator is the identity on the block components and a theta_N
    rotation with sign pattern (-1)^{i+1} / (-1)^i on the pass components.
    N of them compose to an exact quarter turn of the pass subspace.
    """
    if branch_index not in (0, 1):
        raise ValueError("branch_index must be 0 or 1")
    angles = CycleAngle(n_cycles)
    c, s = np.cos(angles.theta), np.sin(angles.theta)
    op = np.eye(4)
    op[_PASS_H, _PASS_H] = c
    op[_PASS_H, _PASS_V] = (-1.0) ** (branch_index + 1) * s
    op[_PASS_V, _PASS_H] = (-1.0) ** branch_index * s
    op[_PASS_V, _PASS_V] = c
    return CycleChannel(op, float(cycle_survival(n_cycles)), branch_index, n_cycles)


@dataclass(frozen=True)
class DqzOutcome:
    """Result of pushing a Bell state through N dual-Zeno cycles.

    `surviving` is the conditional (trace-one) state given the photon was
    never absorbed, carried with weight `surviving_weight` = P^N. The lost
    branch has the electron collapsed to block and no photon left to
    measure; the branch index is bookkeeping only.
    """

    surviving: DensityMatrix
    surviving_weight: float
    lost_weight: float
    branch_index: int

    def __post_init__(self):
        if abs(self.surviving_weight + self.lost_weight - 1.0) > 1e-10:
            raise ValueError("surviving and lost weights must sum to 1")

    def as_density_matrix(self) -> DensityMatrix:
        """The full channel output: weighted surviving block plus lost weight."""
        return DensityMatrix(
            self.surviving.labels,
            self.surviving_weight * self.surviving.matrix,
            lost_weight=self.lost_weight,
        )


def dqz_apply(bell: BellState, n_cycles: int) -> DqzOutcome:
    """Apply the N-cycle channel to a Bell input."""
    channel = dqz_cycle_channel(bell.branch_index, n_cycles)
    kn = channel.n_cycle_operator()
    amps = bell.ket().amplitudes
    rho = np.outer(amps, amps.conj())
    conditional = kn @ rho @ kn.T
    weight = channel.survival_p ** n_cycles
    return DqzOutcome(
        surviving=DensityMatrix(COMPOSITE_LABELS, conditional),
        surviving_weight=float(weight),
        lost_weight=float(1.0 - weight),
        branch_index=bell.branch_index,
    )


def post_gate_target(bell: BellState) -> PureState:
    """The exact separable state the N-cycle channel leaves behind.

    (|block> - sign |pass>)/sqrt2 tensored with the family polarization.
    The minus sign is the path-y convention realized by the cycle operator
    in this basis ordering; the analyzers' path parameter m only relabels
    detectors and flips this sign, never the outcome weights.
    """
    electron = np.array([1.0, -float(bell.sign)]) / np.sqrt(2.0)
    pol = np.array([1.0, 0.0]) if bell.surviving_polarization == "H" else np.array([0.0, 1.0])
    return PureState(COMPOSITE_LABELS, np.kron(electron, pol))


# ---------------------------------------------------------------------------
# element-level simulations (verification oracles)


def _rotator_pair(axis: str, theta: float) -> np.ndarray:
    """Rotator matrix in (axis-pol, other-pol) coordinate order."""
    pr = polarization_rotator(axis, theta).matrix.real
    if axis == "H":
        return pr
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return swap @ pr @ swap


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
    # amps[branch] = (axis-pol amplitude, other-pol amplitude)
    amps = {
        "pass": absorber.pass_amplitude * np.array(
            [photon.amplitude(axis), photon.amplitude(other)]),
        "block": absorber.block_amplitude * np.array(
            [photon.amplitude(axis), photon.amplitude(other)]),
    }
    lost = 0.0
    if n_cycles is None:
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])  # exact pi/2 rotation
        amps["pass"] = quarter @ amps["pass"]
        lost = float(abs(amps["block"][1]) ** 2)
        amps["block"][1] = 0.0
    else:
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1 (or None for the asymptotic gate)")
        rot = _rotator_pair(axis, CycleAngle(n_cycles).theta)
        for _ in range(n_cycles):
            amps["pass"] = rot @ amps["pass"]
            amps["block"] = rot @ amps["block"]
            lost += float(abs(amps["block"][1]) ** 2)
            amps["block"][1] = 0.0
    pol_of = {0: axis, 1: other}
    outcomes = []
    for branch in ("pass", "block"):
        for slot in (0, 1):
            pol = pol_of[slot]
            outcomes.append(((branch, pol), float(abs(amps[branch][slot]) ** 2)))
    outcomes.append((("block", DISCARDED), lost))
    return OutcomeDistribution(outcomes)


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
    # Per object branch: gate-1 holds the H-origin component as
    # (within-gate H, within-gate V); gate-2 holds the V-origin component as
    # (within-gate V, within-gate H). The rotated-in slot is index 1 in both.
    gate1 = {"block": np.zeros(2, dtype=complex), "pass": np.zeros(2, dtype=complex)}
    gate2 = {"block": np.zeros(2, dtype=complex), "pass": np.zeros(2, dtype=complex)}
    for branch in ("block", "pass"):
        gate1[branch][0] = joint.amplitude(f"{branch},H")
        gate2[branch][0] = joint.amplitude(f"{branch},V")
    lost = 0.0
    if n_cycles is None:
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])  # exact accumulated pi/2 turn
        for gate in (gate1, gate2):
            gate["pass"] = quarter @ gate["pass"]
            lost += float(abs(gate["block"][1]) ** 2)
            gate["block"] = gate["block"] * np.array([1.0, 0.0])
    else:
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1 (or None for the asymptotic gate)")
        theta = CycleAngle(n_cycles).theta
        rot_h = _rotator_pair("H", theta)
        rot_v = _rotator_pair("V", theta)
        for _ in range(n_cycles):
            for branch in ("block", "pass"):
                gate1[branch] = rot_h @ gate1[branch]
                gate2[branch] = rot_v @ gate2[branch]
            lost += float(abs(gate1["block"][1]) ** 2 + abs(gate2["block"][1]) ** 2)
            gate1["block"][1] = 0.0
            gate2["block"][1] = 0.0
    amps = np.zeros(4, dtype=complex)
    for branch, base in (("block", 0), ("pass", 2)):
        # gate-1 slots are (H, V); gate-2 slots are (V, H)
        amps[base + 0] += gate1[branch][0] + gate2[branch][1]
        amps[base + 1] += gate1[branch][1] + gate2[branch][0]
    out = PureState(COMPOSITE_LABELS, amps, require_normalized=False)
    return out, float(lost)


def dqz_element_survival(bell: BellState, n_cycles: int) -> float:
    """Element-level Bell survival (1 + cos^{2N} theta_N)/2, computed by simulation."""
    out, lost = dqz_element_sim(bell.ket(), n_cycles)
    survival = out.norm_squared()
    assert abs(survival + lost - 1.0) < 1e-10
    return survival
