"""N-cycle interaction-free measurement with a classical or quantum absorptive object.

The probe photon starts in path a of an N-cycle unbalanced beam-splitter
chain (per-cycle angle theta_N = pi/2N) whose path b may be occupied by an
absorptive object. With nothing in path b the photon walks over to b with
certainty; with a blocking object the per-cycle projection back onto path a
freezes it there (quantum Zeno), surviving with probability
cos^{2N}(theta_N). A quantum object in a pass/block superposition evolves
jointly with the photon, which is what lets the Bell-state analyzers reuse
this machinery.
"""

from __future__ import annotations

import numpy as np

from .core import ALGEBRA_TOL, OutcomeDistribution, PureState
from .optics import PATH_LABELS, absorbing_cycles, beam_splitter, cycle_angle, cycle_counts

PHOTON_IN_A, PHOTON_IN_B, ABSORBED = "photon_in_a", "photon_in_b", "absorbed"


class AbsorberState:
    """A pass/block absorptive object, classical or in superposition.

    `pass` lets the photon through untouched; `block` absorbs any amplitude
    that reaches it with certainty (partial absorbers are out of scope).
    """

    __slots__ = ("pass_amplitude", "block_amplitude", "is_classical")

    def __init__(self, pass_amplitude: complex, block_amplitude: complex, *,
                 is_classical: bool = False):
        lam, mu = complex(pass_amplitude), complex(block_amplitude)
        if not (np.isfinite(lam) and np.isfinite(mu)):
            raise ValueError("absorber amplitudes must be finite")
        norm = abs(lam) ** 2 + abs(mu) ** 2
        if abs(norm - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"absorber state not normalized: |lam|^2+|mu|^2 = {norm!r}")
        if is_classical and not (lam == 0 or mu == 0):
            raise ValueError("a classical absorber is either pass or block")
        self.pass_amplitude = lam
        self.block_amplitude = mu
        self.is_classical = bool(is_classical)

    @classmethod
    def passing(cls) -> "AbsorberState":
        return cls(1.0, 0.0, is_classical=True)

    @classmethod
    def blocking(cls) -> "AbsorberState":
        return cls(0.0, 1.0, is_classical=True)

    @classmethod
    def superposition(cls, pass_amplitude: complex, block_amplitude: complex) -> "AbsorberState":
        return cls(pass_amplitude, block_amplitude)

    @property
    def pass_probability(self) -> float:
        return abs(self.pass_amplitude) ** 2

    @property
    def block_probability(self) -> float:
        return abs(self.block_amplitude) ** 2

    def __repr__(self) -> str:
        kind = "classical" if self.is_classical else "quantum"
        return (f"AbsorberState({kind}, pass={self.pass_amplitude:.4g}, "
                f"block={self.block_amplitude:.4g})")


def blocked_survival(n_cycles):
    """Closed-form survival cos^{2N}(pi/2N) of the blocked chain.

    Takes a cycle count or an array of them.
    """
    n = cycle_counts(n_cycles)
    return np.float_power(np.cos(cycle_angle(n)), 2 * n)


def blocked_survival_sim(n_cycles: int) -> float:
    """Blocked-chain survival from the per-cycle element map raised to the
    N-th power; the map is the beam-splitter rotation, then projection onto
    path a.

    Independent of the closed form above on purpose; the two are compared in
    tests at 1e-10.
    """
    bs = beam_splitter(cycle_angle(n_cycles)).matrix.real
    # amplitude in path b is absorbed by the object
    v, _ = absorbing_cycles(bs, [1], np.array([1.0, 0.0]), n_cycles)
    return float(v[0] ** 2)


def ifm_evolve(n_cycles: int, n_done: int, blocked: bool) -> tuple[PureState, float]:
    """State and survival probability after n_done of N cycles.

    Free chain: cos(n theta)|a> + sin(n theta)|b>, survival 1. Blocked
    chain: the photon is renormalized back to |a> and the survival picks up
    cos^2(theta) per cycle.
    """
    theta = cycle_angle(n_cycles)
    if not 1 <= n_done <= n_cycles:
        raise ValueError("need 1 <= n_done <= n_cycles")
    if blocked:
        state = PureState.basis(PATH_LABELS, "a")
        survival = float(np.float_power(np.cos(theta), 2 * n_done))
        return state, survival
    turned = n_done * theta
    state = PureState(PATH_LABELS, [np.cos(turned), np.sin(turned)])
    return state, 1.0


def ifm_joint_amplitudes(n_cycles: int, absorber: AbsorberState) -> tuple[np.ndarray, float]:
    """Joint (object x photon-path) amplitudes after N cycles, plus lost weight.

    Basis order: (pass,a), (pass,b), (block,a), (block,b). The object is a
    which-path marker, so entanglement generated between object and photon is
    kept rather than mixed away.
    """
    bs = beam_splitter(cycle_angle(n_cycles)).matrix
    amps = np.array([absorber.pass_amplitude, 0.0, absorber.block_amplitude, 0.0])
    # the block branch absorbs whatever reaches path b
    return absorbing_cycles(np.kron(np.eye(2), bs), [3], amps, n_cycles)


def ifm_detect(n_cycles: int, absorber: AbsorberState) -> OutcomeDistribution:
    """Where the photon ends up after the full chain: path a, path b, or absorbed."""
    amps, lost = ifm_joint_amplitudes(n_cycles, absorber)
    p_a = abs(amps[0]) ** 2 + abs(amps[2]) ** 2
    p_b = abs(amps[1]) ** 2 + abs(amps[3]) ** 2
    return OutcomeDistribution([
        (PHOTON_IN_A, p_a),
        (PHOTON_IN_B, p_b),
        (ABSORBED, lost),
    ])
