"""Primitive optical operators: unbalanced beam splitter, polarization rotators, PBS routing.

Mirrors, optical delays, circulators, and switchable mirrors appear in the
hardware picture only as routing with no amplitude effect; they are identity
here (all reflection phases are +1, and only the relative signs inside the
rotator conventions are observable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Operator

# Photon interferometer paths: "a" is the lower path (the |10> slot), "b" the
# upper path (the |01> slot).
PATH_LABELS = ("a", "b")
POLARIZATION_LABELS = ("H", "V")
ARM_IN, ARM_TRANSMITTED, ARM_REFLECTED = "in", "transmitted", "reflected"


@dataclass(frozen=True)
class CycleAngle:
    """Per-cycle rotation angles for an N-cycle Zeno interrogation."""

    n_cycles: int

    def __post_init__(self):
        if not self.n_cycles >= 1:  # NaN fails too
            raise ValueError("n_cycles must be a positive integer")

    @property
    def theta(self) -> float:
        """Beam-splitter / polarization-rotator angle pi/(2N)."""
        return np.pi / (2.0 * self.n_cycles)

    @property
    def phi(self) -> float:
        """Ancilla-rotation angle pi/N (= 2 theta)."""
        return np.pi / self.n_cycles


def cycle_counts(n_cycles) -> np.ndarray:
    """A cycle count, or an array of them, as floats for the vectorized closed forms."""
    n = np.asarray(n_cycles, dtype=float)
    if not n.min() >= 1:  # NaN fails too
        raise ValueError("cycle counts must be >= 1")
    return n


def absorbing_cycles(cycle, absorbed, amplitudes, n_cycles: int) -> tuple[np.ndarray, float]:
    """N cycles of the unitary `cycle`, each followed by absorption of the `absorbed` slots.

    Absorption zeroes the absorbed rows of the cycle matrix, so the N cycles
    are that per-cycle element map raised to the N-th power. Returns the
    surviving (unnormalized) amplitudes and the lost weight |in|^2 - |out|^2,
    which is the summed per-cycle absorption because `cycle` keeps the norm.
    """
    step = np.array(cycle)
    step[list(absorbed)] = 0.0
    out = np.linalg.matrix_power(step, n_cycles) @ amplitudes
    lost = np.vdot(amplitudes, amplitudes).real - np.vdot(out, out).real
    return out, max(float(lost), 0.0)


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta <= np.pi / 2.0 + 1e-15:
        raise ValueError(f"angle must lie in (0, pi/2], got {theta!r}")
    return theta


def beam_splitter(theta: float) -> Operator:
    """Unbalanced beam splitter on paths (a, b).

    |a> -> cos(theta)|a> + sin(theta)|b>
    |b> -> cos(theta)|b> - sin(theta)|a>
    """
    theta = _check_angle(theta)
    c, s = np.cos(theta), np.sin(theta)
    return Operator.unitary([[c, -s], [s, c]], PATH_LABELS)


def polarization_rotator(axis: str, theta: float) -> Operator:
    """Polarization rotator on (H, V).

    The H-axis rotator feeds H toward V (|H> -> cos|H> + sin|V>); the V-axis
    rotator is its transpose convention (|V> -> cos|V> + sin|H>).
    """
    theta = _check_angle(theta)
    c, s = np.cos(theta), np.sin(theta)
    if axis == "H":
        mat = [[c, -s], [s, c]]
    elif axis == "V":
        mat = [[c, s], [-s, c]]
    else:
        raise ValueError(f"axis must be 'H' or 'V', got {axis!r}")
    return Operator.unitary(mat, POLARIZATION_LABELS)


def _routed_arm(axis: str, pol: str) -> str:
    # PBS^axis transmits the axis polarization and reflects the other one.
    return ARM_TRANSMITTED if pol == axis else ARM_REFLECTED


def pbs_route(axis: str) -> Operator:
    """Polarizing beam splitter as a permutation on (polarization, arm) pairs.

    PBS^H sends (H, in) <-> (H, transmitted) and (V, in) <-> (V, reflected);
    PBS^V swaps the polarization roles. The swap structure makes it an
    involution on its 4-dimensional space.
    """
    if axis not in ("H", "V"):
        raise ValueError(f"axis must be 'H' or 'V', got {axis!r}")
    labels = []
    for pol in POLARIZATION_LABELS:
        labels.append(f"{pol},{ARM_IN}")
        labels.append(f"{pol},{_routed_arm(axis, pol)}")
    mat = np.zeros((4, 4))
    for k in (0, 2):
        mat[k, k + 1] = mat[k + 1, k] = 1.0
    return Operator.unitary(mat, tuple(labels))


def rotator_pbs_arm_matrix(axis: str, theta: float) -> np.ndarray:
    """Arm-pair action of a polarization rotator followed by PBS routing.

    Sends each input polarization through polarization_rotator(axis, theta)
    and then routes it with pbs_route(axis); returns the resulting 2x2 matrix
    on the (transmitted, reflected) output arms. The combination realizes the
    beam_splitter matrix on the arm pair, which the tests pin at 1e-12.
    """
    pr = polarization_rotator(axis, theta)
    pbs = pbs_route(axis)
    labels = pbs.labels
    out = np.zeros((2, 2), dtype=complex)
    in_slots = [labels.index(f"{pol},{ARM_IN}") for pol in POLARIZATION_LABELS]
    order = POLARIZATION_LABELS if axis == "H" else tuple(reversed(POLARIZATION_LABELS))
    for col, pol_in in enumerate(order):
        rotated = pr.matrix[:, POLARIZATION_LABELS.index(pol_in)]
        vec = np.zeros(4, dtype=complex)
        for pol, amp in zip(POLARIZATION_LABELS, rotated):
            vec[in_slots[POLARIZATION_LABELS.index(pol)]] = amp
        routed = pbs.matrix @ vec
        for pol in POLARIZATION_LABELS:
            arm = _routed_arm(axis, pol)
            row = 0 if arm == ARM_TRANSMITTED else 1
            out[row, col] += routed[labels.index(f"{pol},{arm}")]
    return out
