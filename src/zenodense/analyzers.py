"""Three complete Bell-state analyzers: dual-Zeno (DQZ), IFM-chain, and single-QZ.

Each analyzer maps a Bell input to a detector-click pair or a photon-lost
event. Detector layout (fixed across the library):

* D1, D2: electron path detectors after the Hadamard, D2 on the lower (L)
  path that signals a plus electron superposition, D1 on the upper (U) path
  that signals minus.
* D3..D6: photon detectors. For the dual-Zeno analyzer the 50:50 splitter
  doubles each polarization over two paths, so V lands on D3 or D6 and H on
  D4 or D5 according to the apparatus path parameter m (0 or 1). m is
  treated as an opaque sign: it relabels detectors and flips the electron
  superposition sign but never changes any outcome probability.
* The IFM analyzer's photon side has only two detectors: D3 collects the
  trajectory-changed (Psi) branches and D4 the frozen (Phi) branches.
* The single-QZ analyzer identifies the state via its ancilla rather than
  these detectors; it reports the canonical pairs, dqz's m = 0 pairs.

No pair is written by hand: dqz measures its channel output, ifm its first
stage's, each once at N = 2 by one rule (the electron Hadamard, the certain
outcome, its detectors). Conditional correctness holds exactly in the
channel model: given the photon survives, the click pair identifies the
input Bell state with probability one, for every analyzer and every N >= 1.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .bell import ALL_BELL_STATES, BellState
from .core import ACCUMULATION_TOL, OutcomeDistribution, PureState, hadamard
from .ifm import AbsorberState, blocked_survival
from .optics import absorbing_cycles, beam_splitter, cycle_angle, cycle_counts
from .zeno import channel_survival, dqz_apply

ELECTRON_DETECTORS = ("D1", "D2")
PHOTON_DETECTORS = ("D3", "D4", "D5", "D6")


class AnalyzerKind(str, enum.Enum):
    DQZ = "dqz"
    IFM = "ifm"
    QZ = "qz"


@dataclass(frozen=True)
class DetectorPair:
    electron: str
    photon: str

    def __post_init__(self):
        if self.electron not in ELECTRON_DETECTORS:
            raise ValueError(f"unknown electron detector {self.electron!r}")
        if self.photon not in PHOTON_DETECTORS:
            raise ValueError(f"unknown photon detector {self.photon!r}")

    def __str__(self) -> str:
        return f"{self.electron}*{self.photon}"


@dataclass(frozen=True)
class AnalyzerOutcome:
    """One run's result: a detector pair, or the photon-lost event.

    `counterfactual_weight` is the probability that the photon never
    crossed into the absorber's channel given this outcome (the blocking
    branch weight). A lost photon certainly entered the channel, so loss
    always carries weight zero.
    """

    clicks: DetectorPair | None
    photon_lost: bool
    counterfactual_weight: float

    def __post_init__(self):
        if self.photon_lost == (self.clicks is not None):
            raise ValueError("detector pair must be present exactly when the photon survived")
        if not 0.0 <= self.counterfactual_weight <= 1.0:
            raise ValueError("counterfactual_weight must lie in [0, 1]")

    @classmethod
    def lost(cls) -> "AnalyzerOutcome":
        return cls(clicks=None, photon_lost=True, counterfactual_weight=0.0)

    @classmethod
    def detected(cls, pair: DetectorPair, counterfactual_weight: float) -> "AnalyzerOutcome":
        return cls(clicks=pair, photon_lost=False, counterfactual_weight=counterfactual_weight)


PHOTON_LOST = AnalyzerOutcome.lost()


# ---------------------------------------------------------------------------
# survival laws over a cycle count or an array of them (the channel's P^N is
# zeno.channel_survival, the weight dqz_apply carries; element sims are the oracles)


def qz_ancilla_survival(n_cycles):
    """(1 - 3 sin^2(phi_N)/4)^N; the gate blocks with weight 3/4 each cycle.

    N = 1 is degenerate: sin(pi) = 0 makes the formula vacuously 1.
    """
    n = cycle_counts(n_cycles)
    return np.float_power(1.0 - 0.75 * np.sin(2.0 * cycle_angle(n)) ** 2, n)


def ifm_family_survival(bell: BellState, n_cycles: int) -> float:
    """First-stage survival of the IFM analyzer: cos^{2N} theta_N for the
    Phi family (both branches frozen), 1 for Psi (both branches fly free)."""
    frozen = blocked_survival(n_cycles)  # checks N for both families
    return float(frozen) if bell.family == "phi" else 1.0


def qz_is_degenerate(n_cycles: int) -> bool:
    return n_cycles == 1


# ---------------------------------------------------------------------------
# DQZ analyzer


_PASS_SIGN_FLIP = np.diag([1.0, 1.0, -1.0, -1.0])
_HADAMARD_ON_ELECTRON = np.kron(hadamard().matrix, np.eye(2))

# Photon detectors of the (H, V) polarizations, by path parameter m.
_PHOTON_DETECTORS = (("D4", "D3"), ("D5", "D6"))


def _measure_pair(conditional: np.ndarray, photon_detectors: tuple[str, str]) -> DetectorPair:
    """The click pair a surviving state names with certainty. `conditional` is a density
    matrix over (electron block, pass) x two photon modes, which land on `photon_detectors`;
    the electron Hadamard puts block + pass on the block path L = D2."""
    h = _HADAMARD_ON_ELECTRON
    probs = np.real(np.diag(h @ conditional @ h.conj().T)) / np.real(np.trace(conditional))
    top = int(np.argmax(probs))
    if probs[top] < 1.0 - ACCUMULATION_TOL:
        raise AssertionError(f"analyzer conditional correctness violated: {probs}")
    return DetectorPair("D2" if top < 2 else "D1", photon_detectors[top % 2])


@functools.lru_cache(maxsize=None)  # eight entries at most: four Bell states by two m
def _dqz_pair_from_channel(bell: BellState, m: int) -> DetectorPair:
    """Derive the click pair by actually measuring the channel output, once, at N = 2."""
    conditional = dqz_apply(bell, 2).surviving.matrix
    if m == 0:
        # The cycle operator realizes the path-y electron sign; path x flips
        # the pass amplitude.
        conditional = _PASS_SIGN_FLIP @ conditional @ _PASS_SIGN_FLIP
    return _measure_pair(conditional, _PHOTON_DETECTORS[m])


# ---------------------------------------------------------------------------
# IFM analyzer

IFM_JOINT_LABELS = tuple(f"{e},{p}" for e in ("a", "b") for p in ("c1", "c2", "d1", "d2"))


def ifm_bell_input(bell: BellState) -> PureState:
    """Bell state in the IFM analyzer geometry.

    Electron-in-b is the 0 (blocking-the-d-chain) electron state and the
    photon starts in c2 or d2; electron-in-a blocks the c chain.
    """
    sq2 = np.sqrt(2.0)
    if bell.family == "phi":
        terms = {"b,d2": 1 / sq2, "a,c2": bell.sign / sq2}
    else:
        terms = {"b,c2": 1 / sq2, "a,d2": bell.sign / sq2}
    return PureState.from_terms(IFM_JOINT_LABELS, terms)


def ifm_stage1_evolve(bell: BellState, n_cycles: int) -> tuple[PureState, float]:
    """First-stage joint evolution: two interleaved chains, each blocked by
    one electron path. Returns the unnormalized surviving state and its
    survival probability.
    """
    # Each electron path carries a c chain and a d chain, each turning its
    # start slot (c2, d2) toward its end slot (c1, d1); the photon slots are
    # ordered (end, start), hence the reversed rotation. Electron a blocks the
    # c chain, electron b the d chain.
    rot = beam_splitter(cycle_angle(n_cycles)).matrix.real[::-1, ::-1]
    absorbed = [IFM_JOINT_LABELS.index("a,c1"), IFM_JOINT_LABELS.index("b,d1")]
    amps, _ = absorbing_cycles(np.kron(np.eye(4), rot), absorbed,
                               ifm_bell_input(bell).amplitudes, n_cycles)
    state = PureState(IFM_JOINT_LABELS, amps, require_normalized=False)
    return state, state.norm_squared()


# Stage one's end slots (c1, d1) merge onto D3, its start slots (c2, d2) onto D4.
_IFM_PHOTON_DETECTORS = ("D3", "D4")


@functools.lru_cache(maxsize=None)  # four entries: one per Bell state
def _ifm_pair_from_chain(bell: BellState) -> DetectorPair:
    """Derive the click pair by actually measuring the first-stage output, once, at N = 2."""
    state, _ = ifm_stage1_evolve(bell, 2)
    # Axes (electron a, b), (chain c, d), (end, start): merge the chains and
    # order the electron (b, a) = (block, pass).
    merged = state.amplitudes.reshape(2, 2, 2).sum(axis=1)[::-1].ravel()
    return _measure_pair(np.outer(merged, merged.conj()), _IFM_PHOTON_DETECTORS)


# ---------------------------------------------------------------------------
# QZ analyzer

CONTROL_TARGET_LABELS = ("0C,0T", "0C,1T", "1C,0T", "1C,1T")


def qz_collapsed_state(bell: BellState) -> PureState:
    """Post-absorption collapse of the entangled pair.

    When the ancilla is absorbed, each Bell state collapses onto the
    blocking three-term superposition over the control/target presence
    basis. The four results are normalized but pairwise non-orthogonal with
    inner products of magnitude 1/3.
    """
    sq3 = np.sqrt(3.0)
    second = 1.0 if bell.family == "phi" else -1.0
    return PureState(CONTROL_TARGET_LABELS,
                     [1 / sq3, second / sq3, bell.sign / sq3, 0.0])


# ---------------------------------------------------------------------------
# the analyzer table


def _ifm_phi_survival(n_cycles):
    """Phi inputs of the IFM analyzer: frozen in stage one, then the channel's P^N."""
    return blocked_survival(n_cycles) * channel_survival(n_cycles)


def _ifm_mixture_survival(n_cycles):
    """The uniform Bell mixture through the IFM analyzer: half of it is Phi."""
    return 0.5 * (blocked_survival(n_cycles) + 1.0) * channel_survival(n_cycles)


@dataclass(frozen=True)
class AnalyzerSpec:
    """Everything that tells one analyzer from the others.

    `survival` maps each Bell family, and None for the uniform Bell mixture,
    to its survival law over N (a cycle count or an array of them). `pair(bell,
    m)` is the click pair of a surviving run, the same at every N, `weight`
    the counterfactual weight of a surviving run per Bell family, and
    `splitters_per_cycle` and `ancilla` the hardware cost.
    """

    survival: Mapping[str | None, Callable]
    pair: Callable[[BellState, int], DetectorPair]
    weight: Mapping[str, float]
    splitters_per_cycle: int
    ancilla: bool


ANALYZERS = {
    # Dual Zeno: polarization splits the family, the electron Hadamard plus
    # path measurement the sign. Surviving runs keep the block/pass balance,
    # so the photon stayed out of the channel with probability 1/2.
    AnalyzerKind.DQZ: AnalyzerSpec(
        survival=dict.fromkeys(("phi", "psi", None), channel_survival),
        pair=_dqz_pair_from_channel,
        weight={"phi": 0.5, "psi": 0.5}, splitters_per_cycle=2, ancilla=False),
    # IFM chain: stage one freezes the Phi branches (cos^{2N} theta_N) and
    # walks the Psi photon to D3; stage two resolves the sign through the
    # electron Hadamard at the channel cost P^N. Phi branches never cross
    # into the electron's chain; Psi branches do.
    AnalyzerKind.IFM: AnalyzerSpec(
        survival={"phi": _ifm_phi_survival, "psi": channel_survival,
                  None: _ifm_mixture_survival},
        pair=lambda bell, m: _ifm_pair_from_chain(bell),
        weight={"phi": 1.0, "psi": 0.0}, splitters_per_cycle=4, ancilla=False),
    # Single QZ: an ancillary H photon cycles through the gate with both
    # entangled particles as absorbers. If it survives all N cycles the four
    # Bell states are identified with certainty, reported as dqz's m = 0
    # pairs; on absorption the pair collapses to the non-orthogonal
    # qz_collapsed_state results and the run is lost. The gate blocks in
    # three of the four equal-weight branches.
    AnalyzerKind.QZ: AnalyzerSpec(
        survival=dict.fromkeys(("phi", "psi", None), qz_ancilla_survival),
        pair=lambda bell, m: _dqz_pair_from_channel(bell, 0),
        weight={"phi": 0.75, "psi": 0.75}, splitters_per_cycle=1, ancilla=True),
}


def survival_law(kind: AnalyzerKind, bell: BellState | None, n_cycles) -> np.ndarray:
    """Survival probability of a Bell input, or of the uniform Bell mixture for None,
    over a cycle count or an array of them: the table's law for its family, called.
    Each element equals, bit for bit, the value of its cycle count alone."""
    spec = ANALYZERS[kind if isinstance(kind, AnalyzerKind) else AnalyzerKind(kind)]
    return spec.survival[None if bell is None else bell.family](cycle_counts(n_cycles))


@functools.lru_cache(maxsize=1024)
def survival_probability(kind: AnalyzerKind, bell: BellState, n_cycles: int) -> float:
    """`survival_law` at one N, as a float, cached."""
    return float(survival_law(kind, bell, n_cycles))


@functools.lru_cache(maxsize=1024)
def analyze(kind: AnalyzerKind, bell: BellState, n_cycles: int, m: int = 0) -> OutcomeDistribution:
    """Bell analysis of one run.

    With probability survival_probability the photon survives and the click
    pair identifies the state with certainty; otherwise the photon is lost.
    The surviving click is listed first (samplers rely on the order).
    Cached like survival_probability; the distribution is immutable.
    """
    pair = click_pair(kind, bell, m)
    p = survival_probability(kind, bell, n_cycles)
    detected = AnalyzerOutcome.detected(pair, ANALYZERS[AnalyzerKind(kind)].weight[bell.family])
    return OutcomeDistribution([(detected, p), (PHOTON_LOST, 1.0 - p)])


def click_pair(kind: AnalyzerKind, bell: BellState, m: int = 0) -> DetectorPair:
    """The deterministic click pair a surviving run produces, for path parameter m (0 or 1).

    Every pair is N-independent: the dual-Zeno N-cycle operator is an exact
    quarter turn and the IFM first stage a full walk or a frozen photon for
    every N, so each pair is measured once, at N = 2.
    """
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    return ANALYZERS[AnalyzerKind(kind)].pair(bell, m)


def semi_counterfactual_stats(source: BellState | AbsorberState, n_cycles: int = 1) -> float:
    """Weight of the branch where the photon never crosses the channel.

    Every Bell state splits the absorber evenly, so the weight is 1/2 at the
    input regardless of N. A classical blocking object keeps the photon out
    with certainty (given survival); a classical passing object sends it
    to-and-fro on every run.
    """
    cycle_counts(n_cycles)
    if isinstance(source, BellState):
        return 0.5
    if isinstance(source, AbsorberState):
        return source.block_probability
    raise TypeError(f"expected BellState or AbsorberState, got {type(source).__name__}")


__all__ = [
    "ALL_BELL_STATES",
    "ANALYZERS",
    "AnalyzerKind",
    "AnalyzerOutcome",
    "AnalyzerSpec",
    "BellState",
    "DetectorPair",
    "PHOTON_LOST",
    "analyze",
    "click_pair",
    "ifm_bell_input",
    "ifm_stage1_evolve",
    "qz_ancilla_survival",
    "qz_collapsed_state",
    "qz_is_degenerate",
    "semi_counterfactual_stats",
    "survival_law",
    "survival_probability",
]
