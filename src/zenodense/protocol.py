"""End-to-end superdense coding: encoding, decoding, and Monte-Carlo sessions.

Charlie always emits an ideal Phi+ pair; Alice encodes two classical bits by
a Pauli on her electron; Bob runs one of the three Bell-state analyzers and
decodes the click pair. A lost photon delivers zero bits and no
retransmission is attempted, so the throughput estimator is
r_hat = 2 * (surviving and correctly decoded) / shots.

Monte-Carlo determinism: shot i consumes uniforms u0 (message selection,
burned even when the message is fixed) and u1 (outcome draw) from its own
counter-based stream, so `simulate` (vectorized, optionally threaded) and
`run_protocol` (one shot at a time) see bit-identical trajectories.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analyzers import (
    AnalyzerKind,
    AnalyzerOutcome,
    BellState,
    DetectorPair,
    analyze,
    click_pair,
    survival_probability,
)
from .core import shot_stream, shot_uniforms

MESSAGES = ("00", "01", "10", "11")

_MESSAGE_TO_BELL = {
    "00": BellState.PHI_PLUS,
    "01": BellState.PSI_PLUS,
    "10": BellState.PHI_MINUS,
    "11": BellState.PSI_MINUS,
}

# Binary (electron, photon) basis used only to verify the Pauli route:
# block = 0, pass = 1; V = 0, H = 1. Order: 00, 01, 10, 11.
_BELL_BINARY = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1]) / np.sqrt(2),
    BellState.PHI_MINUS: np.array([1, 0, 0, -1]) / np.sqrt(2),
    BellState.PSI_PLUS: np.array([0, 1, 1, 0]) / np.sqrt(2),
    BellState.PSI_MINUS: np.array([0, 1, -1, 0]) / np.sqrt(2),
}

_PAULI = {
    "00": np.eye(2),
    "01": np.array([[0, 1], [1, 0]]),                  # X
    "10": np.array([[1, 0], [0, -1]]),                 # Z
    "11": np.array([[0, -1j], [1j, 0]]),               # Y
}


def _verify_encoding_table() -> None:
    # Alice's Pauli acts on the electron factor of Phi+; the result must be
    # the advertised Bell ket up to a global phase.
    phi_plus = _BELL_BINARY[BellState.PHI_PLUS].astype(complex)
    for message, bell in _MESSAGE_TO_BELL.items():
        op = np.kron(_PAULI[message], np.eye(2))
        produced = op @ phi_plus
        overlap = abs(np.vdot(_BELL_BINARY[bell].astype(complex), produced))
        if abs(overlap - 1.0) > 1e-12:
            raise AssertionError(f"Pauli encoding of {message} does not reach {bell}")


_verify_encoding_table()


def encode(message: str) -> BellState:
    """Two classical bits -> the Bell state Alice's Pauli produces from Phi+."""
    if message not in _MESSAGE_TO_BELL:
        raise ValueError(f"message must be one of {MESSAGES}, got {message!r}")
    return _MESSAGE_TO_BELL[message]


def _decode_table(analyzer: AnalyzerKind) -> dict[DetectorPair, BellState]:
    table: dict[DetectorPair, BellState] = {}
    for bell in _MESSAGE_TO_BELL.values():
        for m in (0, 1):
            table[click_pair(analyzer, bell, m)] = bell
    return table


_DECODE_TABLES = {kind: _decode_table(kind) for kind in AnalyzerKind}
_BELL_TO_MESSAGE = {bell: message for message, bell in _MESSAGE_TO_BELL.items()}


def decode(clicks: DetectorPair, analyzer: AnalyzerKind = AnalyzerKind.DQZ) -> tuple[BellState, str]:
    """Click pair -> (estimated Bell state, classical message).

    The default table is the dual-Zeno analyzer's, covering both path
    conventions (eight pairs). The IFM analyzer swaps the family meaning of
    the photon side and the QZ analyzer reports canonical pairs, so decoding
    is analyzer-aware.
    """
    analyzer = AnalyzerKind(analyzer)
    table = _DECODE_TABLES[analyzer]
    if clicks not in table:
        valid = ", ".join(sorted(str(pair) for pair in table))
        raise ValueError(f"invalid detector pair {clicks} for {analyzer.value}; expected one of: {valid}")
    bell = table[clicks]
    return bell, _BELL_TO_MESSAGE[bell]


@dataclass(frozen=True)
class RunOutcome:
    """One protocol shot: what was sent, what clicked, what was decoded."""

    message_sent: str
    decoded: str | None
    bell_estimate: BellState | None
    clicks: DetectorPair | None
    photon_lost: bool
    analyzer: AnalyzerKind
    n_cycles: int
    master_seed: int
    shot_index: int

    def __post_init__(self):
        if (self.decoded is None) != (self.clicks is None):
            raise ValueError("decoded message present exactly when clicks are present")


@dataclass(frozen=True)
class EfficiencyEstimate:
    """Monte-Carlo throughput estimate in bits per transmitted qubit."""

    analyzer: AnalyzerKind
    n_cycles: int
    shots: int
    r_hat: float
    ci95: tuple[float, float]
    lost_fraction: float
    decode_error_count: int
    correct: int

    def __post_init__(self):
        if not 0.0 <= self.r_hat <= 2.0:
            raise ValueError("r_hat must lie in [0, 2]")
        if not self.ci95[0] <= self.r_hat <= self.ci95[1]:
            raise ValueError("ci95 must bracket r_hat")


def run_protocol(message: str, analyzer: AnalyzerKind, n_cycles: int, *,
                 master_seed: int, shot_index: int = 0, m: int = 0) -> RunOutcome:
    """One shot: encode, analyze, sample the outcome, decode.

    Pass message="uniform" to draw the message from the shot's stream. The
    message uniform is consumed either way so that fixed-message and
    uniform-message runs stay stream-aligned with `simulate`.
    """
    analyzer = AnalyzerKind(analyzer)
    rng = shot_stream(master_seed, shot_index)
    u_message = float(rng.random())
    if message == "uniform":
        message = MESSAGES[min(int(u_message * 4), 3)]
    bell = encode(message)
    outcome: AnalyzerOutcome = analyze(analyzer, bell, n_cycles, m).sample(rng)
    if outcome.photon_lost:
        return RunOutcome(message, None, None, None, True, analyzer, n_cycles,
                          master_seed, shot_index)
    bell_estimate, decoded = decode(outcome.clicks, analyzer)
    return RunOutcome(message, decoded, bell_estimate, outcome.clicks, False,
                      analyzer, n_cycles, master_seed, shot_index)


def _resolve_threads(threads: int | None) -> int:
    """Worker threads for `simulate`: the argument, else SDC_THREADS, else 1.

    Capped at the CPU count: one thread per core is the most the tally can
    use, and the cap bounds the pool however large the request.
    """
    if threads is None:
        env = os.environ.get("SDC_THREADS", "").strip()
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(f"SDC_THREADS must be a positive integer, got {env!r}") from None
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return min(threads, os.cpu_count() or 1)


_CHUNK_SHOTS = 1 << 16


def simulate(analyzer: AnalyzerKind, n_cycles: int, shots: int, master_seed: int, *,
             message: str | None = None, stream_tag: int = 0,
             threads: int | None = None) -> EfficiencyEstimate:
    """Monte-Carlo session over `shots` i.i.d. runs.

    Messages are drawn uniformly per shot unless `message` fixes one. The
    per-shot trajectories equal run_protocol's exactly; evaluation is
    chunked (and optionally threaded via SDC_THREADS) without changing a
    single draw, and the aggregation is an order-independent sum of counts.
    """
    analyzer = AnalyzerKind(analyzer)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if message is not None and message not in MESSAGES:
        raise ValueError(f"message must be one of {MESSAGES} or None, got {message!r}")
    threads = _resolve_threads(threads)

    p_by_message = np.array([
        survival_probability(analyzer, encode(msg), n_cycles) for msg in MESSAGES
    ])
    # Decode the deterministic surviving pair once per message class; the
    # vectorized count below multiplies this exactness out over the shots.
    decodes_correctly = np.array([
        decode(click_pair(analyzer, encode(msg)), analyzer)[1] == msg for msg in MESSAGES
    ])

    def tally(start: int, count: int) -> np.ndarray:
        u = shot_uniforms(master_seed, start, count, stream_tag)
        if message is None:
            msg_idx = np.minimum((u[:, 0] * 4).astype(np.int64), 3)
        else:
            msg_idx = np.full(count, MESSAGES.index(message), dtype=np.int64)
        survived = u[:, 1] < p_by_message[msg_idx]
        correct_mask = survived & decodes_correctly[msg_idx]
        # counts: [survived, correct, decode errors]
        n_survived = int(np.count_nonzero(survived))
        n_correct = int(np.count_nonzero(correct_mask))
        return np.array([n_survived, n_correct, n_survived - n_correct], dtype=np.int64)

    chunks = [(start, min(_CHUNK_SHOTS, shots - start))
              for start in range(0, shots, _CHUNK_SHOTS)]
    if threads == 1 or len(chunks) == 1:
        totals = sum((tally(start, count) for start, count in chunks),
                     np.zeros(3, dtype=np.int64))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            totals = sum(pool.map(lambda c: tally(*c), chunks),
                         np.zeros(3, dtype=np.int64))

    n_survived, n_correct, n_errors = (int(v) for v in totals)
    p_hat = n_correct / shots
    half_width = 1.96 * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    ci = (max(2.0 * (p_hat - half_width), 0.0), min(2.0 * (p_hat + half_width), 2.0))
    return EfficiencyEstimate(
        analyzer=analyzer,
        n_cycles=n_cycles,
        shots=shots,
        r_hat=2.0 * p_hat,
        ci95=ci,
        lost_fraction=1.0 - n_survived / shots,
        decode_error_count=n_errors,
        correct=n_correct,
    )
