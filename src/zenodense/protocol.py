"""End-to-end superdense coding: encoding, decoding, and Monte-Carlo sessions.

Charlie always emits an ideal Phi+ pair; Alice encodes two classical bits by
a Pauli on her electron; Bob runs one of the three Bell-state analyzers and
decodes the click pair. A lost photon delivers zero bits and no
retransmission is attempted. A surviving pair names the Bell state sent (checked
at import), so the estimator is r_hat = 2 * survivors / shots, no decode errors.

Monte-Carlo determinism: shot i consumes uniforms u0 (message selection,
burned even when the message is fixed) and u1 (outcome draw) from its own
counter-based stream. `run_protocol` (one shot at a time, with no per-shot
set-up once a thread walks a seed's shots in order) compares u1 as a float;
`run_rows` (many rows of a sweep at once, packed into work units of up to
2**16 shots) and `simulate` (its one-row case) compare the raw Philox words
they are made from against integer thresholds: the same decision per shot.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analyzers import (
    ANALYZERS,
    AnalyzerKind,
    AnalyzerOutcome,
    BellState,
    DetectorPair,
    analyze,
    click_pair,
    survival_law,
    survival_probability,  # noqa: F401
)
# bench/layers.py wraps shot_stream and survival_probability on this module;
# they can go once its traced run no longer does (ROADMAP item 1).
from .core import shot_stream, shot_uniforms, shot_words  # noqa: F401

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
    # A pair two Bell states share would mis-decode: the package then fails to import.
    table: dict[DetectorPair, BellState] = {}
    for bell in _MESSAGE_TO_BELL.values():
        for m in (0, 1):
            pair = click_pair(analyzer, bell, m)
            if table.setdefault(pair, bell) is not bell:
                raise AssertionError(
                    f"{analyzer.value}: {pair} names {table[pair].symbol} and {bell.symbol}")
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
    analyzer = analyzer if isinstance(analyzer, AnalyzerKind) else AnalyzerKind(analyzer)
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
    decode_error_count: int  # always 0: `_decode_table` checks at import that none can occur
    correct: int  # the survivors

    def __post_init__(self):
        if not 0.0 <= self.r_hat <= 2.0:
            raise ValueError("r_hat must lie in [0, 2]")
        if not self.ci95[0] <= self.r_hat <= self.ci95[1]:
            raise ValueError("ci95 must bracket r_hat")


def run_protocol(message: str, analyzer: AnalyzerKind, n_cycles: int, *,
                 master_seed: int, shot_index: int = 0, m: int = 0) -> RunOutcome:
    """One shot: encode, analyze, sample the outcome, decode.

    Pass message="uniform" to draw the message from the top two bits of the
    shot's word 0. Word 1 draws the outcome either way, so fixed-message and
    uniform-message runs stay stream-aligned with `simulate`. Shots run in
    order re-key nothing and, after the first, analyze nothing anew.
    """
    analyzer = analyzer if isinstance(analyzer, AnalyzerKind) else AnalyzerKind(analyzer)
    w_message, w_outcome = shot_words(master_seed, shot_index)
    if message == "uniform":
        message = MESSAGES[w_message >> 62]
    bell = encode(message)
    # numpy's Philox double of word 1, the uniform `simulate` compares as an integer.
    u_outcome = (w_outcome >> 11) * 2.0**-53
    outcome: AnalyzerOutcome = analyze(analyzer, bell, n_cycles, m).pick(u_outcome)
    if outcome.photon_lost:
        return RunOutcome(message, None, None, None, True, analyzer, n_cycles,
                          master_seed, shot_index)
    bell_estimate, decoded = decode(outcome.clicks, analyzer)
    return RunOutcome(message, decoded, bell_estimate, outcome.clicks, False,
                      analyzer, n_cycles, master_seed, shot_index)


def _resolve_threads(threads: int | None) -> int:
    """Worker threads for `run_rows`: the argument, else SDC_THREADS, else 1.

    Capped at the CPUs this process may run on (its affinity mask where the
    platform has one, else the CPU count): one thread per core is the most
    the tally can use, and the cap bounds the pool however large the request.
    """
    if threads is None:
        env = os.environ.get("SDC_THREADS", "").strip()
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(f"SDC_THREADS must be a positive integer, got {env!r}") from None
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:  # a serial session skips the system call
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, cpus or 1)


_CHUNK_SHOTS = 1 << 16  # shots per work unit at most

# Rows of fewer shots run inline whatever the thread count: their Python work
# holds the interpreter lock, however many rows a unit packs, and outweighs the
# draws a pool overlaps (on 2 threads of a 2-vCPU VM; BENCH_pool_rows.json).
_POOL_ROW_SHOTS = 2_000

# Rows planned together: enough to spread the closed forms' per-call cost
# thin, few enough that the rows and units in hand stay under 64 KiB.
_BATCH_ROWS = 64

# Units in flight per worker thread: enough to keep every worker busy while
# the caller takes a finished row, few enough that a failure stops the run
# after little wasted work.
_WINDOW_PER_THREAD = 2


def _survival_threshold(p):
    """ceil(p * 2**53) as uint64, with p (a float or an array) clipped to [0, 1].

    For a 53-bit k, k < threshold holds exactly when k * 2**-53 < p: scaling
    by a power of two is exact, and k < x equals k < ceil(x) for integer k.
    At p = 1 the threshold is 2**53, which still fits a uint64.
    """
    if not np.all(np.isfinite(p)):
        raise ValueError(f"survival probability must be finite, got {p!r}")
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)


def _tally_plans(batch: list[tuple[AnalyzerKind, int, int]],
                 message: str | None) -> list[np.uint64 | np.ndarray]:
    """Each row's uint64 survival threshold (an array indexed by message where the messages
    sent differ in it), from one array evaluation per analyzer and survival law."""
    sent = range(len(MESSAGES)) if message is None else (MESSAGES.index(message),)
    bells = [encode(MESSAGES[index]) for index in sent]
    plans = {}  # per analyzer, its rows' plans in row order
    for kind in {row[0] for row in batch}:
        n = np.array([row[1] for row in batch if row[0] is kind], dtype=float)
        # A law differs by Bell family only through a phi factor: one evaluation per law sent.
        split = ANALYZERS[kind].phi_factor is not None
        laws = {bell.family if split else None: bell for bell in bells}
        laws = {key: _survival_threshold(survival_law(kind, bell, n)) for key, bell in laws.items()}
        limits = (laws.popitem()[1] if len(laws) == 1
                  else np.stack([laws[bell.family] for bell in bells], axis=1))
        plans[kind] = iter(limits)
    return [next(plans[row[0]]) for row in batch]


def _tally(master_seed: int, stream_tag: int, start: int, count: int,
           threshold: np.uint64 | np.ndarray) -> int:
    """A piece of a work unit: the survivors among shots [start, start + count)."""
    words = shot_uniforms(master_seed, start, count, stream_tag)
    # Word 1's top 53 bits decide survival and word 0's top two bits pick
    # the message; a fixed message still burns word 0.
    if threshold.ndim:
        threshold = threshold[words[:, 0] >> 62]
    return int(np.count_nonzero((words[:, 1] >> 11) < threshold))


def _estimate(analyzer: AnalyzerKind, n_cycles: int, shots: int,
              n_survived: int) -> EfficiencyEstimate:
    p_hat = n_survived / shots
    half_width = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    ci = (max(2.0 * (p_hat - half_width), 0.0), min(2.0 * (p_hat + half_width), 2.0))
    return EfficiencyEstimate(
        analyzer=analyzer,
        n_cycles=n_cycles,
        shots=shots,
        r_hat=2.0 * p_hat,
        ci95=ci,
        lost_fraction=1.0 - n_survived / shots,
        decode_error_count=0,
        correct=n_survived,
    )


def _units(rows: Iterable[tuple[AnalyzerKind, int, int]], shots: int, message: str | None):
    """Work units of (row, threshold, start, count) pieces, from rows planned a batch at a
    time: a chunk of at most _CHUNK_SHOTS shots of a longer row, or as many whole rows as fit."""
    rows = iter(rows)
    starts = range(0, shots, _CHUNK_SHOTS)
    while batch := [(AnalyzerKind(analyzer), n_cycles, stream_tag)
                    for analyzer, n_cycles, stream_tag in itertools.islice(rows, _BATCH_ROWS)]:
        thresholds = _tally_plans(batch, message)
        pieces = ((row, threshold, start, min(_CHUNK_SHOTS, shots - start))
                  for row, threshold in zip(batch, thresholds) for start in starts)
        while unit := list(itertools.islice(pieces, max(_CHUNK_SHOTS // shots, 1))):
            yield unit


def _run_unit(master_seed: int, unit) -> list[int]:
    return [_tally(master_seed, stream_tag, start, count, threshold)
            for (_, _, stream_tag), threshold, start, count in unit]


def run_rows(rows: Iterable[tuple[AnalyzerKind, int, int]], shots: int, master_seed: int, *,
             message: str | None = None,
             threads: int | None = None) -> Iterator[EfficiencyEstimate]:
    """Monte-Carlo sessions of `shots` shots for many rows, yielded in row order.

    Each row is (analyzer, n_cycles, stream_tag) and draws from its own
    stream. Rows are planned a bounded batch at a time, as they are needed,
    so a row whose plan fails (N < 1, a non-finite survival) fails its batch
    before any row of it is yielded; they are packed into work units of at
    most 2**16 shots (see `_units`). With more than one thread (the argument,
    else SDC_THREADS) and rows of _POOL_ROW_SHOTS shots or more, the units
    run on a pool made when a second unit appears, a bounded window of them
    in flight; an exception, in a unit or in the caller, cancels the units
    not yet started. Otherwise they run in turn on the calling thread. Every
    row's counts are an order-independent sum over its units, so the results
    do not depend on the thread count, and memory grows with neither the row
    count nor `shots`.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if message is not None and message not in MESSAGES:
        raise ValueError(f"message must be one of {MESSAGES} or None, got {message!r}")
    threads = _resolve_threads(threads)
    units = _units(rows, shots, message)
    # Peek at a second unit before making a pool: a lone unit runs inline.
    head = list(itertools.islice(units, 1 if threads == 1 or shots < _POOL_ROW_SHOTS else 2))
    pool = ThreadPoolExecutor(max_workers=threads) if len(head) > 1 else None
    window = _WINDOW_PER_THREAD * threads if pool else 0
    in_flight = collections.deque()  # (unit, its future or counts), oldest first
    survived = 0  # the survivors in the finished pieces of the oldest unfinished row

    def settle(limit):
        # Take the oldest units until at most `limit` are in flight, and
        # yield each row whose last piece that finishes.
        nonlocal survived
        while len(in_flight) > limit:
            unit, counts = in_flight.popleft()
            for ((analyzer, n_cycles, _), _, start, count), s in zip(
                    unit, counts.result() if pool else counts):
                survived += s
                if start + count == shots:
                    yield _estimate(analyzer, n_cycles, shots, survived)
                    survived = 0

    try:
        for unit in itertools.chain(head, units):
            in_flight.append((unit, pool.submit(_run_unit, master_seed, unit) if pool
                              else _run_unit(master_seed, unit)))
            yield from settle(window)
        yield from settle(0)
    except BaseException:
        if pool:
            # Units already running finish on their own; their counts are dropped.
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool:
        pool.shutdown()


def simulate(analyzer: AnalyzerKind, n_cycles: int, shots: int, master_seed: int, *,
             message: str | None = None, stream_tag: int = 0,
             threads: int | None = None) -> EfficiencyEstimate:
    """Monte-Carlo session over `shots` i.i.d. runs: `run_rows` for one row.

    Messages are drawn uniformly per shot unless `message` fixes one. The
    per-shot trajectories equal run_protocol's exactly; evaluation is
    chunked (and optionally threaded via SDC_THREADS) without changing a
    single draw, and the aggregation is an order-independent sum of counts.
    """
    (estimate,) = run_rows([(analyzer, n_cycles, stream_tag)], shots, master_seed,
                           message=message, threads=threads)
    return estimate
