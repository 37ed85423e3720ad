"""End-to-end superdense coding: encoding, decoding, and Monte-Carlo sessions.

Charlie always emits an ideal Phi+ pair; Alice encodes two classical bits by
a Pauli on her electron; Bob runs one of the three Bell-state analyzers and
decodes the click pair. A lost photon delivers zero bits and no
retransmission is attempted. A surviving pair names the Bell state sent (checked
at import), so the estimator is r_hat = 2 * survivors / shots, no decode errors.

Monte-Carlo determinism: shot i consumes words w0 (message selection,
burned even when the message is fixed) and w1 (outcome draw) of its own
counter-based stream, and keeps its photon when w1's top 53 bits fall below
the integer threshold ceil(p * 2**53). Both runners take their thresholds
from `_tally_plans` and read the words by one rule (`_scores`): `run_rows`
(many rows of a sweep at once, packed into work units of up to 2**16 shots,
consecutive rows on one stream drawing its words once) and `simulate` (its
one-row case) count survivors over whole arrays of shots, and `run_protocol`
looks its shot up in the aligned block of 64 it decided with its last draw.

Both result records, `RunOutcome` and `EfficiencyEstimate`, are immutable named
tuples whose every constructor (`_make` and `_replace` too) checks their fields:
each equals a plain tuple of the same values, and iterates and unpacks as one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .analyzers import (
    ANALYZERS,
    AnalyzerKind,
    BellState,
    DetectorPair,
    analyze,  # noqa: F401
    click_pair,
    survival_law,
    survival_probability,  # noqa: F401
)
# bench/layers.py wraps analyze, shot_stream and survival_probability on this
# module, though protocol calls none of them; they can go once its traced run no
# longer does (ROADMAP item 1).
from .core import ALGEBRA_TOL, shot_stream, shot_uniforms  # noqa: F401
from .optics import cycle_counts

MESSAGES = ("00", "01", "10", "11")
_MESSAGE_INDEX = {message: index for index, message in enumerate(MESSAGES)}

_MESSAGE_TO_BELL = {
    "00": BellState.PHI_PLUS,
    "01": BellState.PSI_PLUS,
    "10": BellState.PHI_MINUS,
    "11": BellState.PSI_MINUS,
}

_PAULI = {
    "00": np.eye(2),
    "01": np.array([[0, 1], [1, 0]]),                  # X
    "10": np.array([[1, 0], [0, -1]]),                 # Z
    "11": np.array([[0, -1j], [1j, 0]]),               # Y
}


def _verify_encoding_table() -> None:
    # Alice's Pauli acts on the electron, the first factor of the composite
    # basis; applied to Phi+ it must give the advertised Bell ket up to a
    # global phase.
    phi_plus = BellState.PHI_PLUS.ket().amplitudes
    for message, bell in _MESSAGE_TO_BELL.items():
        produced = np.kron(_PAULI[message], np.eye(2)) @ phi_plus
        overlap = abs(np.vdot(bell.ket().amplitudes, produced))
        if abs(overlap - 1.0) > ALGEBRA_TOL:
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


class _RunFields(NamedTuple):
    message_sent: str
    decoded: str | None
    bell_estimate: BellState | None
    clicks: DetectorPair | None
    photon_lost: bool
    analyzer: AnalyzerKind
    n_cycles: int
    master_seed: int
    shot_index: int


class RunOutcome(_RunFields):
    """One protocol shot: what was sent, what clicked, what was decoded."""
    __slots__ = ()

    def __new__(cls, message_sent, decoded, bell_estimate, clicks, photon_lost, analyzer,
                n_cycles, master_seed, shot_index):
        if (decoded is None) != (clicks is None):
            raise ValueError("decoded message present exactly when clicks are present")
        return tuple.__new__(cls, (message_sent, decoded, bell_estimate, clicks, photon_lost,
                                   analyzer, n_cycles, master_seed, shot_index))

    # The stock _make, which _replace calls, builds the tuple without __new__'s check.
    _make = classmethod(lambda cls, fields: cls(*fields))


class _EstimateFields(NamedTuple):
    analyzer: AnalyzerKind
    n_cycles: int
    shots: int
    r_hat: float
    ci95: tuple[float, float]
    lost_fraction: float
    decode_error_count: int  # always 0: `_decode_table` checks at import that none can occur
    correct: int  # the survivors


class EfficiencyEstimate(_EstimateFields):
    """Monte-Carlo throughput estimate in bits per transmitted qubit."""
    __slots__ = ()

    def __new__(cls, analyzer, n_cycles, shots, r_hat, ci95, lost_fraction,
                decode_error_count, correct):
        if not 0.0 <= r_hat <= 2.0:
            raise ValueError("r_hat must lie in [0, 2]")
        if not ci95[0] <= r_hat <= ci95[1]:
            raise ValueError("ci95 must bracket r_hat")
        return tuple.__new__(cls, (analyzer, n_cycles, shots, r_hat, ci95, lost_fraction,
                                   decode_error_count, correct))

    _make = classmethod(lambda cls, fields: cls(*fields))


def _resolve_threads(threads: int | None) -> int:
    """Worker threads for `run_rows`: the argument, else SDC_THREADS, else 1.

    Capped at the CPUs this process may run on (its affinity mask where the
    platform has one, else the CPU count): one thread per core is the most
    the tally can use, and the cap bounds the helper threads of a call
    (threads - 1) however large the request.
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

# Rows of fewer shots run on the calling thread alone whatever the thread
# count: their Python work holds the interpreter lock, however many rows a unit
# packs, and outweighs the draws helper threads overlap (on 2 threads of a
# 2-vCPU VM; BENCH_pool_rows.json).
_POOL_ROW_SHOTS = 2_000

# Rows planned together: enough to spread the closed forms' per-call cost
# thin, few enough that the rows and units in hand stay under 64 KiB.
_BATCH_ROWS = 64

# Units taken and not yet settled, per thread (the caller and each helper):
# enough to keep every thread busy while the caller hands out a finished row,
# few enough that a failure stops the run after little wasted work.
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
        n = cycle_counts([row[1] for row in batch if row[0] is kind])
        # One evaluation per distinct law the table gives the families sent.
        table = ANALYZERS[kind].survival
        laws = {table[bell.family]: bell for bell in bells}
        laws = {law: _survival_threshold(survival_law(kind, bell, n)) for law, bell in laws.items()}
        limits = (laws.popitem()[1] if len(laws) == 1
                  else np.stack([laws[table[bell.family]] for bell in bells], axis=1))
        plans[kind] = iter(limits)
    return [next(plans[row[0]]) for row in batch]


def _scores(words: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray | None]:
    """Each shot's word 1's top 53 bits, which keep its photon when they fall below its
    message's threshold, and, where some threshold is one per message, its message
    index: word 0's top two bits (a fixed message still burns word 0)."""
    for threshold in thresholds:
        if threshold.ndim:
            # As int64 (the values are 0..3, so the view is exact): numpy would
            # cast-copy a uint64 index before the gather, about 175 against 55 us
            # per 65,536 shots (2-vCPU Xeon VM).
            return words[:, 1] >> 11, (words[:, 0] >> 62).view(np.int64)
    return words[:, 1] >> 11, None


def _tally(master_seed: int, stream_tag: int, start: int, count: int,
           thresholds: list[np.uint64 | np.ndarray]) -> list[int]:
    """A piece of a work unit: the survivors among shots [start, start + count) of one
    stream, for each threshold (one per row on that stream), from one draw of its words."""
    outcomes, sent = _scores(shot_uniforms(master_seed, start, count, stream_tag), thresholds)
    # The words are dropped: a piece then peaks no higher than a row alone did.
    # A plain loop, not a comprehension: on CPython 3.11 that costs about
    # 1.5 us more a piece (2-vCPU Xeon VM), 2% of a 2,000-shot row.
    counts = []
    for threshold in thresholds:
        counts.append(int(np.count_nonzero(outcomes < (threshold[sent] if threshold.ndim
                                                       else threshold))))
    return counts


_WINDOW_SHOTS = 64  # shots a call decides at once: [64 k, 64 k + 64) for shot 64 k + i
_window = threading.local()  # per thread: the block of shots it decided with its last draw


@functools.lru_cache(maxsize=1024)
def _shot_plan(analyzer: AnalyzerKind, n_cycles: int, m: int):
    """(thresholds, records) of the shots of one (analyzer, N, m): each message's
    survival threshold as `_tally_plans` gives it to `run_rows`, and each message's
    (message, decoded message, Bell estimate, clicks) should its photon survive."""
    (limit,) = _tally_plans([(analyzer, n_cycles, 0)], None)
    records = []
    for message in MESSAGES:
        clicks = click_pair(analyzer, encode(message), m)
        bell, decoded = decode(clicks, analyzer)
        records.append((message, decoded, bell, clicks))
    return np.broadcast_to(limit, len(MESSAGES)), tuple(records)


def run_protocol(message: str, analyzer: AnalyzerKind, n_cycles: int, *,
                 master_seed: int, shot_index: int = 0, m: int = 0) -> RunOutcome:
    """One shot: encode, analyze, decide survival, decode.

    Pass message="uniform" to draw the message from the top two bits of the
    shot's word 0. Word 1 decides survival either way, by `run_rows`' own
    thresholds and rule, so every shot equals its shot in `simulate`. Shots
    are drawn in aligned blocks of _WINDOW_SHOTS: a thread holds the block it
    drew last, decided for every message, and a call for a shot outside it,
    or on another seed or plan, draws that shot's block.
    """
    analyzer = analyzer if isinstance(analyzer, AnalyzerKind) else AnalyzerKind(analyzer)
    index = _MESSAGE_INDEX.get(message)
    if index is None and message != "uniform":
        raise ValueError(f"message must be one of {MESSAGES} or 'uniform', got {message!r}")
    if shot_index < 0:
        raise ValueError("shot_index must be non-negative")
    plan = _shot_plan(analyzer, n_cycles, m)
    block, i = divmod(shot_index, _WINDOW_SHOTS)
    seed, held, held_block, sent, kept = getattr(_window, "held", (None, None, None, (), ()))
    if seed != master_seed or held is not plan or held_block != block:
        words = shot_uniforms(master_seed, block * _WINDOW_SHOTS, _WINDOW_SHOTS)
        outcomes, sent = _scores(words, [plan[0]])  # thresholds per message: sent too
        sent, kept = sent.tolist(), (outcomes[:, None] < plan[0]).tolist()
        _window.held = (master_seed, plan, block, sent, kept)
    if index is None:
        index = sent[i]
    message, decoded, bell_estimate, clicks = plan[1][index]
    if kept[i][index]:
        return RunOutcome(message, decoded, bell_estimate, clicks, False,
                          analyzer, n_cycles, master_seed, shot_index)
    return RunOutcome(message, None, None, None, True, analyzer, n_cycles,
                      master_seed, shot_index)


def _estimate(analyzer: AnalyzerKind, n_cycles: int, shots: int,
              n_survived: int) -> EfficiencyEstimate:
    p_hat = n_survived / shots
    half_width = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    ci = (max(2.0 * (p_hat - half_width), 0.0), min(2.0 * (p_hat + half_width), 2.0))
    return EfficiencyEstimate(analyzer, n_cycles, shots, 2.0 * p_hat, ci,
                              1.0 - n_survived / shots, 0, n_survived)


def _units(rows: Iterable[tuple[AnalyzerKind, int, int]], shots: int, message: str | None):
    """Work units (batch, thresholds, pieces), from rows planned a batch at a time.

    A piece (i, j, start, count) covers shots [start, start + count) of the
    batch's rows i to j - 1, the consecutive rows on one stream tag: a chunk
    of at most _CHUNK_SHOTS shots of longer rows, or all of them, and then a
    unit packs as many pieces as fit. Pieces index the batch rather than
    hold slices of it, so a group costs no more memory than its rows alone.
    """
    rows = iter(rows)
    starts = range(0, shots, _CHUNK_SHOTS)
    # isinstance first: converting a member costs an enum call, about 0.5 us a row.
    while batch := [(analyzer if isinstance(analyzer, AnalyzerKind) else AnalyzerKind(analyzer),
                     n_cycles, stream_tag)
                    for analyzer, n_cycles, stream_tag in itertools.islice(rows, _BATCH_ROWS)]:
        thresholds = _tally_plans(batch, message)
        # Each group's rows are batch[i:j], between consecutive stops.
        stops = [0, *[j for j in range(1, len(batch)) if batch[j][2] != batch[j - 1][2]],
                 len(batch)]
        pieces = ((i, j, start, min(_CHUNK_SHOTS, shots - start))
                  for i, j in zip(stops, stops[1:]) for start in starts)
        while taken := list(itertools.islice(pieces, max(_CHUNK_SHOTS // shots, 1))):
            yield batch, thresholds, taken


def _run_unit(master_seed: int, unit) -> list[int]:
    """The survivors of each piece's rows, in one flat list: a unit in flight holds one
    int a row, as when every row drew alone."""
    batch, thresholds, pieces = unit
    counts = []
    for i, j, start, count in pieces:
        counts += _tally(master_seed, batch[i][2], start, count, thresholds[i:j])
    return counts


class _Fanout:
    """The work units of one `run_rows` call, taken in turn under one lock by the
    calling thread and its helper threads, and held once run until the caller
    settles them in unit order.

    A unit's index is its place in the order `_units` yields them, whoever
    takes it. The exception its plan or its run raises is held in its place,
    for the caller to raise there. At most `window` units are taken and not yet
    settled, and none is taken once the units run out, one fails or the caller
    stops.
    """

    def __init__(self, units: Iterator, master_seed: int, window: int):
        self._units = units
        self._master_seed = master_seed
        self._window = window
        self._lock = threading.Condition(threading.Lock())
        self._done = {}  # unit index -> (unit, its counts), or the exception it raised
        self._taken = 0  # units taken: the next one taken has this index
        self._settled = 0  # units settled: the next one settled has this index
        self._stopped = False

    def _take(self):
        """(index, unit) of the next unit, or None when none may be taken now. Lock held."""
        if self._stopped or self._taken - self._settled >= self._window:
            return None
        try:
            unit = next(self._units, None)
        except BaseException as error:  # its plan failed: raised by the caller in its place
            self._done[self._taken] = error
            self._taken += 1
            unit = None
        if unit is None:
            self._stopped = True
            self._lock.notify_all()
            return None
        self._taken += 1
        return self._taken - 1, unit

    def _run(self, index: int, unit) -> None:
        try:
            result = unit, _run_unit(self._master_seed, unit)
        except BaseException as error:  # raised by the caller in its place
            result = error
        with self._lock:
            self._done[index] = result
            self._stopped |= isinstance(result, BaseException)
            self._lock.notify_all()

    def _help(self, task) -> None:
        """A helper thread: run `task`, if any, then take units until none may be taken."""
        while True:
            if task:
                self._run(*task)
            with self._lock:
                while not self._stopped and self._taken - self._settled >= self._window:
                    self._lock.wait()
                task = self._take()
            if not task:
                return

    def results(self, helpers: int):
        """Each unit's (unit, counts), in unit order. If there is a second unit, `helpers`
        helper threads start, the first running it. The caller runs the first unit, then
        takes and runs units itself while the next one to settle is not done, and joins the
        helpers once every unit is settled."""
        with self._lock:
            task = self._take()
            second = self._take() if helpers else None
        # Daemons: a runner dropped unclosed at exit must not hold the interpreter up.
        started = [threading.Thread(target=self._help, args=(second if k == 0 else None,),
                                    daemon=True) for k in range(helpers if second else 0)]
        for thread in started:
            thread.start()
        try:
            while True:
                if task:
                    self._run(*task)
                with self._lock:
                    task = None
                    while (result := self._done.pop(self._settled, None)) is None:
                        if (task := self._take()) or self._settled == self._taken:
                            break  # a unit to run, or none left to take or settle
                        if self._settled not in self._done:  # a failed plan is in place at once
                            self._lock.wait()
                    else:
                        self._settled += 1
                        self._lock.notify_all()
                if isinstance(result, BaseException):
                    raise result
                if result:
                    yield result
                elif not task:
                    break  # every unit is settled
        finally:  # closed, or failed: no thread takes a further unit
            with self._lock:
                self._stopped = True
                self._lock.notify_all()
        for thread in started:  # each has taken its last unit: it ends at once
            thread.join()


def run_rows(rows: Iterable[tuple[AnalyzerKind, int, int]], shots: int, master_seed: int, *,
             message: str | None = None,
             threads: int | None = None) -> Iterator[EfficiencyEstimate]:
    """Monte-Carlo sessions of `shots` shots for many rows, yielded in row order.

    Each row is (analyzer, n_cycles, stream_tag) and draws from the stream
    its tag names; consecutive rows of a batch on one stream draw its words
    once and share them. Rows are planned a bounded batch at a time, as they
    are needed, and packed into work units of at most 2**16 shots (see
    `_units`). The calling thread takes the units in turn and runs them. With
    more than one thread (the argument, else SDC_THREADS) and rows of
    _POOL_ROW_SHOTS shots or more, threads - 1 helper threads, started when
    a second unit appears, take units beside it, at most
    _WINDOW_PER_THREAD * threads of them taken and not yet settled; the
    caller settles them in unit order. A row whose plan fails (a cycle count
    that `optics.cycle_counts` rejects, a non-finite survival) fails its
    batch, and a unit that raises fails itself: the exception is raised in
    that unit's place, after every earlier row. Once a unit fails, or the
    caller fails or closes the generator, no thread takes a further unit,
    and a helper ends once it has none to run. Every row's counts are an order-independent
    sum over its units, so the results do not depend on the thread count,
    and memory grows with neither the row count nor `shots`.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if message is not None and message not in MESSAGES:
        raise ValueError(f"message must be one of {MESSAGES} or None, got {message!r}")
    threads = _resolve_threads(threads)
    fanout = _Fanout(_units(rows, shots, message), master_seed, _WINDOW_PER_THREAD * threads)
    helpers = threads - 1 if shots >= _POOL_ROW_SHOTS else 0
    survived = []  # per row, the survivors in the finished pieces of the oldest unfinished group
    with contextlib.closing(fanout.results(helpers)) as results:
        for (batch, _, pieces), counts in results:
            k = 0  # the piece's first count
            for i, j, start, count in pieces:
                group_counts = counts[k:k + j - i]
                k += j - i
                survived = group_counts if start == 0 else [
                    a + b for a, b in zip(survived, group_counts)]
                if start + count == shots:
                    for (analyzer, n_cycles, _), s in zip(batch[i:j], survived):
                        yield _estimate(analyzer, n_cycles, shots, s)


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
