"""What one pass of each workload runs, the inputs drawn from the seed, and
the checks on every output.

Every workload runs the same eight stages; only their sizes differ. Each
workload makes one or two stages large (its load) and keeps the others
small, so that every end-to-end metric and every layer is measured on every
workload while each workload's time still goes where its load says.

Must be imported with the checkout's `src/` first on sys.path.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import math
import os
import random
import statistics
import time
from dataclasses import dataclass

import calibrate
from zenodense import analyzers, cli, ifm, metrics, protocol, zeno
from zenodense.analyzers import AnalyzerKind
from zenodense.bell import ALL_BELL_STATES, BellState
from zenodense.core import PureState
from zenodense.ifm import AbsorberState

ANALYZERS = (AnalyzerKind.DQZ, AnalyzerKind.IFM, AnalyzerKind.QZ)
LAYERS = ("core", "optics", "bell", "ifm", "zeno", "analyzers", "protocol", "metrics", "cli")
NPROC = len(os.sched_getaffinity(0))
SESSION_N = 12
DEFAULT_SEED = 1
CSV_HEADER = "N,analyzer,R_analytic,R_mc,mc_shots,ci95_low,ci95_high"

# Family-wise false-alarm rate of the binomial checks in one run. A fixed
# 4-sigma bound per check would fail a run with no defect about once in nine
# on a 1800-row sweep, so the bound widens with the number of checks.
FALSE_ALARM = 1e-6


@dataclass(frozen=True)
class Sizes:
    session_shots: int   # per session; four sessions, at 1 thread and at NPROC threads
    sweep_n_max: int     # Monte-Carlo sweep: 3 analyzers x N in [2, sweep_n_max]
    sweep_shots: int     # shots per sweep row
    curve_n_max: int     # analytic sweep: 3 analyzers x N in [1, curve_n_max]
    protocol_shots: int  # run_protocol shots per analyzer
    oracle_n: int        # cycles of each element-level oracle call
    selftest_calls: int

    @property
    def sweep_rows(self) -> int:
        return 3 * (self.sweep_n_max - 1)

    @property
    def curve_rows(self) -> int:
        return 3 * self.curve_n_max


WORKLOADS = {
    # Long simulate sessions: Philox draws, the tally and the chunk fan-out.
    "mc-session": Sizes(session_shots=5_000_000, sweep_n_max=401, sweep_shots=2_000,
                        curve_n_max=5_000, protocol_shots=1_000, oracle_n=3_000,
                        selftest_calls=5),
    # Many single-chunk simulate calls and many scalar r_analytic rows via the CLI.
    "sweep-grid": Sizes(session_shots=500_000, sweep_n_max=601, sweep_shots=20_000,
                        curve_n_max=20_000, protocol_shots=1_000, oracle_n=3_000,
                        selftest_calls=5),
    # Python per-cycle and per-shot loops over tiny arrays.
    "reference-paths": Sizes(session_shots=500_000, sweep_n_max=401, sweep_shots=2_000,
                             curve_n_max=5_000, protocol_shots=3_300, oracle_n=50_000,
                             selftest_calls=10),
}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives, drawn from the workload seed."""

    sessions: tuple          # (analyzer, fixed message or None, master seed)
    sweep_seed: int
    protocol_runs: tuple     # (analyzer, N, master seed)
    dqz_bell: BellState
    ifm_bell: BellState      # a Phi-family state, whose stage-one survival is not 1
    absorber: tuple          # (pass amplitude, block amplitude)
    qz_axis: str
    fingerprint_seed: int


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)

    def master():
        return rng.getrandbits(63)

    fixed = rng.choice(protocol.MESSAGES)
    sessions = ((AnalyzerKind.DQZ, None, master()), (AnalyzerKind.IFM, None, master()),
                (AnalyzerKind.QZ, None, master()), (AnalyzerKind.DQZ, fixed, master()))
    protocol_runs = tuple((kind, rng.randint(2, 64), master()) for kind in ANALYZERS)
    angle = rng.uniform(0.2, 1.3)
    return Inputs(
        sessions=sessions,
        sweep_seed=master(),
        protocol_runs=protocol_runs,
        dqz_bell=rng.choice(ALL_BELL_STATES),
        ifm_bell=rng.choice((BellState.PHI_PLUS, BellState.PHI_MINUS)),
        absorber=(math.cos(angle), math.sin(angle)),
        qz_axis=rng.choice(("H", "V")),
        fingerprint_seed=master(),
    )


# ---------------------------------------------------------------------------
# one pass


@contextlib.contextmanager
def _sdc_threads(threads: int):
    old = os.environ.get("SDC_THREADS")
    os.environ["SDC_THREADS"] = str(threads)
    try:
        yield
    finally:
        if old is None:
            del os.environ["SDC_THREADS"]
        else:
            os.environ["SDC_THREADS"] = old


def _session(kind, message, seed, shots, threads):
    return protocol.simulate(kind, SESSION_N, shots, seed, message=message, threads=threads)


def _sweep(argv: list[str], path: str) -> bytes:
    # SDC_THREADS=nproc as a user would set it; sweep rows of one chunk cannot use it.
    with _sdc_threads(NPROC), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", path])
    if code != 0:
        raise RuntimeError(f"zenodense {' '.join(argv)} exited with {code}")
    with open(path, "rb") as fh:
        return fh.read()


def _protocol_shots(kind, n, seed, shots) -> tuple[int, int, int]:
    """(correct, survived, wrongly decoded) over shots [0, shots) of one stream."""
    correct = survived = wrong = 0
    for shot in range(shots):
        run = protocol.run_protocol("uniform", kind, n, master_seed=seed, shot_index=shot)
        if not run.photon_lost:
            survived += 1
            if run.decoded == run.message_sent:
                correct += 1
            else:
                wrong += 1
    return correct, survived, wrong


def _selftest() -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_selftest()


ORACLES = ("zeno.dqz_element_sim", "analyzers.ifm_stage1_evolve", "zeno.qz_gate",
           "ifm.ifm_joint_amplitudes", "ifm.blocked_survival_sim")


def _oracle_steps(sizes: Sizes, inputs: Inputs) -> list:
    n = sizes.oracle_n
    absorber = AbsorberState.superposition(*inputs.absorber)
    axis_photon = PureState(("H", "V"), [1.0, 0.0] if inputs.qz_axis == "H" else [0.0, 1.0])
    return [
        lambda: zeno.dqz_element_sim(inputs.dqz_bell.ket(), n),
        lambda: analyzers.ifm_stage1_evolve(inputs.ifm_bell, n),
        lambda: zeno.qz_gate(inputs.qz_axis, n, absorber, axis_photon),
        lambda: ifm.ifm_joint_amplitudes(n, absorber),
        lambda: ifm.blocked_survival_sim(n),
    ]


def plan(sizes: Sizes, inputs: Inputs, workdir: str) -> list:
    """(stage, calibration kernel, steps) in the order a pass runs them.

    Steps call the program through module attributes at call time, so the
    traced run sees them. The kernel is the one in calibrate.py whose
    speed the stage's time follows.
    """
    sweep_argv = ["sweep", "--analyzer=all", "--n-min=2", f"--n-max={sizes.sweep_n_max}",
                  f"--shots={sizes.sweep_shots}", f"--seed={inputs.sweep_seed}"]
    curve_argv = ["sweep", "--analyzer=all", "--n-min=1", f"--n-max={sizes.curve_n_max}"]
    sweep_path = os.path.join(workdir, "sweep.csv")
    curve_path = os.path.join(workdir, "curve.csv")

    def sessions(threads):
        return [functools.partial(_session, kind, message, seed, sizes.session_shots, threads)
                for kind, message, seed in inputs.sessions]

    n = sizes.oracle_n
    return [
        ("mc", "numpy", sessions(1)),
        ("mc.threaded", "numpy.threaded", sessions(NPROC)),
        ("sweep", "mixed", [lambda: _sweep(sweep_argv, sweep_path)]),
        ("curve", "python", [lambda: _sweep(curve_argv, curve_path)]),
        ("protocol", "python", [functools.partial(_protocol_shots, kind, n_cycles, seed,
                                                  sizes.protocol_shots)
                                for kind, n_cycles, seed in inputs.protocol_runs]),
        ("oracle", "python", _oracle_steps(sizes, inputs)),
        ("dqz_apply", "python", [lambda: [zeno.dqz_apply(bell, n) for bell in ALL_BELL_STATES]]),
        ("selftest", "mixed", [_selftest] * sizes.selftest_calls),
    ]


@dataclass
class Stage:
    start: float          # perf_counter clock
    end: float
    raw_s: list           # wall-clock seconds of each step
    scaled_s: list        # the same steps in reference-speed units

    def seconds(self, scaled: bool = True) -> float:
        return sum(self.scaled_s if scaled else self.raw_s)


@dataclass
class PassResult:
    stages: dict          # stage name -> Stage
    outputs: dict         # stage name -> what the program returned

    def wall_s(self, scaled: bool = True) -> float:
        return sum(stage.seconds(scaled) for stage in self.stages.values())


def run_stage(kernel: str, steps: list) -> tuple[Stage, list]:
    """Run steps back to back, timing the calibration kernel between them;
    each step is scaled by the mean of the kernel timings on either side."""
    outputs, raw, scaled = [], [], []
    start = time.perf_counter()
    before = calibrate.measure(kernel)
    for step in steps:
        step_start = time.perf_counter()
        outputs.append(step())
        seconds = time.perf_counter() - step_start
        after = calibrate.measure(kernel)
        raw.append(seconds)
        scaled.append(seconds * calibrate.factor(before, after, kernel))
        before = after
    return Stage(start, time.perf_counter(), raw, scaled), outputs


def run_pass(sizes: Sizes, inputs: Inputs, workdir: str) -> PassResult:
    stages, outputs = {}, {}
    for name, kernel, steps in plan(sizes, inputs, workdir):
        stages[name], outputs[name] = run_stage(kernel, steps)
    for name in ("sweep", "curve"):
        (outputs[name],) = outputs[name]
    outputs["oracle"] = dict(zip(ORACLES, outputs["oracle"]))
    (outputs["dqz_apply"],) = outputs["dqz_apply"]
    return PassResult(stages, outputs)


def end_to_end(sizes: Sizes, passes: list, scaled: bool = True) -> dict[str, float]:
    """End-to-end figures over the measured passes (setup_s and peak_rss_mb
    come from elsewhere), in reference-speed units, or as raw wall-clock
    figures with scaled=False.

    A stage's time is that of a typical pass: the sum over its steps of
    each step's median over the passes. A stall then spoils one sample of
    one step rather than a whole pass's figure.
    """

    def times(stage):
        return [r.stages[stage].scaled_s if scaled else r.stages[stage].raw_s for r in passes]

    def typical(stage):
        return sum(statistics.median(step) for step in zip(*times(stage)))

    session_shots = len(passes[0].outputs["mc"]) * sizes.session_shots
    return {
        "wall_s": sum(typical(stage) for stage in passes[0].stages),
        "mc_shots_per_s": session_shots / typical("mc"),
        "mc_shots_per_s.threaded": session_shots / typical("mc.threaded"),
        "sweep_rows_per_s": sizes.sweep_rows / typical("sweep"),
        "curve_rows_per_s": sizes.curve_rows / typical("curve"),
        "protocol_shots_per_s": 3 * sizes.protocol_shots / typical("protocol"),
        "oracle_cycles_per_s": len(ORACLES) * sizes.oracle_n / typical("oracle"),
        "selftest_s": statistics.median(t for calls in times("selftest") for t in calls),
    }


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Counts output checks and the failures attributed to each layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = {layer: 0 for layer in LAYERS}
        self.notes: list[str] = []

    def expect(self, layer: str, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed[layer] += 1
            if len(self.notes) < 20:
                self.notes.append(f"{layer}: {what}")

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def _kl(q: float, p: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(q) from Bernoulli(p)."""

    def term(a, b):
        if a == 0.0:
            return 0.0
        return math.inf if b == 0.0 else a * math.log(a / b)

    return term(q, p) + term(1.0 - q, 1.0 - p)


def binomial_consistent(successes: int, trials: int, p: float, checks_in_run: int) -> bool:
    """Is `successes` of `trials` consistent with rate p?

    Chernoff: P(trials * KL(q || p) > t) <= 2 exp(-t) for the observed rate
    q, so with t = ln(2 m / FALSE_ALARM) the m checks of a run raise a false
    alarm with probability at most FALSE_ALARM, at any p, including the
    edges where the normal approximation fails.
    """
    threshold = math.log(2.0 * checks_in_run / FALSE_ALARM)
    return trials * _kl(successes / trials, p) <= threshold


def closed_survival(n: int) -> float:
    """cos^{2N}(pi/2N), computed here rather than taken from the program."""
    return math.cos(math.pi / (2.0 * n)) ** (2 * n)


def check_first_pass(sizes: Sizes, inputs: Inputs, result: PassResult, checks: Checks) -> None:
    """Full check of a pass's outputs against the closed forms and each other."""
    out = result.outputs
    m = len(inputs.sessions) + sizes.sweep_rows  # binomial checks in this pass
    for (kind, message, _), serial, threaded in zip(inputs.sessions, out["mc"], out["mc.threaded"]):
        label = f"{kind.value} N={SESSION_N} message={message}"
        checks.expect("protocol", serial == threaded, f"{label}: serial {serial} != threaded {threaded}")
        checks.expect("protocol", serial.decode_error_count == 0,
                      f"{label}: {serial.decode_error_count} decode errors")
        p = metrics.r_analytic(kind, SESSION_N) / 2.0
        checks.expect("protocol", binomial_consistent(serial.correct, serial.shots, p, m),
                      f"{label}: r_hat {serial.r_hat} vs analytic {2 * p}")
    _check_csv(out["sweep"], sizes.sweep_n_max, 2, sizes.sweep_shots, m, checks)
    _check_csv(out["curve"], sizes.curve_n_max, 1, None, m, checks)

    for (kind, n, seed), (correct, survived, wrong) in zip(inputs.protocol_runs, out["protocol"]):
        estimate = protocol.simulate(kind, n, sizes.protocol_shots, seed, threads=1)
        sim_survived = sizes.protocol_shots - round(estimate.lost_fraction * sizes.protocol_shots)
        checks.expect("protocol", (correct, survived) == (estimate.correct, sim_survived),
                      f"{kind.value} N={n}: run_protocol (correct, survived) {(correct, survived)} "
                      f"!= simulate {(estimate.correct, sim_survived)}")
        checks.expect("protocol", wrong == 0, f"{kind.value} N={n}: {wrong} shots decoded wrongly")

    _check_oracles(sizes, inputs, out["oracle"], out["dqz_apply"], checks)
    for code in out["selftest"]:
        checks.expect("cli", code == 0, f"run_selftest returned {code}")


def _check_csv(data: bytes, n_max: int, n_min: int, shots: int | None, m: int,
               checks: Checks) -> None:
    """Row by row, without holding the parsed table: peak_rss_mb is the
    program's memory, and the benchmark's own copy would blur it."""
    text = data.decode()
    header, _, body = text.partition("\n")
    checks.expect("cli", header == CSV_HEADER and text.endswith("\n"),
                  f"CSV header {header!r} or missing final newline")
    expected = itertools.product(ANALYZERS, range(n_min, n_max + 1))
    rows = 0
    for line, (kind, n) in zip(io.StringIO(body), expected):
        rows += 1
        row = line.rstrip("\n").split(",")
        if row[:2] != [str(n), kind.value]:
            checks.expect("cli", False, f"CSV row {rows} is {row[:2]}, expected N={n} {kind.value}")
            return
        r_analytic = metrics.r_analytic(kind, n)
        checks.expect("cli", abs(float(row[2]) - r_analytic) <= 1e-8 * r_analytic,
                      f"{kind.value} N={n}: R_analytic {row[2]} != {r_analytic!r}")
        if shots is None:
            checks.expect("cli", row[3:] == ["", "", "", ""], f"{kind.value} N={n}: MC columns set")
            continue
        r_mc, low, high = float(row[3]), float(row[5]), float(row[6])
        checks.expect("cli", row[4] == str(shots) and low <= r_mc <= high,
                      f"{kind.value} N={n}: shots {row[4]} or CI ({low}, {high}) around {r_mc}")
        correct = round(r_mc * shots / 2.0)
        checks.expect("protocol", binomial_consistent(correct, shots, r_analytic / 2.0, m),
                      f"{kind.value} N={n}: R_mc {r_mc} vs analytic {r_analytic}")
    checks.expect("cli", rows == len(ANALYZERS) * (n_max - n_min + 1) == body.count("\n"),
                  f"CSV has {body.count(chr(10))} rows, expected {len(ANALYZERS) * (n_max - n_min + 1)}")


def _check_oracles(sizes: Sizes, inputs: Inputs, out: dict, dqz_apply: list,
                   checks: Checks) -> None:
    n, tol = sizes.oracle_n, 1e-10
    blocked = closed_survival(n)
    block_weight = abs(inputs.absorber[1]) ** 2

    state, lost = out["zeno.dqz_element_sim"]
    survival = state.norm_squared()
    checks.expect("zeno", abs(survival - 0.5 * (1.0 + blocked)) <= tol
                  and abs(survival + lost - 1.0) <= tol,
                  f"dqz_element_sim N={n}: survival {survival!r}, lost {lost!r}")

    _, norm = out["analyzers.ifm_stage1_evolve"]
    expected = analyzers.ifm_family_survival(inputs.ifm_bell, n)
    checks.expect("analyzers", abs(norm - expected) <= tol and abs(norm - blocked) <= tol,
                  f"ifm_stage1_evolve N={n}: norm {norm!r} vs {expected!r}")

    discarded = out["zeno.qz_gate"].probability(("block", zeno.DISCARDED))
    checks.expect("zeno", abs(discarded - block_weight * (1.0 - blocked)) <= tol,
                  f"qz_gate N={n}: discarded {discarded!r}")

    _, lost = out["ifm.ifm_joint_amplitudes"]
    checks.expect("ifm", abs(lost - block_weight * (1.0 - blocked)) <= tol,
                  f"ifm_joint_amplitudes N={n}: lost {lost!r}")

    simulated = out["ifm.blocked_survival_sim"]
    checks.expect("ifm", abs(simulated - ifm.blocked_survival(n)) <= tol
                  and abs(simulated - blocked) <= tol,
                  f"blocked_survival_sim N={n}: {simulated!r} vs {ifm.blocked_survival(n)!r}")

    for bell, outcome in zip(ALL_BELL_STATES, dqz_apply):
        fidelity = outcome.surviving.fidelity_with(zeno.post_gate_target(bell))
        checks.expect("zeno", abs(fidelity - 1.0) <= tol,
                      f"dqz_apply {bell.symbol} N={n}: target fidelity {fidelity!r}")


def _comparable(result: PassResult) -> dict:
    """The outputs that must repeat exactly from one pass to the next."""
    out = result.outputs
    oracle = out["oracle"]
    return {
        "mc": out["mc"], "mc.threaded": out["mc.threaded"],
        "sweep": out["sweep"], "curve": out["curve"], "protocol": out["protocol"],
        "oracle": (
            tuple(oracle["zeno.dqz_element_sim"][0].amplitudes), oracle["zeno.dqz_element_sim"][1],
            tuple(oracle["analyzers.ifm_stage1_evolve"][0].amplitudes),
            oracle["zeno.qz_gate"].outcomes,
            tuple(oracle["ifm.ifm_joint_amplitudes"][0]), oracle["ifm.ifm_joint_amplitudes"][1],
            oracle["ifm.blocked_survival_sim"],
        ),
        "dqz_apply": tuple(o.surviving.matrix.tobytes() for o in out["dqz_apply"]),
        "selftest": out["selftest"],
    }


STAGE_LAYER = {"mc": "protocol", "mc.threaded": "protocol", "sweep": "cli", "curve": "cli",
               "protocol": "protocol", "oracle": "zeno", "dqz_apply": "zeno", "selftest": "cli"}


def check_repeat(first: PassResult, result: PassResult, checks: Checks) -> None:
    """Later passes run the same inputs, so every output must equal the first
    pass's (whose serial and threaded sessions were checked equal)."""
    reference, got = _comparable(first), _comparable(result)
    for stage, layer in STAGE_LAYER.items():
        checks.expect(layer, got[stage] == reference[stage], f"{stage}: output differs from pass 0")


# ---------------------------------------------------------------------------
# bit-identity fingerprint

FINGERPRINT_GRID = tuple((kind, n, shots) for kind in ANALYZERS for n in (1, 2, 12, 97)
                         for shots in (1, 4_097, 131_073))

# sha256 of the grid at threads=1 and the sweep CSV, for DEFAULT_SEED,
# recorded from the code the benchmark was written against.
GOLDEN = {
    "mc-session": "c3d4e540e5741c4200367925eb7367f3cfabf376187a3724c5c6621d16e03f0b",
    "sweep-grid": "b4ececd1399a06f5cbe7a0254649321375461639396629813e9e59aa195b64b5",
    "reference-paths": "c3d4e540e5741c4200367925eb7367f3cfabf376187a3724c5c6621d16e03f0b",
}


def grid_fingerprint(seed: int, threads: int) -> str:
    """sha256 of (correct, survived, decode errors, r_hat) over FINGERPRINT_GRID."""
    digest = hashlib.sha256()
    for tag, (kind, n, shots) in enumerate(FINGERPRINT_GRID):
        estimate = protocol.simulate(kind, n, shots, seed, stream_tag=tag, threads=threads)
        survived = shots - round(estimate.lost_fraction * shots)
        digest.update(f"{kind.value},{n},{shots},{estimate.correct},{survived},"
                      f"{estimate.decode_error_count},{estimate.r_hat!r}\n".encode())
    return digest.hexdigest()


def run_fingerprint(grid: str, sweep_csv: bytes) -> str:
    return hashlib.sha256(grid.encode() + hashlib.sha256(sweep_csv).digest()).hexdigest()


def check_fingerprint(workload: str, seed: int, inputs: Inputs, first: PassResult,
                      checks: Checks) -> str:
    serial = grid_fingerprint(inputs.fingerprint_seed, 1)
    threaded = grid_fingerprint(inputs.fingerprint_seed, NPROC)
    checks.expect("protocol", serial == threaded,
                  f"fingerprint differs between 1 and {NPROC} threads")
    fingerprint = run_fingerprint(serial, first.outputs["sweep"])
    if seed == DEFAULT_SEED:
        checks.expect("core", fingerprint == GOLDEN[workload],
                      f"fingerprint {fingerprint} != golden {GOLDEN[workload]}")
    return fingerprint
