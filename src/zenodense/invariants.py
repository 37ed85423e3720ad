"""The invariant suite: each claim `zenodense selftest` checks, defined once.

A check returns None when its invariant holds, else a one-line detail of
the failure. Its grid defaults to the self-test's; the acceptance suite
runs the same checks on wider grids. `checks` lists them in order.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterable

import numpy as np

from . import metrics, protocol, zeno
from .analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    DetectorPair,
    click_pair,
    survival_probability,
)
from .core import ACCUMULATION_TOL, ALGEBRA_TOL, unitarity_defect
from .optics import beam_splitter, pbs_route, polarization_rotator

MC_SIGMAS = 4  # a Monte-Carlo R passes within this many standard errors of the closed form
_VARIANCE_FLOOR = 1e-12  # keeps the standard error positive where R(2 - R) is 0

# Each dual-Zeno click pair, m = 0 (D3, D4) then m = 1 (D5, D6), and its (Bell state, message).
GOLDEN_DECODE = {
    ("D1", "D3"): ("Phi-", "10"), ("D2", "D3"): ("Phi+", "00"),
    ("D1", "D4"): ("Psi-", "11"), ("D2", "D4"): ("Psi+", "01"),
    ("D2", "D6"): ("Phi-", "10"), ("D1", "D6"): ("Phi+", "00"),
    ("D2", "D5"): ("Psi-", "11"), ("D1", "D5"): ("Psi+", "01"),
}

# The least N reaching R = 1.8 bits/qubit, and its (beam splitters, ancilla).
GOLDEN_THRESHOLDS = {AnalyzerKind.QZ: (71, 71, True), AnalyzerKind.IFM: (24, 96, False),
                     AnalyzerKind.DQZ: (12, 24, False)}


def cycle_channels(cycles: Iterable[int] = (1, 2, 3, 7, 12, 24, 64),
                   inject_fault: str | None = None) -> tuple[dict, tuple]:
    """Each dual-Zeno cycle operator K, as a dict keyed (branch, N), and for each Bell
    input (Bell state, Ns, states): zeno.conditional_states, the product dqz_apply runs,
    under each N-cycle power of its branch's K, stacked in the order of Ns. Every returned
    array is read-only, so the checks that share one build cannot change what the next reads.
    inject_fault="k-sign" first flips one sign of every K, which each channel check must catch."""
    operators = {(branch, n): np.array(zeno.dqz_cycle_channel(branch, n).operator)
                 for branch in (0, 1) for n in cycles}
    if inject_fault == "k-sign":
        for k in operators.values():
            k[2, 3] *= -1.0  # corrupt the rotation sign pattern
    for k in operators.values():
        k.setflags(write=False)
    ns = tuple(n for branch, n in operators if branch == 0)
    powers = {branch: np.stack([np.linalg.matrix_power(operators[branch, n], n) for n in ns])
              for branch in (0, 1)}
    conditionals = []
    for bell in ALL_BELL_STATES:
        states = zeno.conditional_states(bell, powers[bell.branch_index])
        states.setflags(write=False)
        conditionals.append((bell, ns, states))
    return operators, tuple(conditionals)


def check_operator_orthogonality(operators) -> str | None:
    thetas = np.linspace(0.05, np.pi / 2, 24)
    optical = [op.matrix for theta in thetas for op in (
        beam_splitter(theta), polarization_rotator("H", theta), polarization_rotator("V", theta))]
    for index, defect in enumerate(unitarity_defect(np.stack(optical))):
        if defect >= ALGEBRA_TOL:
            return f"optical operator defect {defect:.3e} at theta={thetas[index // 3]:.4f}"
    for axis in ("H", "V"):
        op = pbs_route(axis)
        if np.max(np.abs(op.matrix @ op.matrix - np.eye(4))) >= ALGEBRA_TOL:
            return f"PBS {axis} is not an involution"
    for (branch, n), defect in zip(operators, unitarity_defect(np.stack(list(operators.values())))):
        if defect >= ALGEBRA_TOL:
            return f"cycle operator branch={branch} N={n}: defect {defect:.3e}"
    return None


def _traces(states) -> list[float]:
    """The trace of each state in a stack, as Python floats."""
    return np.trace(states, axis1=1, axis2=2).real.tolist()


def check_channel_trace(conditionals) -> str | None:
    for bell, ns, states in conditionals:
        for n, trace in zip(ns, _traces(states)):
            p = survival_probability(AnalyzerKind.DQZ, bell, n)
            total = p * trace + (1.0 - p)
            if abs(total - 1.0) > ACCUMULATION_TOL:
                return f"{bell.symbol} N={n}: total weight {total!r}"
    return None


def check_bell_targets(conditionals) -> str | None:
    for bell, ns, states in conditionals:
        target = zeno.post_gate_target(bell).amplitudes
        overlaps = np.real(target.conj() @ states @ target).tolist()
        for n, trace, overlap in zip(ns, _traces(states), overlaps):
            if trace <= 0:
                return f"{bell.symbol} N={n}: non-positive conditional trace"
            fidelity = overlap / trace
            if abs(fidelity - 1.0) > ACCUMULATION_TOL:
                return f"{bell.symbol} N={n}: target fidelity {fidelity!r}"
    return None


def check_analytic_vs_mc(rows: Iterable[tuple[AnalyzerKind, int]] = tuple(
        (kind, 12) for kind in AnalyzerKind), shots: int = 100_000, seed: int = 42) -> str | None:
    # Every row reads stream tag 0 of `seed`: the runner draws its words once.
    tagged = ((kind, n, 0) for kind, n in rows)
    with contextlib.closing(protocol.run_rows(tagged, shots, seed)) as estimates:
        for estimate in estimates:
            kind, n = estimate.analyzer, estimate.n_cycles
            expected = metrics.r_analytic(kind, n)
            sigma = np.sqrt(max(expected * (2.0 - expected), _VARIANCE_FLOOR) / shots)
            if abs(estimate.r_hat - expected) > MC_SIGMAS * sigma:
                return (f"{kind.value} N={n}: r_hat {estimate.r_hat:.6f} vs analytic "
                        f"{expected:.6f} exceeds {MC_SIGMAS} sigma")
    return None


def check_golden_decode() -> str | None:
    for (e_det, p_det), (symbol, message) in GOLDEN_DECODE.items():
        bell, decoded = protocol.decode(DetectorPair(e_det, p_det))
        if bell.symbol != symbol or decoded != message:
            return f"{e_det}*{p_det} decoded to ({bell.symbol}, {decoded}), expected ({symbol}, {message})"
    return None


def check_golden_thresholds() -> str | None:
    for kind, (min_n, splitters, ancilla) in GOLDEN_THRESHOLDS.items():
        got_n = metrics.min_n_for_target(kind, 1.8)
        got_res = metrics.resource_counts(kind, got_n)
        if got_n != min_n or got_res != (splitters, ancilla):
            return f"{kind.value}: got N={got_n}, resources={got_res}"
    dqz, benchmark = AnalyzerKind.DQZ, metrics.EXPERIMENTAL_BENCHMARK_R
    if (metrics.min_n_for_target(dqz, benchmark) != 7
            or not metrics.r_analytic(dqz, 6) < benchmark <= metrics.r_analytic(dqz, 7)):
        return "dqz does not cross the experimental benchmark at N=7"
    return None


def check_decode_roundtrip() -> str | None:
    for kind in AnalyzerKind:
        for message in protocol.MESSAGES:
            bell = protocol.encode(message)
            for m in (0, 1):
                pair = click_pair(kind, bell, m)
                decoded_bell, decoded = protocol.decode(pair, kind)
                if decoded != message or decoded_bell is not bell:
                    return f"{kind.value} m={m}: {message} -> {pair} -> {decoded}"
    return None


def checks(inject_fault: str | None = None) -> list[tuple[str, Callable[[], str | None]]]:
    """The self-test's (name, check) pairs in order, on one build of the channels."""
    operators, conditionals = cycle_channels(inject_fault=inject_fault)
    return [
        ("operator-orthogonality", lambda: check_operator_orthogonality(operators)),
        ("channel-trace-preservation", lambda: check_channel_trace(conditionals)),
        ("bell-target-fidelity", lambda: check_bell_targets(conditionals)),
        ("analytic-vs-mc", check_analytic_vs_mc),
        ("golden-decode-table", check_golden_decode),
        ("golden-thresholds", check_golden_thresholds),
        ("decode-roundtrip", check_decode_roundtrip),
    ]
