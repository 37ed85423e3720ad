"""The channel build the self-test's checks share: read-only, equal to each check's own
products, and, unfaulted, the states and weights dqz_apply returns. And the golden decode
check: a wrong click-pair rule for any analyzer fails it, in tier-1 and in the self-test."""

import dataclasses

import numpy as np
import pytest

from zenodense import analyzers, invariants, protocol
from zenodense.analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    BellState,
    DetectorPair,
    survival_probability,
)
from zenodense.cli import main
from zenodense.zeno import dqz_apply, post_gate_target


@pytest.fixture(params=[None, "k-sign"])
def fault(request):
    return request.param


@pytest.fixture
def build(fault):
    return invariants.cycle_channels(inject_fault=fault)


def test_every_shared_array_is_read_only(build):
    operators, conditionals = build
    arrays = list(operators.values()) + [states for _, _, states in conditionals]
    arrays += [state for _, _, states in conditionals for state in states]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.5


def test_checks_leave_the_shared_states_as_they_were(build):
    operators, conditionals = build
    before = [states.copy() for _, _, states in conditionals]
    invariants.check_operator_orthogonality(operators)
    invariants.check_channel_trace(conditionals)
    invariants.check_bell_targets(conditionals)
    for (_, _, states), copy in zip(conditionals, before):
        assert np.array_equal(states, copy)


def test_stacked_states_equal_one_product_each(fault, build):
    # The checks' pinned failure lines print values read off these stacks to the last digit.
    operators, conditionals = build
    assert [bell for bell, _, _ in conditionals] == list(ALL_BELL_STATES)
    for bell, ns, states in conditionals:
        amps = bell.ket().amplitudes
        rho = np.outer(amps, amps.conj())
        target = post_gate_target(bell).amplitudes
        overlaps = np.real(target.conj() @ states @ target).tolist()
        for n, state, trace, overlap in zip(ns, states, invariants._traces(states), overlaps,
                                            strict=True):
            kn = np.linalg.matrix_power(operators[bell.branch_index, n], n)
            alone = kn @ rho @ kn.T
            assert np.array_equal(state, alone)
            assert trace == float(np.trace(alone).real)
            assert overlap == float(np.real(target.conj() @ alone @ target))
            if fault is None:  # the self-test checks the state the program runs
                assert np.array_equal(state, dqz_apply(bell, n).surviving.matrix)


def test_dqz_apply_carries_the_table_survival():
    ns = sorted(set(np.geomspace(1, 10**6, 400).astype(int).tolist()) | set(range(1, 201)))
    for bell in ALL_BELL_STATES:
        for n in ns:
            assert dqz_apply(bell, n).surviving_weight == survival_probability(
                AnalyzerKind.DQZ, bell, n)


# Mutant pair rules. Each installs, for one analyzer, a rule `pair(bell, m)` and the
# decode table built from it, so that click_pair and decode agree and the round trip
# still holds: only the recorded GOLDEN_DECODE rows can tell the rule is wrong.


def install_pair_rule(monkeypatch, kind, pair):
    spec = dataclasses.replace(analyzers.ANALYZERS[kind], pair=pair)
    monkeypatch.setitem(analyzers.ANALYZERS, kind, spec)
    monkeypatch.setitem(protocol._DECODE_TABLES, kind, protocol._decode_table(kind))


def electron_swap(kind, family):
    def mutate(monkeypatch):
        real = analyzers.ANALYZERS[kind].pair

        def pair(bell, m):
            clicks = real(bell, m)
            if bell.family != family:
                return clicks
            return DetectorPair({"D1": "D2", "D2": "D1"}[clicks.electron], clicks.photon)

        install_pair_rule(monkeypatch, kind, pair)
    return mutate


def ifm_mutant(attribute, value):
    """The IFM rule, measured afresh (past its cache) with one module attribute replaced."""
    def mutate(monkeypatch):
        monkeypatch.setattr(analyzers, attribute, value)
        install_pair_rule(monkeypatch, AnalyzerKind.IFM,
                          lambda bell, m: analyzers._ifm_pair_from_chain.__wrapped__(bell))
    return mutate


_OPPOSITE_SIGN = {BellState.PHI_PLUS: BellState.PHI_MINUS, BellState.PHI_MINUS: BellState.PHI_PLUS,
                  BellState.PSI_PLUS: BellState.PSI_MINUS, BellState.PSI_MINUS: BellState.PSI_PLUS}
_real_ifm_input = analyzers.ifm_bell_input

PAIR_MUTANTS = {
    **{f"{kind.value}-{family}-electron-swap": (kind, electron_swap(kind, family))
       for kind in AnalyzerKind for family in ("phi", "psi")},
    "ifm-d3-d4-mode-swap": (AnalyzerKind.IFM, ifm_mutant("_IFM_PHOTON_DETECTORS", ("D4", "D3"))),
    "ifm-input-sign-flip": (AnalyzerKind.IFM, ifm_mutant(
        "ifm_bell_input", lambda bell: _real_ifm_input(_OPPOSITE_SIGN[bell]))),
}


@pytest.mark.parametrize("name", PAIR_MUTANTS)
def test_a_wrong_pair_rule_fails_only_the_golden_decode_check(monkeypatch, name):
    kind, mutate = PAIR_MUTANTS[name]
    assert invariants.check_golden_decode() is None
    mutate(monkeypatch)
    assert invariants.check_golden_decode().startswith(f"{kind.value}: ")
    assert invariants.check_decode_roundtrip() is None


@pytest.mark.parametrize("name", PAIR_MUTANTS)
def test_the_selftest_names_a_wrong_pair_rule(capsys, monkeypatch, name):
    kind, mutate = PAIR_MUTANTS[name]
    mutate(monkeypatch)
    assert main(["selftest"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith(f"FAIL golden-decode-table: {kind.value}: ")


def test_the_pair_rules_are_measured_not_tabled():
    # Each IFM pair comes from its own first-stage measurement; QZ reads dqz's m = 0 pairs.
    for bell in ALL_BELL_STATES:
        for m in (0, 1):
            assert analyzers.click_pair(AnalyzerKind.IFM, bell, m) == (
                analyzers._ifm_pair_from_chain.__wrapped__(bell))
            assert analyzers.click_pair(AnalyzerKind.QZ, bell, m) == (
                analyzers.click_pair(AnalyzerKind.DQZ, bell, 0))
