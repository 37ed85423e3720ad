"""The channel build the self-test's checks share: read-only, equal to each check's own
products, and, unfaulted, the states and weights dqz_apply returns."""

import numpy as np
import pytest

from zenodense import invariants
from zenodense.analyzers import ALL_BELL_STATES, AnalyzerKind, survival_probability
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
