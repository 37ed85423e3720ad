"""The channel build the self-test's checks share: read-only, and equal to each check's own products."""

import numpy as np
import pytest

from zenodense import invariants
from zenodense.analyzers import ALL_BELL_STATES
from zenodense.zeno import post_gate_target


@pytest.fixture(params=[None, "k-sign"])
def build(request):
    return invariants.cycle_channels(inject_fault=request.param)


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


def test_stacked_states_equal_one_product_each(build):
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
